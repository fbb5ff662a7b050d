"""Exception taxonomy shared by every module in the package.

Lives in its own module so that the combinatorial layers (words, bands)
never have to import the algebra layer just to raise a common error.
"""


class ParseError(Exception):
    """Malformed textual input: algebra files, word syntax, CLI arguments."""


class DomainError(Exception):
    """Base class for every mathematically meaningful failure."""


class InvalidAlgebra(DomainError):
    """The presentation fails the string-algebra axioms every answer assumes."""


class NotAString(DomainError):
    """The word violates composability, reducedness, or avoids no relation."""


class NotQuasiBand(DomainError):
    """The cyclic word is not a quasi-band."""


class NotBand(DomainError):
    """The cyclic word is a quasi-band but is a proper power, hence not a band."""


class TrivialWord(DomainError):
    """A trivial word arrived where only a nontrivial one makes sense."""


class DimensionMismatch(DomainError):
    """Two band sequences were compared whose total dimensions differ."""


class NotQuadratic(DomainError):
    """An operation restricted to quadratic algebras met a non-quadratic one."""


class NotAComponent(DomainError):
    """The requested object does not define an irreducible component."""


class ZeroParameter(DomainError):
    """Band modules need a nonzero parameter; zero was supplied."""


class SpecMismatch(DomainError):
    """Two objects built over different algebras were combined."""


class BadDecomposition(DomainError):
    """A cyclic-word decomposition does not satisfy the required shape."""


class InvalidWitness(DomainError):
    """A degeneration witness failed revalidation against its algebra."""
