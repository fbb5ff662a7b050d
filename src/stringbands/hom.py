"""Hom-space dimensions by counting occurrences, no linear algebra involved.

Each formula sums, over representatives d of the inversion classes {d, d^-1},
the product of a fac count on the source side and a sub count on the target
side.  Summing over representatives rather than over all words is what keeps
endomorphism counts honest; both tallies already absorb the two orientations
of d.  Every count is a fold over `words.flanked`, the one occurrence
definition, so the four formulas are one pairing of a fac tally with a sub
tally; a band tally is read by its letter tuple to the pairing's reach
(`bands.band_id_tally`), len(c) against a string c and m+n between bands.
The tallies paired are id tallies (`words.id_tally`), keyed by the int id of
each middle's inversion class in the algebra's one `words.MiddleTrie`.  A
string side is read from the algebra's string tally tables,
spec.fac_tallies[c] or spec.sub_tallies[c] (`words.Table`): one dict
subscript once c has been scanned.

`count_hom` is the one entry point for a pair of modules, each a string or
a band class at its parameter.  It picks the formula by the ends' types and
owns the one rule the parameters add: one band class at one given
parameter on both ends is one module, and its identity adds 1 (Krause,
"Maps between tree and band modules", J. Algebra 137, 1991).
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .bands import BandClass, band_id_tally, band_parameter, canonical_class
from .errors import DimensionMismatch, ParseError
from .words import Word, _Frozen, iter_strings


class BandSequence(_Frozen):
    """A finite list of band classes; repetition allowed and meaningful."""

    __slots__ = ("classes", "_hash")
    _fields = ("classes",)

    def __init__(self, classes: tuple[BandClass, ...]):
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "_hash", hash((classes,)))

    @property
    def total_dim(self) -> int:
        return sum(c.period for c in self.classes)

    def __len__(self) -> int:
        return len(self.classes)


def make_sequence(spec, items) -> BandSequence:
    """Canonicalize every entry; accepts words, letter tuples, or classes."""
    return BandSequence(tuple(canonical_class(spec, it) for it in items))


def _check_sequence(S) -> None:
    """Refuses with TypeError a family given as anything but a
    `BandSequence`, such as a plain list of classes."""
    if not isinstance(S, BandSequence):
        raise TypeError(f"a band family is a BandSequence (make_sequence), not {type(S).__name__}")


def _pair(facs: dict[int, int], subs: dict[int, int]) -> int:
    """Sum over d of fac(d, source) * sub(d, target), walking the smaller
    tally with one membership probe (`in`) of the other per key, so no call
    is made per key, and multiplying only the keys that hit."""
    if len(subs) < len(facs):
        facs, subs = subs, facs
    total = 0  # a loop: a generator costs more than the sum
    for d, n in facs.items():
        if d in subs:
            total += n * subs[d]
    return total


def hom_string_string(spec, c: Word, cp: Word) -> int:
    """dim Hom(M(c), M(c')): fac counts on c against sub counts on c'."""
    return _pair(spec.fac_tallies[c], spec.sub_tallies[cp])


def hom_band_string(spec, B: BandClass, c: Word) -> int:
    """dim Hom(M(b,m,lambda), M(c)); independent of the parameter."""
    facs = band_id_tally(spec, B.letters, False, len(c))
    return _pair(facs, spec.sub_tallies[c])


def hom_string_band(spec, c: Word, B: BandClass) -> int:
    """dim Hom(M(c), M(b,m,lambda))."""
    subs = band_id_tally(spec, B.letters, True, len(c))
    return _pair(spec.fac_tallies[c], subs)


def hom_band_band(spec, B: BandClass, C: BandClass) -> int:
    """dim Hom(M(b,m,lambda), M(c,n,mu)), the generic value: without the
    identity that one class adds at lambda = mu (`count_hom`).

    Both tallies are read to m+n, where every shared middle ends
    (`bands._scan_cap` says why).
    """
    reach = B.period + C.period
    facs = band_id_tally(spec, B.letters, False, reach)
    subs = band_id_tally(spec, C.letters, True, reach)
    return _pair(facs, subs)


def count_hom(spec, x, y, lam=None, mu=None) -> int:
    """dim Hom(X, Y), each end a string `Word` or a `BandClass`, by its type;
    any other end raises TypeError.  lam and mu are the parameters of a band
    at x and at y, each one given checked as the oracle's realization checks
    it (`bands.band_parameter`) and otherwise ignored at a string end.  One
    class at lam == mu, both given, is one module on both ends, and its
    identity adds 1."""
    for end in (x, y):
        if not isinstance(end, (Word, BandClass)):
            raise TypeError(f"a hom end is a string Word or a BandClass, not {type(end).__name__}")
    lam, mu = (None if p is None else band_parameter(p) for p in (lam, mu))
    if isinstance(x, BandClass):
        if isinstance(y, BandClass):
            total = hom_band_band(spec, x, y)
            return total + 1 if x == y and lam is not None and lam == mu else total
        return hom_band_string(spec, x, y)
    if isinstance(y, BandClass):
        return hom_string_band(spec, x, y)
    return hom_string_string(spec, x, y)


def seq_count_into(spec, c: Word, S: BandSequence) -> int:
    """dim Hom(M(c), X) for generic X in the family of S."""
    _check_sequence(S)
    return sum(hom_string_band(spec, c, B) for B in S.classes)


def seq_count_from(spec, S: BandSequence, c: Word) -> int:
    """dim Hom(X, M(c)) for generic X in the family of S."""
    _check_sequence(S)
    return sum(hom_band_string(spec, B, c) for B in S.classes)


def family_rank(spec, alpha: str, S: BandSequence) -> int:
    """rank of the matrix of alpha on any module in the family: total count
    of cyclic positions reading alpha or its inverse."""
    _check_sequence(S)
    if not spec.has_arrow(alpha):
        raise ParseError(f"unknown arrow {alpha!r}")
    return sum(l.arrow == alpha for B in S.classes for l in B.letters)


SeparationWitness = namedtuple("SeparationWitness", "word counts")


def find_separating_string(spec, S: BandSequence, T: BandSequence, max_len: int):
    """First string (length-lexicographic) whose counts tell S and T apart:
    a SeparationWitness of the string c and its counts
    (`seq_count_into` c to S and to T, `seq_count_from` S and T to c).

    None when the sequences agree as multisets, or when no witness shows up
    within the length bound.
    """
    _check_sequence(S)
    _check_sequence(T)
    if max_len < 0:
        raise ValueError(f"max_len must be non-negative, got {max_len}")
    if S.total_dim != T.total_dim:
        raise DimensionMismatch(
            f"total dimensions differ: {S.total_dim} vs {T.total_dim}"
        )
    if Counter(S.classes) == Counter(T.classes):
        return None
    for c in iter_strings(spec, max_len):
        into_s = seq_count_into(spec, c, S)
        into_t = seq_count_into(spec, c, T)
        from_s = seq_count_from(spec, S, c)
        from_t = seq_count_from(spec, T, c)
        if into_s != into_t or from_s != from_t:
            return SeparationWitness(c, (into_s, into_t, from_s, from_t))
    return None
