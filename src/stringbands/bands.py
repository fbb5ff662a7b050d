"""Cyclic words over the quiver: quasi-bands, bands, their classes, and the
occurrence counts (parti, sub, fac) that drive every hom formula.

The sub and fac counts are band tallies: folds over `words.flanked` read
cyclically, the same occurrence definition that strings use, one scan per
letter tuple, side and power-of-two cap (`_scan_cap`), kept on the algebra.

A quasi-band is stored as the plain tuple of the letters of one period,
and every reader slices that tuple; a read that wraps slices a repeated
copy of it, as `is_quasi_band` does for the window test of
`AlgebraSpec.string_windows`.  Each letter is traversed after the one to its
right, matching the composition order of finite words.
"""

from __future__ import annotations

from .errors import NotBand, NotQuasiBand, TrivialWord
from .words import (
    Letter,
    Word,
    _Frozen,
    _check_arrows,
    _windows_hold,
    format_word,
    inverse,
    inverse_letters,
    keep,
    letter_source,
    string_frontiers,
    tally,
    tally_count,
)


class QuasiBand(_Frozen):
    __slots__ = _fields = ("letters",)

    def __init__(self, letters: tuple[Letter, ...]):
        object.__setattr__(self, "letters", letters)

    def __hash__(self) -> int:
        # not cached: the witness searches build many more rotations than
        # are ever hashed
        return hash((self.letters,))

    @property
    def period(self) -> int:
        return len(self.letters)

    def as_word(self) -> Word:
        return Word(None, self.letters)

    def __repr__(self) -> str:
        return f"QuasiBand({format_word(self.as_word())!r})"


class BandClass(_Frozen):
    """A band up to rotation and inverse-reversal, held in canonical form.
    A plain value: what is known about it for an algebra is kept on the
    algebra (`AlgebraSpec.kept`), keyed by the class."""

    __slots__ = ("canonical", "_hash")
    _fields = ("canonical",)

    def __init__(self, canonical: QuasiBand):
        object.__setattr__(self, "canonical", canonical)
        object.__setattr__(self, "_hash", hash((canonical,)))

    @property
    def period(self) -> int:
        return self.canonical.period

    @property
    def letters(self) -> tuple[Letter, ...]:
        return self.canonical.letters

    def __repr__(self) -> str:
        return f"BandClass({format_word(self.canonical.as_word())!r})"


def _fmt(letters: tuple[Letter, ...]) -> str:
    if not letters:
        return "(empty)"
    return format_word(Word(None, letters))


def _as_letters(x) -> tuple[Letter, ...]:
    if isinstance(x, QuasiBand):
        return x.letters
    if isinstance(x, BandClass):
        return x.canonical.letters
    if isinstance(x, Word):
        if x.is_trivial:
            raise NotQuasiBand("a trivial word has no cyclic reading")
        return x.letters
    return tuple(x)


def is_quasi_band(spec, letters) -> bool:
    """Every rotation and power of the cyclic word is a string: it has mixed
    directions and ``ls + ls[:R-1]``, its period read on for R-1 more
    letters, passes the window test of `AlgebraSpec.string_windows`.
    Unknown arrows raise ParseError."""
    ls = _as_letters(letters)
    if not ls:
        raise NotQuasiBand("empty cyclic word")
    _check_arrows(spec, ls)
    R = spec.string_windows.length
    mixed = any(l.inverted != ls[0].inverted for l in ls)
    return mixed and _windows_hold(spec, ls + ls[: R - 1])


def _is_primitive(ls: tuple[Letter, ...]) -> bool:
    m = len(ls)
    for p in range(1, m):
        if m % p == 0 and all(ls[i] == ls[i % p] for i in range(m)):
            return False
    return True


def is_band(spec, letters) -> bool:
    """True iff the quasi-band is not a proper power of a shorter period."""
    ls = _as_letters(letters)
    if not is_quasi_band(spec, ls):
        raise NotQuasiBand(_fmt(ls))
    return _is_primitive(ls)


def _rotations(ls: tuple[Letter, ...]) -> list[tuple[Letter, ...]]:
    """The m rotations of the word, then the m of its inverse-reversal."""
    return [base[k:] + base[:k] for base in (ls, inverse_letters(ls)) for k in range(len(ls))]


def canonical_class(spec, letters) -> BandClass:
    """Lexicographically least among the 2m rotations of the word and of
    its inverse-reversal, under the declaration-order letter key; ties go
    to the first in `_rotations` order.  Each class built for this spec
    object is kept under itself in spec.kept and answers any equal class;
    any other input is checked by `is_band` and canonicalised."""
    if isinstance(letters, BandClass) and (cls := spec.kept.get(letters)) is not None:
        return cls
    ls = _as_letters(letters)
    if not is_band(spec, ls):
        raise NotBand(f"{_fmt(ls)} is a proper power")
    m = len(ls)
    rots = _rotations(ls)
    # key each letter once: rots[0] is the word and rots[m] its inverse-reversal
    keys = (tuple(map(spec.letter_key, rots[0])), tuple(map(spec.letter_key, rots[m])))
    best = min(range(2 * m), key=lambda i: keys[i // m][i % m :] + keys[i // m][: i % m])
    cls = BandClass(QuasiBand(rots[best]))
    return spec.kept.setdefault(cls, cls)


def are_equivalent(spec, b, bp) -> bool:
    return canonical_class(spec, b) == canonical_class(spec, bp)


@keep
def class_members(spec, B: BandClass) -> tuple[QuasiBand, ...]:
    """All distinct rotations of the class, canonical ones first, then the
    rotations of the inverse-reversal.  Witness searches iterate this order."""
    return tuple(QuasiBand(r) for r in dict.fromkeys(_rotations(B.canonical.letters)))


def parti_counts(spec, c: Word, qb) -> tuple[int, int]:
    """Occurrences of c and of its inverse among the m cyclic windows."""
    ls = _as_letters(qb)
    if c.is_trivial:
        raise TrivialWord("parti is defined for nonempty words only")
    m = len(ls)

    def occ(target: tuple[Letter, ...]) -> int:
        n = len(target)
        reading = ls * (n // max(m, 1) + 2)
        return sum(1 for i in range(m) if reading[i : i + n] == target)

    return occ(c.letters), occ(inverse(c).letters)


@keep
def band_sub_tally(spec, qb, max_len: int) -> dict[Word, int]:
    """sub counts of every canonical word of length <= max_len, kept per qb
    as passed; the package passes the letter tuple at a `_scan_cap`."""
    return tally(spec, _as_letters(qb), True, max_len, cyclic=True)


@keep
def band_fac_tally(spec, qb, max_len: int) -> dict[Word, int]:
    return tally(spec, _as_letters(qb), False, max_len, cyclic=True)


def _scan_cap(n: int) -> int:
    """The least power of two >= n: every band tally is read at one, so caps
    in a bucket share a scan.  Its longer middles never pair: a string tally
    has no longer key, and `hom.hom_band_band` says why two bands share none."""
    return 1 << max(n - 1, 0).bit_length()


def sub_counts(spec, c: Word, qb) -> int:
    """Cyclic positions with an inverse letter, then l(c) letters spelling c
    or its inverse, then a plain arrow."""
    return tally_count(band_sub_tally(spec, _as_letters(qb), _scan_cap(len(c))), c)


def fac_counts(spec, c: Word, qb) -> int:
    return tally_count(band_fac_tally(spec, _as_letters(qb), _scan_cap(len(c))), c)


def enumerate_bands(spec, max_len: int) -> list[BandClass]:
    """All band classes of period <= max_len, shortest first, each period
    block sorted by the canonical letter key."""
    if max_len < 0:
        raise ValueError(f"max_len must be non-negative, got {max_len}")
    out: list[BandClass] = []
    for _, frontier in zip(range(max_len), string_frontiers(spec)):
        # a frontier is in letter order and holds every rotation of a band,
        # so each class is kept once, where its canonical form comes up
        for w in frontier:
            try:
                cls = canonical_class(spec, w.letters)
            except (NotQuasiBand, NotBand):
                continue
            if cls.letters == w.letters:
                out.append(cls)
    return out


def band_dimension(qb) -> int:
    return len(_as_letters(qb))


def dimension_vector(spec, qb) -> dict[str, int]:
    """How many basis vectors sit at each vertex u: letters with source u.
    Unknown arrows raise ParseError."""
    ls = _as_letters(qb)
    _check_arrows(spec, ls)
    vec = {v: 0 for v in spec.vertices}
    for l in ls:
        vec[letter_source(spec, l)] += 1
    return vec
