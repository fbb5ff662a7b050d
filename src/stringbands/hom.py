"""Hom-space dimensions by counting occurrences, no linear algebra involved.

Each formula sums, over representatives d of the inversion classes {d, d^-1},
the product of a fac count on the source side and a sub count on the target
side.  Summing over representatives rather than over all words is what keeps
endomorphism counts honest; both tallies already absorb the two orientations
of d.  Every count is a fold over `words.flanked`, the one occurrence
definition, so the four formulas are one pairing of a fac tally with a sub
tally; a band tally is read by its letter tuple at a `bands._scan_cap`.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .bands import (
    BandClass,
    _scan_cap,
    band_fac_tally,
    band_sub_tally,
    canonical_class,
    parti_counts,
)
from .errors import DimensionMismatch, ParseError, SameModuleMismatch
from .words import Letter, Word, _Frozen, iter_strings, string_fac_tally, string_sub_tally


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


def _pair(facs: dict[Word, int], subs: dict[Word, int]) -> int:
    """Sum over d of fac(d, source) * sub(d, target), walking the smaller
    tally with one probe of the other per term."""
    if len(subs) < len(facs):
        facs, subs = subs, facs
    return sum(n * subs.get(d, 0) for d, n in facs.items())


def hom_string_string(spec, c: Word, cp: Word) -> int:
    """dim Hom(M(c), M(c')): fac counts on c against sub counts on c'."""
    return _pair(string_fac_tally(spec, c), string_sub_tally(spec, cp))


def hom_band_string(spec, B: BandClass, c: Word) -> int:
    """dim Hom(M(b,m,lambda), M(c)); independent of the parameter."""
    return _pair(band_fac_tally(spec, B.canonical.letters, _scan_cap(len(c))), string_sub_tally(spec, c))


def hom_string_band(spec, c: Word, B: BandClass) -> int:
    """dim Hom(M(c), M(b,m,lambda))."""
    return _pair(string_fac_tally(spec, c), band_sub_tally(spec, B.canonical.letters, _scan_cap(len(c))))


def hom_band_band(spec, B: BandClass, C: BandClass, same_module: bool = False) -> int:
    """dim Hom(M(b,m,lambda), M(c,n,mu)).

    same_module adds the identity's contribution and is legal only for equal
    classes (equal parameters are implied).  Both scans reach 2(m+n), past
    every common middle.  Two distinct classes share no flanked middle of
    length >= m+n: by the Fine-Wilf lemma it would have period gcd(m, n),
    so the two primitive periods would be one class.  A class shares none
    of length >= m with itself: such a middle fixes both its neighbours, as
    no band is a proper power or a rotation of its own inverse, and no
    neighbours flank a middle for fac and for sub at once.
    """
    if same_module and B != C:
        raise SameModuleMismatch("same_module requires equal band classes")
    cap = _scan_cap(2 * (B.period + C.period))
    facs = band_fac_tally(spec, B.canonical.letters, cap)
    subs = band_sub_tally(spec, C.canonical.letters, cap)
    total = _pair(facs, subs)
    return total + 1 if same_module else total


def seq_count_into(spec, c: Word, S: BandSequence) -> int:
    """dim Hom(M(c), X) for generic X in the family of S."""
    return sum(hom_string_band(spec, c, B) for B in S.classes)


def seq_count_from(spec, S: BandSequence, c: Word) -> int:
    """dim Hom(X, M(c)) for generic X in the family of S."""
    return sum(hom_band_string(spec, B, c) for B in S.classes)


def family_rank(spec, alpha: str, S: BandSequence) -> int:
    """rank of the matrix of alpha on any module in the family: total count
    of cyclic positions reading alpha or its inverse."""
    if not spec.has_arrow(alpha):
        raise ParseError(f"unknown arrow {alpha!r}")
    w = Word(None, (Letter(alpha, False),))
    return sum(sum(parti_counts(spec, w, B)) for B in S.classes)


class SeparationWitness(NamedTuple):
    word: Word
    counts: tuple[int, int, int, int]


def find_separating_string(spec, S: BandSequence, T: BandSequence, max_len: int):
    """First string (length-lexicographic) whose counts tell S and T apart.

    None when the sequences agree as multisets, or when no witness shows up
    within the length bound.
    """
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
