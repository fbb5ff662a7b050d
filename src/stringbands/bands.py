"""Cyclic words over the quiver: quasi-bands, bands, their classes, and the
occurrence counts (parti, sub, fac) that drive every hom formula.

The sub and fac counts are band tallies: `words.id_tally` read cyclically,
the same fold over `words.flanked` that strings use, keyed by the ids of
the same trie (`AlgebraSpec.middle_trie`).  One tally per letter tuple and
side is kept on the algebra, in spec.band_tallies, a plain dict whose
entries are replaced as they grow (the string tallies are tables,
`words.Table`), scanned to a power of two (`_scan_cap`) and grown only when
a pairing reaches further, so it holds every middle any pairing shares.
Every count, `dimension_vector`, `is_band`, `canonical_class` and a band
realization read a cyclic word through `_checked`, the one place that
refuses a word that is no quasi-band, by the codes kept per letter tuple in
spec.quasi_band_codes; `_primitive` tests that it is no proper power.
The witness searches read a class's rotations from one member table,
spec.member_readings[B], that keeps them as letter codes only;
`class_members` decodes them when it is read.

A quasi-band is stored as the plain tuple of the letters of one period,
and every reader slices that tuple; a read that wraps slices a repeated
copy of it, as `is_quasi_band` does on its letter codes for the window
test of `AlgebraSpec.string_windows`.  Each letter is traversed after the
one to its right, matching the composition order of finite words.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

from .errors import NotBand, NotQuasiBand, TrivialWord, ZeroParameter
from .words import (
    KEPT,
    Letter,
    Word,
    _Frozen,
    _letters,
    _windows_hold,
    _word_letters,
    format_word,
    glues,
    id_count,
    id_tally,
    inverse_codes,
    inverse_letters,
    letter_source,
    reading,
    string_frontiers,
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
        return f"QuasiBand({format_word(self)!r})"


class BandClass(_Frozen):
    """A band up to rotation and inverse-reversal, held in canonical form.
    A plain value: what is known about it for an algebra is kept on the
    algebra, in tables keyed by the class (`words.Table`)."""

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
        return f"BandClass({format_word(self)!r})"


def _as_letters(x) -> tuple[Letter, ...]:
    """The letters of a cyclic word; a letter that is no `Letter` raises
    TypeError (`words._letters`).  A class holds the letters the package
    decoded, so its own are read unchecked."""
    if isinstance(x, BandClass):
        return x.canonical.letters
    if isinstance(x, Word) and x.is_trivial:
        raise NotQuasiBand("a trivial word has no cyclic reading")
    if isinstance(x, str):
        raise TypeError(f"a cyclic word is a QuasiBand, BandClass, Word or tuple of letters, not {type(x).__name__}")
    # a QuasiBand or Word has its letters, any other value is one
    return _letters(getattr(x, "letters", x))


def _exact(x) -> Fraction:
    """x as a Fraction, one given returned as it is; a float raises
    TypeError: Fraction(0.1) is not 1/10.  Band parameters and the oracle's
    matrix entries are read through it."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError(f"entries and band parameters must be exact, not the float {x!r}")
    return Fraction(x)


def band_parameter(lam) -> Fraction:
    """lam as the parameter of a band module, exact by `_exact`; zero raises
    ZeroParameter.  The one check of a parameter, in realization and in
    counting alike."""
    if not (lam := _exact(lam)):
        raise ZeroParameter("band parameter must be nonzero")
    return lam


def _quasi_band_codes(spec, ls: tuple[Letter, ...]) -> tuple[int, ...] | None:
    """The letter codes of the cyclic word ls (`AlgebraSpec.encode`) if it
    is a quasi-band, else None, kept in spec.quasi_band_codes: it is one
    when it has mixed directions and ``w + w[:R-1]``, its period w read on
    for R-1 more letters, passes the window test of
    `AlgebraSpec.string_windows`."""
    if not ls:
        raise NotQuasiBand("empty cyclic word")
    w = spec.encode(ls)
    R = spec.window_length
    return w if _turns(w) and _windows_hold(spec, w + w[: R - 1]) else None


def is_quasi_band(spec, letters) -> bool:
    """Every rotation and power of the cyclic word is a string
    (`_quasi_band_codes`).  Unknown arrows raise ParseError."""
    return spec.quasi_band_codes[_as_letters(letters)] is not None


def _checked(spec, qb) -> tuple[tuple[Letter, ...], tuple[int, ...]]:
    """The letters of a quasi-band and their codes; any other cyclic word
    raises NotQuasiBand."""
    ls = _as_letters(qb)
    if (w := spec.quasi_band_codes[ls]) is None:
        raise NotQuasiBand(format_word(ls))
    return ls, w


def _primitive(w: tuple[int, ...]) -> bool:
    """Whether the code tuple w differs from each of its other rotations:
    its cyclic word is no proper power."""
    return w not in islice(_code_rotations(w), 1, len(w))


def is_band(spec, letters) -> bool:
    """True iff the quasi-band is not a proper power of a shorter period."""
    return _primitive(_checked(spec, letters)[1])


def _code_rotations(w: tuple[int, ...]):
    """The m rotations of a code tuple (`AlgebraSpec.code_letters`), then the
    m of its inverse-reversal."""
    return (base[k:] + base[:k] for base in (w, inverse_codes(w)) for k in range(len(w)))


def _turns(w: tuple[int, ...]) -> bool:
    """Whether the letters of the code tuple w have both directions."""
    return any((c ^ w[0]) & 1 for c in w)


def canonical_class(spec, letters) -> BandClass:
    """The reading with the least tuple of letter codes
    (`AlgebraSpec.code_letters`, declaration order) among the 2m rotations
    of the word and of its inverse-reversal.  Each class built for this
    spec object is kept under itself in the table spec.classes and answers
    any equal class; any other input is checked by `is_band` and
    canonicalised."""
    if isinstance(letters, BandClass) and (cls := spec.classes.get(letters)) is not None:
        return cls
    ls, w = _checked(spec, letters)
    if not _primitive(w):
        raise NotBand(f"{format_word(ls)} is a proper power")
    return _kept_class(spec, spec.decode(min(_code_rotations(w))))


def _kept_class(spec, canonical: tuple[Letter, ...]) -> BandClass:
    """The class of a canonical reading, kept under itself in spec.classes."""
    return spec.classes[BandClass(QuasiBand(canonical))]


def _itself(spec, B: BandClass) -> BandClass:
    """What spec.classes keeps under a class: the class itself, so that
    every equal class built later reads the first one."""
    return B


def are_equivalent(spec, b, bp) -> bool:
    return canonical_class(spec, b) == canonical_class(spec, bp)


def _member_readings(spec, B: BandClass) -> tuple[tuple[int, ...], ...]:
    """The class's one member table, kept in spec.member_readings: the
    distinct rotations of `class_members`, as letter codes."""
    return tuple(dict.fromkeys(_code_rotations(spec.encode(B.letters))))


KEPT.update(classes=_itself, quasi_band_codes=_quasi_band_codes, member_readings=_member_readings)


def class_members(spec, B) -> tuple[QuasiBand, ...]:
    """All distinct rotations of the class of B (`canonical_class`),
    canonical ones first, then the rotations of the inverse-reversal,
    decoded from the member table.  Witness searches iterate this order."""
    return tuple(QuasiBand(spec.decode(w)) for w in spec.member_readings[canonical_class(spec, B)])


def parti_counts(spec, c: Word, qb) -> tuple[int, int]:
    """Occurrences of c and of its inverse among the m cyclic windows.  A c
    that `words._word_letters` refuses raises TypeError, and a cyclic word
    that is no quasi-band NotQuasiBand."""
    letters = _word_letters(c)
    ls = _checked(spec, qb)[0]
    if not letters:
        raise TrivialWord("parti is defined for nonempty words only")
    m = len(ls)

    def occ(target: tuple[Letter, ...]) -> int:
        n = len(target)
        read = reading(ls, n, cyclic=True)
        return sum(1 for i in range(m) if read[i : i + n] == target)

    return occ(letters), occ(inverse_letters(letters))


def band_id_tally(spec, qb, left_inverted: bool, reach: int) -> dict[int, int]:
    """The cyclic sub (left_inverted) or fac `id_tally` of qb, exact for every
    middle of length <= reach; any other key is a longer middle.  One entry
    per qb as passed and side is kept, in spec.band_tallies[qb, left_inverted]
    as (cap, ids), and only grows: a reach <= cap reads the kept ids, and a
    longer one rescans at `_scan_cap(reach)` and replaces the entry.  The
    package passes the letter tuple.  A cyclic word that is no quasi-band
    raises NotQuasiBand and keeps no tally."""
    key = (qb, left_inverted)
    entry = spec.band_tallies.get(key)
    if entry is None or entry[0] < reach:
        cap = _scan_cap(reach)
        ids = id_tally(spec, _checked(spec, qb)[1], left_inverted, cap, cyclic=True)
        entry = spec.band_tallies[key] = (cap, ids)
    return entry[1]


def _scan_cap(n: int) -> int:
    """The least power of two >= n, the length a band tally is scanned to
    when a pairing reaches n: so a band side is rescanned at most once per
    doubling of its longest reach.  The reach is len(c) against a string c,
    which has no longer key, and m+n between bands of periods m and n, so a
    key past the reach is never shared.  Two distinct classes share no
    flanked middle of length >= m+n: by the Fine-Wilf lemma it would have
    period gcd(m, n), so the primitive periods would be one class.  A class
    shares none of length >= m with itself: such a middle fixes both its
    neighbours, as no band is a proper power or a rotation of its own
    inverse, and no neighbours flank a middle for fac and for sub at once."""
    return 1 << max(n - 1, 0).bit_length()


def sub_counts(spec, c: Word, qb) -> int:
    """Cyclic positions with an inverse letter, then l(c) letters spelling c
    or its inverse, then a plain arrow.  c is checked (`words._word_letters`)
    before the band tally is read to its length."""
    return id_count(spec, band_id_tally(spec, _as_letters(qb), True, len(_word_letters(c))), c)


def fac_counts(spec, c: Word, qb) -> int:
    return id_count(spec, band_id_tally(spec, _as_letters(qb), False, len(_word_letters(c))), c)


def enumerate_bands(spec, max_len: int) -> list[BandClass]:
    """All band classes of period <= max_len, shortest first, each period
    block in code order, as `canonical_class` builds and keeps them.

    A string frontier (`string_frontiers`) holds every reading of a band, so
    each class is listed once, at the reading w that is its canonical form:
    w is below every other rotation of itself (so it is also primitive) and
    at most every rotation of its inverse-reversal.  Such a w is a band
    exactly when its letters have mixed directions and its seam glues: it
    is already a string, so no other window needs a check.

    A canonical w starts with its least code, and that code is an arrow's
    (even): a rotation starting at a lower code would read lower, and an
    inverse letter w[0] puts w[0] ^ 1 = w[0] - 1 into the inverse-reversal,
    whose rotation starting there reads lower.  So a w failing this first-code
    test is dropped before its 2m rotations are built; the full test decides
    the rest, and the list is the same."""
    if max_len < 0:
        raise ValueError(f"max_len must be non-negative, got {max_len}")
    out: list[BandClass] = []
    for m, frontier in zip(range(1, max_len + 1), string_frontiers(spec)):
        for w in frontier:
            if w[0] & 1 or w[0] != min(w):
                continue
            rots = _code_rotations(w)
            # the rotations of w after w itself, then those of its inverse
            if not (all(w < r for r in islice(rots, 1, m)) and all(w <= r for r in rots)):
                continue
            if _turns(w) and glues(spec, w, w):
                out.append(_kept_class(spec, spec.decode(w)))
    return out


def band_dimension(qb) -> int:
    """The period of the cyclic word, the dimension of its band modules.  An
    empty one raises NotQuasiBand, and an item that is no `Letter`
    TypeError."""
    if not (ls := _as_letters(qb)):
        raise NotQuasiBand("empty cyclic word")
    return len(ls)


def dimension_vector(spec, qb) -> dict[str, int]:
    """How many basis vectors sit at each vertex u: letters with source u.
    Unknown arrows raise ParseError, and a cyclic word that is no quasi-band
    NotQuasiBand."""
    ls = _checked(spec, qb)[0]
    vec = {v: 0 for v in spec.vertices}
    for l in ls:
        vec[letter_source(spec, l)] += 1
    return vec
