"""Walks on a quiver, the string and gluing checks, the flanked-occurrence
engine and string tallies.

`is_string`, and `glues`, the one check at a seam where two readings meet,
are window tests on `AlgebraSpec.string_windows`.  `flanked` is the one
definition of an occurrence of a middle word with its two neighbours
pointing the required ways; every substring and factorstring count, on
strings here and on bands in `bands`, is a fold over it.

Composition order is right to left throughout: in a word written
``a1.a2. ... .an`` the rightmost letter is traversed first, consecutive
letters satisfy s(a_i) = t(a_{i+1}), the source of the word is s(an) and
the target is t(a1).  "Starts with" refers to the rightmost letter and
"ends with" to the leftmost one, matching the composition order.
"""

from __future__ import annotations

from collections import Counter
from functools import wraps
from operator import attrgetter
from typing import NamedTuple

from .errors import NotAString, ParseError


class Letter(NamedTuple):
    arrow: str
    inverted: bool

    def inv(self) -> "Letter":
        return Letter(self.arrow, not self.inverted)


class _Frozen:
    """Base of the package's immutable value types.

    A subclass names its constructor's parameters, in order, in _fields and
    sets them in __init__ with object.__setattr__ (writing a __dict__
    directly would cost CPython its fast attribute lookups).  Its hash is
    _hash, computed once: the hash of _values, the tuple of field values,
    unless a cheaper one agrees with equality.  A class built far more often
    than hashed overrides __hash__ instead.  Equality compares every field
    and holds only within one class.  Copies and pickles are rebuilt through
    the constructor, so no hash leaves its process.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # _values, the tuple of field values, is read by one C-level getter
        get = attrgetter(*cls._fields)
        cls._values = property(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return self.__class__, self._values

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Word(_Frozen):
    """Either a trivial word at a vertex or a nonempty tuple of letters."""

    __slots__ = ("trivial_at", "letters", "_hash")
    _fields = ("trivial_at", "letters")

    def __init__(self, trivial_at: str | None, letters: tuple[Letter, ...]):
        if (trivial_at is None) == (len(letters) == 0):
            raise ValueError("a word is trivial at a vertex xor carries letters")
        object.__setattr__(self, "trivial_at", trivial_at)
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "_hash", hash((trivial_at, letters)))

    def __eq__(self, other):
        # words are the keys of every tally; spelled out for the lookups
        if other.__class__ is not Word:
            return NotImplemented
        return self.letters == other.letters and self.trivial_at == other.trivial_at

    __hash__ = _Frozen.__hash__  # a class that defines __eq__ loses the inherited one

    @property
    def is_trivial(self) -> bool:
        return self.trivial_at is not None

    def __len__(self) -> int:
        return len(self.letters)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"


def trivial_word(vertex: str) -> Word:
    return Word(vertex, ())


def inverse_letters(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """The letters reversed, each one inverted."""
    return tuple(l.inv() for l in reversed(letters))


def inverse(word: Word) -> Word:
    """Reverse the letters and invert each one; trivial words are fixed."""
    if word.is_trivial:
        return word
    return Word(None, inverse_letters(word.letters))


def letter_source(alg, letter: Letter) -> str:
    if letter.inverted:
        return alg.arrow_target(letter.arrow)
    return alg.arrow_source(letter.arrow)


def letter_target(alg, letter: Letter) -> str:
    if letter.inverted:
        return alg.arrow_source(letter.arrow)
    return alg.arrow_target(letter.arrow)


def word_source(alg, word: Word) -> str:
    if word.is_trivial:
        return word.trivial_at
    return letter_source(alg, word.letters[-1])


def word_target(alg, word: Word) -> str:
    if word.is_trivial:
        return word.trivial_at
    return letter_target(alg, word.letters[0])


def word_vertices(alg, word: Word) -> tuple[str, ...]:
    """Vertices visited by the walk, from t(c) down to s(c), length l(c)+1."""
    if word.is_trivial:
        return (word.trivial_at,)
    verts = [letter_target(alg, word.letters[0])]
    verts.extend(letter_source(alg, l) for l in word.letters)
    return tuple(verts)


def _windows_hold(alg, letters: tuple[Letter, ...]) -> bool:
    """Every window of min(R, n) of the n >= 1 letters is a string, by
    `AlgebraSpec.string_windows`; the caller checks the arrows."""
    windows = alg.string_windows
    k = min(windows.length, len(letters))
    return all(windows[letters[i : i + k]] for i in range(len(letters) - k + 1))


def glues(alg, left: tuple[Letter, ...], right: tuple[Letter, ...]) -> bool:
    """The one gluing check, at the seam where left[-1] meets right[0]: the
    windows that cross it, those of left[-(R-1):] + right[:R-1], are strings.
    Two strings glue exactly when left + right is a string, and a cyclic
    gluing of quasi-band readings is a quasi-band exactly when each of its
    seams glues.  The caller checks the arrows."""
    R = alg.string_windows.length
    return _windows_hold(alg, left[-(R - 1) :] + right[: R - 1])


def _check_arrows(alg, letters: tuple[Letter, ...]) -> None:
    """Raise ParseError on the first letter over an arrow alg lacks."""
    for l in letters:
        if not alg.has_arrow(l.arrow):
            raise ParseError(f"unknown arrow {l.arrow!r}")


def _check_word(alg, word: Word) -> None:
    """_check_arrows, and for a trivial word a ParseError on a vertex alg lacks."""
    if word.is_trivial and not alg.has_vertex(word.trivial_at):
        raise ParseError(f"unknown vertex {word.trivial_at!r}")
    _check_arrows(alg, word.letters)


def is_string(alg, word: Word) -> bool:
    """Every window of min(R, n) letters is a string (`AlgebraSpec.string_windows`);
    a trivial word is one.  A vertex or arrow alg lacks raises ParseError
    (_check_word)."""
    _check_word(alg, word)
    return word.is_trivial or _windows_hold(alg, word.letters)


def concat(alg, left: Word, right: Word) -> Word:
    """The product left*right; right is traversed first."""
    if word_source(alg, left) != word_target(alg, right):
        raise NotAString(
            f"cannot compose {format_word(left)} with {format_word(right)}"
        )
    if left.is_trivial:
        return right
    if right.is_trivial:
        return left
    return Word(None, left.letters + right.letters)


def left_divisors(alg, word: Word) -> list[Word]:
    """All prefixes c' with word = c'c'', shortest first, l(word)+1 of them."""
    if word.is_trivial:
        return [word]
    out = [trivial_word(word_target(alg, word))]
    for i in range(1, len(word) + 1):
        out.append(Word(None, word.letters[:i]))
    return out


def flanked(
    alg, letters: tuple[Letter, ...], left_inverted: bool, max_mid: int, cyclic=False
):
    """Yield (left, mid, right) for every flanked occurrence of a middle word
    of length at most max_mid: the left neighbour has inverted ==
    left_inverted and the right neighbour does not.

    This is the one occurrence definition.  Substrings ask for an inverse
    letter on the left (left_inverted=True), factorstrings for a plain one.
    A finite word has no neighbour past either end; it is None there and
    imposes nothing.  A cyclic word is read periodically, with one
    occurrence per left neighbour letter and both neighbours always present,
    so a middle word may be longer than the period.  A trivial middle is the
    vertex between its two neighbours.  A trivial finite word has no
    letters to read and is left to the caller.
    """
    n = len(letters)
    if cyclic:
        reading = letters * (max_mid // max(n, 1) + 2)
        starts = range(1, n + 1)
    else:
        reading = letters
        starts = range(n + 1)
    for k in starts:
        left = reading[k - 1] if k else None
        if left is not None and left.inverted != left_inverted:
            continue
        vertex = letter_source(alg, left) if k else letter_target(alg, reading[0])
        for j in range(k, min(k + max_mid, len(reading)) + 1):
            right = reading[j] if j < len(reading) else None
            if right is not None and right.inverted == left_inverted:
                continue
            mid = Word(None, reading[k:j]) if j > k else trivial_word(vertex)
            yield left, mid, right


def tally(
    alg, letters: tuple[Letter, ...], left_inverted: bool, max_mid: int, cyclic=False
) -> dict[Word, int]:
    """Flanked occurrences counted by the canonical form of their middle
    word; both orientations of a middle word land on one key.  The arrows
    are checked once per scan, so the middles skip the check."""
    _check_arrows(alg, letters)
    return Counter(
        _canonical(alg, mid)
        for _, mid, _ in flanked(alg, letters, left_inverted, max_mid, cyclic)
    )


def tally_count(counts: dict[Word, int], d: Word) -> int:
    """The count of d's inversion class in a tally.  Tally keys are
    canonical, so one of d and its inverse is the key if any is."""
    return counts.get(d) or counts.get(inverse(d), 0)


def keep(fn):
    """fn(alg, *args), computed once per algebra object and kept, to be read
    only, in alg.kept[the kept function][args].  A call that raises keeps
    nothing; equal algebras that are other objects share nothing."""

    @wraps(fn)
    def kept(alg, *args):
        try:
            return alg.kept[kept][args]
        except KeyError:
            pass
        value = fn(alg, *args)
        return alg.kept.setdefault(kept, {}).setdefault(args, value)

    return kept


def _string_tally(alg, c: Word, left_inverted: bool) -> dict[Word, int]:
    if c.is_trivial:
        _check_word(alg, c)
        return {c: 1}
    return tally(alg, c.letters, left_inverted, len(c))


@keep
def string_sub_tally(alg, c: Word) -> dict[Word, int]:
    """sub(d, c) for every canonical d at once; a word that is not a string
    raises NotAString.  Kept, so c is checked once."""
    if not is_string(alg, c):
        raise NotAString(format_word(c))
    return _string_tally(alg, c, left_inverted=True)


@keep
def string_fac_tally(alg, c: Word) -> dict[Word, int]:
    """fac(d, c) for every canonical d at once, as `string_sub_tally`."""
    if not is_string(alg, c):
        raise NotAString(format_word(c))
    return _string_tally(alg, c, left_inverted=False)


def count_sub(alg, d: Word, c: Word) -> int:
    """sub(d, c) on any reduced word c, a string or not; uncached."""
    return tally_count(_string_tally(alg, c, left_inverted=True), d)


def count_fac(alg, d: Word, c: Word) -> int:
    return tally_count(_string_tally(alg, c, left_inverted=False), d)


def word_key(alg, word: Word):
    """Total order: trivial words first by vertex, then length, then letters."""
    if word.is_trivial:
        return (0, alg.vertex_index(word.trivial_at), ())
    return (len(word), 0, tuple(alg.letter_key(l) for l in word.letters))


def canonical_word(alg, word: Word) -> Word:
    """The smaller of word and its inverse under `word_key`, word itself on
    a tie.  Unknown arrows and vertices raise ParseError."""
    _check_word(alg, word)
    return _canonical(alg, word)


def _canonical(alg, word: Word) -> Word:
    # word and its inverse have one length, so word_key orders them by their
    # letter keys alone: letter i of the inverse is letter n+1-i of word,
    # inverted.  The first pair that differs decides, and the inverse is
    # built only when it wins.
    if word.is_trivial:
        return word
    ls = word.letters
    for a, b in zip(ls, reversed(ls)):
        ka, kb = alg.letter_key(a), alg.letter_key(b.inv())
        if ka != kb:
            return word if ka < kb else inverse(word)
    return word


def string_frontiers(alg):
    """Yield, for lengths 1, 2, ..., the list of every string of that length
    (both readings of each), until a length has none.

    Each list extends the previous one by one letter on the right, and the
    one-letter strings come in `letter_key` order, so every list is in
    lexicographic `letter_key` order.  A string extended by one letter is a
    string exactly when the two glue (`glues`).
    """
    singles = [(Letter(a, inv),) for a in alg.arrow_names for inv in (False, True)]
    frontier = [Word(None, l) for l in singles if is_string(alg, Word(None, l))]
    while frontier:
        yield frontier
        frontier = [
            Word(None, w.letters + l) for w in frontier for l in singles if glues(alg, w.letters, l)
        ]


def iter_strings(alg, max_len: int):
    """Yield one representative per {c, c inverse} class, length at most
    max_len.

    Trivial words come first in vertex declaration order, then each length
    in letter order.  Deterministic for a fixed algebra, and lazy: callers
    that stop early never pay for the longer lengths.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be non-negative, got {max_len}")
    for v in alg.vertices:
        yield trivial_word(v)
    for _, frontier in zip(range(max_len), string_frontiers(alg)):
        # a frontier is in letter order and holds both readings of a string
        yield from (w for w in frontier if _canonical(alg, w) is w)


def enumerate_strings(alg, max_len: int) -> list[Word]:
    """iter_strings collected into a list."""
    return list(iter_strings(alg, max_len))


def parse_word(text: str) -> Word:
    """Parse dot-separated letters, `name` or `name^-1`, or `1_<vertex>`."""
    text = text.strip()
    if not text:
        raise ParseError("empty word")
    if text.startswith("1_"):
        vertex = text[2:]
        if not vertex or any(ch.isspace() for ch in vertex):
            raise ParseError(f"bad trivial word {text!r}")
        return trivial_word(vertex)
    letters = []
    for tok in text.split("."):
        tok = tok.strip()
        if tok.endswith("^-1"):
            name, inv = tok[:-3], True
        else:
            name, inv = tok, False
        if not name or "^" in name or any(ch.isspace() for ch in name):
            raise ParseError(f"bad letter {tok!r} in {text!r}")
        letters.append(Letter(name, inv))
    return Word(None, tuple(letters))


def format_word(word: Word) -> str:
    if word.is_trivial:
        return f"1_{word.trivial_at}"
    return ".".join(l.arrow + ("^-1" if l.inverted else "") for l in word.letters)
