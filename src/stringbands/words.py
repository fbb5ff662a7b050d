"""Walks on a quiver and the substring/factorstring combinatorics of strings.

Composition order is right to left throughout: in a word written
``a1.a2. ... .an`` the rightmost letter is traversed first, consecutive
letters satisfy s(a_i) = t(a_{i+1}), the source of the word is s(an) and
the target is t(a1).  "Starts with" refers to the rightmost letter and
"ends with" to the leftmost one, matching the composition order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import NotAString, ParseError


class Letter(NamedTuple):
    arrow: str
    inverted: bool

    def inv(self) -> "Letter":
        return Letter(self.arrow, not self.inverted)


@dataclass(frozen=True)
class Word:
    """Either a trivial word at a vertex or a nonempty tuple of letters."""

    trivial_at: str | None
    letters: tuple[Letter, ...]

    def __post_init__(self):
        if (self.trivial_at is None) == (len(self.letters) == 0):
            raise ValueError("a word is trivial at a vertex xor carries letters")

    @property
    def is_trivial(self) -> bool:
        return self.trivial_at is not None

    def __len__(self) -> int:
        return len(self.letters)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"


def trivial_word(vertex: str) -> Word:
    return Word(vertex, ())


def inverse(word: Word) -> Word:
    """Reverse the letters and invert each one; trivial words are fixed."""
    if word.is_trivial:
        return word
    return Word(None, tuple(l.inv() for l in reversed(word.letters)))


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


def _run_path(run: tuple[Letter, ...]) -> tuple[str, ...]:
    # a directed run read as a path; inverse runs are paths of the reversed arrows
    if run[0].inverted:
        return tuple(l.arrow for l in reversed(run))
    return tuple(l.arrow for l in run)


def runs_avoid_ideal(alg, letters: tuple[Letter, ...]) -> bool:
    """True iff no maximal directed run of letters, read as a path, lies in
    the relation ideal."""
    start = 0
    for i in range(1, len(letters) + 1):
        if i == len(letters) or letters[i].inverted != letters[start].inverted:
            if alg.path_in_ideal(_run_path(letters[start:i])):
                return False
            start = i
    return True


def is_string(alg, word: Word) -> bool:
    """Composable, reduced, and every directed run avoids the relation ideal."""
    if word.is_trivial:
        return alg.has_vertex(word.trivial_at)
    for l in word.letters:
        if not alg.has_arrow(l.arrow):
            raise ParseError(f"unknown arrow {l.arrow!r}")
    letters = word.letters
    for i in range(len(letters) - 1):
        if letter_source(alg, letters[i]) != letter_target(alg, letters[i + 1]):
            return False
        if letters[i] == letters[i + 1].inv():
            return False
    return runs_avoid_ideal(alg, letters)


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


def _piece(alg, c: Word, i: int, j: int) -> Word:
    if i == j:
        return trivial_word(word_vertices(alg, c)[i])
    return Word(None, c.letters[i:j])


def _middle_spans(alg, d: Word, c: Word):
    """Index pairs (i, j) with c.letters[i:j] equal to d; wraps nothing."""
    if d.is_trivial:
        for i, v in enumerate(word_vertices(alg, c)):
            if v == d.trivial_at:
                yield i, i
    else:
        k = len(d)
        for i in range(len(c) - k + 1):
            if c.letters[i : i + k] == d.letters:
                yield i, i + k


def _triples(alg, d: Word, c: Word, left_inverted: bool):
    # substring triples want c1 to end in an inverse letter, factorstring
    # triples in a plain one; c3 takes the opposite flavor on its left edge
    if c.is_trivial:
        if d.is_trivial and d.trivial_at == c.trivial_at:
            return [(c, c, c)]
        return []
    out = []
    variants = [d] if d.is_trivial else [d, inverse(d)]
    for var in variants:
        for i, j in _middle_spans(alg, var, c):
            if i > 0 and c.letters[i - 1].inverted != left_inverted:
                continue
            if j < len(c) and c.letters[j].inverted == left_inverted:
                continue
            out.append(
                (_piece(alg, c, 0, i), _piece(alg, c, i, j), _piece(alg, c, j, len(c)))
            )
    return out


@lru_cache(maxsize=None)
def count_sub(alg, d: Word, c: Word) -> int:
    return len(_triples(alg, d, c, left_inverted=True))


@lru_cache(maxsize=None)
def count_fac(alg, d: Word, c: Word) -> int:
    return len(_triples(alg, d, c, left_inverted=False))


def word_key(alg, word: Word):
    """Total order: trivial words first by vertex, then length, then letters."""
    if word.is_trivial:
        return (0, alg.vertex_index(word.trivial_at), ())
    return (len(word), 0, tuple(alg.letter_key(l) for l in word.letters))


def canonical_word(alg, word: Word) -> Word:
    """The smaller of word and its inverse under the fixed letter order."""
    if word.is_trivial:
        return word
    inv = inverse(word)
    return min(word, inv, key=lambda w: word_key(alg, w))


def string_frontiers(alg):
    """Yield, for lengths 1, 2, ..., the list of every string of that length
    (both readings of each), until a length has none.

    Each list extends the previous one by one letter on the right, in
    declaration order, so the order is fixed for a fixed algebra.
    """
    frontier: list[Word] = []
    for a in alg.arrow_names:
        for inv in (False, True):
            w = Word(None, (Letter(a, inv),))
            if is_string(alg, w):
                frontier.append(w)
    while frontier:
        yield frontier
        nxt = []
        for w in frontier:
            src = word_source(alg, w)
            last = w.letters[-1]
            for a in alg.arrow_names:
                for inv in (False, True):
                    l = Letter(a, inv)
                    if letter_target(alg, l) != src or l == last.inv():
                        continue
                    w2 = Word(None, w.letters + (l,))
                    if is_string(alg, w2):
                        nxt.append(w2)
        frontier = nxt


def iter_strings(alg, max_len: int):
    """Yield one representative per {c, c inverse} class, length at most
    max_len.

    Trivial words come first in vertex declaration order, then each length
    in letter order.  Deterministic for a fixed algebra, and lazy: callers
    that stop early never pay for the longer lengths.
    """
    for v in alg.vertices:
        yield trivial_word(v)
    for _, frontier in zip(range(max_len), string_frontiers(alg)):
        reps = {}
        for w in frontier:
            cw = canonical_word(alg, w)
            reps.setdefault(word_key(alg, cw), cw)
        for k in sorted(reps):
            yield reps[k]


def enumerate_strings(alg, max_len: int) -> list[Word]:
    """iter_strings collected into a list."""
    return list(iter_strings(alg, max_len))


@lru_cache(maxsize=None)
def factor_words(alg, c: Word) -> tuple[Word, ...]:
    """Canonical classes of all factors of c, including the trivial words at
    visited vertices.  These exhaust the d with fac(d, c) or sub(d, c)
    nonempty."""
    seen = {}
    for v in word_vertices(alg, c):
        w = trivial_word(v)
        seen.setdefault(word_key(alg, w), w)
    for i in range(len(c)):
        for j in range(i + 1, len(c) + 1):
            w = canonical_word(alg, Word(None, c.letters[i:j]))
            seen.setdefault(word_key(alg, w), w)
    return tuple(seen[k] for k in sorted(seen))


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
