"""Walks on a quiver, the string and gluing checks, the flanked-occurrence
engine and string tallies.

`is_string`, and `glues`, the one check at a seam where two code tuples
meet, are lookups in `AlgebraSpec.string_windows`, keyed by letter codes
(`AlgebraSpec.encode`).  `flanked` is the one definition of an occurrence
of a middle word with its two neighbours pointing the required ways, and it
reads letter codes, as `_check_word` and `bands._checked` return them; every
substring and factorstring count, on strings here and on bands in `bands`,
and the quadratic criteria in `components` are folds over it.

What an algebra object keeps is read through a `Table`, a dict that
computes an answer on its first read and keeps it.  `KEPT` names every
table and its function, each module adding its own, and `AlgebraSpec`
makes one table per name with itself.

Tally keys are interned middle ids: `id_tally` counts each occurrence under
the id of its middle's inversion class, a node of the algebra's one
`MiddleTrie` (`AlgebraSpec.middle_trie`), so no middle is built as a word.
The string tallies are two tables, `AlgebraSpec.fac_tallies` and
`.sub_tallies`: a read is one dict subscript, and only a miss checks and
scans the string.  `count_sub` and `count_fac` read them and find d's id by
`middle_id`, a walk that never grows the trie.

`format_word` prints every word-like value as the text `parse_word` reads,
each letter by one rule, `_letter_text`.

Composition order is right to left throughout: in a word written
``a1.a2. ... .an`` the rightmost letter is traversed first, consecutive
letters satisfy s(a_i) = t(a_{i+1}), the source of the word is s(an) and
the target is t(a1).  "Starts with" refers to the rightmost letter and
"ends with" to the leftmost one, matching the composition order.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from itertools import count
from operator import attrgetter

from .errors import NotAString, ParseError


class Letter(namedtuple("Letter", "arrow inverted")):
    __slots__ = ()

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


def inverse_codes(codes: tuple[int, ...]) -> tuple[int, ...]:
    """`inverse_letters` in letter codes (`AlgebraSpec.code_letters`)."""
    return tuple(c ^ 1 for c in reversed(codes))


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


def _windows_hold(alg, codes: tuple[int, ...]) -> bool:
    """Every window of min(R, n) of the n >= 1 letter codes is a string, by
    `AlgebraSpec.string_windows`, R being `AlgebraSpec.window_length`."""
    windows = alg.string_windows
    k = min(alg.window_length, len(codes))
    return all(windows[codes[i : i + k]] for i in range(len(codes) - k + 1))


def glues(alg, left: tuple[int, ...], right: tuple[int, ...]) -> bool:
    """The one gluing check, at the seam where the code tuples left and right
    meet: their seam left[-(R-1):] + right[:R-1] is a string, one lookup in
    `AlgebraSpec.string_windows`.  Two strings glue exactly when left + right
    is a string, and a cyclic gluing of quasi-band readings is a quasi-band
    exactly when each of its seams glues."""
    reach = alg.window_length - 1
    return alg.string_windows[left[-reach:] + right[:reach]]


def _letters(items) -> tuple[Letter, ...]:
    """The items as a tuple of letters; an item that is no `Letter` raises
    TypeError, a plain (arrow, inverted) tuple too, though it compares and
    hashes equal to its letter."""
    letters = tuple(items)
    for l in letters:
        if not isinstance(l, Letter):
            raise TypeError(f"a word's letters are Letters, not {type(l).__name__}")
    return letters


def _word_letters(word: Word) -> tuple[Letter, ...]:
    """The one check of a word the package reads, counted words included:
    its letters, where a value that is no `Word`, or a letter that is no
    `Letter` (`_letters`), raises TypeError.  Its vertex and arrows are not
    looked up, so a counted word over ones the algebra lacks counts 0."""
    if not isinstance(word, Word):
        raise TypeError(f"a word is a Word, not {type(word).__name__}")
    return _letters(word.letters)


def _check_word(alg, word: Word) -> tuple[int, ...]:
    """The word's letter codes (`AlgebraSpec.encode`) once `_word_letters`
    passes; a vertex or arrow alg lacks raises ParseError."""
    letters = _word_letters(word)
    if word.is_trivial and not alg.has_vertex(word.trivial_at):
        raise ParseError(f"unknown vertex {word.trivial_at!r}")
    return alg.encode(letters)


def is_string(alg, word: Word) -> bool:
    """Every window of min(R, n) letters is a string (`AlgebraSpec.string_windows`);
    a trivial word is one.  A vertex or arrow alg lacks raises ParseError
    (_check_word)."""
    codes = _check_word(alg, word)
    return word.is_trivial or _windows_hold(alg, codes)


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


def reading(letters: tuple, max_mid: int, cyclic=False) -> tuple:
    """The letters or codes `flanked` reads: a finite word as it is, a
    cyclic one repeated until every middle of length at most max_mid, from
    each of its starts, has a right neighbour."""
    return letters * (max_mid // max(len(letters), 1) + 2) if cyclic else letters


def flanked(codes: tuple[int, ...], left_inverted: bool, max_mid: int, cyclic=False):
    """Yield the span (k, j) of every flanked occurrence reading[k:j] of a
    middle word of length at most max_mid, in the `reading` of the letter
    codes (`AlgebraSpec.code_letters`): the left neighbour reading[k-1] is
    inverted (odd) exactly when left_inverted and the right neighbour
    reading[j] is not.  Spans come by start, then by end, ascending.

    This is the one occurrence definition.  Substrings ask for an inverse
    letter on the left (left_inverted=True), factorstrings for a plain one.
    A finite word has no neighbour past either end, and none is asked for
    there.  A cyclic word is read periodically, with one occurrence per
    left neighbour letter (starts 1 to its period) and both neighbours
    always present, so a middle word may be longer than the period.  A
    trivial middle (k == j) is the vertex between its two neighbours.  A
    trivial finite word has no letters to read and is left to the caller.
    """
    ls = reading(codes, max_mid, cyclic)
    n = len(ls)
    for k in range(1, len(codes) + 1) if cyclic else range(n + 1):
        if k and ls[k - 1] & 1 != left_inverted:
            continue
        for j in range(k, min(k + max_mid, n) + 1):
            if j == n or ls[j] & 1 != left_inverted:
                yield k, j


class Table(dict):
    """One store of what an algebra object keeps, read through: maps a key
    to fn(alg, key), computed on its first read and kept, to be read only.
    A function of several arguments takes them as one tuple key.
    `AlgebraSpec` makes one table per entry of `KEPT` with itself, so a
    read is one dict subscript; equal algebras that are other objects share
    nothing, and a copy or unpickled algebra starts with every table empty.

    A miss stores its answer by setdefault, so threads of a GIL build that
    share the algebra object and miss at once may both compute it, and both
    read the one stored first.  A call that raises stores nothing."""

    __slots__ = ("alg", "fn")

    def __init__(self, alg, fn):
        self.alg, self.fn = alg, fn

    def __missing__(self, key):
        return self.setdefault(key, self.fn(self.alg, key))


# every table an algebra object keeps (`Table`), by attribute name, with the
# function it reads through; each module adds its own
KEPT = {}


class MiddleTrie:
    """Every middle word an algebra's tallies have read, one int id each;
    the algebra makes its one trie with itself (`AlgebraSpec.middle_trie`).

    Letters are the algebra's codes (`AlgebraSpec.code_letters`), so
    code ^ 1 is the inverse letter.  Node 0 is the empty word, and the
    child of node w by code c, grown on first use, is the word w.c: one
    letter longer on the right, and takes the next id of ids.  Only
    `id_tally` grows it, one letter at a time.  A trivial middle has no
    node: its id is -1 - i at vertex i, and source_ids[c] and target_ids[c]
    are those of the vertices at code c's source and target, read off
    `AlgebraSpec.code_sources` and `.code_targets`."""

    __slots__ = ("width", "child", "ids", "source_ids", "target_ids")

    def __init__(self, alg):
        self.width = len(alg.code_letters)
        self.child: dict[int, int] = {}  # node * width + code -> node
        self.ids = count(1)
        self.source_ids = tuple(-1 - i for i in alg.code_sources)
        self.target_ids = tuple(-1 - i for i in alg.code_targets)

    def find(self, codes) -> int | None:
        """The id of the word of codes, or None if it has none; never grows."""
        node = 0
        for c in codes:
            node = self.child.get(node * self.width + c)
            if node is None:
                return None
        return node


def _vertex_id(alg, vertex: str) -> int:
    return -1 - alg.vertex_index(vertex)


def id_tally(
    alg, codes: tuple[int, ...], left_inverted: bool, max_mid: int, cyclic=False
) -> dict[int, int]:
    """Flanked occurrences in the letter codes (`flanked`) counted by the id
    of their middle's inversion class, a fold over `flanked`: -1 - i for the
    trivial middle at vertex i (`MiddleTrie.source_ids`, `.target_ids`),
    else the smaller of the `AlgebraSpec.middle_trie` ids of the middle and
    its inverse.

    The id of span (k, j) is one trie step from that of (k, j-1), and its
    inverse's one step, by an inverted code (code ^ 1), from that of
    (k+1, j): the inverse read leftwards from j.  So no middle is built as
    a word.  The trie grows one letter at a time, span by span, the middle's
    letters before its inverse's, so the ids it hands out depend only on
    the order of the calls.  A step grows by one atomic get-or-insert, a
    setdefault of the trie's next id, so a scan that inserts the same step
    between this one's miss and its insert leaves the step one id.  The
    caller checks the word: the kept string and band tallies check it once,
    on a miss."""
    trie = alg.middle_trie
    child, width = trie.child, trie.width
    get, insert, ids = child.get, child.setdefault, trie.ids
    source_ids, target_ids = trie.source_ids, trie.target_ids
    ls = reading(codes, max_mid, cyclic)
    inverted = [c ^ 1 for c in ls]
    counts: dict[int, int] = {}
    start = -1
    # fwd[d] is the id of reading[start:start+d], backs[j][d] that of the
    # inverse of reading[j-d:j]; each grows as far as a span asks, one
    # child step per letter.  A cyclic reading repeats every chain one
    # period on, so its chains are keyed by j modulo the period
    backs: dict[int, list[int]] = {}
    for k, j in flanked(codes, left_inverted, max_mid, cyclic):
        if k == j:
            key = source_ids[ls[k - 1]] if k else target_ids[ls[0]]
        else:
            d = j - k
            if k != start:
                start, fwd = k, [0]
            while len(fwd) <= d:
                step = fwd[-1] * width + ls[k + len(fwd) - 1]
                node = get(step)
                if node is None:
                    node = insert(step, next(ids))
                fwd.append(node)
            end = j % len(codes) if cyclic else j
            back = backs.get(end)
            if back is None:
                back = backs[end] = [0]
            while len(back) <= d:
                step = back[-1] * width + inverted[j - len(back)]
                node = get(step)
                if node is None:
                    node = insert(step, next(ids))
                back.append(node)
            key = min(fwd[d], back[d])
        counts[key] = counts.get(key, 0) + 1
    return counts


def middle_id(alg, word: Word) -> int | None:
    """The key of word's inversion class in every id tally (`id_tally`), or
    None when the trie holds no reading of word, by a walk that never grows
    the trie: a word over an unknown arrow or vertex, or one no tally has
    met, has no key and counts 0.  The word is checked first
    (`_word_letters`)."""
    letters = _word_letters(word)
    if word.is_trivial:
        return _vertex_id(alg, word.trivial_at) if alg.has_vertex(word.trivial_at) else None
    trie = alg.middle_trie
    codes = list(map(alg.letter_codes.get, letters))
    if None in codes:
        return None
    node = trie.find(codes)
    back = trie.find(c ^ 1 for c in reversed(codes))
    return None if node is None or back is None else min(node, back)


def id_count(alg, ids: dict[int, int], d: Word) -> int:
    """The count of d's inversion class in an id tally."""
    # a word the trie has not met has the id None, which no tally holds
    return ids.get(middle_id(alg, d), 0)


def _string_tally(alg, c: Word, left_inverted: bool) -> dict[int, int]:
    """The sub (left_inverted) or fac `id_tally` of the string c, sub(d, c)
    or fac(d, c) for every d at once, kept in `AlgebraSpec.sub_tallies` or
    `.fac_tallies`, so c is checked and encoded once.  A word that is not a
    string raises NotAString, one over a vertex or arrow the algebra lacks
    ParseError."""
    codes = _check_word(alg, c)
    if c.is_trivial:
        return {_vertex_id(alg, c.trivial_at): 1}
    if not _windows_hold(alg, codes):
        raise NotAString(format_word(c))
    return id_tally(alg, codes, left_inverted, len(c))


KEPT.update(fac_tallies=partial(_string_tally, left_inverted=False),
            sub_tallies=partial(_string_tally, left_inverted=True))


def count_sub(alg, d: Word, c: Word) -> int:
    """sub(d, c), read off `AlgebraSpec.sub_tallies`: a word c that is not a
    string raises NotAString."""
    return id_count(alg, alg.sub_tallies[c], d)


def count_fac(alg, d: Word, c: Word) -> int:
    """fac(d, c), read off `AlgebraSpec.fac_tallies`."""
    return id_count(alg, alg.fac_tallies[c], d)


def _least_reading(w: tuple[int, ...]) -> bool:
    """Whether the nonempty code tuple w is <= that of its inverse, the
    codes reversed and each inverted (c ^ 1).  The inverse starts with
    w[-1] ^ 1, so unequal first codes decide the comparison, and only a tie
    compares the whole tuples."""
    first, inverse_first = w[0], w[-1] ^ 1
    if first != inverse_first:
        return first < inverse_first
    return w <= inverse_codes(w)


def canonical_word(alg, word: Word) -> Word:
    """The smaller of word and its inverse by their letter codes
    (`AlgebraSpec.code_letters`), word itself on a tie.  Unknown arrows and
    vertices raise ParseError."""
    codes = _check_word(alg, word)
    if word.is_trivial or _least_reading(codes):
        return word
    return inverse(word)


def string_frontiers(alg):
    """Yield, for lengths 1, 2, ..., the list of every string of that length
    (both readings of each) as a tuple of letter codes
    (`AlgebraSpec.code_letters`), until a length has none.

    Each list extends the previous one by one letter on the right.  Whether
    a string w extended by a letter is a string depends only on the last R-1
    letters of w (`glues`), so the codes that may follow w are read from a
    successor list keyed by those letters: the out-edges of the window graph
    at w's last window, worked out from `glues` the first time the walk
    reaches it and held for this walk only.  The one-letter strings, every
    letter, come in code order, and so every list is in lexicographic code
    order.
    """
    letters = [(c,) for c in range(len(alg.code_letters))]
    tail = alg.window_length - 1
    successors: dict[tuple[int, ...], list[tuple[int]]] = {}
    frontier = letters
    while frontier:
        yield frontier
        grown = []
        for w in frontier:
            key = w[-tail:]
            nxt = successors.get(key)
            if nxt is None:
                nxt = successors[key] = [c for c in letters if glues(alg, key, c)]
            grown += [w + c for c in nxt]
        frontier = grown


def iter_strings(alg, max_len: int):
    """Yield one representative per {c, c inverse} class, length at most
    max_len: the reading whose code tuple is <= that of its inverse.

    Trivial words come first in vertex declaration order, then each length
    in code order.  Deterministic for a fixed algebra, and lazy: callers
    that stop early never pay for the longer lengths.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be non-negative, got {max_len}")
    for v in alg.vertices:
        yield trivial_word(v)
    for _, frontier in zip(range(max_len), string_frontiers(alg)):
        # a frontier is in code order and holds both readings of a string
        for w in frontier:
            if _least_reading(w):
                yield Word(None, alg.decode(w))


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


def _letter_text(l: Letter) -> str:
    """The one letter rule: `a` for an arrow, `a^-1` for its inverse."""
    return l.arrow + "^-1" if l.inverted else l.arrow


def format_word(word) -> str:
    """The text `parse_word` reads, of any word-like value: a `Word` (a
    trivial one as `1_<vertex>`), a `bands.QuasiBand`, a `bands.BandClass`
    (its canonical reading) or a tuple of letters, each letter by
    `_letter_text`, joined by dots."""
    vertex = getattr(word, "trivial_at", None)
    if vertex is not None:
        return f"1_{vertex}"
    return ".".join(map(_letter_text, getattr(word, "letters", word)))
