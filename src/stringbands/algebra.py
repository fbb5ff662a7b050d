"""Monomial presentations kQ/I and the axioms that make them string algebras.

A presentation is a quiver plus a set of monomial relations (paths declared
zero).  Paths use composition order: in a relation ``a1.a2. ... .ak`` the
rightmost arrow is applied first and s(a_i) = t(a_{i+1}).

Every string and seam check in `words`, `bands` and `components` is a
lookup in `AlgebraSpec.string_windows`, keyed by letter codes
(`AlgebraSpec.encode`), one of the tables (`words.Table`) in which an
algebra object keeps what it computes.  The axiom checks walk directed
paths, as they run on presentations that need not be string algebras.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import cached_property
from itertools import takewhile
from typing import Iterable

from .errors import InvalidAlgebra, ParseError
from .words import (
    KEPT,
    Letter,
    MiddleTrie,
    Table,
    Word,
    _Frozen,
    trivial_word,
)


ArrowDecl = namedtuple("ArrowDecl", "name source target")


def _codes_are_string(spec: AlgebraSpec, codes: tuple[int, ...]) -> bool:
    """The algebra's one string test, kept in `AlgebraSpec.string_windows`:
    whether a tuple of letter codes (`AlgebraSpec.code_letters`) is a
    string.  With R = max(2, longest relation), `AlgebraSpec.window_length`,
    a word of n letters is a string exactly when each of its windows of
    min(R, n) letters is one, and two strings glue exactly when their seam,
    the last R-1 codes of one followed by the first R-1 of the other, is one.

    The pairs of a word lie inside its windows, and the ideal is monomial,
    so any relation inside a directed run lies inside some R-letter window,
    within one run of that window.  For a quasi-band of mixed directions
    every run is shorter than the period, so every cyclic run lies inside
    ``w + w[:R-1]``, its period w read on.

    A tuple is decided on its first lookup and kept with its prefixes, so
    only what was asked is held, the windows (at most R codes) and seams (at
    most 2R-2) looked up: the strings of R letters can be exponentially many
    in R.  A letter is a string; a longer tuple is one when its prefix one
    letter shorter is and its last letter composes with the one before, is
    not its inverse and ends a directed run that avoids the ideal.
    """
    if len(codes) == 1:
        return True
    windows, n = spec.string_windows, len(codes)
    # a string's prefixes are strings, each decided and kept by its own read:
    # those not held yet shortest first, so that no read recurses deeper
    held = next((j for j in range(n - 1, 1, -1) if codes[:j] in windows), 1)
    for j in range(held, n):
        prefix_is_string = windows[codes[:j]]
    if not prefix_is_string:
        return False
    c = codes[-1]
    if spec.code_sources[codes[-2]] != spec.code_targets[c] or c == codes[-2] ^ 1:
        return False
    # the run that c ends, read leftwards from c: an inverse run read so
    # is its path, a plain run its path reversed
    run = [c, *takewhile(lambda x: not (x ^ c) & 1, reversed(codes[:-1]))]
    path = [spec.arrow_names[x >> 1] for x in run]
    return not spec.path_in_ideal(path if c & 1 else path[::-1])


def _readable_name(name: str, arrow: bool) -> bool:
    """Whether a word reads the name back: nonempty, no whitespace, and for an
    arrow no '.' or '^' and no leading '1_' (1_a is the trivial word at a)."""
    return re.fullmatch(r"(?!1_)[^\s.^]+" if arrow else r"\S+", name) is not None


class AlgebraSpec(_Frozen):
    """Quiver and relations, in declaration order.

    Declaration order is part of the data: enumeration, canonical forms and
    witness searches all break ties by it, so two presentations that differ
    only in ordering are distinct specs.

    What the object computes is kept on it, outside its value, and made
    with it, so a copy or unpickled spec starts empty: one `words.Table`
    per entry of `words.KEPT`, under its name and keyed by what it answers,
    such as string_windows, the string test of windows of window_length
    letters (`_codes_are_string`), or classes, every band class built for
    it, under itself (`bands.canonical_class`); band_tallies, which grow
    (`bands.band_id_tally`); and middle_trie, the ids of every middle word
    the tallies read (`words.MiddleTrie`).  `kept_sizes` counts what each
    of them holds.  The vertex indices at each letter code's ends
    (`code_letters`) are two tuples, code_sources and code_targets, read
    wherever codes meet a vertex: the string test, the trie's trivial
    middles and the witness searches.
    """

    _fields = ("vertices", "arrows", "relations")

    def __init__(
        self,
        vertices: tuple[str, ...],
        arrows: tuple[ArrowDecl, ...],
        relations: tuple[tuple[str, ...], ...],
    ):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "arrows", arrows)
        object.__setattr__(self, "relations", relations)
        seen_v = set()
        for v in self.vertices:
            if v in seen_v:
                raise ParseError(f"duplicate vertex {v!r}")
            if not _readable_name(v, arrow=False):
                raise ParseError(f"vertex name {v!r} is empty or has whitespace")
            seen_v.add(v)
        names = set()
        for a in self.arrows:
            if a.name in names or a.name in seen_v:
                raise ParseError(f"arrow name {a.name!r} is not unique")
            if not _readable_name(a.name, arrow=True):
                raise ParseError(f"arrow name {a.name!r} is not one a word can read back")
            names.add(a.name)
            if a.source not in seen_v or a.target not in seen_v:
                raise ParseError(f"arrow {a.name!r} uses an undeclared vertex")
        seen_r = set()
        for rel in self.relations:
            disp = ".".join(rel)
            if len(rel) < 2:
                raise ParseError(f"relation {disp!r} is shorter than 2")
            if rel in seen_r:
                raise ParseError(f"duplicate relation {disp!r}")
            seen_r.add(rel)
            for name in rel:
                if name not in names:
                    raise ParseError(f"relation {disp!r} uses unknown arrow {name!r}")
            for i in range(len(rel) - 1):
                if self.arrow_source(rel[i]) != self.arrow_target(rel[i + 1]):
                    raise ParseError(f"relation {disp!r} is not a composable path")
        object.__setattr__(self, "window_length", max(2, self.max_relation_length))
        # made here, not on first use, so threads sharing the object share one of each
        for name, fn in KEPT.items():
            object.__setattr__(self, name, Table(self, fn))
        object.__setattr__(self, "band_tallies", {})
        object.__setattr__(self, "middle_trie", MiddleTrie(self))

    @cached_property
    def _hash(self) -> int:
        return hash(self._values)

    def kept_sizes(self) -> dict[str, int]:
        """The entries of each table, by name, its band tallies and its
        trie's nodes: how much the object keeps."""
        return {**{name: len(getattr(self, name)) for name in KEPT}, "band_tallies": len(self.band_tallies),
                "middle_trie": len(self.middle_trie.child) + 1}

    @cached_property
    def _arrow_map(self) -> dict[str, ArrowDecl]:
        return {a.name: a for a in self.arrows}

    @cached_property
    def _vertex_order(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def arrow_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.arrows)

    @cached_property
    def quadratic(self) -> bool:
        """Every relation has length exactly 2."""
        return all(len(r) == 2 for r in self.relations)

    @cached_property
    def max_relation_length(self) -> int:
        return max((len(r) for r in self.relations), default=0)

    def has_vertex(self, v: str) -> bool:
        return v in self._vertex_order

    def has_arrow(self, name: str) -> bool:
        return name in self._arrow_map

    def arrow_source(self, name: str) -> str:
        return self._arrow_map[name].source

    def arrow_target(self, name: str) -> str:
        return self._arrow_map[name].target

    def vertex_index(self, v: str) -> int:
        return self._vertex_order[v]

    @cached_property
    def code_letters(self) -> tuple[Letter, ...]:
        """The code table: the letter of code 2 * arrow index + inverted, so
        c ^ 1 is the inverse letter's code."""
        return tuple(Letter(a, inv) for a in self.arrow_names for inv in (False, True))

    @cached_property
    def code_sources(self) -> tuple[int, ...]:
        """The vertex index (`vertex_index`) at the source of each letter
        code: an arrow's source, its inverse letter's target."""
        return tuple(self._vertex_order[v] for a in self.arrows for v in (a.source, a.target))

    @cached_property
    def code_targets(self) -> tuple[int, ...]:
        """The vertex index at the target of each letter code, the source of
        its inverse (code ^ 1)."""
        return tuple(self.code_sources[c ^ 1] for c in range(len(self.code_sources)))

    @cached_property
    def letter_codes(self) -> dict[Letter, int]:
        """The code of each letter, the inverse of `code_letters`."""
        return {l: c for c, l in enumerate(self.code_letters)}

    def encode(self, letters: Iterable[Letter]) -> tuple[int, ...]:
        """The codes of letters (`code_letters`); a letter over an arrow the
        algebra lacks raises ParseError, an item that is no `Letter` TypeError."""
        try:
            return tuple(map(self.letter_codes.__getitem__, letters))
        except KeyError as e:
            if not isinstance(bad := e.args[0], Letter):
                raise TypeError(f"a word's letters are Letters, not {type(bad).__name__}") from None
            raise ParseError(f"unknown arrow {bad.arrow!r}") from None

    def decode(self, codes: Iterable[int]) -> tuple[Letter, ...]:
        """The letters of codes, the inverse of `encode`."""
        return tuple(map(self.code_letters.__getitem__, codes))

    def out_arrows(self, u: str) -> tuple[str, ...]:
        return tuple(a.name for a in self.arrows if a.source == u)

    def in_arrows(self, u: str) -> tuple[str, ...]:
        return tuple(a.name for a in self.arrows if a.target == u)

    def path_in_ideal(self, path: Iterable[str]) -> bool:
        """True iff some relation occurs as a contiguous factor of path."""
        path = tuple(path)
        return any(
            path[i : i + len(rel)] == rel
            for rel in self.relations
            for i in range(len(path) - len(rel) + 1)
        )


def is_member_monomial_ideal(spec: AlgebraSpec, path: Iterable[str]) -> bool:
    """Ideal membership for a path given as a sequence of arrow names."""
    path = tuple(path)
    for name in path:
        if not spec.has_arrow(name):
            raise ParseError(f"unknown arrow {name!r}")
    return spec.path_in_ideal(path)


class ValidationReport(
    namedtuple(
        "ValidationReport",
        "valid violations quadratic admissibility_bound redundant_relations",
    )
):
    """Outcome of the axiom check.

    violations holds one (kind, detail) pair of strings per failed axiom.
    admissibility_bound is the least N with every path of length N in the
    ideal, or None when no such N exists.  redundant_relations lists
    generators that contain a shorter generator as a factor; they are
    harmless but contribute nothing.
    """

    __slots__ = ()


def _before(spec: AlgebraSpec, path: tuple[str, ...]) -> list[tuple[str, ...]]:
    """The relation-free paths b.path, one per arrow b in declaration order."""
    u = spec.arrow_target(path[0])
    return [
        (b,) + path
        for b in spec.arrow_names
        if spec.arrow_source(b) == u and not spec.path_in_ideal((b,) + path)
    ]


def _after(spec: AlgebraSpec, path: tuple[str, ...]) -> list[tuple[str, ...]]:
    """The relation-free paths path.b, one per arrow b in declaration order."""
    u = spec.arrow_source(path[-1])
    return [
        path + (b,)
        for b in spec.arrow_names
        if spec.arrow_target(b) == u and not spec.path_in_ideal(path + (b,))
    ]


def _admissibility(spec: AlgebraSpec):
    """Returns (bound, cycle_witness); exactly one of the two is None.

    Whether a relation-free path extends depends only on its last K = R-1
    arrows, so the walk graph on relation-free windows of that length has a
    cycle iff relation-free paths grow without bound.  Each round peels the
    windows with no surviving successor; what survives leads into a cycle,
    read off the first survivor by always taking its first surviving
    successor.  Otherwise the longest path has K + rounds - 1 arrows.
    """
    K = max(spec.max_relation_length - 1, 1)
    # by_len[l] = relation-free paths of length l, grown by prepending arrows
    by_len: list[list[tuple[str, ...]]] = [[()], [(a,) for a in spec.arrow_names]]
    while len(by_len) <= K:
        by_len.append([q for p in by_len[-1] for q in _before(spec, p)])
    live = {p: [q[:K] for q in _before(spec, p)] for p in by_len[K]}
    rounds = 0
    while dead := [p for p, nxt in live.items() if not any(q in live for q in nxt)]:
        for p in dead:
            del live[p]
        rounds += 1

    if live:
        walk = [next(iter(live))]
        while (step := next(q for q in live[walk[-1]] if q in live)) not in walk:
            walk.append(step)
        return None, ".".join(q[0] for q in reversed(walk[walk.index(step) :]))
    if not spec.vertices:
        return 0, None
    if rounds:
        return K + rounds, None
    # with no window of length K, no path reaches K arrows
    return max(l for l, paths in enumerate(by_len) if paths) + 1, None


def validate_algebra(spec: AlgebraSpec) -> ValidationReport:
    """Checks the string-algebra axioms in a fixed order.

    1. admissibility of the ideal, 2. degree bounds at every vertex,
    3. unique relation-free continuation behind each arrow, 4. the dual
    condition in front of each arrow.  All violations are collected.
    """
    violations: list[tuple[str, str]] = []

    bound, cycle = _admissibility(spec)
    if cycle is not None:
        violations.append(
            ("admissibility", f"relation-free walk cycles through {cycle}")
        )

    for u in spec.vertices:
        degrees = (("outgoing", spec.out_arrows(u)), ("incoming", spec.in_arrows(u)))
        for way, arrows in degrees:
            if len(arrows) > 2:
                text = f"vertex {u} has {len(arrows)} {way} arrows"
                violations.append(("vertex-degree", text))

    uniqueness = (("unique-continuation", _after), ("unique-precomposition", _before))
    for kind, grow in uniqueness:
        for name in spec.arrow_names:
            paths = grow(spec, (name,))
            if len(paths) > 1:
                pair = " and ".join(".".join(p) for p in paths[:2])
                violations.append((kind, f"both {pair} avoid the ideal"))

    # a shorter generator inside r lies inside r less one of its end arrows
    redundant = tuple(
        r
        for r in spec.relations
        if spec.path_in_ideal(r[1:]) or spec.path_in_ideal(r[:-1])
    )

    return ValidationReport(
        valid=not violations,
        violations=tuple(violations),
        quadratic=spec.quadratic,
        admissibility_bound=bound,
        redundant_relations=redundant,
    )


def require_string_algebra(spec: AlgebraSpec) -> AlgebraSpec:
    """Returns spec if it is a string algebra; otherwise raises InvalidAlgebra
    listing every violation `validate_algebra` found."""
    report = validate_algebra(spec)
    if not report.valid:
        raise InvalidAlgebra("; ".join(f"{k}: {d}" for k, d in report.violations))
    return spec


def gentle_vertices(spec: AlgebraSpec) -> frozenset[str]:
    """Vertices at which the ideal pairs arrows off uniquely, read off the
    answer kept per vertex in spec.gentle (`_gentle`).

    The zero products alpha.beta at u (alpha leaving u, beta entering it)
    form a partial matching: an alpha annihilates at most one beta, and a
    beta is annihilated by at most one alpha.
    """
    return frozenset(u for u in spec.vertices if spec.gentle[u])


def _gentle(spec: AlgebraSpec, u: str) -> bool:
    """Whether u is a gentle vertex (`gentle_vertices`), kept in spec.gentle;
    a vertex the algebra lacks raises ParseError."""
    if not spec.has_vertex(u):
        raise ParseError(f"unknown vertex {u!r}")
    outs, ins = spec.out_arrows(u), spec.in_arrows(u)
    zero = [(a, b) for a in outs for b in ins if spec.path_in_ideal((a, b))]
    return len({a for a, _ in zero}) == len(zero) == len({b for _, b in zero})


def is_gentle_algebra(spec: AlgebraSpec) -> bool:
    return spec.quadratic and all(spec.gentle[u] for u in spec.vertices)


def projective_word(spec: AlgebraSpec, u: str) -> Word:
    """The word w1.w2^-1 built from the maximal relation-free paths out of u.

    The module of this word is the indecomposable projective at u; when u
    has no outgoing arrows it degenerates to the trivial word.  Assumes the
    spec is valid (the extension step then never branches).  There a path's
    first arrow fixes the one arrow before it, so a relation-free path
    longer than the arrow count plus the longest relation repeats a cycle
    whose powers all avoid the ideal: that raises InvalidAlgebra.  Kept per
    vertex in spec.projective_words.
    """
    return spec.projective_words[u]


def _projective_word(spec: AlgebraSpec, u: str) -> Word:
    if not spec.has_vertex(u):
        raise ParseError(f"unknown vertex {u!r}")
    limit = len(spec.arrows) + spec.max_relation_length
    branches = []
    for first in spec.out_arrows(u):
        path = (first,)
        while nxt := _before(spec, path):
            path = nxt[0]
            if len(path) > limit:
                raise InvalidAlgebra(f"relation-free paths out of {u} never end")
        branches.append(path)
    if not branches:
        return trivial_word(u)
    letters = tuple(Letter(a, False) for a in branches[0])
    if len(branches) == 2:
        letters += tuple(Letter(b, True) for b in reversed(branches[1]))
    return Word(None, letters)


KEPT.update(string_windows=_codes_are_string, gentle=_gentle, projective_words=_projective_word)


_ARROW_RE = re.compile(r"^(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$")


def parse_algebra(text: str) -> AlgebraSpec:
    """Parse the plain-text presentation format.

    Three directives, one per line; ``#`` starts a comment::

        vertex <name> [<name> ...]
        arrow <name> : <src> -> <tgt>
        relation <a1>.<a2>[.<a3> ...]

    Anything else is an error, as is an arrow name a word cannot read back.
    """
    vertices: list[str] = []
    arrows: list[ArrowDecl] = []
    relations: list[tuple[str, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "vertex":
            names = rest.split()
            if not names:
                raise ParseError(f"line {lineno}: vertex directive needs a name")
            vertices.extend(names)
        elif head == "arrow":
            m = _ARROW_RE.match(rest)
            if not m:
                raise ParseError(
                    f"line {lineno}: expected 'arrow <name> : <src> -> <tgt>'"
                )
            if not _readable_name(m[1], arrow=True):
                raise ParseError(f"line {lineno}: arrow {m[1]!r} has '.' or '^' or starts with '1_'")
            arrows.append(ArrowDecl(*m.groups()))
        elif head == "relation":
            parts = tuple(p.strip() for p in rest.split("."))
            if not rest or any(not p for p in parts):
                raise ParseError(f"line {lineno}: malformed relation {rest!r}")
            relations.append(parts)
        else:
            raise ParseError(f"line {lineno}: unknown directive {head!r}")
    return AlgebraSpec(tuple(vertices), tuple(arrows), tuple(relations))


def load_algebra(path) -> AlgebraSpec:
    with open(path, encoding="utf-8") as fh:
        return parse_algebra(fh.read())
