"""Monomial presentations kQ/I and the axioms that make them string algebras.

A presentation is a quiver plus a set of monomial relations (paths declared
zero).  Paths use composition order: in a relation ``a1.a2. ... .ak`` the
rightmost arrow is applied first and s(a_i) = t(a_{i+1}).

Every string and seam check in `words` and `bands` is a lookup in
`AlgebraSpec.string_windows`.  The axiom checks walk directed paths, as they
run on presentations that need not be string algebras.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import takewhile
from typing import Iterable, NamedTuple

from .errors import InvalidAlgebra, ParseError
from .words import Letter, Word, _Frozen, letter_source, letter_target, trivial_word


class ArrowDecl(NamedTuple):
    name: str
    source: str
    target: str


class StringWindows(dict):
    """Maps a window, a word of 1 to R letters over known arrows, to whether
    it is a string, where R = max(2, longest relation) is `length`.  A word
    of n letters is a string exactly when each of its windows of min(R, n)
    letters is one.

    The pairs of a word lie inside its windows, and the ideal is monomial,
    so any relation inside a directed run lies inside some R-letter window,
    within one run of that window.  For a quasi-band of mixed directions
    every run is shorter than the period, so every cyclic run lies inside
    ``ls + ls[:R-1]``, its period ls read on.

    A window is decided on its first lookup and kept with its prefixes, so
    only what was asked is held: the strings of R letters can be
    exponentially many in R.  A letter is a string; a longer window is one
    when its prefix one letter shorter is and its last letter composes with
    the one before, is not its inverse and ends a directed run that avoids
    the ideal.
    """

    __slots__ = ("spec", "length")

    def __init__(self, spec: AlgebraSpec):
        self.spec = spec
        self.length = max(2, spec.max_relation_length)

    def __missing__(self, window: tuple[Letter, ...]) -> bool:
        # a string's prefixes are strings: decide the window's, shortest first
        for j in range(1, len(window) + 1):
            if (w := window[:j]) not in self:
                self[w] = j == 1 or (self[w[:-1]] and self._last_letter_fits(w))
        return self[window]

    def _last_letter_fits(self, w: tuple[Letter, ...]) -> bool:
        spec, l = self.spec, w[-1]
        if letter_source(spec, w[-2]) != letter_target(spec, l) or l == w[-2].inv():
            return False
        # the run that l ends, read leftwards from l: an inverse run read so
        # is its path, a plain run its path reversed
        run = [l, *takewhile(lambda x: x.inverted == l.inverted, reversed(w[:-1]))]
        return not spec.path_in_ideal([x.arrow for x in (run if l.inverted else run[::-1])])


class AlgebraSpec(_Frozen):
    """Quiver and relations, in declaration order.

    Declaration order is part of the data: enumeration, canonical forms and
    witness searches all break ties by it, so two presentations that differ
    only in ordering are distinct specs.
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
            seen_v.add(v)
        names = set()
        for a in self.arrows:
            if a.name in names or a.name in seen_v:
                raise ParseError(f"arrow name {a.name!r} is not unique")
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

    @cached_property
    def _hash(self) -> int:
        return hash(self._values)

    @cached_property
    def _arrow_map(self) -> dict[str, ArrowDecl]:
        return {a.name: a for a in self.arrows}

    @cached_property
    def _vertex_order(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _arrow_order(self) -> dict[str, int]:
        return {a.name: i for i, a in enumerate(self.arrows)}

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

    def letter_key(self, letter: Letter) -> tuple[int, bool]:
        return (self._arrow_order[letter.arrow], letter.inverted)

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

    string_windows = cached_property(StringWindows)

    @cached_property
    def kept(self) -> dict:
        """What `words.keep` computed for this object; not in its value, so copies start empty."""
        return {}


def is_member_monomial_ideal(spec: AlgebraSpec, path: Iterable[str]) -> bool:
    """Ideal membership for a path given as a sequence of arrow names."""
    path = tuple(path)
    for name in path:
        if not spec.has_arrow(name):
            raise ParseError(f"unknown arrow {name!r}")
    return spec.path_in_ideal(path)


class ValidationReport(NamedTuple):
    """Outcome of the axiom check.

    admissibility_bound is the least N with every path of length N in the
    ideal, or None when no such N exists.  redundant_relations lists
    generators that contain a shorter generator as a factor; they are
    harmless but contribute nothing.
    """

    valid: bool
    violations: tuple[tuple[str, str], ...]
    quadratic: bool
    admissibility_bound: int | None
    redundant_relations: tuple[tuple[str, ...], ...]


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


def gentle_vertices(spec: AlgebraSpec) -> set[str]:
    """Vertices at which the ideal pairs arrows off uniquely.

    The zero products alpha.beta at u (alpha leaving u, beta entering it)
    form a partial matching: an alpha annihilates at most one beta, and a
    beta is annihilated by at most one alpha.
    """
    out = set()
    for u in spec.vertices:
        outs, ins = spec.out_arrows(u), spec.in_arrows(u)
        zero = [(a, b) for a in outs for b in ins if spec.path_in_ideal((a, b))]
        if len({a for a, _ in zero}) == len(zero) == len({b for _, b in zero}):
            out.add(u)
    return out


def is_gentle_algebra(spec: AlgebraSpec) -> bool:
    return spec.quadratic and gentle_vertices(spec) == set(spec.vertices)


def projective_word(spec: AlgebraSpec, u: str) -> Word:
    """The word w1.w2^-1 built from the maximal relation-free paths out of u.

    The module of this word is the indecomposable projective at u; when u
    has no outgoing arrows it degenerates to the trivial word.  Assumes the
    spec is valid (the extension step then never branches).  There a path's
    first arrow fixes the one arrow before it, so a relation-free path
    longer than the arrow count plus the longest relation repeats a cycle
    whose powers all avoid the ideal: that raises InvalidAlgebra.
    """
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


_ARROW_RE = re.compile(r"^(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$")


def parse_algebra(text: str) -> AlgebraSpec:
    """Parse the plain-text presentation format.

    Three directives, one per line; ``#`` starts a comment::

        vertex <name> [<name> ...]
        arrow <name> : <src> -> <tgt>
        relation <a1>.<a2>[.<a3> ...]

    Anything else is an error.
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
