"""Exact matrix realizations of string and band modules over the rationals.

This is the brute-force side of the package: hom dimensions come from
intertwiner linear systems, ext dimensions from a syzygy, and nothing is
ever rounded, so there are no tolerances anywhere.  A module is a point of
mod(A, d) and stores only that: the algebra (spec), the vertex of each
basis vector (vertex_of) and each arrow's nonzero (i, j, x) entries
(entries, a read-only mapping), so two equal points are one value.  Its
one constructor sorts the entries and makes one pass per arrow over them
(_validate) that checks for repeated cells, indices outside the basis and
entries outside their vertex blocks, and builds the integer line table
(lines) and the flag one_entry_per_line; each relation is then checked on
the integer matrices N = D X of the table, whose product vanishes exactly
when that of the X does.  So every module, realized, summed, a syzygy or a
copy, is validated, and a float entry is refused.  The line table, keyed
by basis index, holds each basis vector's arrow mask (the arrows that
reach it and those that do not leave it), the number of tops and of socle
vectors at each vertex, and each nonzero arrow, by its declaration index,
as X(a) = N / D, with D the lcm of its denominators and N's entries as
edges between basis vectors.  The
table and the flag are views of entries, like dim, the vertex blocks
(grading) and dense matrices (mats).  If both modules have
one_entry_per_line, as realized strings and bands do, each equation of
dim_hom ties at most two unknowns, and dim_hom reads the answer off the
two line tables: an unknown that no pair of same-arrow edges touches is
free exactly at a top of X and a socle vector of Y, and each pair is an
equation whose two ends get the mask test: one dead end zeroes its partner
without a union, two are skipped, and a union-find links the pairs of live
ends.  Any other pair has its equations read off entries (_row_rank), which
shares only entries and _echelon with the union-find the tests check
against it.  _echelon, a loop over the fraction-free _reduce, eliminates an
integer row at a time against the gcd-normalised pivot rows found so far:
a rank is the number of pivots, and a kernel is read off the same echelon
form by back-substitution.
A module has one column view (_columns: each column of an arrow to its
(row, value) pairs, read off entries), and it is the only one: both
syzygy paths, the kept cover, the radical span and rank_sum, which ranks
each arrow's columns scaled to integers (_integral), read it.
syzygy covers X by P0, the sum of the projective strings at its tops,
kept per tuple of tops with P0's columns; the projective words are kept
per vertex.  If X has
one_entry_per_line, the tops are the basis vectors with no in-bit in the
line table, each column of the cover map P0 -> X is a multiple of one
basis vector walked through the one pair of each of X's columns, and the
kernel is read by grouping the columns by row (_line_kernel), exactly the
vectors _kernel reads off _echelon's form.  Any other X walks the cover
map through its columns with _push, has its radical span from the
echelon form of its columns, and its surjectivity check and kernel from
that of the cover map.  Both paths share the exactness check and P0's
action on the kernel through the cover's columns, and the tests check
that they give the same presentation.
Realizations, projective covers and syzygies are kept in tables on the
algebra of their first argument (`words.Table`); dim_hom keeps nothing, and
dim_ext1 reads Hom(P0, Y) off the tops P0's line table counts (Yoneda).

Basis indices are 0-based.  For a string c the basis vector at index i is
the left divisor of c with i letters; for a band realization of period m
the basis is e0..e(m-1) and the wraparound action of the period's last
letter carries the parameter (lambda when that letter is an arrow, its
reciprocal when it is an inverse letter); the rest is kept per letter tuple
in spec.band_shapes.  Both write one unit cell per letter (_unit_cells) and
read their vertices off `words.word_vertices`.  Any consistent seam choice
gives an isomorphic module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from types import MappingProxyType

from .algebra import AlgebraSpec, projective_word
from .bands import _as_letters, _checked, _exact, band_parameter
from .errors import NotAString, SpecMismatch, ZeroParameter
from .words import (
    KEPT,
    Word,
    _Frozen,
    format_word,
    is_string,
    word_vertices,
)

Matrix = tuple[tuple[Fraction, ...], ...]
Entries = tuple[tuple[int, int, Fraction], ...]
Edges = list[tuple[int, int, int]]
Lines = tuple[list[int], dict[str, int], dict[str, int], dict[int, tuple[int, Edges]]]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class MatrixModule(_Frozen):
    _fields = ("spec", "vertex_of", "entries")

    def __init__(self, spec: AlgebraSpec, vertex_of, entries):
        """entries maps arrows to (row, column, value) triples in any order;
        an arrow left out acts by zero.  Raises ValueError unless the data is
        a module over spec."""
        for a in entries:
            if not spec.has_arrow(a):
                raise ValueError(f"the algebra has no arrow {a}")
        cells = {a: sorted((i, j, _exact(x)) for i, j, x in entries.get(a, ())) for a in spec.arrow_names}
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "vertex_of", tuple(vertex_of))
        stored, lines, flag = _validate(self, cells)
        object.__setattr__(self, "entries", MappingProxyType(stored))
        # lines and one_entry_per_line are views of entries: they stay out of
        # _fields, so out of equality, hashing, repr and pickles
        object.__setattr__(self, "lines", lines)
        object.__setattr__(self, "one_entry_per_line", flag)

    def __reduce__(self):
        # a mappingproxy does not pickle; the constructor takes a plain dict
        return MatrixModule, (self.spec, self.vertex_of, dict(self.entries))

    @property
    def dim(self) -> int:
        return len(self.vertex_of)

    @cached_property
    def _blocks(self) -> dict[str, tuple[int, ...]]:
        """Each vertex of the algebra with the basis indices it grades."""
        blocks: dict[str, list[int]] = {u: [] for u in self.spec.vertices}
        for i, u in enumerate(self.vertex_of):
            blocks[u].append(i)
        return {u: tuple(b) for u, b in blocks.items()}

    @property
    def grading(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        return tuple(self._blocks.items())

    @property
    def mats(self) -> tuple[tuple[str, Matrix], ...]:
        """Each arrow's dense matrix, in declaration order."""
        d = self.dim
        out = []
        for a, entries in self.entries.items():
            rows = [[_ZERO] * d for _ in range(d)]
            for i, j, x in entries:
                rows[i][j] = x
            out.append((a, tuple(map(tuple, rows))))
        return tuple(out)

    @cached_property
    def _hash(self) -> int:
        return hash((self.spec, self.vertex_of, tuple(self.entries.items())))

    def __repr__(self) -> str:
        return f"MatrixModule(dim={self.dim})"


def _validate(mod: MatrixModule, cells: dict[str, list]) -> tuple[dict[str, Entries], Lines, bool]:
    """Check that mod is a module over its algebra, and return its entries
    with the zeros dropped, its line table and whether each arrow matrix has
    at most one nonzero per row and per column.  cells maps every arrow to
    its (i, j, x) sorted, zeros allowed.

    One pass per arrow over its cells checks for a repeated (i, j), an index
    outside the basis and an entry outside its vertex block, and builds the
    line table: (masks, tops, socles, arrows).  With A arrows, arrow n has
    the in-bit 1 << n and the stay-bit 1 << (A + n).  masks holds each basis
    vector's arrow mask: the in-bits of the arrows that reach it (a nonzero
    in its row) and the stay-bits of those that do not leave it (no nonzero
    in its column), so that the mask of k is a submask of the mask of i
    exactly when every arrow that reaches k reaches i and every arrow that
    leaves i leaves k.  tops and socles count, per vertex, the basis vectors
    that no arrow reaches and that no arrow leaves.  arrows maps the
    declaration index of each arrow that acts nonzero to (D, edges) with
    X(a) = N / D, D the lcm of its denominators, and edges the (j, k, N[k][j])
    of its nonzeros.  A nonzero met in a row or a column that the arrow has
    already reached or left clears the flag.  Each relation is then checked
    on the integer matrices N, whose product is a nonzero multiple of that
    of the X."""
    spec, vof = mod.spec, mod.vertex_of
    for u in dict.fromkeys(vof):
        if not spec.has_vertex(u):
            raise ValueError(f"basis vector at unknown vertex {u}")
    d = len(vof)
    into, out = [0] * d, [0] * d
    stored: dict[str, Entries] = {}
    arrows: dict[int, tuple[int, Edges]] = {}
    named: dict[str, Edges] = {}  # the edges again, by arrow name, for the relations
    flag = True
    for n, (name, src, tgt) in enumerate(spec.arrows):
        bit = 1 << n
        nonzero = []
        den = 1
        h = g = None  # the (i, j) before, for the repeat check on sorted cells
        for cell in cells[name]:
            i, j, x = cell
            if i == h and j == g:
                raise ValueError(f"matrix of {name} repeats an entry")
            h, g = i, j
            if not x:
                continue
            if not (0 <= i < d and 0 <= j < d):
                raise ValueError(f"matrix of {name} has an entry outside the basis")
            if vof[i] != tgt or vof[j] != src:
                raise ValueError(f"matrix of {name} leaves its block")
            if into[i] & bit or out[j] & bit:
                flag = False
            into[i] |= bit
            out[j] |= bit
            if x.denominator != 1:
                den = lcm(den, x.denominator)
            nonzero.append(cell)
        stored[name] = tuple(nonzero)
        if nonzero:
            edges = [(j, k, x.numerator * (den // x.denominator)) for k, j, x in nonzero]
            arrows[n] = den, edges
            named[name] = edges
    every = (1 << len(spec.arrows)) - 1
    masks = []
    tops: dict[str, int] = {}
    socles: dict[str, int] = {}
    for u, i, o in zip(vof, into, out):
        masks.append(i | (every ^ o) << len(spec.arrows))
        if not i:
            tops[u] = tops.get(u, 0) + 1
        if not o:
            socles[u] = socles.get(u, 0) + 1
    for rel in spec.relations:
        if not _vanishes(named, rel):
            raise ValueError(f"relation {'.'.join(rel)} does not vanish")
    return stored, (masks, tops, socles, arrows), flag


def _vanishes(named: dict[str, Edges], path: tuple[str, ...]) -> bool:
    """Whether the product N(path[0]) ... N(path[-1]) of the integer matrices
    is zero.  Its (k, j) entry sums the products of the walks from j to k
    along edges of path[-1], ..., path[0]; it is zero when no walk runs the
    whole path, as in a realized module, and else is summed out."""
    ends: set[int] | None = None
    for name in reversed(path):
        edges = named.get(name, ())
        ends = {k for j, k, _ in edges if ends is None or j in ends}
        if not ends:
            return True
    walks = {(j, k): v for j, k, v in named[path[-1]]}
    for name in reversed(path[:-1]):
        step: dict[int, list] = {}
        for j, k, w in named[name]:
            step.setdefault(j, []).append((k, w))
        longer: dict[tuple[int, int], int] = {}
        for (s, j), v in walks.items():
            for k, w in step.get(j, ()):
                longer[s, k] = longer.get((s, k), 0) + v * w
        walks = {key: v for key, v in longer.items() if v}
    return not walks


def realize_string(spec, c: Word) -> MatrixModule:
    """Module on the left divisors of c, one unit cell per letter
    (`_unit_cells`), kept in spec.realizations."""
    return spec.realizations[c]


def _realize_string(spec, c: Word) -> MatrixModule:
    if not is_string(spec, c):
        raise NotAString(format_word(c))
    return MatrixModule(spec, word_vertices(spec, c), _unit_cells(c.letters))


def _unit_cells(letters: tuple) -> dict[str, list]:
    """The cells of a walk along letters, by arrow: the j-th letter (from 1)
    is one unit cell between e(j-1) and e(j), e(j) -> e(j-1) for an arrow and
    e(j-1) -> e(j) for an inverse letter."""
    cells: dict[str, list] = {}
    for j, l in enumerate(letters, 1):
        cells.setdefault(l.arrow, []).append((j, j - 1, _ONE) if l.inverted else (j - 1, j, _ONE))
    return cells


def realize_band(spec, qb, lam) -> MatrixModule:
    """Module on e0..e(m-1) with the parameter on the seam crossing.

    Accepts any quasi-band, primitive or not; a BandClass is realized on its
    canonical rotation.  lam is checked by `bands.band_parameter`: a float
    raises TypeError (Fraction(0.1) is not 1/10), zero ZeroParameter.  Kept
    per letter tuple and lam in spec.band_realizations; a new lam adds its
    seam entry to the letter tuple's kept shape (`_band_shape`).
    """
    lam = band_parameter(lam)
    # kept by the parameter's two ints: a Fraction hashes anew on every lookup
    return spec.band_realizations[_as_letters(qb), lam.numerator, lam.denominator]


def _realize_band(spec, key: tuple) -> MatrixModule:
    letters, num, den = key
    if num == 0:
        raise ZeroParameter("band parameter must be nonzero")
    vertex_of, units, seam = spec.band_shapes[letters]
    m = len(letters)
    # the seam letter carries lam when it is an arrow, 1/lam when inverted
    cell = (0, m - 1, Fraction(den, num)) if seam.inverted else (m - 1, 0, Fraction(num, den))
    entries = dict(units)
    entries[seam.arrow] = entries.get(seam.arrow, ()) + (cell,)
    return MatrixModule(spec, vertex_of, entries)


def _band_shape(spec, letters: tuple) -> tuple:
    """What a band realization of letters keeps free of lam, in
    spec.band_shapes: the vertex of each basis vector, the unit cells of
    letters[:-1] (`_unit_cells`) as read-only tuples by arrow and the seam
    letter letters[-1].  A cyclic word that is no quasi-band raises
    NotQuasiBand."""
    _checked(spec, letters)
    # the walk along the period ends where it starts, at e0
    vertex_of = word_vertices(spec, Word(None, letters))[:-1]
    units = {a: tuple(cells) for a, cells in _unit_cells(letters[:-1]).items()}
    return vertex_of, MappingProxyType(units), letters[-1]


def _integral(row: dict[int, Fraction]) -> dict[int, int]:
    """The row scaled to integers by the lcm of its denominators, zeros dropped."""
    den = lcm(*(x.denominator for x in row.values()))
    return {c: x.numerator * (den // x.denominator) for c, x in row.items() if x}


def _reduce(pivots: dict[int, dict[int, int]], row: dict[int, int]) -> int | None:
    """Eliminate an integer row against the pivot rows, fraction-free.

    pivots maps a column to the stored row whose smallest column it is, so
    every elimination step removes the row's smallest column and brings in
    only larger ones.  A row that survives is divided by the gcd of its
    entries, stored under its smallest column, and that column is returned;
    a row in the span of the pivots gives None.
    """
    while row:
        col = min(row)
        prow = pivots.get(col)
        if prow is None:
            g = gcd(*row.values())
            pivots[col] = {c: x // g for c, x in row.items()} if g != 1 else row
            return col
        x, p = row[col], prow[col]
        g = gcd(x, p)
        x, p = x // g, p // g
        new = {c: p * v for c, v in row.items()}
        for c, v in prow.items():
            w = new.get(c, 0) - x * v
            if w:
                new[c] = w
            else:
                del new[c]
        row = new
    return None


def _echelon(rows) -> dict[int, dict[int, int]]:
    """Pivot rows of the span of the given sparse integer rows."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        _reduce(pivots, row)
    return pivots


def _kernel(pivots: dict[int, dict[int, int]], ncols: int) -> list[tuple[dict[int, Fraction], int]]:
    """Null space of an echelon form, one vector per free column, with that
    column's index attached (the vector is 1 there, 0 at other free columns)."""
    order = sorted(pivots, reverse=True)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = {free: _ONE}
        # pivot rows only reach right of their pivot, so pivots right of the
        # free column stay 0 and the rest are solved from the right
        for p in order:
            if p > free:
                continue
            prow = pivots[p]
            s = sum(x * vec[c] for c, x in prow.items() if c in vec)
            if s:
                vec[p] = -s / prow[p]
        basis.append((vec, free))
    return basis


def dim_hom(X: MatrixModule, Y: MatrixModule) -> int:
    """Dimension of the space of maps f: X -> Y with f X(a) = Y(a) f; Y may be
    over an equal algebra object.  Nothing is kept: callers seldom repeat a pair.

    When both modules have one_entry_per_line, each equation reads
    x f[i][k] = y f[h][j] for an edge j -> k of X and an edge h -> i of Y of
    one arrow, or has one side and zeroes its unknown, and the answer is read
    off the two line tables.  An unknown that no such pair of edges touches is
    free exactly when k is a top of X and i a socle vector of Y.  Each pair of
    edges tests the masks of both its ends: f[i][k] is dead, zero by a
    one-sided equation, when an arrow reaches k in X but not i in Y, or
    leaves i in Y but not k in X, that is when the mask of k is no submask
    of that of i.  One dead end zeroes its partner without a union, and two
    dead ends add nothing.  A union-find by size over the pairs of live ends
    keeps f_v = a/b f_parent with integers a, b, so it spans live unknowns
    only.  Each of its components is one free scalar unless it holds a
    zeroed unknown or an inconsistent cycle, their roots taken at the end; a
    zeroed unknown outside it is no component.  Any other pair is ranked by
    _row_rank."""
    if X.spec is not Y.spec and X.spec != Y.spec:
        raise SpecMismatch("modules over different algebras")
    if not (X.one_entry_per_line and Y.one_entry_per_line):
        yb = Y._blocks
        return sum(len(b) * len(yb[u]) for u, b in X._blocks.items()) - _row_rank(X, Y)
    xm, xtops, _, xa = X.lines
    ym, _, ysocles, ya = Y.lines
    free = 0  # a loop: the vertices are few, and a generator costs more than the sum
    for u, n in xtops.items():
        if u in ysocles:
            free += n * ysocles[u]
    # the unknown f[i][k] is k * w + i: the pairs of one edge of X walk
    # the edges of Y in order and meet nearby numbers
    w = len(ym)
    up: dict[int, tuple[int, int, int]] = {}  # live v -> (parent, a, b): f_v = a/b f_parent
    size: dict[int, int] = {}  # each live root's component size
    zero: list[int] = []
    for n, (dx, xedges) in xa.items():
        yarrow = ya.get(n)
        if yarrow is None:
            continue
        dy, yedges = yarrow
        if dx == dy:
            sx = sy = 1
        else:
            d = lcm(dx, dy)
            sx, sy = d // dx, d // dy
        for j, k, nx in xedges:
            sn, mk, mj = sx * nx, xm[k], xm[j]
            for h, i, m in yedges:
                p, q = k * w + i, j * w + h
                # a dead end has a one-sided equation and is zero, and so is
                # its partner; neither enters the union-find
                if mk & ~ym[i]:
                    if not mj & ~ym[h]:
                        zero.append(q)
                    continue
                if mj & ~ym[h]:
                    zero.append(p)
                    continue
                x, y = sn, sy * m
                while p in up:  # to the roots, keeping x f_p = y f_q
                    p, a, b = up[p]
                    x *= a
                    y *= b
                while q in up:
                    q, a, b = up[q]
                    y *= a
                    x *= b
                sp = size.pop(p, 1)
                # a closed cycle, or a loop acting diagonally on both modules
                # that ties f[i][k] to itself: one unknown, counted once
                if p == q:
                    size[p] = sp
                    if x != y:  # an inconsistent cycle
                        zero.append(p)
                    continue
                sq = size.pop(q, 1)
                if sp > sq:  # hang the smaller component under the larger
                    p, q, x, y = q, p, y, x
                if x == y:  # a unit ratio needs no gcd
                    up[p] = (q, 1, 1)
                else:
                    g = gcd(x, y)  # each link in lowest terms keeps the walks' products small
                    up[p] = (q, y // g, x // g)
                size[q] = sp + sq
    roots = set()
    for v in zero:
        while v in up:
            v = up[v][0]
        roots.add(v)
    # a zeroed partner that no live equation touched is no component
    return free + len(size) - len(roots & size.keys())


def _row_rank(X: MatrixModule, Y: MatrixModule) -> int:
    """Rank of the hom system of any two modules, read off their entries: the
    unknown f[i][k] is the column (i, k), and for each arrow a: s -> t and (i, j)
    in Y_t x X_s the row is sum_k X(a)[k][j] f[i][k] - sum_k Y(a)[i][k] f[k][j]."""
    rows = []
    for name, s, t in X.spec.arrows:
        eqs: dict = {(i, j): {} for i in Y._blocks[t] for j in X._blocks[s]}
        terms = [(i, j, (i, k), x) for k, j, x in X.entries[name] for i in Y._blocks[t]]
        terms += [(i, j, (k, j), -y) for i, k, y in Y.entries[name] for j in X._blocks[s]]
        for i, j, c, x in terms:  # summed, so a loop's unknown on both sides cancels
            eqs[i, j][c] = eqs[i, j].get(c, _ZERO) + x
        rows += map(_integral, eqs.values())
    return len(_echelon(rows))


def syzygy(X: MatrixModule) -> tuple[MatrixModule, MatrixModule]:
    """Minimal projective cover P0 -> X and its kernel, kept on X.spec under X.

    Top generators are the first coordinate vectors that extend the radical
    span, so the presentation is reproducible.  A module with one entry per
    line has its tops read off its line table and its kernel by rows, any
    other by elimination; both give the same presentation.
    """
    return X.spec.syzygies[X]


def _projective_cover(spec, tops: tuple[str, ...]) -> tuple[MatrixModule, dict]:
    """The direct sum P0 of the projectives P(v), v in tops, and its columns
    (_columns), kept in spec.covers per nonempty tuple of tops: modules with
    the same tops share one P0."""
    P0 = direct_sum(*(realize_string(spec, projective_word(spec, v)) for v in tops))
    return P0, _columns(P0)


def _syzygy(spec, X: MatrixModule) -> tuple[MatrixModule, MatrixModule]:
    return _presentation(X, X.one_entry_per_line)


KEPT.update(realizations=_realize_string, band_realizations=_realize_band, band_shapes=_band_shape,
            covers=_projective_cover, syzygies=_syzygy)


def _presentation(X: MatrixModule, by_lines: bool) -> tuple[MatrixModule, MatrixModule]:
    """P0 -> X and its kernel from X's columns: the tops off the line table
    and the kernel by rows when by_lines (X must have one entry per line),
    else both by elimination."""
    spec, d = X.spec, X.dim
    steps = _columns(X)
    if by_lines:
        # each arrow maps a basis vector to a multiple of one, so the radical
        # is spanned by the basis vectors that some arrow reaches
        reach = (1 << len(spec.arrows)) - 1
        picks = [i for i, mask in enumerate(X.lines[0]) if not mask & reach]
    else:
        # the radical of X is spanned by the columns of the arrow matrices
        span: dict[int, dict[int, int]] = {}
        for cols in steps.values():
            for col in cols.values():
                _reduce(span, _integral(dict(col)))
        picks = [i for i in range(d) if _reduce(span, {i: 1}) is not None]

    # the zero module is its own projective cover
    P0, maps = spec.covers[tuple(X.vertex_of[i] for i in picks)] if picks else (X, {})
    pi_cols: list[dict] = []  # columns of P0 -> X, sparse
    for pick in picks:
        letters = projective_word(spec, X.vertex_of[pick]).letters
        # the top generator is the left divisor that stops at the first inverse
        # letter; the arrows before it walk to the left, the inverse letters right
        gen = next((j for j, l in enumerate(letters) if l.inverted), len(letters))
        cols_p: list[dict] = [{}] * (len(letters) + 1)  # zero until reached
        cols_p[gen] = {pick: 1}
        for walk, shift in ((range(gen - 1, -1, -1), 0), (range(gen + 1, len(cols_p)), 1)):
            if by_lines:
                r, v = pick, 1  # each column is v times the basis vector r
                for j in walk:
                    if (hit := steps.get(letters[j - shift].arrow, {}).get(r)) is None:
                        break  # the rest of the walk is zero
                    ((r, x),) = hit
                    v *= x
                    cols_p[j] = {r: v}
            else:
                col = cols_p[gen]
                for j in walk:
                    col = cols_p[j] = _push(steps.get(letters[j - shift].arrow, {}), col)
        pi_cols.extend(cols_p)

    if by_lines:
        kernel = _line_kernel(pi_cols, d)
    else:
        pi_rows: list[dict] = [{} for _ in range(d)]
        for c, col in enumerate(pi_cols):
            for i, x in col.items():
                pi_rows[i][c] = x
        pivots = _echelon(map(_integral, pi_rows))
        kernel = _kernel(pivots, len(pi_cols)) if len(pivots) == d else None
    if kernel is None:
        raise RuntimeError("projective cover fails to surject")
    # the map is graded, so each kernel vector lives at the vertex of its
    # free column; list them vertex by vertex, by free column within a vertex
    kernel.sort(key=lambda k: spec.vertex_index(P0.vertex_of[k[1]]))
    # exactness at P0: pi maps every kernel vector to zero
    for vec, _ in kernel:
        out: dict = {}
        for c, v in vec.items():
            for i, x in pi_cols[c].items():
                out[i] = out.get(i, 0) + x * v
        if any(out.values()):
            raise RuntimeError("a kernel vector does not map to zero")
    sig = {free: n for n, (_, free) in enumerate(kernel)}
    o_entries: dict[str, list] = {}
    for a, m in maps.items():
        cells = o_entries[a] = []
        for j, (vec, _) in enumerate(kernel):
            # P0 has one entry per line, so no two columns share a row
            img = {m[c][0][0]: m[c][0][1] * v for c, v in vec.items() if c in m}
            if not img:
                continue
            # the signature coordinates determine kernel vectors uniquely;
            # recombine and compare to catch any drift
            coords = [(sig[f], c) for f, c in img.items() if f in sig]
            check: dict[int, Fraction | int] = {}
            for i, c in coords:
                for t, v in kernel[i][0].items():
                    check[t] = check.get(t, 0) + c * v
            if {t: v for t, v in check.items() if v} != img:
                raise RuntimeError("radical action leaves the kernel")
            cells += [(i, j, c) for i, c in coords]
    omega = MatrixModule(spec, [P0.vertex_of[free] for free in sig], o_entries)
    return P0, omega


def _columns(X: MatrixModule) -> dict[str, dict[int, list]]:
    """The one column view of X: each arrow that acts nonzero, by name, with
    each column j that has a nonzero mapped to the list of its
    (k, X(a)[k][j]) by row, read off entries, an integral value as an int.
    With one entry per line each column has one pair."""
    out: dict[str, dict[int, list]] = {}
    for a, cells in X.entries.items():
        if cells:
            cols = out[a] = {}
            for k, j, x in cells:
                cols.setdefault(j, []).append((k, x.numerator if x.denominator == 1 else x))
    return out


def _push(cols: dict[int, list], vec: dict) -> dict:
    """The image of the sparse vector vec under the matrix with the columns cols."""
    out: dict = {}
    for j, v in vec.items():
        for k, x in cols.get(j, ()):
            out[k] = out.get(k, 0) + x * v
    return {k: v for k, v in out.items() if v}


def _line_kernel(pi_cols: list[dict], d: int) -> list[tuple[dict, int]] | None:
    """The kernel of a map onto d rows whose columns have at most one nonzero
    each, as _kernel reads it off _echelon's form, or None when some row is
    hit by no column.  No two rows share a column, so no row is reduced: the
    least column p of a row is its pivot, each other column c of the row, of
    value x_c, gives the vector {c: 1, p: -x_c/x_p}, and a zero column the
    vector {c: 1}."""
    pivots: dict[int, tuple[int, Fraction | int]] = {}  # row -> (its least column, value)
    kernel = []
    for c, col in enumerate(pi_cols):
        if not col:
            kernel.append(({c: 1}, c))
            continue
        ((i, x),) = col.items()
        p, y = pivots.setdefault(i, (c, x))
        if p != c:
            kernel.append(({c: 1, p: -x // y if not x % y else Fraction(-x, y)}, c))
    return kernel if len(pivots) == d else None


def dim_ext1(X: MatrixModule, Y: MatrixModule) -> int:
    """dim Ext^1 from the syzygy sequence 0 -> OX -> P0 -> X -> 0.  P0 is a sum
    of projectives P(v), one per top, and Hom(P(v), Y) is Y_v (Yoneda); P0's
    line table counts its tops, the basis vectors that no arrow reaches."""
    if X.spec is not Y.spec and X.spec != Y.spec:
        raise SpecMismatch("modules over different algebras")
    P0, omega = syzygy(X)
    hom_p0 = sum(n * Y.vertex_of.count(u) for u, n in P0.lines[1].items())
    return dim_hom(omega, Y) - hom_p0 + dim_hom(X, Y)


def rank_sum(X: MatrixModule) -> int:
    """Sum of the ranks of the arrow matrices, each read by its columns."""
    return sum(len(_echelon(_integral(dict(col)) for col in cols.values())) for cols in _columns(X).values())


def is_regular(X: MatrixModule) -> bool:
    return rank_sum(X) == X.dim


def orbit_dimension(X: MatrixModule) -> int:
    return X.dim * X.dim - dim_hom(X, X)


def direct_sum(X: MatrixModule, *rest: MatrixModule) -> MatrixModule:
    """X plus each module of rest, blocks in argument order; with no rest, X
    itself."""
    if not rest:
        return X
    if any(Y.spec != X.spec for Y in rest):
        raise SpecMismatch("modules over different algebras")
    vertex_of: list[str] = []
    entries: dict[str, list] = {a: [] for a in X.spec.arrow_names}
    for M in (X, *rest):
        offset = len(vertex_of)
        for a, cells in M.entries.items():
            entries[a] += [(offset + i, offset + j, x) for i, j, x in cells]
        vertex_of += M.vertex_of
    return MatrixModule(X.spec, vertex_of, entries)
