"""Exact matrix realizations of string and band modules over the rationals.

This is the brute-force side of the package: hom dimensions come from
intertwiner linear systems, ext dimensions from a syzygy, and nothing is
ever rounded, so there are no tolerances anywhere.  A module is a point of
mod(A, d) and stores only that: the vertex of each basis vector
(vertex_of) and each arrow's nonzero (i, j, x) entries (entries, a
read-only mapping), besides the algebra and optional basis labels.  Its
one constructor sorts the entries and checks that they stay in their
vertex blocks and satisfy every relation, so every module, realized,
summed, a syzygy or a copy, is validated.  Everything else is derived:
dim, the vertex blocks (grading), each index's place in its block
(position), dense matrices (mats) and int_tables, each arrow as
X(a) = N / D with D the lcm of its denominators and N an integer matrix
listed by columns and by rows.  dim_hom reads each equation straight from
the columns of one module's N and the rows of the other's, scaled by the
lcm of the two D.  If both modules have one_entry_per_line, as realized
strings and bands do, an equation ties at most two unknowns, and the rank is
the merges and zeroed components of a union-find (_linked_rank).  Every
other system goes through _echelon, a loop over the fraction-free _reduce,
which eliminates an integer row against the gcd-normalised pivot rows found
so far: a rank is the number of pivots, and a kernel is read off the same
echelon form by back-substitution.  The syzygy's cover map is graded, so its
one echelon form gives both the surjectivity check and the kernel, read vertex by vertex.
Realizations are kept on their algebra (`words.keep`); dim_hom and syzygy,
keyed by modules, are the package's two module-level caches.

Basis indices are 0-based.  For a string c the basis vector at index i is
the left divisor of c with i letters; for a band realization of period m
the basis is e0..e(m-1) and the wraparound action of the period's last
letter carries the parameter (lambda when that letter is an arrow, its
reciprocal when it is an inverse letter).  Any consistent seam choice gives
an isomorphic module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, cached_property
from math import gcd, lcm
from types import MappingProxyType

from .algebra import AlgebraSpec, projective_word
from .bands import _as_letters, is_quasi_band
from .errors import NotAString, NotQuasiBand, SpecMismatch, ZeroParameter
from .words import (
    Word,
    _Frozen,
    format_word,
    is_string,
    keep,
    left_divisors,
    letter_source,
    word_vertices,
)

Matrix = tuple[tuple[Fraction, ...], ...]
Entries = tuple[tuple[int, int, Fraction], ...]
IntTable = tuple[int, dict[int, list[tuple[int, int]]], dict[int, list[tuple[int, int]]]]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class MatrixModule(_Frozen):
    _fields = ("spec", "vertex_of", "entries", "labels")

    def __init__(self, spec: AlgebraSpec, vertex_of, entries, labels=None):
        """entries maps arrows to (row, column, value) triples in any order;
        an arrow left out acts by zero.  Raises ValueError unless the data is
        a module over spec."""
        for a in entries:
            if not spec.has_arrow(a):
                raise ValueError(f"the algebra has no arrow {a}")
        stored: dict[str, Entries] = {}
        for a in spec.arrow_names:
            cells = sorted((i, j, Fraction(x)) for i, j, x in entries.get(a, ()))
            if any(p[:2] == q[:2] for p, q in zip(cells, cells[1:])):
                raise ValueError(f"matrix of {a} repeats an entry")
            stored[a] = tuple(c for c in cells if c[2])
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "vertex_of", tuple(vertex_of))
        object.__setattr__(self, "entries", MappingProxyType(stored))
        object.__setattr__(self, "labels", labels)
        _validate(self)

    def __reduce__(self):
        # a mappingproxy does not pickle; the constructor takes a plain dict
        return MatrixModule, (self.spec, self.vertex_of, dict(self.entries), self.labels)

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
    def int_tables(self) -> dict[str, IntTable]:
        """Each arrow a as (D, columns, rows) with X(a) = N / D: D is the lcm
        of the entries' denominators, N an integer matrix kept as its columns
        j -> [(k, N[k][j])] and its rows k -> [(j, N[k][j])], nonzeros only."""
        out = {}
        for a, entries in self.entries.items():
            den = lcm(*(x.denominator for _, _, x in entries))
            cols: dict[int, list[tuple[int, int]]] = {}
            rows: dict[int, list[tuple[int, int]]] = {}
            for i, j, x in entries:
                n = x.numerator * (den // x.denominator)
                cols.setdefault(j, []).append((i, n))
                rows.setdefault(i, []).append((j, n))
            out[a] = (den, cols, rows)
        return out

    @cached_property
    def one_entry_per_line(self) -> bool:
        """Whether each arrow matrix has at most one nonzero per row and per column."""
        tables = self.int_tables.values()
        return all(len(v) == 1 for _, c, r in tables for v in (*c.values(), *r.values()))

    @cached_property
    def _hash(self) -> int:
        return hash((self.spec, self.vertex_of, tuple(self.entries.items()), self.labels))

    @cached_property
    def position(self) -> tuple[int, ...]:
        """Each basis index's place inside its vertex block."""
        out = [0] * self.dim
        for idxs in self._blocks.values():
            for p, i in enumerate(idxs):
                out[i] = p
        return tuple(out)

    def __repr__(self) -> str:
        return f"MatrixModule(dim={self.dim})"


def _product(left: Entries, right: Entries) -> Entries:
    """Nonzero entries of the matrix product left * right."""
    by_row: dict[int, list] = {}
    for k, j, y in right:
        by_row.setdefault(k, []).append((j, y))
    out: dict[tuple[int, int], Fraction] = {}
    for i, k, x in left:
        for j, y in by_row.get(k, ()):
            out[i, j] = out.get((i, j), _ZERO) + x * y
    return tuple((i, j, x) for (i, j), x in out.items() if x)


def _apply(entries: Entries, vec: dict[int, Fraction]) -> dict[int, Fraction]:
    """The image of the sparse vector vec under the matrix with these entries."""
    out: dict[int, Fraction] = {}
    for i, j, x in entries:
        v = vec.get(j)
        if v:
            out[i] = out.get(i, _ZERO) + x * v
    return {i: v for i, v in out.items() if v}


def _validate(mod: MatrixModule) -> None:
    spec, vof = mod.spec, mod.vertex_of
    for u in dict.fromkeys(vof):
        if not spec.has_vertex(u):
            raise ValueError(f"basis vector at unknown vertex {u}")
    d = len(vof)
    for name, src, tgt in spec.arrows:
        for i, j, _ in mod.entries[name]:
            if not (0 <= i < d and 0 <= j < d):
                raise ValueError(f"matrix of {name} has an entry outside the basis")
            if vof[i] != tgt or vof[j] != src:
                raise ValueError(f"matrix of {name} leaves its block")
    for rel in spec.relations:
        prod = mod.entries[rel[0]]
        for name in rel[1:]:
            prod = _product(prod, mod.entries[name])
        if prod:
            raise ValueError(f"relation {'.'.join(rel)} does not vanish")


@keep
def realize_string(spec, c: Word) -> MatrixModule:
    """Module on the left divisors of c, arrows sliding along the walk."""
    if not isinstance(c, Word) or not is_string(spec, c):
        raise NotAString(format_word(c) if isinstance(c, Word) else repr(c))
    labels = tuple(format_word(w) for w in left_divisors(spec, c))
    entries: dict[str, list] = {}
    for j, l in enumerate(c.letters, start=1):
        entries.setdefault(l.arrow, []).append((j, j - 1, _ONE) if l.inverted else (j - 1, j, _ONE))
    return MatrixModule(spec, word_vertices(spec, c), entries, labels)


def realize_band(spec, qb, lam) -> MatrixModule:
    """Module on e0..e(m-1) with the parameter on the seam crossing.

    Accepts any quasi-band, primitive or not; a BandClass is realized on its
    canonical rotation.  A float lam raises TypeError: Fraction(0.1) is not 1/10.
    """
    if isinstance(lam, float):
        raise TypeError(f"band parameter must be exact, not the float {lam!r}")
    return _realize_band(spec, _as_letters(qb), Fraction(lam))


@keep
def _realize_band(spec, letters: tuple, lam: Fraction) -> MatrixModule:
    if lam == 0:
        raise ZeroParameter("band parameter must be nonzero")
    if not is_quasi_band(spec, letters):
        raise NotQuasiBand(format_word(Word(None, letters)))
    m = len(letters)
    # e_j sits at the source of letters[j - 1], e0 at that of the seam letter
    # letters[-1]
    vertex_of = [letter_source(spec, l) for l in letters[-1:] + letters[:-1]]
    entries: dict[str, list] = {}
    for j, l in enumerate(letters, 1):
        x = (_ONE / lam if l.inverted else lam) if j == m else _ONE
        cell = (j % m, j - 1, x) if l.inverted else (j - 1, j % m, x)
        entries.setdefault(l.arrow, []).append(cell)
    labels = tuple(f"e{j}" for j in range(m))
    return MatrixModule(spec, vertex_of, entries, labels)


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


@lru_cache(maxsize=None)
def dim_hom(X: MatrixModule, Y: MatrixModule) -> int:
    """Dimension of the space of maps f: X -> Y with f X(a) = Y(a) f."""
    if X.spec is not Y.spec and X.spec != Y.spec:
        raise SpecMismatch("modules over different algebras")
    # the unknown f[i][k] (i in Y, k in X, both at vertex u) is numbered
    # offset[u] + place of i in Y_u * |X_u| + place of k in X_u
    xb, yb = X._blocks, Y._blocks
    offset: dict[str, int] = {}
    nu = 0
    for u, xs in xb.items():
        offset[u] = nu
        nu += len(xs) * len(yb.get(u, ()))
    if nu == 0:
        return 0
    rank = _linked_rank if X.one_entry_per_line and Y.one_entry_per_line else _row_rank
    return nu - rank(X, Y, offset)


def _row_rank(X: MatrixModule, Y: MatrixModule, offset: dict[str, int]) -> int:
    """Rank of the hom system of any two modules, by eliminating its rows."""
    xb, yb = X._blocks, Y._blocks
    px, py = X.position, Y.position
    xt, yt = X.int_tables, Y.int_tables
    rows: list[dict[int, int]] = []
    for name, s, t in X.spec.arrows:
        dx, xcols, _ = xt[name]
        dy, _, yrows = yt[name]
        if not xcols and not yrows:
            continue
        # the equation at (i, j), i in Y_t and j in X_s for the arrow s -> t,
        # reads sum_k f[i][k] X(a)[k][j] - sum_k Y(a)[i][k] f[k][j] = 0; times
        # lcm(D_X, D_Y) its coefficients are the integers sx N_X and sy N_Y
        d = lcm(dx, dy)
        sx, sy = d // dx, -(d // dy)
        xs = xb.get(s, ())
        bt, wt = offset.get(t, 0), len(xb.get(t, ()))
        bs, ws = offset.get(s, 0), len(xs)
        stop = bt + len(yb.get(t, ())) * wt
        for j, col in xcols.items():
            # column j of X gives the equations (i, j) for all i in Y_t, in
            # the order of Y_t: f[i][k] is bt + place of i * wt + place of k
            eqs = [{f + px[k]: sx * n for k, n in col} for f in range(bt, stop, wt)]
            # the rows of Y add their side: f[k][j] is fj + place of k * ws
            fj = bs + px[j]
            for i, yrow in yrows.items():
                row = eqs[py[i]]
                for k, n in yrow:
                    c = fj + py[k] * ws
                    n = row.pop(c, 0) + sy * n  # a loop's f[i][j] is on both sides
                    if n:
                        row[c] = n
            rows.extend(eqs)
        # the equations (i, j) where column j of X is zero have Y's side only
        free = [bs + p for p, j in enumerate(xs) if j not in xcols]
        for yrow in yrows.values():
            rows.extend([{fj + py[k] * ws: sy * n for k, n in yrow} for fj in free])
    return len(_echelon(rows))


def _linked_rank(X: MatrixModule, Y: MatrixModule, offset: dict[str, int]) -> int:
    """Rank of the hom system when both modules have one_entry_per_line: each
    equation reads x f_p = y f_q, or has one side and zeroes its unknown.  A
    union-find by size keeps f_v = a/b f_parent with integers a, b, and the
    rank is its merges plus its components zeroed by one side or a cycle."""
    xb, yb = X._blocks, Y._blocks
    px, py = X.position, Y.position
    xt, yt = X.int_tables, Y.int_tables
    up: dict[int, tuple[int, int, int]] = {}  # v -> (parent, a, b): f_v = a/b f_parent
    size: dict[int, int] = {}  # each root's component size, when above 1
    zero: set[int] = set()  # the roots of the components forced to zero
    merges = 0
    for name, s, t in X.spec.arrows:
        dx, xcols, _ = xt[name]
        dy, _, yrows = yt[name]
        if not xcols and not yrows:
            continue
        d = lcm(dx, dy)
        sx, sy = d // dx, d // dy
        xs, ys = xb.get(s, ()), yb.get(t, ())
        bt, wt = offset.get(t, 0), len(xb.get(t, ()))
        bs, ws = offset.get(s, 0), len(xs)
        for j in xs:
            fj, col = bs + px[j], xcols.get(j)
            if col is None:  # column j of X is zero: each row of Y zeroes its f[k][j]
                for ((k, _),) in yrows.values():
                    q = fj + py[k] * ws
                    while q in up:
                        q = up[q][0]
                    zero.add(q)
                continue
            ((k, n),) = col
            c, sn = bt + px[k], sx * n
            for i in ys:
                # _row_rank's equation (i, j) is x f[i][k] = y f[k'][j] for row i of Y at k'
                p, yrow = c + py[i] * wt, yrows.get(i)
                if yrow is None:
                    while p in up:
                        p = up[p][0]
                    zero.add(p)
                    continue
                ((k, n),) = yrow
                q, x, y = fj + py[k] * ws, sn, sy * n
                while p in up:  # to the roots, keeping x f_p = y f_q
                    p, a, b = up[p]
                    x *= a
                    y *= b
                while q in up:
                    q, a, b = up[q]
                    y *= a
                    x *= b
                if p == q:
                    if x != y:  # an inconsistent cycle
                        zero.add(p)
                    continue
                sp, sq = size.pop(p, 1), size.pop(q, 1)
                if sp > sq:  # hang the smaller component under the larger
                    p, q, x, y = q, p, y, x
                g = gcd(x, y)  # each link in lowest terms keeps the walks' products small
                up[p] = (q, y // g, x // g)
                size[q] = sp + sq
                merges += 1
                if p in zero:
                    zero.remove(p)
                    zero.add(q)
    return merges + len(zero)


@lru_cache(maxsize=None)
def syzygy(X: MatrixModule) -> tuple[MatrixModule, MatrixModule]:
    """Minimal projective cover P0 -> X and its kernel.

    Top generators are the first coordinate vectors that extend the radical
    span, so the presentation is reproducible.
    """
    spec = X.spec
    d = X.dim
    # the radical of X is spanned by the columns of the arrow matrices
    span: dict[int, dict[int, int]] = {}
    for _, cols, _ in X.int_tables.values():
        for col in cols.values():
            _reduce(span, dict(col))
    picks = [i for i in range(d) if _reduce(span, {i: 1}) is not None]

    words = [projective_word(spec, X.vertex_of[i]) for i in picks]
    # the zero module is its own projective cover
    P0 = direct_sum(*(realize_string(spec, w) for w in words)) if words else X
    pi_cols: list[dict[int, Fraction]] = []  # columns of P0 -> X, sparse
    for pick, word in zip(picks, words):
        # the top generator is the left divisor that stops at the first inverse letter
        gen = next((j for j, l in enumerate(word.letters) if l.inverted), len(word))
        cols_p: list = [None] * (len(word) + 1)
        cols_p[gen] = {pick: _ONE}
        for j in range(gen - 1, -1, -1):
            cols_p[j] = _apply(X.entries[word.letters[j].arrow], cols_p[j + 1])
        for j in range(gen + 1, len(cols_p)):
            cols_p[j] = _apply(X.entries[word.letters[j - 1].arrow], cols_p[j - 1])
        pi_cols.extend(cols_p)
    pi_rows: list[dict[int, Fraction]] = [{} for _ in range(d)]
    for c, col in enumerate(pi_cols):
        for i, x in col.items():
            pi_rows[i][c] = x

    pivots = _echelon(map(_integral, pi_rows))
    if len(pivots) != d:
        raise RuntimeError("projective cover fails to surject")
    # the map is graded, so elimination never mixes vertex blocks and each
    # kernel vector lives at the vertex of its free column; list them vertex
    # by vertex, by free column within a vertex
    kernel = sorted(_kernel(pivots, P0.dim), key=lambda k: spec.vertex_index(P0.vertex_of[k[1]]))
    # exactness at P0: pi maps every kernel vector to zero
    for vec, _ in kernel:
        if _apply(((i, c, x) for c in vec for i, x in pi_cols[c].items()), vec):
            raise RuntimeError("a kernel vector does not map to zero")
    o_entries: dict[str, list] = {a: [] for a in spec.arrow_names}
    sig = [free for _, free in kernel]
    for a in spec.arrow_names:
        entries = P0.entries[a]
        for j, (vec, _) in enumerate(kernel):
            img = _apply(entries, vec)
            coords = [img.get(f, _ZERO) for f in sig]
            # the signature coordinates determine kernel vectors uniquely;
            # recombine and compare to catch any drift
            check: dict[int, Fraction] = {}
            for c, (kv, _) in zip(coords, kernel):
                if c:
                    for t, v in kv.items():
                        check[t] = check.get(t, _ZERO) + c * v
            if {t: v for t, v in check.items() if v} != img:
                raise RuntimeError("radical action leaves the kernel")
            for i, c in enumerate(coords):
                if c:
                    o_entries[a].append((i, j, c))
    omega = MatrixModule(spec, [P0.vertex_of[free] for free in sig], o_entries)
    return P0, omega


def dim_ext1(X: MatrixModule, Y: MatrixModule) -> int:
    """dim Ext^1 from the syzygy sequence 0 -> OX -> P0 -> X -> 0."""
    if X.spec != Y.spec:
        raise SpecMismatch("modules over different algebras")
    P0, omega = syzygy(X)
    return dim_hom(omega, Y) - dim_hom(P0, Y) + dim_hom(X, Y)


def rank_sum(X: MatrixModule) -> int:
    """Sum of the ranks of the arrow matrices, each read as its integer N."""
    return sum(len(_echelon(map(dict, rows.values()))) for _, _, rows in X.int_tables.values())


def is_regular(X: MatrixModule) -> bool:
    return rank_sum(X) == X.dim


def orbit_dimension(X: MatrixModule) -> int:
    return X.dim * X.dim - dim_hom(X, X)


def direct_sum(X: MatrixModule, *rest: MatrixModule) -> MatrixModule:
    """X plus each module of rest, blocks in argument order; the labels are
    concatenated when every summand has them."""
    mods = (X, *rest)
    if any(Y.spec != X.spec for Y in rest):
        raise SpecMismatch("modules over different algebras")
    vertex_of: list[str] = []
    entries: dict[str, list] = {a: [] for a in X.spec.arrow_names}
    for M in mods:
        offset = len(vertex_of)
        for a, cells in M.entries.items():
            entries[a] += [(offset + i, offset + j, x) for i, j, x in cells]
        vertex_of += M.vertex_of
    labels = None
    if all(M.labels is not None for M in mods):
        labels = sum((M.labels for M in mods), ())
    return MatrixModule(X.spec, vertex_of, entries, labels)
