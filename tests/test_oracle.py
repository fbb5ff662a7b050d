import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixture_algebras import ALL, GP22, GP33, KRON, LOOP
from stringbands import (
    InvalidAlgebra,
    MatrixModule,
    NotAString,
    NotQuasiBand,
    SpecMismatch,
    ZeroParameter,
    canonical_class,
    dim_ext1,
    dim_hom,
    direct_sum,
    enumerate_bands,
    enumerate_strings,
    is_regular,
    orbit_dimension,
    parse_algebra,
    parse_word,
    projective_word,
    rank_sum,
    realize_band,
    realize_string,
    syzygy,
)
from stringbands import oracle
from stringbands.oracle import _echelon, _integral, _kernel, _linked_rank, _row_rank, _validate
from stringbands.words import trivial_word

TWO = Fraction(2)
THREE = Fraction(3)
FIVE = Fraction(5)


def test_string_realization_shape_and_labels():
    M = realize_string(KRON, parse_word("a.b^-1"))
    assert M.dim == 3
    assert M.labels == ("1_2", "a", "a.b^-1")
    assert M.vertex_of == ("2", "1", "2")
    # each letter contributes a single unit entry
    assert M.entries == {"a": ((0, 1, 1),), "b": ((2, 1, 1),)}
    assert realize_string(GP22, trivial_word("u")).dim == 1
    with pytest.raises(NotAString):
        realize_string(GP22, parse_word("a.a"))


def test_band_realization_seam_carries_the_parameter():
    lam = Fraction(7)
    X = realize_band(GP33, parse_word("a^-1.b"), lam)
    assert X.dim == 2
    # the final letter of the period acts through the parameter
    assert X.entries == {"a": ((1, 0, 1),), "b": ((1, 0, lam),)}
    Y = realize_band(GP33, canonical_class(GP33, parse_word("a^-1.b")), lam)
    assert Y.entries == {"a": ((0, 1, 1),), "b": ((0, 1, 1 / lam),)}


def test_band_realization_rejects_bad_input():
    with pytest.raises(ZeroParameter):
        realize_band(GP22, parse_word("a.b^-1"), Fraction(0))
    with pytest.raises(NotQuasiBand):
        realize_band(GP22, parse_word("a.b"), TWO)


def test_band_parameters_are_exact():
    # Fraction(0.1) is 3602879701896397/2**55, not 1/10, so a float is refused
    # before it reaches the realization, even one with an exact value
    for lam in (0.1, 2.0):
        with pytest.raises(TypeError, match="float"):
            realize_band(KRON, parse_word("a.b^-1"), lam)
    # the seam letter b^-1 carries 1/lambda
    X = realize_band(KRON, parse_word("a.b^-1"), "1/10")
    assert X.entries["b"] == ((0, 1, Fraction(10)),)


def test_band_realization_checks_every_bad_call():
    # the check lives in the kept realization, and failures are not kept
    for _ in range(2):
        with pytest.raises(ZeroParameter):
            realize_band(KRON, parse_word("a.b^-1"), 0)
        with pytest.raises(NotQuasiBand):
            realize_band(KRON, parse_word("a.a^-1"), TWO)
    assert realize_band(KRON, parse_word("a.b^-1"), TWO) is realize_band(
        KRON, parse_word("a.b^-1"), 2
    )


def test_equal_modules_built_apart_compare_and_hash_equal():
    X = realize_band(GP33, parse_word("a.a.b^-1.b^-1"), Fraction(2, 3))
    # the same entries listed column-major, as integers where they are integral
    shuffled = {
        a: [(i, j, int(x) if x.denominator == 1 else x)
            for i, j, x in sorted(e, key=lambda t: t[1])]
        for a, e in X.entries.items()
    }
    Y = MatrixModule(X.spec, X.vertex_of, shuffled, X.labels)
    assert X is not Y and X == Y and hash(X) == hash(Y)
    assert Y.entries == X.entries
    S, T = (direct_sum(X, realize_string(GP33, parse_word("a"))) for _ in range(2))
    assert S is not T and S == T and hash(S) == hash(T)
    assert S != direct_sum(realize_string(GP33, parse_word("a")), X)


def test_oracle_caches_stay_inspectable():
    X = realize_string(KRON, parse_word("a.b^-1"))
    P0, omega = syzygy(X)
    hits = dim_hom.cache_info().hits, syzygy.cache_info().hits
    assert dim_hom(X, X) == dim_hom(X, X)
    assert syzygy(X) == (P0, omega)
    assert dim_hom.cache_info().hits > hits[0]
    assert syzygy.cache_info().hits > hits[1]


def test_endomorphisms_of_a_long_kronecker_string():
    M = realize_string(KRON, parse_word(".".join(["a.b^-1"] * 15)))
    assert M.dim == 31
    assert dim_hom(M, M) == 1


def test_validation_rejects_broken_modules():
    M = realize_string(KRON, parse_word("a"))
    _validate(M)
    # entry outside the (target-rows, source-cols) block of b
    with pytest.raises(ValueError, match="leaves its block"):
        MatrixModule(M.spec, M.vertex_of, {**M.entries, "b": [(1, 1, 1)]})
    # break a relation: both loops acting invertibly cannot satisfy a.a = 0
    G = realize_string(GP22, parse_word("a"))
    eye = [(0, 0, 1), (1, 1, 1)]
    with pytest.raises(ValueError, match="does not vanish"):
        MatrixModule(G.spec, G.vertex_of, {"a": eye, "b": eye})


@pytest.mark.parametrize(
    "vertex_of, entries, message",
    [
        (("u", "u"), {"a": [(0, 1, 1)], "b": [(1, 0, 1)]}, "relation a.b does not vanish"),
        (("u", "u"), {"a": [(0, 2, 1)]}, "outside the basis"),
        (("u", "u"), {"a": [(-1, 0, 1)]}, "outside the basis"),
        (("u", "w"), {}, "unknown vertex w"),
        (("u", "u"), {"c": [(0, 1, 1)]}, "no arrow c"),
        (("u", "u"), {"a": [(0, 1, 1), (0, 1, 0)]}, "repeats an entry"),
    ],
    ids=["two-loops-compose", "index-past-dim", "negative-index",
         "unknown-vertex", "unknown-arrow", "repeated-entry"],
)
def test_the_constructor_refuses_points_outside_the_variety(vertex_of, entries, message):
    with pytest.raises(ValueError, match=message):
        MatrixModule(GP22, vertex_of, entries)


def test_a_module_is_its_vertices_and_sorted_entries():
    M = MatrixModule(GP22, ["u", "u", "u"], {"b": [(2, 1, Fraction(1, 2)), (1, 0, 0), (0, 1, 3)]})
    assert M.vertex_of == ("u", "u", "u") and M.dim == 3
    assert M.entries == {"a": (), "b": ((0, 1, 3), (2, 1, Fraction(1, 2)))}
    assert M.grading == (("u", (0, 1, 2)),)
    assert dict(M.mats)["b"][2] == (0, Fraction(1, 2), 0)
    N = MatrixModule(GP22, ("u",) * 3, {"a": [], "b": [(0, 1, 3), (2, 1, Fraction(1, 2))]})
    assert M == N and hash(M) == hash(N)
    for dup in (copy.copy(M), copy.deepcopy(M), pickle.loads(pickle.dumps(M))):
        assert dup == M and hash(dup) == hash(M) and dup.entries == M.entries
    assert M != MatrixModule(GP22, ("u",) * 3, {"b": [(0, 1, 3)]})
    with pytest.raises(TypeError):
        M.entries["a"] = ((0, 1, 1),)


def test_hom_dimensions_match_known_values():
    Ma = realize_string(GP22, parse_word("a"))
    assert dim_hom(Ma, Ma) == 2
    X2 = realize_band(GP22, parse_word("a.b^-1"), TWO)
    X3 = realize_band(GP22, parse_word("a.b^-1"), THREE)
    assert dim_hom(X2, X3) == 1
    assert dim_hom(X2, X2) == 2


def test_hom_requires_matching_algebra():
    with pytest.raises(SpecMismatch):
        dim_hom(
            realize_string(GP22, parse_word("a")),
            realize_string(GP33, parse_word("a")),
        )


def test_syzygy_of_the_simple_at_the_fat_vertex():
    S = realize_string(GP22, trivial_word("u"))
    P0, omega = syzygy(S)
    assert P0.dim == 3
    assert omega.dim == 2
    assert dim_ext1(S, S) == 2


# syzygy's P0 and omega field by field, so any change to the order of their
# bases shows; the projective of vertex 1 on the dumbbell covers both
# dumbbell modules
DUMBBELL_P1 = (
    ("2", "2", "1", "1", "2", "2"),
    {"x": ((2, 3, 1),), "a": ((1, 2, 1), (4, 3, 1)), "y": ((0, 1, 1), (5, 4, 1))},
    ("1_2", "y", "y.a", "y.a.x", "y.a.x.a^-1", "y.a.x.a^-1.y^-1"),
)


@pytest.mark.parametrize(
    "spec, word, lam, expected",
    [
        (GP22, "1_u", None, (
            (("u", "u", "u"), {"a": ((0, 1, 1),), "b": ((2, 1, 1),)}, ("1_u", "a", "a.b^-1")),
            (("u", "u"), {"a": (), "b": ()}, None),
        )),
        (LOOP, "x.a^-1.y.a", Fraction(7, 2), (
            DUMBBELL_P1,
            (("2", "2"), {"x": (), "a": (), "y": ((1, 0, 1),)}, None),
        )),
        # omega has basis vectors at both vertices, and the one at vertex 1
        # comes from a later column of P0 than two of those at vertex 2
        (LOOP, "1_1", None, (
            DUMBBELL_P1,
            (("1", "2", "2", "2", "2"), {"x": (), "a": ((2, 0, 1),), "y": ((1, 2, 1), (4, 3, 1))}, None),
        )),
    ],
    ids=["rad2-simple-u", "dumbbell-band", "dumbbell-simple-1"],
)
def test_syzygy_presentation_is_pinned(spec, word, lam, expected):
    w = parse_word(word)
    X = realize_string(spec, w) if lam is None else realize_band(spec, w, lam)
    assert tuple((M.vertex_of, dict(M.entries), M.labels) for M in syzygy(X)) == expected


def test_syzygy_refuses_a_kernel_vector_the_cover_does_not_kill(monkeypatch):
    X = realize_band(GP22, parse_word("a.b^-1"), TWO)

    def bent_kernel(pivots, ncols):
        basis = _kernel(pivots, ncols)
        # moving a vector along a pivot column of the cover map takes it out
        # of the kernel: the pivot columns are independent, so none is zero
        vec, free = next((vec, free) for vec, free in basis if len(vec) > 1)
        pivot = next(c for c in vec if c != free)
        vec[pivot] += 1
        return basis

    monkeypatch.setattr(oracle, "_kernel", bent_kernel)
    syzygy.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="^a kernel vector does not map to zero$"):
            syzygy(X)
    finally:
        syzygy.cache_clear()


def test_projectives_have_no_self_extensions():
    P = realize_string(GP22, projective_word(GP22, "u"))
    X = realize_band(GP22, parse_word("a.b^-1"), TWO)
    assert dim_ext1(P, X) == 0
    assert dim_ext1(P, P) == 0


def test_the_zero_module_has_a_zero_syzygy():
    P = realize_string(GP22, projective_word(GP22, "u"))
    Z = syzygy(P)[1]  # a projective's syzygy is zero
    assert Z.dim == 0
    P0, omega = syzygy(Z)
    assert (P0.dim, omega.dim) == (0, 0)
    assert dim_ext1(Z, P) == 0
    assert dim_ext1(Z, realize_band(GP22, parse_word("a.b^-1"), TWO)) == 0


def test_ext_detects_the_extendable_self_pair():
    B2 = canonical_class(GP33, parse_word("a^-1.b"))
    assert dim_ext1(realize_band(GP33, B2, TWO), realize_band(GP33, B2, THREE)) == 1
    BK = canonical_class(KRON, parse_word("a.b^-1"))
    assert dim_ext1(realize_band(KRON, BK, TWO), realize_band(KRON, BK, THREE)) == 0


@pytest.mark.parametrize(
    "text",
    [
        "vertex u\narrow a : u -> u\n",
        "vertex u\narrow a : u -> u\narrow b : u -> u\nrelation a.a\n",
    ],
    ids=["relation-free-loop", "two-loops-only-a.a"],
)
def test_an_endless_relation_free_path_is_refused(text):
    spec = parse_algebra(text)
    with pytest.raises(InvalidAlgebra):
        projective_word(spec, "u")
    S = realize_string(spec, trivial_word("u"))
    with pytest.raises(InvalidAlgebra):
        dim_ext1(S, S)


def test_regularity_ranks():
    X = realize_band(GP22, parse_word("a.b^-1"), TWO)
    assert rank_sum(X) == 2 and is_regular(X)
    M = realize_string(GP22, parse_word("a"))
    assert rank_sum(M) == 1 and not is_regular(M)


def test_orbit_dimension_and_direct_sum():
    X2 = realize_band(GP22, parse_word("a.b^-1"), TWO)
    X3 = realize_band(GP22, parse_word("a.b^-1"), THREE)
    assert orbit_dimension(X2) == 2
    S = direct_sum(X2, X3)
    assert S.dim == 4
    assert dim_hom(S, S) == 6
    # any number of summands, in argument order, labels concatenated
    assert direct_sum(X2) == X2
    assert direct_sum(X2, X3, X2) == direct_sum(S, X2)
    assert direct_sum(X2, X3, X2).labels == ("e0", "e1") * 3
    with pytest.raises(SpecMismatch):
        direct_sum(X2, realize_string(GP33, parse_word("a")))


def test_generic_value_is_stable_across_parameters():
    B2 = canonical_class(GP33, parse_word("a^-1.b"))
    values = {
        dim_hom(realize_band(GP33, B2, lam), realize_band(GP33, B2, mu))
        for lam, mu in ((TWO, THREE), (TWO, FIVE), (THREE, FIVE), (FIVE, TWO))
    }
    assert values == {1}


SAMPLE_MODULES = {}
for _spec, _name in ((GP22, "gp22"), (GP33, "gp33"), (LOOP, "loop")):
    mods = [realize_string(_spec, w) for w in enumerate_strings(_spec, 3)]
    mods += [realize_band(_spec, B, TWO) for B in enumerate_bands(_spec, 4)]
    SAMPLE_MODULES[_name] = mods


@st.composite
def module_triple(draw):
    mods = SAMPLE_MODULES[draw(st.sampled_from(sorted(SAMPLE_MODULES)))]
    return tuple(draw(st.sampled_from(mods)) for _ in range(3))


@settings(max_examples=40, deadline=None)
@given(module_triple())
def test_hom_and_ext_are_additive_over_direct_sums(triple):
    X, Y, Z = triple
    S = direct_sum(X, Y)
    assert dim_hom(S, Z) == dim_hom(X, Z) + dim_hom(Y, Z)
    assert dim_hom(Z, S) == dim_hom(Z, X) + dim_hom(Z, Y)
    assert dim_ext1(S, Z) == dim_ext1(X, Z) + dim_ext1(Y, Z)


@settings(max_examples=40, deadline=None)
@given(module_triple())
def test_realized_modules_pass_validation(triple):
    for M in triple:
        _validate(M)


# band parameters of the benchmark pool, with small integers around them
POOL = (2, 3, 5, Fraction(7, 2), -1, Fraction(2, 3), Fraction(11, 5))
ENTRIES = (0, 0, 0, 0, 1, -1, 2, -3, 4) + tuple(
    v for lam in POOL for v in (Fraction(lam), 1 / Fraction(lam))
)


@st.composite
def rational_matrix(draw):
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    return [
        [Fraction(draw(st.sampled_from(ENTRIES))) for _ in range(ncols)]
        for _ in range(nrows)
    ]


def assert_matches_sympy(rows):
    """_echelon's rank and _kernel's basis agree with sympy on dense Fraction rows."""
    sympy = pytest.importorskip("sympy")
    ncols = len(rows[0])
    sparse = [{c: x for c, x in enumerate(row) if x} for row in rows]
    reference = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
    )
    pivots = _echelon(map(_integral, sparse))
    assert len(pivots) == reference.rank()
    kernel = _kernel(pivots, ncols)
    free = [f for _, f in kernel]
    for vec, f in kernel:
        assert all(vec.get(g, 0) == (g == f) for g in free)
        assert all(sum(row[c] * v for c, v in vec.items()) == 0 for row in rows)
    # the unit-at-free-column basis is unique, so it is sympy's nullspace too
    expected = [
        [Fraction(int(x.p), int(x.q)) for x in v] for v in reference.nullspace()
    ]
    assert [[vec.get(c, 0) for c in range(ncols)] for vec, _ in kernel] == expected


@settings(max_examples=200, deadline=None)
@given(rational_matrix())
def test_elimination_matches_sympy(rows):
    assert_matches_sympy(rows)


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 3, 0], [0, -2, 0], [1, 0, 1]],
        [[1, 2, 0, 0], [0, 5, 0, 0], [0, 1, 1, 0], [0, 1, 0, -1]],
        [[2, 0, 0], [0, 1, 0], [1, -1, 0]],
        [[0, 0, 1], [1, 0, 4], [3, 1, 0]],
        [[1, 1, 0], [2, 2, 0], [0, 0, 1]],
    ],
    ids=[
        "one-term-row-twice",
        "one-term-column-in-longer-rows",
        "longer-row-strips-to-nothing",
        "longer-row-strips-to-one-term",
        "longer-rows-share-a-non-unit-pivot",
    ],
)
def test_unit_rows_settle_before_elimination(rows):
    assert_matches_sympy([[Fraction(x) for x in row] for row in rows])


def test_a_module_with_its_integer_table_still_equals_a_fresh_one():
    X = realize_band(GP33, parse_word("a.a.b^-1.b^-1"), Fraction(2, 3))
    # X(b) has the entries 3/2 at (0, 3) and 1 at (3, 2), so N(b) = 2 X(b)
    assert X.int_tables["b"] == (2, {3: [(0, 3)], 2: [(3, 2)]}, {0: [(3, 3)], 3: [(2, 2)]})
    fresh = MatrixModule(X.spec, X.vertex_of, X.entries, X.labels)
    assert "int_tables" in X.__dict__ and "int_tables" not in fresh.__dict__
    assert X == fresh and hash(X) == hash(fresh) and repr(X) == repr(fresh)
    assert pickle.dumps(X) == pickle.dumps(fresh)
    assert pickle.loads(pickle.dumps(X)) == fresh


LOWER = (0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3))
CONJUGATION_POOL = {}
for _name, _spec in ALL.items():
    mods = [realize_string(_spec, w) for w in enumerate_strings(_spec, 3)]
    mods += [realize_band(_spec, B, lam) for B in enumerate_bands(_spec, 4)
             for lam in (TWO, Fraction(7, 2))]
    CONJUGATION_POOL[_name] = mods


def conjugate(M, lower):
    """M in a new basis: X'(a) = g_t X(a) g_s^-1, where g_u is unit lower
    triangular on the block of u with its lower entries taken from lower."""
    d = M.dim
    g = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    values = iter(lower)
    for u in M.spec.vertices:
        idxs = [i for i, v in enumerate(M.vertex_of) if v == u]
        for p, i in enumerate(idxs):
            for j in idxs[:p]:
                g[i][j] = Fraction(next(values, 0))
    # g is unit lower triangular, so its inverse follows by forward substitution
    inv = [[Fraction(0)] * d for _ in range(d)]
    for c in range(d):
        for i in range(d):
            inv[i][c] = (i == c) - sum(g[i][k] * inv[k][c] for k in range(i))
    cells = {}
    for a, entries in M.entries.items():
        m = [[0] * d for _ in range(d)]
        for i, j, x in entries:
            m[i][j] = x
        gm = [[sum(g[i][k] * m[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
        cells[a] = [
            (i, j, x)
            for i in range(d) for j in range(d)
            if (x := sum(gm[i][k] * inv[k][j] for k in range(d)))
        ]
    return MatrixModule(M.spec, M.vertex_of, cells, M.labels)


@st.composite
def conjugated_pair(draw):
    mods = CONJUGATION_POOL[draw(st.sampled_from(sorted(CONJUGATION_POOL)))]
    X, Y = (draw(st.sampled_from(mods)) for _ in range(2))
    lowers = (draw(st.lists(st.sampled_from(LOWER), max_size=12)) for _ in range(2))
    return X, Y, *(conjugate(M, lower) for M, lower in zip((X, Y), lowers))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(conjugated_pair())
def test_a_change_of_basis_keeps_hom_ext_and_ranks(pair):
    X, Y, X2, Y2 = pair
    assert dim_hom(X2, Y2) == dim_hom(X, Y)
    assert dim_hom(Y2, X2) == dim_hom(Y, X)
    assert dim_ext1(X2, Y2) == dim_ext1(X, Y)
    assert rank_sum(X2) == rank_sum(X) and is_regular(X2) == is_regular(X)


def test_conjugated_modules_reach_beyond_one_entry_per_column():
    M = realize_band(GP33, parse_word("a.a.b^-1.b^-1"), Fraction(7, 2))
    N = conjugate(M, (1, Fraction(1, 2), -1, 2, 3, 1))
    assert max(len(col) for _, cols, _ in N.int_tables.values() for col in cols.values()) > 1
    assert M != N and dim_hom(N, M) == dim_hom(M, M) and dim_ext1(N, N) == dim_ext1(M, M)


def unknown_offsets(X, Y):
    """dim_hom's numbering of the unknowns: each vertex's first index, and
    the number of unknowns."""
    offset, nu = {}, 0
    for u, xs in X.grading:
        offset[u] = nu
        nu += len(xs) * sum(len(ys) for v, ys in Y.grading if v == u)
    return offset, nu


def assert_linked_rank_is_the_elimination_rank(X, Y):
    offset, nu = unknown_offsets(X, Y)
    if nu:
        assert _linked_rank(X, Y, offset) == _row_rank(X, Y, offset), (X.entries, Y.entries)


# every module the hom-grid and ext-survey workloads give dim_hom: strings
# <= 4 and bands <= 6 at three parameters, one negative and one not an
# integer, with each module's projective cover and syzygy
LINKED_POOL = {}
for _name, _spec in ALL.items():
    mods = [realize_string(_spec, w) for w in enumerate_strings(_spec, 4)]
    mods += [realize_band(_spec, B, lam) for B in enumerate_bands(_spec, 6)
             for lam in (TWO, -1, Fraction(2, 3))]
    LINKED_POOL[_name] = list(dict.fromkeys(mods + [M for X in mods for M in syzygy(X)]))


def test_realized_modules_and_their_syzygies_have_one_entry_per_line():
    # 173 distinct modules, so 10,027 ordered pairs within a fixture
    assert sum(map(len, LINKED_POOL.values())) == 173
    for mods in LINKED_POOL.values():
        assert all(M.one_entry_per_line for M in mods)
    N = conjugate(realize_band(GP33, parse_word("a.a.b^-1.b^-1"), TWO), (1, 1))
    assert not N.one_entry_per_line


def test_the_path_flag_stays_out_of_equality_hash_repr_and_pickles():
    X = realize_band(GP33, parse_word("a.a.b^-1.b^-1"), Fraction(2, 3))
    fresh = MatrixModule(X.spec, X.vertex_of, X.entries, X.labels)
    assert X.one_entry_per_line
    assert "one_entry_per_line" in X.__dict__ and "one_entry_per_line" not in fresh.__dict__
    assert X == fresh and hash(X) == hash(fresh) and repr(X) == repr(fresh)
    assert pickle.dumps(X) == pickle.dumps(fresh)


@pytest.mark.parametrize("name", sorted(ALL))
def test_the_union_find_rank_equals_the_elimination_rank(name):
    # equal parameters included: both ends may be the same band module
    mods = LINKED_POOL[name]
    for X in mods:
        for Y in mods:
            assert_linked_rank_is_the_elimination_rank(X, Y)


SCALES = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 5), Fraction(-11, 4))


def rescale(M, scales):
    """M in the basis c_i e_i: X'(a) = g X(a) g^-1 for g = diag(c_0, c_1, ...)."""
    c = [Fraction(x) for x in scales]
    cells = {a: [(i, j, x * c[i] / c[j]) for i, j, x in entries] for a, entries in M.entries.items()}
    return MatrixModule(M.spec, M.vertex_of, cells, M.labels)


@st.composite
def rescaled_pair(draw):
    mods = LINKED_POOL[draw(st.sampled_from(sorted(LINKED_POOL)))]
    X, Y = (draw(st.sampled_from(mods)) for _ in range(2))
    scales = (draw(st.lists(st.sampled_from(SCALES), min_size=M.dim, max_size=M.dim)) for M in (X, Y))
    return X, Y, *(rescale(M, c) for M, c in zip((X, Y), scales))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rescaled_pair())
def test_a_diagonal_change_of_basis_keeps_the_union_find_path_and_its_answers(pair):
    X, Y, X2, Y2 = pair
    assert X2.one_entry_per_line and Y2.one_entry_per_line
    assert_linked_rank_is_the_elimination_rank(X2, Y2)
    assert_linked_rank_is_the_elimination_rank(Y2, X2)
    assert dim_hom(X2, Y2) == dim_hom(X, Y)
    assert dim_hom(Y2, X2) == dim_hom(Y, X)
    assert dim_ext1(X2, Y2) == dim_ext1(X, Y)
