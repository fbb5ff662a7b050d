import copy
import functools
import gc
import pickle
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixture_algebras import ALL, GP22, GP33, KRON, LOOP, kept
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
    format_word,
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
from stringbands.oracle import _echelon, _integral, _kernel, _line_kernel, _row_rank
from stringbands.bands import band_id_tally
from stringbands.words import letter_source, trivial_word

TWO = Fraction(2)
THREE = Fraction(3)
FIVE = Fraction(5)


def test_string_realization_shape_and_labels():
    M = realize_string(KRON, parse_word("a.b^-1"))
    assert M.dim == 3
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


def _band_by_definition(spec, letters, lam) -> MatrixModule:
    """M(b, 1, lam) built straight from its definition: e_j sits at the
    source of letters[j-1] (e_0 at that of the seam letter letters[-1]);
    letter j, indices mod m, is an arrow mapping e_j to e_(j-1) or the
    inverse of one mapping e_(j-1) to e_j, by 1, but across the seam by lam
    for an arrow and by 1/lam for an inverse letter."""
    m = len(letters)
    entries = {}
    for j, l in enumerate(letters, 1):
        x = Fraction(1) if j < m else 1 / lam if l.inverted else lam
        cell = (j % m, j - 1, x) if l.inverted else (j - 1, j % m, x)
        entries.setdefault(l.arrow, []).append(cell)
    vertex_of = [letter_source(spec, letters[j - 1]) for j in range(m)]
    return MatrixModule(spec, vertex_of, entries)


def test_band_realizations_match_the_definition():
    params = (TWO, Fraction(-1), Fraction(2, 3), Fraction(11, 5))
    seams = set()
    for fixture in ALL.values():
        spec = copy.copy(fixture)
        classes = enumerate_bands(spec, 8)
        for B in classes:
            seams.add(B.letters[-1].inverted)
            for lam in params:
                M, R = realize_band(spec, B, lam), _band_by_definition(spec, B.letters, lam)
                assert M == R and hash(M) == hash(R)
                assert M.entries == R.entries
                assert M.lines == R.lines and M.one_entry_per_line is R.one_entry_per_line is True
            # the band tallies at every reach rescan at 1, 2, 4, ..., each
            # reading the kept quasi-band check
            for reach in range(1, 2 * B.period + 1):
                for side in (True, False):
                    band_id_tally(spec, B.letters, side, reach)
        # each class was checked and shaped once, whatever its parameters
        # and reaches
        assert spec.quasi_band_codes.keys() == spec.band_shapes.keys() == {B.letters for B in classes}
        sizes = spec.kept_sizes()
        assert sizes["quasi_band_codes"] == sizes["band_shapes"] == sizes["classes"] == len(classes)
        assert sizes["band_realizations"] == len(params) * len(classes)
    # the seam letter, last of the canonical reading, is inverted on some
    # classes and an arrow on others
    assert seams == {True, False}


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
    Y = MatrixModule(X.spec, X.vertex_of, shuffled)
    assert X is not Y and X == Y and hash(X) == hash(Y)
    assert Y.entries == X.entries
    S, T = (direct_sum(X, realize_string(GP33, parse_word("a"))) for _ in range(2))
    assert S is not T and S == T and hash(S) == hash(T)
    assert S != direct_sum(realize_string(GP33, parse_word("a")), X)


def test_oracle_caches_stay_inspectable():
    # syzygy, the projective covers it builds and their projective words are
    # kept on the algebra object of its module, keyed by value; dim_hom
    # keeps nothing
    spec = copy.copy(KRON)
    X = realize_string(spec, parse_word("a.b^-1"))
    P0, omega = syzygy(X)
    assert syzygy(X) is syzygy(X)
    n = dim_hom(X, X)
    assert spec.syzygies == {X: (P0, omega)}
    # a module over an equal algebra object is accepted
    twin = copy.copy(spec)
    Z = realize_string(twin, parse_word("a.b^-1"))
    assert dim_hom(Z, X) == n
    # a module over another algebra is refused
    with pytest.raises(SpecMismatch):
        dim_hom(X, realize_string(GP33, parse_word("a")))
    # the string test is kept too, as every realization checks its word
    assert {n for n, v in kept(spec).items() if v} == {
        "string_windows", "realizations", "projective_words", "covers", "syzygies"}
    assert {n for n, v in kept(twin).items() if v} == {"string_windows", "realizations"}
    # the projective cover is kept per tuple of tops: the strings a and b
    # both have the one top at vertex 1, and share one P0 object.  The cover
    # keeps P0 (with one top, the realized word itself: a direct sum of one
    # module is that module) and P0's columns; the word is kept per vertex
    P_a, _ = syzygy(realize_string(spec, parse_word("a")))
    P_b, _ = syzygy(realize_string(spec, parse_word("b")))
    assert P_a is P_b
    P0, maps = spec.covers[("1",)]
    (word,) = spec.projective_words.values()
    assert P0 is P_a and P0 is realize_string(spec, word) is direct_sum(P0)
    assert list(spec.projective_words) == ["1"] and format_word(word) == "a.b^-1"
    assert maps == {"a": {1: [(0, 1)]}, "b": {1: [(2, 1)]}} == oracle._columns(P0)


def test_an_algebra_is_freed_with_its_oracle_answers():
    spec = copy.copy(KRON)
    ref = weakref.ref(spec)
    X = realize_string(spec, parse_word("a.b^-1"))
    dim_hom(X, X)
    syzygy(X)
    dim_ext1(X, X)
    del spec, X
    gc.collect()
    assert ref() is None


def test_endomorphisms_of_a_long_kronecker_string():
    M = realize_string(KRON, parse_word(".".join(["a.b^-1"] * 15)))
    assert M.dim == 31
    assert dim_hom(M, M) == 1


def test_validation_rejects_broken_modules():
    M = realize_string(KRON, parse_word("a"))
    assert MatrixModule(M.spec, M.vertex_of, M.entries) == M
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


@pytest.mark.parametrize(
    "cell, message",
    [((99, 99, 0), "outside the basis"), ((-1, 0, 0), "outside the basis"), ((0, 1, 0), "leaves its block")],
    ids=["index-past-dim", "negative-index", "outside-block"],
)
def test_the_constructor_checks_a_zero_cell_like_any_other(cell, message):
    # a: 1 -> 2 on kronecker, so its block is row 1, column 0
    with pytest.raises(ValueError, match=message):
        MatrixModule(KRON, ("1", "2"), {"a": [(1, 0, 1), cell]})


def test_the_constructor_refuses_float_entries():
    # Fraction(0.1) is 3602879701896397/2**55, not 1/10; like a band
    # parameter, a float entry is refused even when its value is exact
    for x in (0.1, 2.0):
        with pytest.raises(TypeError, match="float"):
            MatrixModule(KRON, ("1", "2"), {"a": [(1, 0, x)]})
    M = MatrixModule(KRON, ("1", "2"), {"a": [(1, 0, "1/10")], "b": [(1, 0, 2)]})
    assert M.entries == {"a": ((1, 0, Fraction(1, 10)),), "b": ((1, 0, 2),)}


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
    # the point is the whole module: there are no basis labels to give
    with pytest.raises(TypeError):
        MatrixModule(GP22, M.vertex_of, M.entries, ("x", "y", "z"))


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
    with pytest.raises(SpecMismatch):
        dim_ext1(realize_string(GP22, parse_word("a")), realize_string(GP33, parse_word("a")))


def test_a_syzygy_that_is_a_realized_string_is_one_value_with_it():
    # on two_loops_cubic the syzygy of M(b.b) is the point M(a): one module
    # value, so one key in every table that keeps modules
    spec = copy.copy(GP33)
    omega = syzygy(realize_string(spec, parse_word("b.b")))[1]
    A = realize_string(spec, parse_word("a"))
    assert omega is not A
    assert omega == A and hash(omega) == hash(A)
    assert syzygy(omega) is syzygy(A)
    assert len(spec.syzygies) == 2


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
)


@pytest.mark.parametrize(
    "spec, word, lam, expected",
    [
        (GP22, "1_u", None, (
            (("u", "u", "u"), {"a": ((0, 1, 1),), "b": ((2, 1, 1),)}),
            (("u", "u"), {"a": (), "b": ()}),
        )),
        (LOOP, "x.a^-1.y.a", Fraction(7, 2), (
            DUMBBELL_P1,
            (("2", "2"), {"x": (), "a": (), "y": ((1, 0, 1),)}),
        )),
        # omega has basis vectors at both vertices, and the one at vertex 1
        # comes from a later column of P0 than two of those at vertex 2
        (LOOP, "1_1", None, (
            DUMBBELL_P1,
            (("1", "2", "2", "2", "2"), {"x": (), "a": ((2, 0, 1),), "y": ((1, 2, 1), (4, 3, 1))}),
        )),
    ],
    ids=["rad2-simple-u", "dumbbell-band", "dumbbell-simple-1"],
)
def test_syzygy_presentation_is_pinned(spec, word, lam, expected):
    w = parse_word(word)
    X = realize_string(spec, w) if lam is None else realize_band(spec, w, lam)
    assert tuple((M.vertex_of, dict(M.entries)) for M in syzygy(X)) == expected


def test_syzygy_refuses_a_kernel_vector_the_cover_does_not_kill(monkeypatch):
    # on a fresh algebra object no syzygy is kept yet, so the bent _kernel
    # runs: X is conjugated off one entry per line, so it is eliminated
    X = conjugate(realize_band(copy.copy(GP22), parse_word("a.b^-1"), TWO), (1,))
    assert not X.one_entry_per_line

    def bent_kernel(pivots, ncols):
        basis = _kernel(pivots, ncols)
        # moving a vector along a pivot column of the cover map takes it out
        # of the kernel: the pivot columns are independent, so none is zero
        vec, free = next((vec, free) for vec, free in basis if len(vec) > 1)
        pivot = next(c for c in vec if c != free)
        vec[pivot] += 1
        return basis

    monkeypatch.setattr(oracle, "_kernel", bent_kernel)
    with pytest.raises(RuntimeError, match="^a kernel vector does not map to zero$"):
        syzygy(X)


def test_syzygy_refuses_a_kernel_vector_off_the_line_table_the_cover_does_not_kill(monkeypatch):
    # the twin of the test above, on the line table's kernel
    X = realize_band(copy.copy(GP22), parse_word("a.b^-1"), TWO)
    assert X.one_entry_per_line

    def bent_kernel(pi_cols, d):
        basis = _line_kernel(pi_cols, d)
        # moving a vector along its row's pivot column takes it out of the kernel
        vec, free = next((vec, free) for vec, free in basis if len(vec) > 1)
        pivot = next(c for c in vec if c != free)
        vec[pivot] += 1
        return basis

    monkeypatch.setattr(oracle, "_line_kernel", bent_kernel)
    with pytest.raises(RuntimeError, match="^a kernel vector does not map to zero$"):
        syzygy(X)


@pytest.mark.parametrize("cells", [[(0, 0, 2)], [(0, 0, 1), (0, 1, 1), (1, 1, 1)]], ids=["lines", "echelon"])
def test_syzygy_refuses_a_module_its_radical_spans(cells):
    # a relation-free loop acting invertibly: every basis vector is reached,
    # so no top is picked and the empty cover hits no row.  The Jordan block
    # has two entries in row 0, so it is eliminated
    X = MatrixModule(LOOP1, ("u",) * (1 + max(j for _, j, _ in cells)), {"a": cells})
    assert X.one_entry_per_line == (len(cells) == 1)
    with pytest.raises(RuntimeError, match="^projective cover fails to surject$"):
        syzygy(X)


@pytest.mark.parametrize("kernel", ["_line_kernel", "_kernel"])
def test_syzygy_refuses_a_kernel_that_the_radical_leaves(monkeypatch, kernel):
    # M(x) on dumbbell: its syzygy has y acting, and the last kernel vector
    # is reached by it, so the rest still map to zero but are not closed
    # under the radical.  The conjugated copy is eliminated
    X = realize_string(copy.copy(LOOP), parse_word("x"))
    if kernel == "_kernel":
        X = conjugate(X, LOWER[2:])
    assert X.one_entry_per_line == (kernel == "_line_kernel")
    whole = getattr(oracle, kernel)
    monkeypatch.setattr(oracle, kernel, lambda *args: whole(*args)[:-1])
    with pytest.raises(RuntimeError, match="^radical action leaves the kernel$"):
        syzygy(X)


@pytest.mark.parametrize("by_lines", [True, False], ids=["lines", "echelon"])
def test_syzygy_refuses_an_omega_outside_the_variety(by_lines):
    # both paths push the kernel through the kept cover's maps, and Ω is
    # validated by its constructor like any module.  A planted cover of the
    # simple at vertex 1 whose y sends the column y of P(1) to the row y.a,
    # at vertex 1, keeps every image in the kernel (each kernel vector is
    # one zero column of the cover map), so only the constructor refuses it
    spec = copy.copy(LOOP)
    S = realize_string(spec, trivial_word("1"))
    P0 = realize_string(spec, projective_word(spec, "1"))
    maps = {**oracle._columns(P0), "y": {1: [(2, 1)], 4: [(5, 1)]}}
    assert oracle._columns(P0)["y"] == {1: [(0, 1)], 4: [(5, 1)]}
    spec.covers[("1",)] = (P0, maps)
    with pytest.raises(ValueError, match="^matrix of y leaves its block$"):
        oracle._presentation(S, by_lines)


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
    # any number of summands, in argument order
    assert direct_sum(X2) == X2
    assert direct_sum(X2, X3, X2) == direct_sum(S, X2)
    with pytest.raises(SpecMismatch):
        direct_sum(X2, realize_string(GP33, parse_word("a")))


def test_generic_value_is_stable_across_parameters():
    B2 = canonical_class(GP33, parse_word("a^-1.b"))
    values = {
        dim_hom(realize_band(GP33, B2, lam), realize_band(GP33, B2, mu))
        for lam, mu in ((TWO, THREE), (TWO, FIVE), (THREE, FIVE), (FIVE, TWO))
    }
    assert values == {1}


# The module pools below are built on first use, not at import, so a fault
# in the package fails the tests that use a pool by name instead of stopping
# this whole module at collection
SAMPLE_SPECS = {"gp22": GP22, "gp33": GP33, "loop": LOOP}


@functools.cache
def sample_modules(name):
    spec = SAMPLE_SPECS[name]
    mods = [realize_string(spec, w) for w in enumerate_strings(spec, 3)]
    return mods + [realize_band(spec, B, TWO) for B in enumerate_bands(spec, 4)]


@st.composite
def module_triple(draw):
    mods = sample_modules(draw(st.sampled_from(sorted(SAMPLE_SPECS))))
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
        assert MatrixModule(M.spec, M.vertex_of, M.entries) == M


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
    # X(b) has the entries 3/2 at (0, 3) and 1 at (3, 2); rank_sum and both
    # syzygy paths read its columns, an integral value as an int.  X has one
    # entry per line, so its own syzygy reads the line table
    assert X.entries["b"] == ((0, 3, Fraction(3, 2)), (3, 2, 1))
    cols = oracle._columns(X)["b"]
    assert cols == {3: [(0, Fraction(3, 2))], 2: [(3, 1)]}
    assert [type(x) for pairs in cols.values() for _, x in pairs] == [Fraction, int]
    # and build no view on X
    views = set(X.__dict__) | {"_hash"}
    assert rank_sum(X) == 4 and [M.dim for M in syzygy(X)] == [5, 1]
    assert set(X.__dict__) == views
    fresh = MatrixModule(X.spec, X.vertex_of, X.entries)
    assert X == fresh and hash(X) == hash(fresh) and repr(X) == repr(fresh)
    assert pickle.dumps(X) == pickle.dumps(fresh)
    assert pickle.loads(pickle.dumps(X)) == fresh


def test_the_line_table_stays_out_of_equality_hash_repr_and_pickles():
    X = realize_band(GP33, parse_word("a.a.b^-1.b^-1"), Fraction(2, 3))
    # the masks of e0..e3 with in-bits 1 (a) and 2 (b) and stay-bits 4 (a)
    # and 8 (b): both arrows reach e0 and leave e2, e1 is reached by a and
    # left by a, e3 reached by b and left by b.  Then the one top (e2) and
    # the one socle vector (e0) at u; the edges of b are (j, k, N[k][j])
    # with X(b) = N / 2, under b's declaration index
    assert X.lines == (
        [3 | 12, 1 | 8, 0, 2 | 4],
        {"u": 1},
        {"u": 1},
        {0: (1, [(1, 0, 1), (2, 1, 1)]), 1: (2, [(3, 0, 3), (2, 3, 2)])},
    )
    fresh = MatrixModule(X.spec, X.vertex_of, X.entries)
    assert fresh.lines == X.lines
    assert X == fresh and hash(X) == hash(fresh) and repr(X) == repr(fresh)
    assert pickle.dumps(X) == pickle.dumps(fresh)
    assert pickle.loads(pickle.dumps(X)).lines == X.lines


def test_hom_between_realized_modules_builds_only_the_line_table():
    # a copied algebra keeps nothing yet, so no other test built these modules' views
    spec = copy.copy(GP33)
    X = realize_band(spec, parse_word("a.a.b^-1.b^-1"), Fraction(2, 3))
    Y = realize_string(spec, parse_word("a.b^-1"))
    assert (dim_hom(X, Y), dim_hom(Y, X), dim_hom(X, X)) == (3, 3, 4)
    for M in (X, Y):
        assert set(M.__dict__) - set(M._fields) == {"lines", "one_entry_per_line"}


def unknowns(X, Y):
    """The number of unknowns f[i][k] of the hom system, i in Y and k in X at
    one vertex, counted off the public grading."""
    ys = dict(Y.grading)
    return sum(len(xs) * len(ys[u]) for u, xs in X.grading)


LOOP1 = parse_algebra("vertex u\narrow a: u -> u\n")


@pytest.mark.parametrize(
    "x, y, expected",
    [
        ([(0, 0, 2)], [(0, 0, 2)], 1),
        ([(0, 0, 2)], [(0, 0, 3)], 0),
        ([(0, 0, 2), (1, 1, 2)], [(0, 0, 2)], 2),
        ([(0, 0, 2)], [(0, 0, 2), (1, 1, 2)], 2),
        ([(0, 0, 2), (1, 1, 2)], [(0, 0, 2), (1, 1, 2)], 4),
    ],
    ids=["[2]-[2]", "[2]-[3]", "diag-[2]", "[2]-diag", "diag-diag"],
)
def test_a_diagonal_loop_entry_counts_its_unknown_once(x, y, expected):
    # a relation-free loop acting by a nonzero diagonal entry on both modules
    # gives an edge pair j = k, h = i that ties f[i][k] to itself: one
    # unknown, free when the two entries agree and zero when they do not
    X, Y = (MatrixModule(LOOP1, ("u",) * len(cells), {"a": cells}) for cells in (x, y))
    assert X.one_entry_per_line and Y.one_entry_per_line
    assert dim_hom(X, Y) == unknowns(X, Y) - _row_rank(X, Y) == expected


def test_a_zeroed_unknown_zeroes_its_touched_component():
    X = realize_string(KRON, parse_word("a"))
    Y = realize_string(KRON, parse_word("a.b^-1"))
    # X is x1 -a-> x0 and Y is y1 -a-> y0, y1 -b-> y2.  The edges of a tie
    # f[0][0] to f[1][1]; b leaves y1 in Y but not x1 in X, so f[1][1] fails
    # the mask test: a dead end, which zeroes its partner f[0][0] without a
    # union.  No equation with two live ends meets f[0][0], so it is no
    # component.  f[2][0] is touched by no pair, and x0 is no top of X
    assert X.lines[3].keys() & Y.lines[3].keys() == {0}
    assert dim_hom(X, Y) == unknowns(X, Y) - _row_rank(X, Y) == 0
    assert dim_hom(Y, X) == 1


# two sources, two sinks and a path: 1 -a-> 2 -d-> 4 <-g- 5 and 1 -c-> 3
FORK = parse_algebra(
    "vertex 1 2 3 4 5\narrow a : 1 -> 2\narrow c : 1 -> 3\narrow d : 2 -> 4\narrow g : 5 -> 4\n"
)


def line_module(vertex_of, **edges):
    """A module over FORK with basis vectors at vertex_of and, for each arrow,
    its edges (j, k, x): the arrow takes basis vector j to x times k."""
    cells = {a: [(k, j, x) for j, k, x in es] for a, es in edges.items()}
    return MatrixModule(FORK, tuple(vertex_of), cells)


def assert_hom_by_lines(X, Y, expected):
    assert_the_union_find_matches_the_elimination(X, Y)
    assert dim_hom(X, Y) == expected


def test_a_dead_k_end_zeroes_its_live_partner_and_its_component():
    # X is x1 -a-> x2, x1 -c-> x3 and Y is y1 -a-> y2 -d-> y4, y1 -c-> y3.
    # The a-equation ties f[y2][x2] to f[y1][x1]; d leaves y2 in Y but not x2
    # in X, so its k-end is dead and zeroes f[y1][x1], which the c-equation
    # joins to the live f[y3][x3]: that component holds no free scalar
    X = line_module("123", a=[(0, 1, 2)], c=[(0, 2, 1)])
    Y = line_module("1243", a=[(0, 1, 1)], d=[(1, 2, 3)], c=[(0, 3, Fraction(1, 2))])
    assert_hom_by_lines(X, Y, 0)
    assert_hom_by_lines(Y, X, 1)


def test_a_dead_j_end_zeroes_its_live_partner_and_its_component():
    # X is x1 -a-> x2 -d-> x4 <-g- x5 and Y is y2 -d-> y4 <-g- y5.  The
    # d-equation ties f[y4][x4] to f[y2][x2]; a reaches x2 in X but not y2
    # in Y, so its j-end is dead and zeroes f[y4][x4], which the g-equation
    # joins to the live f[y5][x5]: that component holds no free scalar
    X = line_module("1245", a=[(0, 1, 1)], d=[(1, 2, -1)], g=[(3, 2, 2)])
    Y = line_module("245", d=[(0, 1, 1)], g=[(2, 1, 3)])
    assert_hom_by_lines(X, Y, 0)
    assert_hom_by_lines(Y, X, 1)


def test_an_equation_with_two_dead_ends_adds_nothing():
    # X is x1 -a-> x2 plus x3 alone and Y is y1 -a-> y2 -d-> y4, y1 -c-> y3.
    # The a-equation ties f[y2][x2], which d leaves in Y but not in X, to
    # f[y1][x1], which c leaves in Y but not in X: both dead, so it is
    # skipped.  Only the top x3 against the socle y3 is free
    X = line_module("123", a=[(0, 1, 1)])
    Y = line_module("1243", a=[(0, 1, 1)], d=[(1, 2, 1)], c=[(0, 3, 1)])
    assert_hom_by_lines(X, Y, 1)


def test_a_zeroed_partner_that_no_live_equation_touches_is_no_component():
    # X is x1 -a-> x2 plus x3 alone and Y is y1 -a-> y2 -d-> y4 plus y3
    # alone.  The dead f[y2][x2] zeroes f[y1][x1], which meets no equation
    # with two live ends, so there is no component to take away from the
    # one free unknown f[y3][x3]
    X = line_module("123", a=[(0, 1, 1)])
    Y = line_module("1243", a=[(0, 1, 1)], d=[(1, 2, 1)])
    assert_hom_by_lines(X, Y, 1)


def test_without_a_same_arrow_edge_pair_hom_counts_tops_against_socles():
    S1, S2 = (realize_string(KRON, trivial_word(u)) for u in "12")
    M = realize_string(KRON, parse_word("a"))
    # M has its top at 1 and its socle at 2, and S_u is both at u; no two of
    # these share an arrow, so each unknown is free or zeroed by its masks
    expected = {(S1, S1): 1, (S2, S2): 1, (S1, S2): 0, (S2, S1): 0,
                (M, S1): 1, (S2, M): 1, (S1, M): 0, (M, S2): 0}
    for (X, Y), dim in expected.items():
        assert not X.lines[3].keys() & Y.lines[3].keys()
        assert dim_hom(X, Y) == unknowns(X, Y) - _row_rank(X, Y) == dim, (X, Y)


def test_one_sided_equations_zero_their_unknowns_by_the_arrow_masks():
    S1, S2 = (realize_string(KRON, trivial_word(u)) for u in "12")
    M = realize_string(KRON, parse_word("a"))
    # a: 1 -> 2 reaches the vector of M at 2 and nothing of S2, so only the
    # in-bits of the masks zero the one unknown of Hom(M, S2)
    assert dim_hom(M, S2) == 0 and dim_hom(S2, M) == 1
    # a leaves the vector of M at 1 and nothing of S1, so only the stay-bits
    # of the masks zero the one unknown of Hom(S1, M)
    assert dim_hom(S1, M) == 0 and dim_hom(M, S1) == 1


LOWER = (0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3))


@functools.cache
def conjugation_pool(name):
    spec = ALL[name]
    mods = [realize_string(spec, w) for w in enumerate_strings(spec, 3)]
    return mods + [realize_band(spec, B, lam) for B in enumerate_bands(spec, 4)
                   for lam in (TWO, Fraction(7, 2))]


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
    return MatrixModule(M.spec, M.vertex_of, cells)


@st.composite
def conjugated_pair(draw):
    mods = conjugation_pool(draw(st.sampled_from(sorted(ALL))))
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
    # some arrow matrix has two entries in one column
    assert any(len(cells) > len({j for _, j, _ in cells}) for cells in N.entries.values())
    assert M != N and dim_hom(N, M) == dim_hom(M, M) and dim_ext1(N, N) == dim_ext1(M, M)


def dense_rank(matrix):
    """The rank of a dense matrix of Fractions, by Gauss-Jordan elimination."""
    rows = [list(row) for row in matrix]
    rank = 0
    for c in range(len(rows)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r, row in enumerate(rows):
            if r != rank and row[c]:
                f = row[c] / rows[rank][c]
                rows[r] = [x - f * y for x, y in zip(row, rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("name", sorted(ALL))
def test_rank_sum_matches_a_dense_elimination(name):
    # the conjugated pool, two changes of basis per module: several entries
    # per column, values that are not integers, and columns that are nonzero
    # but dependent, so counting nonzero columns is not ranking them
    wide = False
    for M in conjugation_pool(name):
        for lower in (LOWER * 3, LOWER[::-1] * 3):
            N = conjugate(M, lower)
            ranks = [dense_rank(m) for _, m in N.mats]
            assert rank_sum(N) == sum(ranks) and is_regular(N) == (sum(ranks) == N.dim)
            wide |= any(
                len({j for _, j, _ in cells}) > r for cells, r in zip(N.entries.values(), ranks)
            )
    assert wide


def test_an_unknown_on_both_sides_of_an_equation_cancels():
    # the loop a acts on M by [[1, 1], [-1, -1]], so the equation (0, 0) of
    # Hom(M, M) has f[0][0] on both sides; M is isomorphic to M(a)
    M = MatrixModule(GP22, ("u", "u"), {"a": [(0, 0, 1), (0, 1, 1), (1, 0, -1), (1, 1, -1)]})
    Ma = realize_string(GP22, parse_word("a"))
    assert not M.one_entry_per_line and Ma.one_entry_per_line
    assert dim_hom(M, M) == dim_hom(M, Ma) == dim_hom(Ma, M) == dim_hom(Ma, Ma) == 2
    assert dim_ext1(M, M) == dim_ext1(Ma, Ma) == 1


def assert_the_union_find_matches_the_elimination(X, Y):
    # both ends have one entry per line, so dim_hom reads the line tables
    assert X.one_entry_per_line and Y.one_entry_per_line
    assert dim_hom(X, Y) == unknowns(X, Y) - _row_rank(X, Y), (X.entries, Y.entries)


# every module the hom-grid and ext-survey workloads give dim_hom: strings
# <= 4 and bands <= 7 at three parameters, one negative and one not an
# integer, with each module's projective cover and syzygy
@functools.cache
def linked_pool(name):
    spec = ALL[name]
    mods = [realize_string(spec, w) for w in enumerate_strings(spec, 4)]
    mods += [realize_band(spec, B, lam) for B in enumerate_bands(spec, 7)
             for lam in (TWO, -1, Fraction(2, 3))]
    return list(dict.fromkeys(mods + [M for X in mods for M in syzygy(X)]))


def test_realized_modules_and_their_syzygies_have_one_entry_per_line():
    # 183 distinct modules, so 12,143 ordered pairs within a fixture; 7
    # syzygies are the same point as a realized string, so one value each
    assert sum(len(linked_pool(name)) for name in ALL) == 183
    for mods in map(linked_pool, ALL):
        assert all(M.one_entry_per_line for M in mods)
    N = conjugate(realize_band(GP33, parse_word("a.a.b^-1.b^-1"), TWO), (1, 1))
    assert not N.one_entry_per_line


@pytest.mark.parametrize(
    "cells, flag",
    [([(0, 0, 1), (1, 1, 2)], True), ([(0, 0, 1), (1, 0, 1)], False), ([(0, 0, 1), (0, 1, 1)], False),
     ([(0, 1, 0), (1, 1, 1)], True)],
    ids=["diagonal", "two-in-a-column", "two-in-a-row", "a-zero-cell"],
)
def test_the_path_flag_reads_rows_and_columns(cells, flag):
    # a zero cell is dropped before the flag reads the cells
    X = MatrixModule(LOOP1, ("u", "u"), {"a": cells})
    assert X.one_entry_per_line == flag
    assert dim_hom(X, X) == unknowns(X, X) - _row_rank(X, X)


def test_the_path_flag_stays_out_of_equality_hash_repr_and_pickles():
    X = realize_band(GP33, parse_word("a.a.b^-1.b^-1"), Fraction(2, 3))
    fresh = MatrixModule(X.spec, X.vertex_of, X.entries)
    assert X.one_entry_per_line
    assert fresh.one_entry_per_line == X.one_entry_per_line
    assert X == fresh and hash(X) == hash(fresh) and repr(X) == repr(fresh)
    assert pickle.dumps(X) == pickle.dumps(fresh)


@pytest.mark.parametrize("name", sorted(ALL))
def test_the_union_find_rank_equals_the_elimination_rank(name):
    # equal parameters included: both ends may be the same band module
    mods = linked_pool(name)
    for X in mods:
        for Y in mods:
            assert_the_union_find_matches_the_elimination(X, Y)


@pytest.mark.parametrize("name", sorted(ALL))
def test_ext_reads_the_hom_from_the_cover_off_its_tops(name):
    # dim_ext1 takes Hom(P0, Y) as the sum of |Y_v| over P0's tops; it must
    # equal the hom system solved for the same pair.  Three conjugated
    # modules per fixture are not one entry per line, on either end
    mods = [N for M in conjugation_pool(name) if not (N := conjugate(M, LOWER[2:])).one_entry_per_line]
    mods = linked_pool(name) + mods[:3]
    for X in mods:
        P0, omega = syzygy(X)
        for Y in mods:
            assert dim_ext1(X, Y) == dim_hom(omega, Y) - dim_hom(P0, Y) + dim_hom(X, Y), (X, Y)


def assert_the_syzygy_paths_agree(X):
    # X has one entry per line, so syzygy reads the line table
    assert X.one_entry_per_line
    lines, echelon = (oracle._presentation(X, by_lines) for by_lines in (True, False))
    assert [(M.vertex_of, dict(M.entries)) for M in lines] == [
        (M.vertex_of, dict(M.entries)) for M in echelon
    ], X.entries


@pytest.mark.parametrize("name", sorted(ALL))
def test_the_line_table_syzygy_equals_the_echelon_syzygy(name):
    for X in linked_pool(name):
        assert_the_syzygy_paths_agree(X)


SCALES = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 5), Fraction(-11, 4))


def rescale(M, scales):
    """M in the basis c_i e_i: X'(a) = g X(a) g^-1 for g = diag(c_0, c_1, ...)."""
    c = [Fraction(x) for x in scales]
    cells = {a: [(i, j, x * c[i] / c[j]) for i, j, x in entries] for a, entries in M.entries.items()}
    return MatrixModule(M.spec, M.vertex_of, cells)


@st.composite
def rescaled_pair(draw):
    mods = linked_pool(draw(st.sampled_from(sorted(ALL))))
    X, Y = (draw(st.sampled_from(mods)) for _ in range(2))
    scales = (draw(st.lists(st.sampled_from(SCALES), min_size=M.dim, max_size=M.dim)) for M in (X, Y))
    return X, Y, *(rescale(M, c) for M, c in zip((X, Y), scales))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rescaled_pair())
def test_a_diagonal_change_of_basis_keeps_the_union_find_path_and_its_answers(pair):
    X, Y, X2, Y2 = pair
    assert X2.one_entry_per_line and Y2.one_entry_per_line
    assert_the_union_find_matches_the_elimination(X2, Y2)
    assert_the_union_find_matches_the_elimination(Y2, X2)
    assert dim_hom(X2, Y2) == dim_hom(X, Y)
    assert dim_hom(Y2, X2) == dim_hom(Y, X)
    assert dim_ext1(X2, Y2) == dim_ext1(X, Y)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rescaled_pair())
def test_the_syzygy_paths_agree_after_a_diagonal_change_of_basis(pair):
    # non-unit entries, some of them not integers
    for M in pair[2:]:
        assert_the_syzygy_paths_agree(M)


def typed(M):
    """M's fields with each entry's value type, so an int 1 and Fraction(1) differ."""
    return M.vertex_of, {a: [(i, j, type(x), x) for i, j, x in e] for a, e in M.entries.items()}


def typed_maps(maps):
    return {a: {j: [(k, type(x), x) for k, x in pairs] for j, pairs in m.items()} for a, m in maps.items()}


@pytest.mark.parametrize("name", sorted(ALL))
def test_the_kept_cover_does_not_depend_on_the_call_order(name):
    # the modules the ext-survey workload takes syzygies of, strings <= 3 and
    # bands <= 7 at 2 and 7/2, on two fresh copies of the fixture: one takes
    # the syzygies in order, the other in reverse, so the covers are built
    # by different modules and then read by the rest
    copies = copy.copy(ALL[name]), copy.copy(ALL[name])
    answers = []
    for step, spec in zip((1, -1), copies):
        mods = [realize_string(spec, w) for w in enumerate_strings(spec, 3)]
        mods += [realize_band(spec, B, lam) for B in enumerate_bands(spec, 7) for lam in (TWO, Fraction(7, 2))]
        kept = {X: [typed(M) for M in syzygy(X)] for X in mods[::step]}
        answers.append([kept[X] for X in mods])
    assert answers[0] == answers[1]
    covers = [spec.covers for spec in copies]
    assert set(covers[0]) == set(covers[1])
    # every kept cover is only read: its P0 sums the projectives at its
    # tops, and its maps are still those of a fresh read of P0's columns
    for spec, kept in zip(copies, covers):
        for tops, (P0, maps) in kept.items():
            words = [projective_word(spec, v) for v in tops]
            assert P0 == direct_sum(*(realize_string(spec, w) for w in words)) and P0.one_entry_per_line
            assert typed_maps(maps) == typed_maps(oracle._columns(P0))
