import copy
import re
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixture_algebras import ALL
from stringbands import (
    AlgebraSpec,
    ArrowDecl,
    Letter,
    ParseError,
    Word,
    enumerate_strings,
    format_word,
    gentle_vertices,
    is_gentle_algebra,
    is_quasi_band,
    is_string,
    is_member_monomial_ideal,
    parse_algebra,
    projective_word,
    validate_algebra,
)
from stringbands.algebra import _admissibility
from stringbands.words import glues, letter_source, letter_target
from strategies import monomial_quivers


def test_fixture_algebras_are_valid(all_fixtures):
    for spec in all_fixtures.values():
        report = validate_algebra(spec)
        assert report.valid
        assert report.violations == ()
        assert report.redundant_relations == ()


def test_quadratic_flags(gp22, gp33, kron, loop):
    assert validate_algebra(gp22).quadratic
    assert validate_algebra(kron).quadratic
    assert validate_algebra(loop).quadratic
    assert not validate_algebra(gp33).quadratic


def test_admissibility_bounds(gp22, gp33, kron, loop):
    # least N with every length-N path in the ideal
    assert validate_algebra(gp22).admissibility_bound == 2
    assert validate_algebra(gp33).admissibility_bound == 3
    assert validate_algebra(kron).admissibility_bound == 2
    assert validate_algebra(loop).admissibility_bound == 4
    # no vertex, so no path at all: the empty presentation is valid
    empty = validate_algebra(AlgebraSpec((), (), ()))
    assert empty.valid and empty.admissibility_bound == 0


def test_gentle_vertices_and_flag(gp22, gp33, kron, loop):
    assert gentle_vertices(gp22) == set()
    assert gentle_vertices(gp33) == {"u"}
    assert gentle_vertices(kron) == {"1", "2"}
    assert gentle_vertices(loop) == {"1", "2"}
    assert is_gentle_algebra(kron)
    assert is_gentle_algebra(loop)
    # the cubes keep the two-loop cubic algebra out even though its one
    # vertex passes the local counts
    assert not is_gentle_algebra(gp33)
    assert not is_gentle_algebra(gp22)


def test_gentle_vertices_are_kept_read_only(gp22, gp33):
    for fixture, expected in ((gp22, set()), (gp33, {"u"})):
        # a copy of the fixture is another object, so it keeps nothing yet
        spec = copy.copy(fixture)
        assert spec.gentle == {}
        gentle = gentle_vertices(spec)
        # each vertex's answer is kept, and every call returns an equal set
        assert spec.gentle == {u: u in expected for u in spec.vertices}
        assert gentle == gentle_vertices(spec) == expected
        # the returned set is a frozenset, so a caller cannot change it
        with pytest.raises(AttributeError):
            gentle.add("v")
        assert gentle_vertices(spec) == expected and not is_gentle_algebra(spec)


def test_a_vertex_with_two_zero_products_through_one_arrow_is_not_gentle():
    # at u both arrows out annihilate the one arrow in, b: the pairs match
    # off uniquely from the outgoing side but not from the incoming one
    spec = parse_algebra(
        "vertex v u x y\narrow b: v -> u\narrow c: u -> x\narrow d: u -> y\n"
        "relation c.b\nrelation d.b\n"
    )
    assert validate_algebra(spec).valid
    assert gentle_vertices(spec) == {"v", "x", "y"}
    assert not is_gentle_algebra(spec)


@pytest.mark.parametrize("name", sorted(ALL))
def test_the_vertex_tables_refuse_a_vertex_the_algebra_lacks(name):
    spec = copy.copy(ALL[name])
    for table in (spec.gentle, spec.projective_words):
        for _ in range(2):
            with pytest.raises(ParseError, match="unknown vertex '9'"):
                table["9"]
        assert "9" not in table


def test_projective_words(gp22, gp33, kron, loop):
    assert format_word(projective_word(gp22, "u")) == "a.b^-1"
    assert format_word(projective_word(gp33, "u")) == "a.a.b^-1.b^-1"
    assert format_word(projective_word(kron, "1")) == "a.b^-1"
    assert format_word(projective_word(kron, "2")) == "1_2"
    assert format_word(projective_word(loop, "1")) == "y.a.x.a^-1.y^-1"
    assert format_word(projective_word(loop, "2")) == "y"
    with pytest.raises(ParseError, match="unknown vertex '9'"):
        projective_word(kron, "9")


def test_ideal_membership(gp33):
    assert is_member_monomial_ideal(gp33, ("a", "a", "a"))
    assert is_member_monomial_ideal(gp33, ("a", "b"))
    assert is_member_monomial_ideal(gp33, ("b", "a", "a"))
    assert not is_member_monomial_ideal(gp33, ("a", "a"))
    assert not is_member_monomial_ideal(gp33, ("b",))
    with pytest.raises(ParseError):
        is_member_monomial_ideal(gp33, ("a", "zz"))


def _scan_path_in_ideal(spec, path):
    """path_in_ideal before the relations were grouped by length: every
    relation compared at every offset."""
    path = tuple(path)
    for rel in spec.relations:
        k = len(rel)
        for i in range(len(path) - k + 1):
            if path[i : i + k] == rel:
                return True
    return False


def test_ideal_membership_matches_the_relation_scan(all_fixtures):
    for spec in all_fixtures.values():
        for n in range(6):
            for path in product(spec.arrow_names, repeat=n):
                assert spec.path_in_ideal(path) == _scan_path_in_ideal(spec, path)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_ideal_membership_matches_the_relation_scan_on_random_quivers(data):
    spec = data.draw(monomial_quivers(max_relation_length=4))
    # paths glued from single arrows and whole relations, so that most
    # draws hold a relation somewhere
    pieces = [(a,) for a in spec.arrow_names] + list(spec.relations)
    path = sum(data.draw(st.lists(st.sampled_from(pieces), max_size=5)), ())
    assert spec.path_in_ideal(path) == _scan_path_in_ideal(spec, path)


def test_parse_accepts_comments_and_blank_lines(kron):
    text = """
# a comment
vertex 1 2

arrow a : 1 -> 2
arrow b : 1 -> 2
"""
    assert parse_algebra(text) == kron


def test_parse_rejects_malformed_lines():
    with pytest.raises(ParseError):
        parse_algebra("vertex u\narrow a : u\n")
    with pytest.raises(ParseError):
        parse_algebra("vertex u\nfrobnicate a\n")
    with pytest.raises(ParseError):
        parse_algebra("vertex u\narrow a : u -> w\n")
    with pytest.raises(ParseError):
        parse_algebra("vertex u\narrow a : u -> u\nrelation a.c\n")


@pytest.mark.parametrize("text, message", [
    ("vertex\n", "vertex directive needs a name"),
    ("vertex u\narrow a : u -> u\nrelation a..a\n", "malformed relation"),
    # the last three pass the parser and are refused by AlgebraSpec itself
    ("vertex u\narrow a : u -> u\nrelation a\n", "shorter than 2"),
    ("vertex u\narrow a : u -> u\nrelation a.a\nrelation a.a\n", "duplicate relation"),
    ("vertex u v\narrow a : u -> v\nrelation a.a\n", "not a composable path"),
], ids=["empty-vertex", "empty-relation-step", "short-relation", "duplicate-relation",
        "non-composable-relation"])
def test_parse_rejects_ill_formed_vertices_and_relations(text, message):
    with pytest.raises(ParseError, match=message):
        parse_algebra(text)


@pytest.mark.parametrize("name", ["1_a", "a.b", "a^b"])
def test_parse_rejects_arrow_names_a_word_cannot_read_back(name):
    # 1_a reads back as the trivial word at a, a.b as two letters, and a^b
    # as no letter at all
    text = f"vertex 1 2\narrow {name} : 1 -> 2\n"
    with pytest.raises(ParseError, match=f"line 2: arrow '{re.escape(name)}' has"):
        parse_algebra(text)


@pytest.mark.parametrize("vertices, arrows, message", [
    # the string 1_a would read back as the trivial word at a
    (("1", "2"), (ArrowDecl("1_a", "1", "2"),), "arrow name '1_a'"),
    # parse_word refuses the string a b
    (("u",), (ArrowDecl("a b", "u", "u"),), "arrow name 'a b'"),
    (("",), (), "vertex name ''"),
    (("u v",), (), "vertex name 'u v'"),
], ids=["arrow-1_", "arrow-whitespace", "vertex-empty", "vertex-whitespace"])
def test_the_constructor_refuses_names_a_word_cannot_read_back(vertices, arrows, message):
    with pytest.raises(ParseError, match=message):
        AlgebraSpec(vertices, arrows, ())


def test_parse_rejects_duplicate_names():
    with pytest.raises(ParseError):
        parse_algebra("vertex u u\n")
    with pytest.raises(ParseError):
        parse_algebra("vertex u\narrow a : u -> u\narrow a : u -> u\n")


def test_unchecked_loop_violates_admissibility():
    spec = parse_algebra("vertex u\narrow a : u -> u\n")
    report = validate_algebra(spec)
    assert not report.valid
    assert report.admissibility_bound is None
    assert any(axiom == "admissibility" for axiom, _ in report.violations)


def test_three_loops_violate_degree_bounds():
    spec = parse_algebra(
        "vertex u\n"
        "arrow a : u -> u\narrow b : u -> u\narrow c : u -> u\n"
        "relation a.a\nrelation a.b\nrelation a.c\n"
        "relation b.a\nrelation b.b\nrelation b.c\n"
        "relation c.a\nrelation c.b\nrelation c.c\n"
    )
    report = validate_algebra(spec)
    assert not report.valid
    labels = {axiom for axiom, _ in report.violations}
    assert "vertex-degree" in labels


def test_two_relation_free_continuations_are_flagged():
    # with only a.a killed, b composes freely with both arrows on both sides
    spec = parse_algebra(
        "vertex u\narrow a : u -> u\narrow b : u -> u\nrelation a.a\n"
    )
    report = validate_algebra(spec)
    assert not report.valid
    labels = {axiom for axiom, _ in report.violations}
    assert "unique-continuation" in labels
    assert "unique-precomposition" in labels


def test_redundant_relation_listed_but_harmless():
    spec = parse_algebra(
        "vertex u v\narrow a : u -> v\narrow b : v -> u\n"
        "relation b.a\nrelation a.b.a\n"
    )
    report = validate_algebra(spec)
    assert ("a", "b", "a") in report.redundant_relations


GOLDEN_VIOLATIONS = {
    "relation-free-loop": (
        "vertex u\narrow a : u -> u\n",
        (("admissibility", "relation-free walk cycles through a"),),
    ),
    "three-squared-loops": (
        "vertex u\narrow a : u -> u\narrow b : u -> u\narrow c : u -> u\n"
        "relation a.a\nrelation b.b\nrelation c.c\n",
        (
            ("admissibility", "relation-free walk cycles through b.a"),
            ("vertex-degree", "vertex u has 3 outgoing arrows"),
            ("vertex-degree", "vertex u has 3 incoming arrows"),
            ("unique-continuation", "both a.b and a.c avoid the ideal"),
            ("unique-continuation", "both b.a and b.c avoid the ideal"),
            ("unique-continuation", "both c.a and c.b avoid the ideal"),
            ("unique-precomposition", "both b.a and c.a avoid the ideal"),
            ("unique-precomposition", "both a.b and c.b avoid the ideal"),
            ("unique-precomposition", "both a.c and b.c avoid the ideal"),
        ),
    ),
    "two-loops-only-a.a": (
        "vertex u\narrow a : u -> u\narrow b : u -> u\nrelation a.a\n",
        (
            ("admissibility", "relation-free walk cycles through b.a"),
            ("unique-continuation", "both b.a and b.b avoid the ideal"),
            ("unique-precomposition", "both a.b and b.b avoid the ideal"),
        ),
    ),
    "abab": (
        "vertex u v\narrow a : u -> v\narrow b : v -> u\narrow c : v -> u\n"
        "relation a.b.a.b\n",
        (
            ("admissibility", "relation-free walk cycles through b.a.c.a"),
            ("unique-continuation", "both a.b and a.c avoid the ideal"),
            ("unique-precomposition", "both b.a and c.a avoid the ideal"),
        ),
    ),
}


@pytest.mark.parametrize("name", GOLDEN_VIOLATIONS)
def test_validate_texts_follow_the_walk_order(name):
    # the walk order fixes the cycle witness and the order of the pairs
    text, violations = GOLDEN_VIOLATIONS[name]
    report = validate_algebra(parse_algebra(text))
    assert report.violations == violations
    assert report.admissibility_bound is None


def _ref_before(spec, path):
    """The reference's own successor rule, apart from the package's: b.path
    for each arrow b, in declaration order, that leaves the target of
    path[0] and makes no relation a factor (`_scan_path_in_ideal`)."""
    end = next(a.target for a in spec.arrows if a.name == path[0])
    grown = [(a.name,) + path for a in spec.arrows if a.source == end]
    return [p for p in grown if not _scan_path_in_ideal(spec, p)]


def _dfs_admissibility(spec):
    """The reference: a three-colour depth-first search over the walk graph
    of relation-free windows, with a trail for the cycle and a longest-walk
    table for the bound."""
    K = max(spec.max_relation_length - 1, 1)
    by_len = [[()], [(a,) for a in spec.arrow_names]]
    while len(by_len) <= K:
        by_len.append([q for p in by_len[-1] for q in _ref_before(spec, p)])
    states = by_len[K]
    edges = {p: [q[:K] for q in _ref_before(spec, p)] for p in states}

    color = {}
    longest = {}
    for root in states:
        if color.get(root, 0) == 2:
            continue
        stack = [(root, iter(edges[root]))]
        color[root] = 1
        trail = [root]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color.get(nxt, 0) == 1:
                    i = trail.index(nxt)
                    cycle = trail[i:]
                    return None, ".".join(q[0] for q in reversed(cycle))
                if color.get(nxt, 0) == 0:
                    color[nxt] = 1
                    trail.append(nxt)
                    stack.append((nxt, iter(edges[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                longest[node] = 1 + max((longest[n] for n in edges[node]), default=-1)
                stack.pop()
                trail.pop()

    best = max(l for l, paths in enumerate(by_len) if paths)
    if longest:
        best = max(best, K + max(longest.values()))
    if not spec.vertices:
        return 0, None
    return best + 1, None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(monomial_quivers(max_relation_length=4))
def test_the_peel_finds_the_bound_and_cycle_of_a_depth_first_search(spec):
    assert _admissibility(spec) == _dfs_admissibility(spec)


# Reference copies of the string, seam and quasi-band checks as they stood
# before AlgebraSpec.string_windows: the pairs first, then every maximal
# directed run read as a path and scanned for a relation.


def _ref_run_path(run):
    if run[0].inverted:
        return tuple(l.arrow for l in reversed(run))
    return tuple(l.arrow for l in run)


def _ref_runs_avoid_ideal(spec, letters):
    n, start = len(letters), 0
    for i in range(1, n + 1):
        if i == n or letters[i].inverted != letters[start].inverted:
            if _scan_path_in_ideal(spec, _ref_run_path(letters[start:i])):
                return False
            start = i
    return True


def _ref_is_string(spec, letters):
    for a, b in zip(letters, letters[1:]):
        if letter_source(spec, a) != letter_target(spec, b):
            return False
        if a.arrow == b.arrow and a.inverted != b.inverted:
            return False
    return _ref_runs_avoid_ideal(spec, letters)


def _ref_glues(spec, left, right):
    a, b = left[-1], right[0]
    if letter_source(spec, a) != letter_target(spec, b):
        return False
    if a.inverted != b.inverted:
        return a.arrow != b.arrow
    i = len(left) - 1
    while i > 0 and left[i - 1].inverted == a.inverted:
        i -= 1
    j = 1
    while j < len(right) and right[j].inverted == a.inverted:
        j += 1
    return _ref_runs_avoid_ideal(spec, left[i:] + right[:j])


def _ref_is_quasi_band(spec, ls):
    return (
        any(l.inverted != ls[0].inverted for l in ls)
        and _ref_glues(spec, ls, ls)
        and _ref_is_string(spec, ls)
    )


def _letters(spec):
    return [Letter(a, inv) for a in spec.arrow_names for inv in (False, True)]


def _decoded(spec, codes):
    return tuple(spec.code_letters[c] for c in codes)


# Each fixture's relations are closed under reversal (a.b comes with b.a), so
# a string test that reads an inverse run in the wrong direction passes them
# all.  This algebra's one relation is not: b^-1.a^-1 is no string, a^-1.b^-1 is
WINDOW_ALGEBRAS = {
    **ALL,
    "one_way_cycle": parse_algebra("vertex 1 2\narrow a : 1 -> 2\narrow b : 2 -> 1\nrelation a.b\n"),
}


@pytest.mark.parametrize("name", sorted(WINDOW_ALGEBRAS))
def test_string_windows_decide_strings_seams_and_quasi_bands(name):
    # a copy keeps nothing yet, so earlier lookups on the shared algebra do not show
    spec = copy.copy(WINDOW_ALGEBRAS[name])
    assert validate_algebra(spec).valid
    R = spec.window_length
    assert R == max(2, spec.max_relation_length)
    strings = []
    for n in range(1, R + 4):
        for ls in product(_letters(spec), repeat=n):
            ref = _ref_is_string(spec, ls)
            assert is_string(spec, Word(None, ls)) == ref
            assert is_quasi_band(spec, ls) == _ref_is_quasi_band(spec, ls)
            if ref:
                strings.append(ls)
    # every letter sequence of at most R letters was looked up, and only those
    assert dict(spec.string_windows) == {
        spec.encode(ls): _ref_is_string(spec, ls)
        for n in range(1, R + 1)
        for ls in product(_letters(spec), repeat=n)
    }
    for left in strings:
        for right in strings:
            glued = glues(spec, spec.encode(left), spec.encode(right))
            assert glued == _ref_glues(spec, left, right)


def test_string_windows_hold_only_the_windows_looked_up():
    # two loops with a^20, b^20, a.b and b.a: strings alternate a-runs with
    # B-runs or b-runs with A-runs, so there are 2^(n+1) of n < 20 letters,
    # and a set of every window of 20 letters would hold millions
    text = "vertex u\narrow a : u -> u\narrow b : u -> u\n"
    text += "".join(f"relation {'.'.join(x * 20)}\n" for x in "ab") + "relation a.b\nrelation b.a\n"
    spec = parse_algebra(text)
    assert validate_algebra(spec).valid
    windows = spec.string_windows
    assert spec.window_length == 20
    assert len(enumerate_strings(spec, 3)) == 1 + 2 + 4 + 8
    # the letters, then each string of 1 and of 2 letters followed by a letter
    assert len(windows) == 4 + 4 * 4 + 8 * 4
    a, B = Letter("a", False), Letter("b", True)
    for ls in [(a,) * 19, (a,) * 20, (a,) * 19 + (B,), (B,) + (a,) * 20 + (B,)]:
        assert is_string(spec, Word(None, ls)) == _ref_is_string(spec, ls)
    assert is_quasi_band(spec, (a,) * 19 + (B,) * 19)
    assert not is_quasi_band(spec, (a,) * 20 + (B,))
    assert all(
        0 < len(w) <= 20 and ok == _ref_is_string(spec, _decoded(spec, w))
        for w, ok in windows.items()
    )
    # a seam of two strings of 19 letters has 38 codes, and one gluing keeps
    # only that seam and its prefixes the table did not hold yet
    for left, right in [((a,) * 19, (B,) * 19), ((B,) * 19, (a,) * 19), ((a,) * 19, (a,) * 19)]:
        assert is_string(spec, Word(None, left)) and is_string(spec, Word(None, right))
        held = set(windows)
        seam = spec.encode(left + right)
        assert glues(spec, spec.encode(left), spec.encode(right)) == _ref_glues(spec, left, right)
        assert set(windows) - held == {seam[:j] for j in range(1, 39)} - held
    assert all(
        0 < len(w) <= 38 and ok == _ref_is_string(spec, _decoded(spec, w))
        for w, ok in windows.items()
    )


def _walk(data, spec, n):
    """n letters; most steps continue a reduced walk, so that most draws
    reach the run check and not only the pair one."""
    letters = _letters(spec)
    ls = [data.draw(st.sampled_from(letters))]
    while len(ls) < n:
        walk = [
            l for l in letters
            if letter_target(spec, l) == letter_source(spec, ls[-1]) and l != ls[-1].inv()
        ]
        free = data.draw(st.integers(0, 5)) == 0
        ls.append(data.draw(st.sampled_from(letters if free or not walk else walk)))
    return tuple(ls)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(monomial_quivers(max_relation_length=4), st.data())
def test_string_windows_match_the_run_checks_on_random_quivers(spec, data):
    R = spec.window_length
    for _ in range(3):
        ls = _walk(data, spec, data.draw(st.integers(1, 2 * (R + 3))))
        assert is_string(spec, Word(None, ls)) == _ref_is_string(spec, ls)
        assert is_quasi_band(spec, ls) == _ref_is_quasi_band(spec, ls)
        # each split into two strings of at most R + 3 letters
        for i in range(max(1, len(ls) - R - 3), min(len(ls), R + 4)):
            left, right = ls[:i], ls[i:]
            if _ref_is_string(spec, left) and _ref_is_string(spec, right):
                glued = glues(spec, spec.encode(left), spec.encode(right))
                assert glued == _ref_glues(spec, left, right)
    # windows have at most R codes and seams, the longest keys, 2R - 2
    assert all(
        0 < len(w) <= 2 * R - 2 and ok == _ref_is_string(spec, _decoded(spec, w))
        for w, ok in spec.string_windows.items()
    )
