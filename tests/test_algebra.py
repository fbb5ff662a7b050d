from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringbands import (
    ParseError,
    format_word,
    gentle_vertices,
    is_gentle_algebra,
    is_member_monomial_ideal,
    parse_algebra,
    projective_word,
    validate_algebra,
)
from stringbands.algebra import _admissibility, _before
from test_bands import monomial_quivers


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


def test_projective_words(gp22, gp33, kron, loop):
    assert format_word(projective_word(gp22, "u")) == "a.b^-1"
    assert format_word(projective_word(gp33, "u")) == "a.a.b^-1.b^-1"
    assert format_word(projective_word(kron, "1")) == "a.b^-1"
    assert format_word(projective_word(kron, "2")) == "1_2"
    assert format_word(projective_word(loop, "1")) == "y.a.x.a^-1.y^-1"
    assert format_word(projective_word(loop, "2")) == "y"


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


def _dfs_admissibility(spec):
    """The reference: a three-colour depth-first search over the walk graph
    of relation-free windows, with a trail for the cycle and a longest-walk
    table for the bound."""
    K = max(spec.max_relation_length - 1, 1)
    by_len = [[()], [(a,) for a in spec.arrow_names]]
    while len(by_len) <= K:
        by_len.append([q for p in by_len[-1] for q in _before(spec, p)])
    states = by_len[K]
    edges = {p: [q[:K] for q in _before(spec, p)] for p in states}

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
