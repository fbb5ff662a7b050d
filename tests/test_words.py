import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixture_algebras import ALL, GP22, GP33, KRON, LOOP
from stringbands import (
    Letter,
    NotAString,
    ParseError,
    Word,
    canonical_word,
    concat,
    count_fac,
    count_sub,
    enumerate_strings,
    format_word,
    hom_string_string,
    inverse,
    is_string,
    left_divisors,
    parse_word,
    string_fac_tally,
    string_sub_tally,
)
from stringbands.words import (
    trivial_word,
    word_key,
    word_source,
    word_target,
    word_vertices,
)


def test_parse_format_roundtrip():
    for text in ("a", "a^-1", "a.b^-1", "1_u", "y.a.x.a^-1.y^-1"):
        w = parse_word(text)
        assert format_word(w) == text
        # a word parsed again, or rebuilt from its fields, is the same key
        for twin in (parse_word(text), Word(w.trivial_at, w.letters)):
            assert twin == w and twin is not w
            assert hash(twin) == hash(w)
            assert {w: text}[twin] == text
            assert len({w, twin}) == 1


def test_parse_rejects_junk():
    for text in ("", "a..b", "1_", "a^-2", "a^", ".a", "a."):
        with pytest.raises(ParseError):
            parse_word(text)


def test_trivial_word_basics():
    w = trivial_word("u")
    assert w.is_trivial
    assert format_word(w) == "1_u"
    assert inverse(w) == w
    assert word_source(GP22, w) == word_target(GP22, w) == "u"


def test_inverse_reverses_and_flips():
    w = parse_word("a.b^-1")
    assert format_word(inverse(w)) == "b.a^-1"
    assert inverse(inverse(w)) == w


def test_is_string_on_two_loops_rad2():
    assert is_string(GP22, parse_word("a"))
    assert is_string(GP22, parse_word("a.b^-1"))
    assert is_string(GP22, parse_word("a^-1.b"))
    assert not is_string(GP22, parse_word("a.a"))      # relation
    assert not is_string(GP22, parse_word("a.b"))      # relation
    assert not is_string(GP22, parse_word("a.a^-1"))   # backtrack
    assert not is_string(GP22, parse_word("a^-1.b^-1"))  # inverse hits b.a
    assert is_string(GP22, trivial_word("u"))
    # a vertex or arrow the algebra lacks is refused alike
    for foreign in (trivial_word("nope"), parse_word("zz")):
        with pytest.raises(ParseError):
            is_string(GP22, foreign)


def test_word_endpoints_on_kronecker():
    w = parse_word("a.b^-1")
    assert word_source(KRON, w) == "2"
    assert word_target(KRON, w) == "2"
    assert word_vertices(KRON, w) == ("2", "1", "2")


def test_left_divisors_ascend_from_trivial():
    divs = left_divisors(KRON, parse_word("a.b^-1"))
    assert [format_word(d) for d in divs] == ["1_2", "a", "a.b^-1"]


def test_concat_joins_words_and_checks_endpoints():
    assert format_word(concat(GP22, parse_word("a"), parse_word("b^-1"))) == "a.b^-1"
    assert concat(GP22, trivial_word("u"), parse_word("a")) == parse_word("a")
    # the product is a word either way; stringhood is a separate question
    assert not is_string(GP22, concat(GP22, parse_word("a"), parse_word("a")))
    with pytest.raises(NotAString):
        concat(KRON, parse_word("a"), parse_word("a"))


def test_canonical_word_picks_inverse_class_representative():
    assert format_word(canonical_word(GP22, parse_word("b.a^-1"))) == "a.b^-1"
    assert format_word(canonical_word(GP22, parse_word("b^-1.a"))) == "a^-1.b"
    w = canonical_word(GP22, parse_word("a.b^-1"))
    assert canonical_word(GP22, w) == w
    # the word_key minimum of w and its inverse, on every reading of the
    # fixtures' strings and on non-reduced words, some equal to their own
    # inverse (a tie keeps w)
    odd = ("a.a^-1", "a^-1.a", "b.a.a^-1.b^-1", "a.a^-1.b", "b^-1.b.a", "b.b^-1.a.a^-1")
    for spec in ALL.values():
        words = enumerate_strings(spec, 5) + [parse_word(t) for t in odd]
        for w in words + [inverse(w) for w in words]:
            if any(not spec.has_arrow(l.arrow) for l in w.letters):
                continue
            assert canonical_word(spec, w) == min(
                w, inverse(w), key=lambda v: word_key(spec, v)
            )
    tie = parse_word("a.a^-1")
    assert canonical_word(GP22, tie) is tie
    # an unknown arrow is refused even where the first letters decide
    for text in ("z.a", "a.z.b^-1"):
        with pytest.raises(ParseError, match="unknown arrow 'z'"):
            canonical_word(KRON, parse_word(text))
    # and so is a trivial word at a vertex the quiver lacks
    with pytest.raises(ParseError, match="unknown vertex '9'"):
        canonical_word(KRON, trivial_word("9"))


def test_enumerate_strings_small_fixed_lists():
    assert [format_word(w) for w in enumerate_strings(GP22, 2)] == [
        "1_u", "a", "b", "a.b^-1", "a^-1.b",
    ]
    assert [format_word(w) for w in enumerate_strings(GP33, 1)] == ["1_u", "a", "b"]


def test_enumerate_strings_counts_at_length_six():
    assert len(enumerate_strings(GP22, 6)) == 13
    assert len(enumerate_strings(GP33, 6)) == 65
    assert len(enumerate_strings(KRON, 6)) == 14
    assert len(enumerate_strings(LOOP, 6)) == 51


def test_string_tallies_count_canonical_middles():
    c = parse_word("a.b^-1")
    facs = {format_word(w): n for w, n in string_fac_tally(GP22, c).items()}
    subs = {format_word(w): n for w, n in string_sub_tally(GP22, c).items()}
    assert facs == {"1_u": 1, "a": 1, "b": 1, "a.b^-1": 1}
    assert subs == {"1_u": 2, "a.b^-1": 1}


def test_kept_tallies_belong_to_one_algebra_object():
    spec = copy.copy(GP33)
    c = parse_word("a.b^-1")
    assert string_sub_tally(spec, c) is string_sub_tally(spec, c)
    assert spec.kept == {string_sub_tally: {(c,): string_sub_tally(spec, c)}}
    # an equal algebra that is another object computes its own
    twin = copy.copy(spec)
    assert string_sub_tally(twin, c) == string_sub_tally(spec, c)
    assert string_sub_tally(twin, c) is not string_sub_tally(spec, c)
    # a call that raises keeps nothing, so it raises again
    for _ in range(2):
        with pytest.raises(NotAString):
            string_fac_tally(spec, parse_word("a.a.a"))
    assert list(spec.kept) == [string_sub_tally]


def test_occurrence_counts_small_cases():
    assert count_sub(GP22, trivial_word("u"), parse_word("a")) == 1
    assert count_fac(GP22, trivial_word("u"), parse_word("a")) == 1
    assert count_sub(GP22, parse_word("a"), parse_word("a.b^-1")) == 0
    assert count_fac(GP22, parse_word("b^-1"), parse_word("a.b^-1")) == 1
    # a word over an arrow the quiver lacks occurs nowhere
    assert count_sub(GP22, parse_word("z"), parse_word("a")) == 0
    # but a string over one is refused
    z = parse_word("z.a")
    for call in (
        lambda: string_sub_tally(KRON, z),
        lambda: string_fac_tally(KRON, z),
        lambda: count_sub(KRON, parse_word("a"), z),
        lambda: count_fac(KRON, parse_word("a"), z),
    ):
        with pytest.raises(ParseError, match="unknown arrow 'z'"):
            call()
    # as is a trivial string at a vertex it lacks, though it occurs nowhere
    nine = trivial_word("9")
    assert count_sub(KRON, nine, parse_word("a")) == 0
    for call in (
        lambda: is_string(KRON, nine),
        lambda: string_sub_tally(KRON, nine),
        lambda: string_fac_tally(KRON, nine),
        lambda: count_fac(KRON, nine, nine),
        lambda: hom_string_string(KRON, nine, nine),
    ):
        with pytest.raises(ParseError, match="unknown vertex '9'"):
            call()


POOLS = {
    "gp22": (GP22, enumerate_strings(GP22, 5)),
    "gp33": (GP33, enumerate_strings(GP33, 5)),
    "loop": (LOOP, enumerate_strings(LOOP, 5)),
}


@st.composite
def algebra_and_string(draw):
    spec, pool = draw(st.sampled_from(list(POOLS.values())))
    return spec, draw(st.sampled_from(pool))


@st.composite
def algebra_and_string_pair(draw):
    spec, pool = draw(st.sampled_from(list(POOLS.values())))
    return spec, draw(st.sampled_from(pool)), draw(st.sampled_from(pool))


@settings(max_examples=80, deadline=None)
@given(algebra_and_string())
def test_inverse_is_an_involution_on_strings(case):
    spec, w = case
    assert is_string(spec, inverse(w))
    assert inverse(inverse(w)) == w


@settings(max_examples=80, deadline=None)
@given(algebra_and_string())
def test_canonical_word_is_idempotent_and_class_stable(case):
    spec, w = case
    cw = canonical_word(spec, w)
    assert canonical_word(spec, cw) == cw
    assert canonical_word(spec, inverse(w)) == cw


@settings(max_examples=60, deadline=None)
@given(algebra_and_string_pair())
def test_hom_counts_ignore_representative_inversion(case):
    spec, c, d = case
    base = hom_string_string(spec, c, d)
    assert hom_string_string(spec, inverse(c), d) == base
    assert hom_string_string(spec, c, inverse(d)) == base
    assert hom_string_string(spec, inverse(c), inverse(d)) == base


@settings(max_examples=60, deadline=None)
@given(algebra_and_string_pair())
def test_occurrence_counts_respect_inverse_classes(case):
    spec, d, c = case
    assert count_sub(spec, inverse(d), c) == count_sub(spec, d, c)
    assert count_fac(spec, inverse(d), c) == count_fac(spec, d, c)
