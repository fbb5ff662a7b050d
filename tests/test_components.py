import copy
import gc
import hashlib
import pickle
import weakref

import pytest

from fixture_algebras import ALL, GP22, GP33, KRON, LOOP
from stringbands import (
    AlgebraSpec,
    BadDecomposition,
    BandClass,
    BandSequence,
    Case1Witness,
    Case2Witness,
    ExtendabilityWitness,
    InvalidWitness,
    NotAComponent,
    NotBand,
    NotQuadratic,
    NotQuasiBand,
    ParseError,
    QuasiBand,
    canonical_class,
    class_members,
    component_dimension,
    concat_extension,
    decide_component,
    enumerate_bands,
    enumerate_strings,
    extendable,
    extendable_quadratic,
    find_separating_string,
    format_word,
    hom_band_band,
    hom_band_string,
    hom_string_band,
    hom_string_string,
    iter_strings,
    make_sequence,
    negligible,
    negligible_quadratic,
    parse_word,
    realize_band,
    realize_string,
    reverse_piece,
    split_band,
)
from stringbands import components
from stringbands.bands import _rotations
from stringbands.words import Word, inverse, letter_target, trivial_word

B33 = canonical_class(GP33, parse_word("a^-1.b"))
B22 = canonical_class(GP22, parse_word("a.b^-1"))
BK = canonical_class(KRON, parse_word("a.b^-1"))
L_GOOD = canonical_class(LOOP, parse_word("x.a^-1.y.a"))
L_BAD = canonical_class(LOOP, parse_word("x.a^-1.y^-1.a"))


def test_extendable_self_pair_in_the_cubic_algebra():
    wit = extendable(GP33, B33, B33)
    assert wit is not None
    assert format_word(wit.w) == "1_u"
    assert wit.beta == "a" and wit.delta == "b"
    d_class = canonical_class(GP33, wit.d.as_word())
    assert d_class == canonical_class(GP33, parse_word("a^-1.a^-1.b.b"))


def test_extendable_none_on_the_quadratic_fixtures():
    assert extendable(GP22, B22, B22) is None
    assert extendable(KRON, BK, BK) is None
    assert extendable(LOOP, L_GOOD, L_GOOD) is None
    assert extendable(LOOP, L_GOOD, L_BAD) is None


def test_negligible_case2_on_the_dumbbell():
    wit = negligible(LOOP, L_BAD)
    assert isinstance(wit, Case2Witness)
    assert format_word(wit.rot.as_word()) == "a.x.a^-1.y^-1"
    assert format_word(wit.w) == "a"
    assert format_word(wit.u) == "x"
    assert format_word(wit.v) == "y^-1"
    assert format_word(wit.reversed_band.as_word()) == "a.x^-1.a^-1.y^-1"
    assert negligible(LOOP, L_GOOD) is None


def test_negligible_case1_on_the_cubic_algebra():
    B5b = canonical_class(GP33, parse_word("b.a^-1.b.b.a^-1"))
    wit = negligible(GP33, B5b)
    assert isinstance(wit, Case1Witness)
    piece_classes = {
        format_word(canonical_class(GP33, p.as_word()).canonical.as_word())
        for p in wit.pieces
    }
    assert piece_classes == {"a.b^-1", "a.b^-1.b^-1"}
    assert negligible(GP33, B33) is None
    assert negligible(GP22, B22) is None


def test_quadratic_criteria_match_the_definitional_searches():
    assert extendable_quadratic(GP22, B22, B22) is None
    assert extendable_quadratic(KRON, BK, BK) is None
    assert extendable_quadratic(LOOP, L_BAD, L_BAD) is not None
    assert negligible_quadratic(LOOP, L_BAD) is not None
    assert negligible_quadratic(LOOP, L_GOOD) is None
    assert negligible_quadratic(GP22, B22) is None


def test_quadratic_criteria_refuse_cubic_relations():
    with pytest.raises(NotQuadratic):
        extendable_quadratic(GP33, B33, B33)
    with pytest.raises(NotQuadratic):
        negligible_quadratic(GP33, B33)


def test_component_verdicts():
    assert decide_component(LOOP, [L_BAD]).status == "NotComponent"
    good = decide_component(LOOP, [L_GOOD])
    assert good.status == "IsComponent"
    assert good.dimension == 16
    single = decide_component(GP22, [B22])
    assert single.status == "IsComponent" and single.dimension == 3
    doubled = decide_component(GP22, [B22, B22])
    assert doubled.status == "IsComponent" and doubled.dimension == 12
    assert decide_component(GP33, [B33]).status == "Unknown"
    assert decide_component(GP33, [B33, B33]).status == "NotComponent"


def test_component_dimension_guards():
    assert component_dimension(GP22, [B22]) == 3
    with pytest.raises(NotAComponent):
        component_dimension(LOOP, [L_BAD])
    with pytest.raises(NotQuadratic):
        component_dimension(GP33, [B33])


def test_verdict_reasons_mention_the_refutation():
    verdict = decide_component(LOOP, [L_BAD])
    assert any("negligible" in r for r in verdict.reasons)
    verdict = decide_component(GP33, [B33, B33])
    assert any("extendable" in r for r in verdict.reasons)


def test_verdict_carries_the_witnesses_it_found():
    verdict = decide_component(GP33, [B33, B33])
    assert len(verdict.witnesses) == len(verdict.reasons) == 2
    assert verdict.witnesses == (
        ((0, 1), extendable(GP33, B33, B33)),
        ((1, 0), extendable(GP33, B33, B33)),
    )
    assert decide_component(LOOP, [L_GOOD, L_BAD]).witnesses == (
        ((1,), negligible(LOOP, L_BAD)),
    )
    assert decide_component(GP22, [B22, B22]).witnesses == ()
    assert decide_component(GP33, [B33]).witnesses == ()


@pytest.mark.parametrize(
    "text, error",
    [("a.b^-1.a.b^-1", NotBand), ("a.b", NotQuasiBand), ("a.z^-1", ParseError)],
)
def test_searches_refuse_what_is_not_a_band(text, error):
    word = parse_word(text)
    # a BandClass built around a bad word is checked like the bare word
    for bad in (word, word.letters, BandClass(QuasiBand(word.letters))):
        for call in (
            lambda: extendable(GP22, bad, B22),
            lambda: extendable(GP22, B22, bad),
            lambda: negligible(GP22, bad),
            lambda: decide_component(GP22, [B22, bad]),
            lambda: decide_component(GP22, BandSequence((B22, bad))),
        ):
            with pytest.raises(error):
                call()


@pytest.mark.parametrize("name", sorted(ALL))
def test_verdict_witnesses_equal_the_public_searches(name):
    spec = ALL[name]
    classes = enumerate_bands(spec, 5)
    for B in classes:
        for C in classes:
            # the second class arrives as its last, non-canonical reading
            c_reading = class_members(spec, C)[-1].as_word()
            expected = [
                (ix, wit)
                for ix, wit in (
                    ((0, 1), extendable(spec, B, c_reading)),
                    ((1, 0), extendable(spec, c_reading, B)),
                    ((0,), negligible(spec, B)),
                    ((1,), negligible(spec, c_reading)),
                )
                if wit is not None
            ]
            verdict = decide_component(spec, [B, c_reading])
            assert verdict.witnesses == tuple(expected)


def test_reverse_piece_produces_the_dominating_class():
    wit = negligible(LOOP, L_BAD)
    dominating = reverse_piece(LOOP, wit.rot, wit.w, wit.u, wit.v)
    assert canonical_class(LOOP, dominating.as_word()) == L_GOOD


def test_reverse_piece_rejects_bad_decompositions():
    wit = negligible(LOOP, L_BAD)
    with pytest.raises(BadDecomposition):
        reverse_piece(LOOP, wit.rot, wit.w, parse_word("x^-1"), wit.v)
    with pytest.raises(BadDecomposition):
        reverse_piece(LOOP, wit.rot, parse_word("a"), parse_word("a"), wit.v)
    with pytest.raises(NotQuasiBand, match="^a trivial word has no cyclic reading$"):
        reverse_piece(LOOP, parse_word("1_1"), wit.w, wit.u, wit.v)


def test_split_band_revalidates_the_witness():
    B5b = canonical_class(GP33, parse_word("b.a^-1.b.b.a^-1"))
    wit = negligible(GP33, B5b)
    pieces = split_band(GP33, wit)
    assert pieces == wit.pieces
    tampered = Case1Witness(wit.rot, wit.n + 1, wit.w, wit.pieces)
    with pytest.raises(InvalidWitness):
        split_band(GP33, tampered)
    for tampered in (
        Case1Witness(wit.rot, wit.n, parse_word("a"), wit.pieces),
        Case1Witness(wit.rot, wit.n, wit.w, wit.pieces[::-1]),
        Case1Witness(wit.rot, 0, wit.w, wit.pieces),
        Case1Witness(wit.rot.as_word(), wit.n, wit.w, wit.pieces),
        Case1Witness(wit.rot, str(wit.n), wit.w, wit.pieces),
        Case1Witness(wit.rot, float(wit.n), wit.w, wit.pieces),
    ):
        with pytest.raises(InvalidWitness):
            split_band(GP33, tampered)
    with pytest.raises(InvalidWitness):
        split_band(GP33, "not a witness")


def test_concat_extension_revalidates_the_witness():
    wit = extendable(GP33, B33, B33)
    joined = concat_extension(GP33, wit)
    assert canonical_class(GP33, joined.as_word()) == canonical_class(
        GP33, parse_word("a.a.b^-1.b^-1")
    )
    with pytest.raises(InvalidWitness):
        concat_extension(GP33, "not a witness")


def _found_witnesses():
    """Each fixture's witness, or None, for every class of period <= 6 and
    every ordered pair of classes of period <= 5."""
    for spec in ALL.values():
        classes = enumerate_bands(spec, 6)
        for B in classes:
            yield spec, negligible(spec, B)
        small = [C for C in classes if C.period <= 5]
        for B in small:
            for C in small:
                yield spec, extendable(spec, B, C)


def _at(band, i):
    return band.letters[(i - 1) % band.period]


def _another_word(spec, w, rot):
    """A word other than w: the trivial word if w has letters, else rot's
    first letter."""
    if w.is_trivial:
        return Word(None, rot.letters[:1])
    return trivial_word(letter_target(spec, _at(rot, 1)))


# sha256 over the reprs of _found_witnesses, one a line, recorded before the
# case 2 frame moved into one function; the searches find the same first
# witness
FOUND_WITNESSES_SHA256 = "efe466d181ca879633316fc2bedad0b875aefbb6e6c8e314d79d7ba19f1d25bd"


def test_every_found_witness_replays_and_a_tampered_copy_does_not():
    reprs = []
    for spec, wit in _found_witnesses():
        reprs.append(repr(wit))
        if isinstance(wit, Case1Witness):
            assert split_band(spec, wit) == wit.pieces
            other = _another_word(spec, wit.w, wit.rot)
            for tampered in (
                wit._replace(n=wit.n + 1),
                wit._replace(n=wit.n - 1),
                wit._replace(w=other),
                wit._replace(pieces=wit.pieces[::-1]),
            ):
                with pytest.raises(InvalidWitness):
                    split_band(spec, tampered)
        elif isinstance(wit, Case2Witness):
            out = reverse_piece(spec, wit.rot, wit.w, wit.u, wit.v)
            # w.u.w^-1.v^-1 reads the reversed band backwards
            assert inverse(out.as_word()).letters in _rotations(wit.reversed_band.letters)
            other = _another_word(spec, wit.w, wit.rot)
            with pytest.raises(BadDecomposition):
                reverse_piece(spec, wit.rot, other, wit.u, wit.v)
            with pytest.raises(BadDecomposition):
                reverse_piece(spec, wit.rot, wit.w, wit.v, wit.u)
        elif isinstance(wit, ExtendabilityWitness):
            assert concat_extension(spec, wit) == wit.d
            other = _another_word(spec, wit.w, wit.rot_b)
            for tampered in (
                wit._replace(w=other),
                wit._replace(rot_b=wit.rot_c, rot_c=wit.rot_b),
            ):
                with pytest.raises(InvalidWitness):
                    concat_extension(spec, tampered)
    digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()
    assert digest == FOUND_WITNESSES_SHA256


def _call_orders(classes):
    """Three orders over every ordered pair: forward, reversed, and each
    (C, B) asked just before its (B, C)."""
    forward = [(B, C) for B in classes for C in classes]
    swapped_first = [
        pair for i, B in enumerate(classes) for C in classes[i:] for pair in ((C, B), (B, C))
    ]
    return {"forward": forward, "reverse": forward[::-1], "swapped first": swapped_first}


def _verdict_line(name, seq, verdict):
    classes = [format_word(B.canonical.as_word()) for B in seq]
    reasons, witnesses = repr(verdict.reasons), repr(verdict.witnesses)
    return " ".join([name, *classes, verdict.status, reasons, witnesses])


# sha256 over the sorted, distinct _verdict_line of every class of period
# <= 6 alone and of every ordered pair of them, on the four fixtures,
# recorded before band classes kept their witness answers
VERDICTS_SHA256 = "0ac628feafa1e0db2e85af54ef645dad50bd247ea1986b33547f77957a636803"


def _kept(spec, search, *args):
    """Whether spec keeps the answer of components.<search>(spec, *args)."""
    return args in spec.kept.get(getattr(components, search), {})


@pytest.mark.parametrize("order", ["forward", "reverse", "swapped first"])
def test_kept_answers_equal_a_fresh_search_in_any_call_order(order):
    lines = []
    for name, fixture in ALL.items():
        # a copy of the fixture is another object, so it keeps nothing yet
        spec = copy.copy(fixture)
        classes = enumerate_bands(spec, 6)
        kept_neg, kept_ext = {}, {}
        for B, C in _call_orders(classes)[order]:
            kept_ext[B, C] = extendable(spec, B, C)
            kept_neg[B] = negligible(spec, B)
            lines.append(_verdict_line(name, (B, C), decide_component(spec, [B, C])))
        for B in classes[::-1] if order == "reverse" else classes:
            lines.append(_verdict_line(name, (B,), decide_component(spec, [B])))
        # an equal algebra that is another object keeps nothing of spec's, so
        # it searches afresh
        fresh = copy.copy(spec)
        for B in classes:
            assert _kept(spec, "_negligible", B)
            assert all(_kept(spec, "_extendable", B, C) for C in classes)
            assert not _kept(fresh, "_negligible", B)
            assert kept_neg[B] == negligible(spec, B) == negligible(fresh, B)
            for C in classes:
                assert kept_ext[B, C] == extendable(spec, B, C) == extendable(fresh, B, C)
    # the swapped-first order asks each self pair twice
    digest = hashlib.sha256("\n".join(sorted(set(lines))).encode()).hexdigest()
    assert digest == VERDICTS_SHA256


def test_kept_answers_leave_the_class_value_unchanged():
    assert BandClass.__slots__ == ("canonical", "_hash")
    for fixture in ALL.values():
        spec = copy.copy(fixture)
        classes = enumerate_bands(spec, 6)
        before = [(copy.copy(B), hash(B), repr(B), pickle.dumps(B)) for B in classes]
        spec_before = (hash(spec), repr(spec), pickle.dumps(spec))
        for B in classes:
            negligible(spec, B)
            for C in classes:
                extendable(spec, B, C)
        for B, (twin, h, r, p) in zip(classes, before):
            assert _kept(spec, "_negligible", B) and _kept(spec, "_extendable", B, B)
            assert B == twin and hash(B) == h and repr(B) == r and pickle.dumps(B) == p
            for clone in (copy.copy(B), copy.deepcopy(B), pickle.loads(p)):
                assert clone == B and hash(clone) == h
        # the algebra's value is unchanged too, and its copies keep nothing
        assert (hash(spec), repr(spec), pickle.dumps(spec)) == spec_before
        for clone in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(spec_before[2])):
            assert clone == spec and clone.kept == {}


def test_the_replays_ignore_a_planted_answer():
    spec = copy.copy(GP33)
    B5b = canonical_class(spec, parse_word("b.a^-1.b.b.a^-1"))
    split = negligible(spec, B5b)
    wrong_split = split._replace(n=split.n + 1)
    spec.kept[components._negligible][B5b,] = wrong_split
    # the search trusts what the algebra keeps; the replay recomputes
    assert negligible(spec, B5b) is wrong_split
    with pytest.raises(InvalidWitness):
        split_band(spec, wrong_split)
    assert split_band(spec, split) == split.pieces

    B = canonical_class(spec, parse_word("a^-1.b"))
    ext = extendable(spec, B, B)
    wrong_ext = ext._replace(rot_b=ext.rot_c, rot_c=ext.rot_b)
    spec.kept[components._extendable][B, B] = wrong_ext
    assert extendable(spec, B, B) is wrong_ext
    with pytest.raises(InvalidWitness):
        concat_extension(spec, wrong_ext)
    assert concat_extension(spec, ext) == ext.d

    loop = copy.copy(LOOP)
    bad = canonical_class(loop, parse_word("x.a^-1.y^-1.a"))
    case2 = negligible(loop, bad)
    loop.kept[components._negligible][bad,] = case2._replace(u=case2.v, v=case2.u)
    with pytest.raises(BadDecomposition):
        reverse_piece(loop, case2.rot, case2.w, case2.v, case2.u)
    assert reverse_piece(loop, case2.rot, case2.w, case2.u, case2.v).letters


def test_answers_are_kept_only_for_the_spec_the_class_was_built_for():
    spec = copy.copy(GP33)
    cubic = canonical_class(spec, parse_word("a.a.b^-1"))
    planted = negligible(LOOP, L_BAD)
    spec.kept[components._negligible] = {(cubic,): planted}
    spec.kept[components._extendable] = {(cubic, cubic): planted}
    assert negligible(spec, cubic) is planted
    truth = negligible(copy.copy(GP33), cubic), extendable(copy.copy(GP33), cubic, cubic)
    assert planted not in truth
    held = {k: copy.copy(v) for k, v in spec.kept.items()}
    # an equal algebra that is another object, and the same algebra with its
    # arrows declared the other way round, see nothing of what spec keeps
    twin = copy.copy(spec)
    swapped = AlgebraSpec(GP33.vertices, GP33.arrows[::-1], GP33.relations)
    for other in (twin, swapped):
        assert components._negligible(other, cubic) == truth[0]
        assert components._extendable(other, cubic, cubic) == truth[1]
        assert _kept(other, "_negligible", cubic)
    # and what they searched is kept on them, not on spec
    assert spec.kept == held


def _use_and_drop(spec):
    """A weak reference to spec after enumeration, every counted hom,
    realizations and the witness searches on it."""
    strings = enumerate_strings(spec, 4)
    classes = enumerate_bands(spec, 5)
    for c in strings:
        for d in strings:
            hom_string_string(spec, c, d)
        realize_string(spec, c)
    for B in classes:
        realize_band(spec, B, 2)
        for c in strings:
            hom_band_string(spec, B, c)
            hom_string_band(spec, c, B)
        for C in classes:
            hom_band_band(spec, B, C)
            decide_component(spec, [B, C])
    return weakref.ref(spec)


def test_an_algebra_is_freed_with_what_it_kept():
    ref = _use_and_drop(copy.copy(GP33))
    gc.collect()
    assert ref() is None


_S = make_sequence(LOOP, [parse_word("x.a^-1.y.a")])


@pytest.mark.parametrize(
    "call",
    [
        lambda: list(iter_strings(LOOP, -1)),
        lambda: enumerate_strings(LOOP, -2),
        lambda: enumerate_bands(LOOP, -1),
        # sequences equal as multisets, which needs no string at all
        lambda: find_separating_string(LOOP, _S, _S, -1),
        lambda: extendable_quadratic(LOOP, L_GOOD, L_BAD, bound=-3),
        lambda: negligible_quadratic(LOOP, L_GOOD, bound=-1),
    ],
    ids=["iter_strings", "enumerate_strings", "enumerate_bands", "find_separating_string",
         "extendable_quadratic", "negligible_quadratic"],
)
def test_a_negative_bound_is_refused(call):
    with pytest.raises(ValueError, match="must be non-negative"):
        call()
