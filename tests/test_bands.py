import copy
import pickle
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fixture_algebras import ALL, GP22, GP33, KRON, LOOP
from strategies import monomial_quivers
from stringbands import (
    AlgebraSpec,
    ArrowDecl,
    BandClass,
    Letter,
    NotBand,
    NotQuasiBand,
    ParseError,
    QuasiBand,
    TrivialWord,
    Word,
    are_equivalent,
    band_dimension,
    band_fac_tally,
    band_sub_tally,
    canonical_class,
    canonical_word,
    class_members,
    count_fac,
    count_sub,
    dimension_vector,
    enumerate_bands,
    enumerate_strings,
    extendable,
    fac_counts,
    format_word,
    hom_string_band,
    inverse,
    is_band,
    is_quasi_band,
    is_string,
    negligible,
    parse_word,
    parti_counts,
    sub_counts,
)
from stringbands.bands import _rotations
from stringbands.components import _case1_split, _try_extension, _window_triples
from stringbands.words import (
    glues,
    letter_source,
    letter_target,
    trivial_word,
    word_key,
    word_vertices,
)


def fmt(c):
    return format_word(c.canonical.as_word())


# letter i, 1-based, of a quasi-band's periodic word, and the length letters
# read from there
def _at(band, i):
    return band.letters[(i - 1) % band.period]


def _window(band, i, length):
    return tuple(_at(band, i + k) for k in range(length))


def test_quasi_band_versus_band():
    band = parse_word("a.b^-1")
    square = parse_word("a.b^-1.a.b^-1")
    assert is_quasi_band(GP22, band.letters)
    assert is_band(GP22, band.letters)
    assert is_quasi_band(GP22, square.letters)
    assert not is_band(GP22, square.letters)  # not primitive
    assert not is_quasi_band(GP22, parse_word("a.b").letters)
    assert not is_quasi_band(GP22, parse_word("a.a^-1").letters)
    # cyclically non-composable in the Kronecker quiver
    assert not is_quasi_band(KRON, parse_word("a.b^-1.a").letters)


def test_canonical_class_normalizes_rotation_and_inversion():
    ref = canonical_class(GP22, parse_word("a.b^-1"))
    for text in ("b^-1.a", "b.a^-1", "a^-1.b"):
        assert canonical_class(GP22, parse_word(text)) == ref
    assert fmt(ref) == "a.b^-1"
    assert fmt(canonical_class(LOOP, parse_word("a.x^-1.a^-1.y^-1"))) == "x.a^-1.y.a"


def test_canonical_class_rejects_non_bands():
    # a proper power is a quasi-band but not a band
    with pytest.raises(NotBand):
        canonical_class(GP22, parse_word("a.b^-1.a.b^-1"))
    with pytest.raises(NotQuasiBand):
        canonical_class(GP22, parse_word("a.b"))
    # a single loop fails once its cube meets the ideal
    with pytest.raises(NotQuasiBand):
        canonical_class(GP33, parse_word("a"))


def test_are_equivalent_up_to_rotation_and_inverse():
    b = parse_word("a.b^-1")
    assert are_equivalent(GP22, b, parse_word("b^-1.a"))
    assert are_equivalent(GP22, b, parse_word("b.a^-1"))
    assert not are_equivalent(
        LOOP, parse_word("x.a^-1.y.a"), parse_word("x.a^-1.y^-1.a")
    )


def test_class_members_lists_every_reading():
    members = class_members(GP22, canonical_class(GP22, parse_word("a.b^-1")))
    assert [format_word(q.as_word()) for q in members] == [
        "a.b^-1", "b^-1.a", "b.a^-1", "a^-1.b",
    ]


def test_canonical_class_returns_the_classes_it_built():
    for spec in ALL.values():
        for cls in enumerate_bands(spec, 6):
            assert canonical_class(spec, cls) is cls
            # an equal spec that is another object takes the full path
            assert canonical_class(copy.copy(spec), cls) is not cls


def test_a_class_passed_with_another_spec_is_checked_in_full():
    cubic = canonical_class(GP33, parse_word("a.a.b^-1"))
    # a.a lies in the ideal of the radical-square-zero algebra
    with pytest.raises(NotQuasiBand):
        canonical_class(GP22, cubic)
    with pytest.raises(NotQuasiBand):
        negligible(GP22, cubic)
    # the same arrows declared the other way round order the letters anew
    swapped = AlgebraSpec(GP33.vertices, GP33.arrows[::-1], GP33.relations)
    again = canonical_class(swapped, cubic)
    assert fmt(again) == "b.a^-1.a^-1"
    assert again == canonical_class(swapped, cubic.letters)
    assert canonical_class(swapped, again) is again
    assert canonical_class(GP33, again) == cubic


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copied_classes_take_the_full_path(clone):
    for spec in ALL.values():
        classes = enumerate_bands(spec, 5)
        for cls in classes:
            twin = clone(cls)
            assert twin == cls and hash(twin) == hash(cls)
            again = canonical_class(spec, twin)
            assert again == cls and again is not twin
            assert class_members(spec, twin) == class_members(spec, cls)
            assert negligible(spec, twin) == negligible(spec, cls)
            for other in classes:
                assert extendable(spec, twin, other) == extendable(spec, cls, other)
                assert extendable(spec, other, twin) == extendable(spec, other, cls)


def test_enumerate_bands_fixed_inventories():
    assert [fmt(c) for c in enumerate_bands(GP22, 6)] == ["a.b^-1"]
    assert [fmt(c) for c in enumerate_bands(KRON, 6)] == ["a.b^-1"]
    assert [fmt(c) for c in enumerate_bands(LOOP, 6)] == [
        "x.a^-1.y.a", "x.a^-1.y^-1.a",
    ]
    assert [fmt(c) for c in enumerate_bands(GP33, 6)] == [
        "a.b^-1",
        "a.a.b^-1",
        "a.b^-1.b^-1",
        "a.a.b^-1.b^-1",
        "a.a.b^-1.a.b^-1",
        "a.b^-1.a.b^-1.b^-1",
        "a.a.b^-1.a.b^-1.b^-1",
        "a.a.b^-1.b^-1.a.b^-1",
    ]


def test_parti_counts_including_wrapped_windows():
    B22 = canonical_class(GP22, parse_word("a.b^-1"))
    assert parti_counts(GP22, parse_word("a"), B22) == (1, 0)
    assert parti_counts(GP22, parse_word("b"), B22) == (0, 1)
    # length 3 pattern wraps around the period-2 band
    assert parti_counts(GP22, parse_word("a.b^-1.a"), B22)[0] == 1
    four = canonical_class(GP33, parse_word("a^-1.a^-1.b.b"))
    assert sum(parti_counts(GP33, parse_word("a^-1.a^-1"), four)) == 1
    with pytest.raises(TrivialWord):
        parti_counts(GP22, trivial_word("u"), B22)


def test_occurrence_counts_on_bands():
    B2 = canonical_class(GP33, parse_word("a.b^-1"))
    B4 = canonical_class(GP33, parse_word("a.a.b^-1.b^-1"))
    assert sub_counts(GP33, trivial_word("u"), B2) == 1
    assert fac_counts(GP33, trivial_word("u"), B2) == 1
    assert sub_counts(GP33, trivial_word("u"), B4) == 1
    assert sub_counts(GP33, parse_word("a"), B4) == 1
    assert fac_counts(GP33, parse_word("z"), B4) == 0


def test_tallies_agree_with_single_counts():
    B4 = canonical_class(GP33, parse_word("a.a.b^-1.b^-1"))
    subs = band_sub_tally(GP33, B4, 6)
    facs = band_fac_tally(GP33, B4, 6)
    for w, n in subs.items():
        assert sub_counts(GP33, w, B4) == n
    for w, n in facs.items():
        assert fac_counts(GP33, w, B4) == n


def test_one_band_scan_per_cyclic_word_and_bucket():
    # sub_counts and hom read a band tally by its letter tuple at the
    # power-of-two cap at or above len(c): caps 1, 2, 4 and 8 serve every
    # string of length <= 6, whichever way the class is spelled
    spec = copy.copy(GP33)
    B = canonical_class(spec, parse_word("a.a.b^-1.b^-1"))
    strings = enumerate_strings(spec, 6)
    for qb in (B, B.canonical, B.letters):
        for c in strings:
            sub_counts(spec, c, qb)
            hom_string_band(spec, c, B)
    scans = sorted(spec.kept[band_sub_tally], key=lambda args: args[1])
    assert scans == [(B.letters, cap) for cap in (1, 2, 4, 8)]


def test_dimensions():
    B5 = canonical_class(GP33, parse_word("a.a.b^-1.a.b^-1"))
    assert band_dimension(B5) == 5
    assert dimension_vector(GP33, B5) == {"u": 5}
    L = canonical_class(LOOP, parse_word("x.a^-1.y.a"))
    assert band_dimension(L) == 4
    assert dimension_vector(LOOP, L) == {"1": 2, "2": 2}
    with pytest.raises(ParseError, match="unknown arrow 'z'"):
        dimension_vector(GP33, parse_word("a.z^-1"))


ALL_CLASSES = [
    (spec, c)
    for spec in (GP22, GP33, KRON, LOOP)
    for c in enumerate_bands(spec, 6)
]

NONTRIVIAL = {
    spec: [w for w in enumerate_strings(spec, 4) if w.letters]
    for spec in (GP22, GP33, KRON, LOOP)
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_CLASSES), st.data())
def test_parti_is_a_class_invariant(case, data):
    spec, cls = case
    w = data.draw(st.sampled_from(NONTRIVIAL[spec]))
    counts = {sum(parti_counts(spec, w, member)) for member in class_members(spec, cls)}
    assert len(counts) == 1
    assert sub_counts(spec, w, cls) == sub_counts(spec, inverse(w), cls)
    assert fac_counts(spec, w, cls) == fac_counts(spec, inverse(w), cls)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ALL_CLASSES))
def test_total_arrow_occurrences_tile_the_period(case):
    spec, cls = case
    total = 0
    for a in spec.arrow_names:
        arrow = Word(None, (Letter(a, False),))
        total += sum(parti_counts(spec, arrow, cls))
    assert total == cls.period


def window_quasi_band(spec, ls):
    """The window-by-window definition: every cyclic window of length
    max(R, 2) is a string, on a composable, reduced, mixed cyclic word."""
    m = len(ls)

    def at(i):
        return ls[(i - 1) % m]

    for i in range(1, m + 1):
        if letter_source(spec, at(i)) != letter_target(spec, at(i + 1)):
            return False
        if at(i) == at(i + 1).inv():
            return False
    if all(l.inverted for l in ls) or all(not l.inverted for l in ls):
        return False
    w = max(spec.max_relation_length, 2)
    return all(
        is_string(spec, Word(None, tuple(at(i + k) for k in range(w))))
        for i in range(1, m + 1)
    )


@st.composite
def cyclic_words(draw, spec):
    """Up to 7 letters.  Most steps continue a reduced walk and most last
    letters close it, so the draws reach the run check and not only the
    composability one."""
    letters = [Letter(a, inv) for a in spec.arrow_names for inv in (False, True)]
    ls = [draw(st.sampled_from(letters))]
    n = draw(st.integers(1, 7))
    while len(ls) < n:
        walk = [
            l for l in letters
            if letter_target(spec, l) == letter_source(spec, ls[-1]) and l != ls[-1].inv()
        ]
        if len(ls) == n - 1:
            walk = [l for l in walk if letter_source(spec, l) == letter_target(spec, ls[0])]
        free = draw(st.integers(0, 5)) == 0
        ls.append(draw(st.sampled_from(letters if free or not walk else walk)))
    return tuple(ls)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.one_of(st.sampled_from(list(ALL.values())), monomial_quivers()), st.data())
def test_quasi_band_matches_the_window_definition(spec, data):
    ls = data.draw(cyclic_words(spec))
    assert is_quasi_band(spec, ls) == window_quasi_band(spec, ls)


def test_quasi_band_errors_and_one_direction_words():
    with pytest.raises(ParseError):
        is_quasi_band(GP22, parse_word("a.z^-1").letters)
    with pytest.raises(NotQuasiBand):
        is_quasi_band(GP22, ())
    # a relation-free loop reads as a string in every window, but a cyclic
    # word in one direction is never a quasi-band
    free_loop = AlgebraSpec(("u",), (ArrowDecl("a", "u", "u"),), ())
    for text in ("a", "a.a", "a^-1.a^-1.a^-1"):
        assert window_quasi_band(free_loop, parse_word(text).letters) is False
        assert not is_quasi_band(free_loop, parse_word(text).letters)
    assert is_string(free_loop, parse_word("a.a.a"))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.one_of(st.sampled_from(list(ALL.values())), monomial_quivers()))
def test_enumeration_matches_brute_force(spec):
    # every letter sequence of length <= 4, read once as a word and once as
    # a cyclic word; the frontier walk must find exactly the accepted ones
    letters = [Letter(a, inv) for a in spec.arrow_names for inv in (False, True)]
    sequences = [ls for n in range(1, 5) for ls in product(letters, repeat=n)]
    strings = {trivial_word(v) for v in spec.vertices}
    strings.update(
        canonical_word(spec, Word(None, ls))
        for ls in sequences
        if is_string(spec, Word(None, ls))
    )
    assert enumerate_strings(spec, 4) == sorted(strings, key=lambda w: word_key(spec, w))
    bands = {
        canonical_class(spec, ls)
        for ls in sequences
        if is_quasi_band(spec, ls) and is_band(spec, ls)
    }
    expected = sorted(bands, key=lambda B: (B.period, tuple(map(spec.letter_key, B.letters))))
    assert enumerate_bands(spec, 4) == expected


@st.composite
def quasi_bands(draw, spec):
    """A cyclic word that is a quasi-band; the example is dropped when a
    few draws find none."""
    for _ in range(5):
        ls = draw(cyclic_words(spec))
        if is_quasi_band(spec, ls):
            return ls
    assume(False)


# The definitions of canonical_class and class_members before a class kept
# its algebra and its readings: the current ones must agree with them.


def _reference_canonical_class(spec, ls):
    if not is_band(spec, ls):
        raise NotBand(f"{format_word(Word(None, ls))} is a proper power")
    best = min(_rotations(ls), key=lambda c: tuple(spec.letter_key(l) for l in c))
    return BandClass(QuasiBand(best))


def _reference_class_members(B):
    return tuple(QuasiBand(r) for r in dict.fromkeys(_rotations(B.canonical.letters)))


class _DirectionKeySpec(AlgebraSpec):
    """Keys a letter by its direction alone, so that many rotations tie."""

    def letter_key(self, letter):
        return letter.inverted


def _outcome(f, spec, x):
    try:
        return f(spec, x)
    except (NotQuasiBand, NotBand) as e:
        return type(e), str(e)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.sampled_from(list(ALL.values())), monomial_quivers()), st.data())
def test_canonical_class_and_members_match_the_reference(spec, data):
    coarse = _DirectionKeySpec(spec.vertices, spec.arrows, spec.relations)
    words = []
    for _ in range(2):
        # a few tries for a quasi-band; the last draw is kept either way, so
        # the errors are compared too
        for _ in range(5):
            ls = data.draw(cyclic_words(spec))
            if is_quasi_band(spec, ls):
                break
        words.append(ls)
    for s, other in ((spec, coarse), (coarse, spec)):
        for ls in words:
            got = _outcome(canonical_class, s, ls)
            assert got == _outcome(_reference_canonical_class, s, ls)
            if not isinstance(got, BandClass):
                continue
            assert canonical_class(s, got) is got
            for _ in range(2):
                assert class_members(s, got) == _reference_class_members(got)
            # an equal spec object and another spec take the full path
            assert canonical_class(copy.copy(s), got) is not got
            assert _outcome(canonical_class, other, got) == _outcome(
                _reference_canonical_class, other, got.letters
            )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(st.sampled_from(list(ALL.values())), monomial_quivers()), st.data())
def test_seams_decide_gluings_and_split_pieces(spec, data):
    x = data.draw(quasi_bands(spec))
    y = data.draw(quasi_bands(spec))
    for left, right in ((x, y), (y, x)):
        # every reading of right that leaves from where left does
        for z in _rotations(right):
            if letter_target(spec, z[0]) != letter_target(spec, left[0]):
                continue
            glued = is_quasi_band(spec, left + z)
            assert (glues(spec, left, z) and glues(spec, z, left)) == glued
            wit = _try_extension(spec, QuasiBand(z), QuasiBand(left))
            assert wit is None or is_quasi_band(spec, wit.d.letters)
        rot = QuasiBand(left)
        for i in range(1, rot.period + 1):
            for n in range(1, rot.period + 1):
                p = _window(rot, i, n)
                turns = any(l.inverted != p[0].inverted for l in p)
                assert (turns and glues(spec, p, p)) == is_quasi_band(spec, p)
        for n in range(1, rot.period):
            wit = _case1_split(spec, rot, n)
            assert wit is None or all(is_quasi_band(spec, q.letters) for q in wit.pieces)


# Reference copies of the occurrence counters as they stood before the
# flanked-occurrence engine: every count, band tally and quadratic window
# below is checked against them.


def _piece(alg, c, i, j):
    if i == j:
        return trivial_word(word_vertices(alg, c)[i])
    return Word(None, c.letters[i:j])


def _middle_spans(alg, d, c):
    if d.is_trivial:
        for i, v in enumerate(word_vertices(alg, c)):
            if v == d.trivial_at:
                yield i, i
    else:
        k = len(d)
        for i in range(len(c) - k + 1):
            if c.letters[i : i + k] == d.letters:
                yield i, i + k


def _triples(alg, d, c, left_inverted):
    if c.is_trivial:
        if d.is_trivial and d.trivial_at == c.trivial_at:
            return [(c, c, c)]
        return []
    out = []
    variants = [d] if d.is_trivial else [d, inverse(d)]
    for var in variants:
        for i, j in _middle_spans(alg, var, c):
            if i > 0 and c.letters[i - 1].inverted != left_inverted:
                continue
            if j < len(c) and c.letters[j].inverted == left_inverted:
                continue
            out.append(
                (_piece(alg, c, 0, i), _piece(alg, c, i, j), _piece(alg, c, j, len(c)))
            )
    return out


def _flank_count(spec, c, band, inverted_before):
    m = band.period
    total = 0
    if c.is_trivial:
        for i in range(1, m + 1):
            if _at(band, i).inverted != inverted_before:
                continue
            if letter_source(spec, _at(band, i)) != c.trivial_at:
                continue
            if _at(band, i + 1).inverted == inverted_before:
                continue
            total += 1
        return total
    for target in (c.letters, inverse(c).letters):
        n = len(target)
        for i in range(1, m + 1):
            if _at(band, i).inverted != inverted_before:
                continue
            if _window(band, i + 1, n) != target:
                continue
            if _at(band, i + n + 1).inverted == inverted_before:
                continue
            total += 1
    return total


def _reference_window_triples(spec, band, max_mid, leftmost_inverted):
    by_mid = {}
    m = band.period
    for l in range(max_mid + 1):
        for i in range(1, m + 1):
            first = _at(band, i)
            last = _at(band, i + l + 1)
            if first.inverted != leftmost_inverted:
                continue
            if last.inverted == leftmost_inverted:
                continue
            if l == 0:
                mid = trivial_word(letter_source(spec, first))
            else:
                mid = Word(None, _window(band, i + 1, l))
            for a, d, b in (
                (first.arrow, mid, last.arrow),
                (last.arrow, inverse(mid), first.arrow),
            ):
                pairs = by_mid.setdefault(d, [])
                if (a, b) not in pairs:
                    pairs.append((a, b))
    return by_mid


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.sampled_from(list(ALL.values())), monomial_quivers()), st.data())
def test_flanked_folds_match_the_old_counters(spec, data):
    ls = data.draw(cyclic_words(spec))
    # the counters are defined on reduced words; a word equal to its own
    # inverse never occurs in one
    assume(all(ls[k - 1] != ls[k].inv() for k in range(len(ls))))
    m = len(ls)
    c = Word(None, ls)
    trivials = [trivial_word(v) for v in spec.vertices]
    factors = [Word(None, ls[i:j]) for i in range(m) for j in range(i + 1, m + 1)]
    for d in trivials + factors + [inverse(f) for f in factors]:
        assert count_sub(spec, d, c) == len(_triples(spec, d, c, True))
        assert count_fac(spec, d, c) == len(_triples(spec, d, c, False))
    band = QuasiBand(ls)
    # each cap is its own cached scan; 0, caps off the powers of two and
    # caps past the period included
    drawn = data.draw(st.integers(0, 2 * m + 3))
    for cap in sorted({0, 1, 3, m, m + 1, drawn, 2 * m + 3}, reverse=True):
        windows = [
            Word(None, _window(band, i, n)) for i in range(m) for n in range(1, cap + 1)
        ]
        for inv, tally in ((True, band_sub_tally), (False, band_fac_tally)):
            reference = {}
            for d in trivials + windows:
                n = _flank_count(spec, d, band, inv)
                if n:
                    reference[canonical_word(spec, d)] = n
            assert tally(spec, band, cap) == reference
            assert _window_triples(spec, band, cap, inv) == _reference_window_triples(
                spec, band, cap, inv
            )
