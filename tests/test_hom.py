import copy
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stringbands.bands
import stringbands.hom
import stringbands.words
from fixture_algebras import ALL, GP22, GP33, KRON, LOOP
from stringbands import (
    BandClass,
    DimensionMismatch,
    NotAString,
    ParseError,
    QuasiBand,
    Word,
    ZeroParameter,
    canonical_class,
    count_fac,
    count_hom,
    count_sub,
    dim_hom,
    enumerate_bands,
    enumerate_strings,
    find_separating_string,
    format_word,
    hom_band_band,
    hom_band_string,
    hom_string_band,
    hom_string_string,
    inverse,
    make_sequence,
    parse_word,
    realize_band,
    realize_string,
)
from stringbands.bands import _scan_cap, band_id_tally
from stringbands.hom import _pair, family_rank, seq_count_from, seq_count_into
from stringbands.words import id_tally, middle_id, trivial_word


def fmtc(c):
    return format_word(c.canonical.as_word())


def test_string_string_counts():
    a = parse_word("a")
    assert hom_string_string(GP22, a, a) == 2
    assert hom_string_string(GP22, a, parse_word("b")) == 1
    assert hom_string_string(GP33, a, a) == 2
    assert hom_string_string(GP33, parse_word("a.a"), a) == 2
    # a word that is not a string is refused, not counted
    for w in ("a.a.a", "a.a^-1"):
        with pytest.raises(NotAString):
            hom_string_string(GP33, parse_word(w), parse_word(w))


def test_band_string_counts():
    B22 = canonical_class(GP22, parse_word("a.b^-1"))
    assert hom_band_string(GP22, B22, parse_word("a")) == 1
    BK = canonical_class(KRON, parse_word("a.b^-1"))
    assert hom_band_string(KRON, BK, trivial_word("2")) == 0
    assert hom_string_band(KRON, trivial_word("2"), BK) == 1


def test_a_second_hom_call_scans_nothing(monkeypatch):
    # each formula on a fresh copy: the first call scans every side it
    # reads, string and band, and the second reads what the first kept
    scans = []

    def counted(*args, **kwargs):
        scans.append(args)
        return id_tally(*args, **kwargs)

    monkeypatch.setattr(stringbands.words, "id_tally", counted)
    monkeypatch.setattr(stringbands.bands, "id_tally", counted)
    c, B = parse_word("a.b^-1"), canonical_class(GP33, parse_word("a.a.b^-1"))
    for hom, x, y in ((hom_string_string, c, c), (hom_band_string, B, c),
                      (hom_string_band, c, B), (hom_band_band, B, B)):
        spec = copy.copy(GP33)
        scans.clear()
        first = hom(spec, x, y)
        assert len(scans) == 2
        scans.clear()
        assert hom(spec, x, y) == first
        assert scans == []


def test_counts_read_the_entries_that_hom_reads(monkeypatch):
    spec = copy.copy(GP33)
    c, cp = parse_word("a.b^-1"), parse_word("a.a")
    paired, counted = [], []
    monkeypatch.setattr(stringbands.hom, "_pair", lambda facs, subs: paired.append((facs, subs)) or 0)
    hom_string_string(spec, c, cp)
    monkeypatch.setattr(stringbands.words, "id_count", lambda alg, ids, d: counted.append(ids) or 0)
    count_fac(spec, parse_word("a"), c)
    count_sub(spec, parse_word("a"), cp)
    (facs, subs), = paired
    assert facs is spec.fac_tallies[c]
    assert subs is spec.sub_tallies[cp]
    assert counted[0] is facs and counted[1] is subs


class _Interleaved(dict):
    """A trie's child table whose k-th get miss runs another scan before it
    returns, as a thread switch between a miss and its insert would."""

    def __init__(self, k, scan):
        super().__init__()
        self.k, self.scan, self.ran = k, scan, False

    def get(self, key, default=None):
        value = super().get(key, default)
        if value is None and not self.ran:
            self.k -= 1
            if self.k < 0:
                self.ran = True
                self.scan()
        return value


def test_a_scan_between_a_miss_and_its_insert_counts_exactly():
    # hom(M(c), M(c')) scans the fac tally of c first; the sub tally of c'
    # is scanned inside that scan, between its k-th trie miss and that
    # step's insert, on a fresh copy per interleaving.  Every ordered pair
    # of non-trivial strings <= 4 of two_loops_cubic, k < 4
    ref = copy.copy(GP33)
    strings = [c for c in enumerate_strings(ref, 4) if not c.is_trivial]
    assert len(strings) == 22
    wrong, ran = [], 0
    for c in strings:
        for cp in strings:
            truth = hom_string_string(ref, c, cp)
            for k in range(4):
                spec = copy.copy(GP33)
                child = spec.middle_trie.child = _Interleaved(k, lambda: spec.sub_tallies[cp])
                if hom_string_string(spec, c, cp) != truth:
                    wrong.append((format_word(c), format_word(cp), k))
                ran += child.ran
    assert wrong == []
    assert ran > 1000


def test_threads_sharing_one_algebra_object_count_exactly():
    # 4 threads ask every counted hom of two_loops_cubic (strings <= 6,
    # bands <= 7), each in its own order, of one fresh object, switching
    # every microsecond; 8 fresh objects
    ref = copy.copy(GP33)
    strings, classes = enumerate_strings(ref, 6), enumerate_bands(ref, 7)
    calls = [(hom_string_string, c, cp) for c in strings for cp in strings]
    calls += [(hom_band_string, B, c) for B in classes for c in strings]
    calls += [(hom_string_band, c, B) for B in classes for c in strings]
    calls += [(hom_band_band, B, C) for B in classes for C in classes]
    truth = {call: call[0](ref, *call[1:]) for call in calls}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(8):
            spec, answers, start = copy.copy(GP33), [None] * 4, threading.Barrier(4, timeout=10)

            def ask(i):
                order = random.Random(4 * trial + i).sample(calls, len(calls))
                start.wait()
                answers[i] = {call: call[0](spec, *call[1:]) for call in order}

            threads = [threading.Thread(target=ask, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert all(a == truth for a in answers)
    finally:
        sys.setswitchinterval(interval)


tallies = st.dictionaries(st.integers(-4, 12), st.integers(1, 6), max_size=10)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tallies, tallies)
@example({}, {})
@example({}, {1: 2, -1: 1})
@example({1: 2, 2: 3}, {3: 4, -1: 5})  # disjoint
@example({1: 2, 2: 3}, {1: 5, 2: 7})  # equal sizes, every key shared
@example({1: 2, 2: 3, -1: 4}, {1: 5, 2: 7, 9: 1})  # equal sizes, two keys shared
@example({1: 2, 2: 3}, {1: 5, 2: 7, 9: 1})  # the smaller one first
def test_pair_is_the_sum_over_either_tally(f, g):
    assert _pair(f, g) == sum(f[d] * g.get(d, 0) for d in f) == _pair(g, f)


def test_band_band_counts():
    B22 = canonical_class(GP22, parse_word("a.b^-1"))
    assert hom_band_band(GP22, B22, B22) == 1
    assert count_hom(GP22, B22, B22, 2, 2) == 2
    B2 = canonical_class(GP33, parse_word("a^-1.b"))
    B3 = canonical_class(GP33, parse_word("a.a.b^-1"))
    assert hom_band_band(GP33, B2, B2) == 1
    assert count_hom(GP33, B2, B2, 2, 2) == 2
    assert hom_band_band(GP33, B2, B3) == 1
    assert count_hom(GP33, B2, B3, 2, 2) == 1
    # a parameter the oracle refuses is refused by counting, by the same
    # check, and so is an end that is neither a string Word nor a BandClass
    BK = canonical_class(KRON, parse_word("a.b^-1"))
    for bad, error in ((0, ZeroParameter), (2.0, TypeError)):
        with pytest.raises(error):
            realize_band(KRON, BK, bad)
        for lam, mu in ((bad, bad), (bad, 2), (2, bad)):
            with pytest.raises(error):
                count_hom(KRON, BK, BK, lam, mu)
        with pytest.raises(error):
            count_hom(KRON, parse_word("a"), BK, bad)
    for end in (QuasiBand(BK.letters), "a.b^-1"):
        for x, y in ((end, BK), (BK, end)):
            with pytest.raises(TypeError, match=f"not {type(end).__name__}$"):
                count_hom(KRON, x, y)


FORMULAS = {(False, False): hom_string_string, (True, False): hom_band_string,
            (False, True): hom_string_band, (True, True): hom_band_band}


def test_band_band_count_is_stable_under_longer_caps():
    # reading past the m+n reach, to 4(m+n), adds no term, and a band read
    # past the length of a string adds none against it
    for spec in (GP22, GP33, KRON, LOOP):
        classes = enumerate_bands(spec, 4)
        # count_hom on every ordered pair of modules (strings <= 3) is the
        # formula of their kinds at any parameters, a string's ignored,
        # plus the identity for one class at one given parameter
        modules = classes + enumerate_strings(spec, 3)
        for x in modules:
            for y in modules:
                n = FORMULAS[isinstance(x, BandClass), isinstance(y, BandClass)](spec, x, y)
                assert count_hom(spec, x, y) == count_hom(spec, x, y, 2, 3) == n
                assert count_hom(spec, x, y, 2, None) == count_hom(spec, x, y, None, 2) == n
                assert count_hom(spec, x, y, 2, 2) == n + (x == y and isinstance(x, BandClass))
        for B in classes:
            for C in classes:
                cap = 4 * (B.period + C.period)
                longer = _pair(
                    band_id_tally(spec, B.canonical, False, cap),
                    band_id_tally(spec, C.canonical, True, cap),
                )
                assert longer == hom_band_band(spec, B, C)
            for c in enumerate_strings(spec, 4):
                cap = 2 * len(c) + 3
                facs, subs = (band_id_tally(spec, B.canonical, inv, cap) for inv in (False, True))
                assert _pair(facs, spec.sub_tallies[c]) == hom_band_string(spec, B, c)
                assert _pair(spec.fac_tallies[c], subs) == hom_string_band(spec, c, B)


def test_shared_middles_end_before_the_reach():
    # every shared middle of fac(B) and sub(C) is shorter than m+n, and
    # shorter than m when B = C (`bands._scan_cap`); read here at three
    # times the reach of the longest partner
    for spec in ALL.values():
        spec = copy.copy(spec)
        classes = enumerate_bands(spec, 8)
        longest = max(C.period for C in classes)
        for B in classes:
            cap = 3 * (B.period + longest)
            facs = band_id_tally(spec, B.canonical, False, cap)
            # the length of each middle of B's fac tally, by its id
            reading = B.letters * (cap // B.period + 2)
            length = {middle_id(spec, trivial_word(v)): 0 for v in spec.vertices}
            for i in range(B.period):
                for n in range(1, cap + 1):
                    length[middle_id(spec, Word(None, reading[i : i + n]))] = n
            for C in classes:
                subs = band_id_tally(spec, C.canonical, True, 3 * (C.period + longest))
                reach = B.period if B == C else B.period + C.period
                assert all(length[d] < reach for d in facs.keys() & subs.keys())


def test_band_band_scans_stop_at_the_reach():
    # with no band tally kept, hom_band_band reads both bands at
    # _scan_cap(m+n) and no further
    for spec in ALL.values():
        spec = copy.copy(spec)
        classes = enumerate_bands(spec, 6)
        for B in classes:
            for C in classes:
                hom_band_band(spec, B, C)
                cap = _scan_cap(B.period + C.period)
                # (letters, left_inverted) -> (cap, ids): B's fac and C's sub
                scans = dict(spec.band_tallies)
                spec.band_tallies.clear()
                assert set(scans) == {(B.letters, False), (C.letters, True)}
                assert all(kept <= cap for kept, _ in scans.values())


@pytest.mark.parametrize("name", sorted(ALL))
def test_band_tallies_do_not_depend_on_the_order_of_reaches(name):
    # every hom pair with a band (strings <= 5, bands <= 6) on two fresh
    # copies of the fixture, asked in ascending order of reach on one and in
    # descending order on the other: the answers agree, and each band side
    # keeps one tally, grown to the scan cap of the longest reach asked
    answers, longest = [], []
    for descending in (False, True):
        spec = copy.copy(ALL[name])
        strings, classes = enumerate_strings(spec, 5), enumerate_bands(spec, 6)
        # (reach, hom function, its arguments, the band sides it reads)
        calls = [(len(c), hom_band_string, (B, c), [(B.letters, False)]) for B in classes for c in strings]
        calls += [(len(c), hom_string_band, (c, B), [(B.letters, True)]) for B in classes for c in strings]
        calls += [(B.period + C.period, hom_band_band, (B, C), [(B.letters, False), (C.letters, True)])
                  for B in classes for C in classes]
        calls.sort(key=lambda call: call[0], reverse=descending)
        answers.append({(hom, args): hom(spec, *args) for _, hom, args, _ in calls})
        asked: dict = {}
        for reach, _, _, sides in calls:
            for side in sides:
                asked[side] = max(asked.get(side, 0), reach)
        kept = spec.band_tallies
        assert set(kept) == set(asked)
        assert all(kept[side][0] == _scan_cap(reach) for side, reach in asked.items())
        longest.append(asked)
    assert answers[0] == answers[1]
    assert longest[0] == longest[1]


def test_sequence_counts_add_up():
    B2 = canonical_class(GP33, parse_word("a.b^-1"))
    B4 = canonical_class(GP33, parse_word("a.a.b^-1.b^-1"))
    seq = make_sequence(GP33, [B2, B4])
    c = parse_word("a")
    assert seq_count_into(GP33, c, seq) == (
        hom_string_band(GP33, c, B2) + hom_string_band(GP33, c, B4)
    )
    assert seq_count_from(GP33, seq, c) == (
        hom_band_string(GP33, B2, c) + hom_band_string(GP33, B4, c)
    )
    assert family_rank(GP33, "a", seq) == 3
    assert family_rank(GP33, "b", seq) == 3
    with pytest.raises(ParseError, match="unknown arrow 'z'"):
        family_rank(GP33, "z", seq)


def test_family_rank_matches_realized_matrices():
    B4 = canonical_class(GP33, parse_word("a.a.b^-1.b^-1"))
    seq = make_sequence(GP33, [B4])
    X = realize_band(GP33, B4, Fraction(2))
    from stringbands.oracle import _echelon, _integral

    for arrow in GP33.arrow_names:
        rows: dict = {}
        for i, j, x in X.entries[arrow]:
            rows.setdefault(i, {})[j] = x
        assert family_rank(GP33, arrow, seq) == len(_echelon(map(_integral, rows.values())))


def test_make_sequence_keeps_order_but_reorderings_agree_as_families():
    B2 = parse_word("a.b^-1")
    B4 = parse_word("a.a.b^-1.b^-1")
    s1 = make_sequence(GP33, [B4, B2])
    s2 = make_sequence(GP33, [B2, B4])
    assert s1.total_dim == s2.total_dim == 6
    assert len(s1) == len(s2) == 2
    assert [fmtc(c) for c in s1.classes] == ["a.a.b^-1.b^-1", "a.b^-1"]
    assert [fmtc(c) for c in s2.classes] == ["a.b^-1", "a.a.b^-1.b^-1"]
    # same multiset of classes, so nothing can tell the families apart
    assert find_separating_string(GP33, s1, s2, 18) is None


def test_separating_string_for_the_dumbbell_pair():
    S = make_sequence(LOOP, [parse_word("x.a^-1.y.a")])
    T = make_sequence(LOOP, [parse_word("x.a^-1.y^-1.a")])
    wit = find_separating_string(LOOP, S, T, 12)
    assert format_word(wit.word) == "a"
    assert wit.counts == (0, 1, 0, 1)
    # the witness has length 1, so a bound of 0 runs out before it
    assert find_separating_string(LOOP, S, T, 0) is None
    assert find_separating_string(LOOP, S, S, 12) is None


def test_separating_string_rejects_dimension_mismatch():
    B2 = canonical_class(GP33, parse_word("a.b^-1"))
    B3 = canonical_class(GP33, parse_word("a.a.b^-1"))
    with pytest.raises(DimensionMismatch):
        find_separating_string(
            GP33, make_sequence(GP33, [B2]), make_sequence(GP33, [B3]), 6
        )


STRING_POOLS = {
    spec: enumerate_strings(spec, 4) for spec in (GP22, GP33, KRON, LOOP)
}
BAND_POOLS = {
    spec: enumerate_bands(spec, 6) for spec in (GP22, GP33, KRON, LOOP)
}


@st.composite
def spec_string_band(draw):
    spec = draw(st.sampled_from(list(BAND_POOLS)))
    c = draw(st.sampled_from(STRING_POOLS[spec]))
    B = draw(st.sampled_from(BAND_POOLS[spec]))
    return spec, c, B


@settings(max_examples=60, deadline=None)
@given(spec_string_band())
def test_band_counts_ignore_string_inversion(case):
    spec, c, B = case
    assert hom_string_band(spec, inverse(c), B) == hom_string_band(spec, c, B)
    assert hom_band_string(spec, B, inverse(c)) == hom_band_string(spec, B, c)


@settings(max_examples=30, deadline=None)
@given(spec_string_band())
def test_counts_match_the_oracle_pointwise(case):
    spec, c, B = case
    M = realize_string(spec, c)
    X = realize_band(spec, B, Fraction(3))
    assert hom_string_band(spec, c, B) == dim_hom(M, X)
    assert hom_band_string(spec, B, c) == dim_hom(X, M)
