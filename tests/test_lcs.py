"""LCS engine: pair, reversible, multi-way, set statistics, budgets."""

import hashlib
import itertools
import math
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import brute_lcs, brute_lcs_multi, leftmost_greedy_lcs
from twinlcs import (
    BudgetError,
    Word,
    cube_quadruple,
    grid_pair,
    lcs_len,
    lcs_multi,
    lcs_pair,
    lcs_reversible,
    parse_word,
    quadratic_family,
    sample_word,
    set_lcs_stats,
    substream,
)
from twinlcs import lcs
from twinlcs.lcs import (_SUBSET_CELLS, _chain_length, _length_cost,
                         _letter_arrays, _listing, _pair_chain, _positions,
                         _row_dp, pair_lengths, subset_lengths)

pairs = st.integers(2, 4).flatmap(
    lambda k: st.tuples(
        st.lists(st.integers(1, k), max_size=14).map(lambda ls: Word(tuple(ls), k)),
        st.lists(st.integers(1, k), max_size=14).map(lambda ls: Word(tuple(ls), k))))


def assert_witness_consistent(a, b, res):
    ia, ib = res.indices
    assert len(ia) == len(ib) == res.length == len(res.word)
    assert list(ia) == sorted(set(ia)) and list(ib) == sorted(set(ib))
    assert tuple(a[i] for i in ia) == res.word.letters
    assert tuple(b[i] for i in ib) == res.word.letters


def test_pair_example():
    res = lcs_pair(parse_word("1212"), parse_word("2121"))
    assert res.length == 3
    assert_witness_consistent(parse_word("1212"), parse_word("2121"), res)


@given(pairs)
def test_pair_matches_brute_force(ab):
    a, b = ab
    res = lcs_pair(a, b)
    assert res.length == brute_lcs(a.letters, b.letters)
    assert_witness_consistent(a, b, res)


def test_pair_edge_cases():
    assert lcs_pair(Word((), 2), parse_word("12")).length == 0
    assert lcs_pair(parse_word("111"), parse_word("11")).length == 2
    with pytest.raises(ValueError):
        lcs_pair(Word((1,), 2), Word((1,), 3))


def test_pair_budget():
    a = Word((1,) * 600, 2)
    with pytest.raises(BudgetError, match="or use length-only queries$"):
        lcs_pair(a, a, budget_cells=1000)


def test_budget_message_length_only_queries_get_no_length_only_hint():
    a = Word((1,) * 20, 2)
    for call in (lambda: lcs_multi([a, a, a], witness=False, budget_cells=1000),
                 lambda: lcs_multi([a, a, a], budget_cells=1000),
                 lambda: set_lcs_stats([a, a, a], 3, budget_cells=1000)):
        with pytest.raises(BudgetError) as info:
            call()
        message = str(info.value)
        assert message.endswith("; raise budget_cells"), message
        assert "length-only" not in message


def letter_pairs(k, first=1):
    """Two lists of up to 40 letters, the second over [first, first + k)."""
    return st.tuples(st.lists(st.integers(1, k), max_size=40),
                     st.lists(st.integers(first, first + k - 1), max_size=40))


# repeated letters and empty words, over k = 1..6, and disjoint alphabets
chain_pairs = (st.integers(1, 6).flatmap(letter_pairs)
               | st.integers(1, 3).flatmap(lambda k: letter_pairs(k, k + 1)))


def chain_of(a, b, most):
    """The pair step of letter lists a and b, with b listed."""
    k = max((*a, *b), default=1)
    (x, y), size = _letter_arrays([Word(tuple(a), k), Word(tuple(b), k)])
    return _pair_chain(x, _listing(y, size), most)


@given(chain_pairs)
def test_pair_chain_matches_row_dp_and_brute_force(ab):
    a, b = ab
    expected = brute_lcs(a, b)
    points = sum(x == y for x in a for y in b)
    assert chain_of(a, b, points) == _row_dp(a, b).bit_count() == expected
    # over its cap on match points the chain declines before it starts
    assert chain_of(a, b, points - 1) is None


@st.composite
def word_lists(draw):
    """Up to five words over k letters, each letter scaled by 1 or by 10**6
    and the alphabet with it; scaled letters lie far above every word
    length, so the letter arrays renumber them.  Pairs of 96 and more
    letters take the chain when k = 300, and also when the letters are
    scaled, whose alphabet passes the alphabet test; with k <= 6 such
    chains then decline after counting their match points."""
    k = draw(st.sampled_from((1, 6, 300)))
    scale = draw(st.sampled_from((1, 10**6)))
    sizes = draw(st.lists(st.sampled_from((0, 3, 96, 120)), max_size=5))
    letter = st.integers(1, k).map(lambda c: c * scale)
    return [Word(tuple(draw(st.lists(letter, min_size=n, max_size=n))),
                 k * scale) for n in sizes]


@given(word_lists(), st.data())
def test_pair_lengths_equal_each_pair_alone(words, data):
    index = st.integers(0, max(len(words) - 1, 0))
    pairs = (data.draw(st.lists(st.tuples(index, index), max_size=8))
             if words else [])
    got = pair_lengths(words, pairs)
    assert got == [lcs_len(words[i], words[j]) for i, j in pairs]
    assert got == [brute_lcs(words[i].letters, words[j].letters)
                   for i, j in pairs]


def test_pair_lengths_refuse_a_mixed_alphabet():
    a, b = Word((1, 2), 2), Word((1, 2), 3)
    for call in (lambda: pair_lengths([a, a, b], [(0, 1)]),
                 lambda: lcs_len(a, b),
                 lambda: set_lcs_stats([a, b], 2)):
        with pytest.raises(ValueError, match="all words must share one"):
            call()


@pytest.fixture
def routes(monkeypatch):
    """Count the calls of each pair-length route that ``lcs_len`` makes,
    and the chains that declined after counting their match points."""
    seen = {"chain": 0, "declined": 0, "row": 0}
    chain, row = lcs._pair_chain, lcs._row_dp

    def spy_chain(*args):
        got = chain(*args)
        seen["chain" if got is not None else "declined"] += 1
        return got

    def spy_row(*args):
        seen["row"] += 1
        return row(*args)

    monkeypatch.setattr(lcs, "_pair_chain", spy_chain)
    monkeypatch.setattr(lcs, "_row_dp", spy_row)
    return seen


@pytest.fixture
def prepared(monkeypatch):
    """Count the words turned into letter arrays and the listings built."""
    seen = {"arrays": 0, "listings": 0}
    arrays, listing = lcs._letter_arrays, lcs._listing

    def spy_arrays(words):
        seen["arrays"] += len(words)
        return arrays(words)

    def spy_listing(*args):
        seen["listings"] += 1
        return listing(*args)

    monkeypatch.setattr(lcs, "_letter_arrays", spy_arrays)
    monkeypatch.setattr(lcs, "_listing", spy_listing)
    return seen


def test_pair_length_across_the_route_switch(routes):
    rng = substream(18, 0)
    for n, copies in ((96, 1), (150, 1), (250, 1), (400, 1),
                      (96, 2), (200, 2), (300, 2), (400, 2)):
        base = [c for c in range(1, n // copies + 1) for _ in range(copies)]
        a, b = (Word(tuple(base[i] for i in rng.permutation(n)), n // copies)
                for _ in range(2))
        assert lcs_len(a, b) == brute_lcs(a.letters, b.letters), (n, copies)
    # two copies of each letter take the row DP up to about 300 letters
    assert routes["chain"] and routes["row"], routes


def test_pair_length_route_follows_the_cost(routes, prepared):
    words = quadratic_family(11).words
    for a, b in itertools.combinations(words, 2):
        lcs_len(a, b)
    assert routes == {"chain": 55, "declined": 0, "row": 0}
    assert prepared == {"arrays": 110, "listings": 55}
    # one call for all pairs prepares each word once: 11 letter arrays, and
    # one listing for each of the 10 words that come second in a pair
    routes.update(chain=0)
    prepared.update(arrays=0, listings=0)
    pairs = list(itertools.combinations(range(11), 2))
    got = pair_lengths(words, pairs)
    assert routes == {"chain": 55, "declined": 0, "row": 0}
    assert prepared == {"arrays": 11, "listings": 10}
    assert got == [lcs_len(words[i], words[j]) for i, j in pairs]
    # dense binary words: the alphabet size alone keeps them off the chain,
    # before their match points are counted
    rng = substream(18, 1)
    a, b = (Word(tuple(int(c) for c in rng.integers(1, 3, 1000)), 2)
            for _ in range(2))
    routes.update(chain=0, row=0)
    lcs_len(a, b)
    assert routes == {"chain": 0, "declined": 0, "row": 1}
    # six-letter words take the row DP after the length test alone
    routes.update(row=0)
    assert lcs_len(parse_word("123456"), parse_word("654321")) == 1
    assert routes == {"chain": 0, "declined": 0, "row": 1}


def test_pair_length_on_a_huge_alphabet_takes_no_alphabet_sized_memory(
        routes):
    # 200 letters each out of 4,000,000: the chain renumbers the letters, so
    # no array has one entry per letter of the alphabet
    k = 4_000_000
    rng = substream(18, 2)
    pool = [int(c) + 1 for c in rng.choice(k, 300, replace=False)]
    a = Word(tuple(pool[:200]), k)
    b = Word(tuple(pool[i] for i in rng.permutation(300)[:200]), k)
    tracemalloc.start()
    try:
        got = lcs_len(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == brute_lcs(a.letters, b.letters) > 0
    assert routes == {"chain": 1, "declined": 0, "row": 0}
    assert peak < 2**20, peak


def test_pair_length_keeps_many_points_off_the_chain(routes):
    # ten copies of 1000 letters, 10,000 letters each: M = 100,000 points,
    # past the chain's cap of 4 * (len(a) + len(b)), so the row DP serves
    # the pair and no array holds one entry per match point
    a, b = grid_pair(1000, 10).words
    tracemalloc.start()
    try:
        got = lcs_len(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert routes == {"chain": 0, "declined": 0, "row": 1}
    assert got == chain_of(a.letters, b.letters, 10**5) == 110
    assert peak < 2**20, peak


def test_pair_length_ignores_cell_budget():
    # neither pair-length route, bit rows or match-point chain, keeps a table
    a = Word((1,) * 600, 2)
    assert lcs_multi([a, a], witness=False, budget_cells=1000).length == 600
    assert lcs_pair(a, a, witness=False, budget_cells=1000).length == 600


@given(pairs)
def test_pair_witness_is_leftmost_greedy(ab):
    a, b = ab
    assert lcs_pair(a, b).indices == leftmost_greedy_lcs((a.letters, b.letters))


def all_words(k, max_len):
    return [Word(letters, k) for n in range(max_len + 1)
            for letters in itertools.product(range(1, k + 1), repeat=n)]


@pytest.mark.parametrize("k, max_len", [(2, 6), (3, 4)])
def test_pair_witness_is_leftmost_greedy_exhaustively(k, max_len):
    words = all_words(k, max_len)
    for a, b in itertools.product(words, repeat=2):
        res = lcs_pair(a, b)
        assert res.indices == leftmost_greedy_lcs((a.letters, b.letters)), (a, b)
        assert res.word.letters == tuple(a[i] for i in res.indices[0])


GRID_WITNESS_SHA256 = \
    "be43dbeb7f35f2f3b3e7cf1dbd47108b1d8495509eacb07966eb38784d2fdbfe"


def test_long_pair_witness_is_pinned():
    a, b = grid_pair(1000, 3).words  # two 3000-letter words
    res = lcs_pair(a, b)
    assert res.length == lcs_len(a, b) == 57
    assert_witness_consistent(a, b, res)
    digest = hashlib.sha256(repr(res.indices).encode()).hexdigest()
    assert digest == GRID_WITNESS_SHA256


def test_long_pair_witness_builds_no_dense_table():
    # the bit rows take about 1 MiB; the dense int32 table took 34 MiB
    a, b = grid_pair(1000, 3).words
    tracemalloc.start()
    try:
        lcs_pair(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


@given(pairs)
def test_reversible_is_max_of_orientations(ab):
    a, b = ab
    res = lcs_reversible(a, b)
    fwd = brute_lcs(a.letters, b.letters)
    rev = brute_lcs(a.letters, b.letters[::-1])
    assert res.length == max(fwd, rev)
    if fwd >= rev:
        assert res.orientation == "forward"  # ties prefer forward
    else:
        assert res.orientation == "reverse"


def test_reversible_witness():
    a, b = parse_word("123"), parse_word("321")
    res = lcs_reversible(a, b, witness=True)
    assert res.orientation == "reverse"
    assert res.length == 3
    assert_witness_consistent(a, b.reversed(), res.detail)


def test_permutation_reversible_floor():
    # any two permutations of [k] share a subsequence of length sqrt(k)
    # in one of the two orientations
    rng = substream(3, 0)
    for k in (2, 3, 4, 5, 8, 16, 36, 64):
        for _ in range(20):
            pa = tuple(int(v) + 1 for v in rng.permutation(k))
            pb = tuple(int(v) + 1 for v in rng.permutation(k))
            best = max(brute_lcs(pa, pb), brute_lcs(pa, pb[::-1]))
            assert best * best >= k
    # exhaustively for small k
    for k in (2, 3, 4):
        for pa in itertools.permutations(range(1, k + 1)):
            for pb in itertools.permutations(range(1, k + 1)):
                best = max(brute_lcs(pa, pb), brute_lcs(pa, pb[::-1]))
                assert best >= math.sqrt(k)


def test_multipermutation_reversible_floor():
    # s copies of each of k letters: LCSr >= sqrt(n) with n = s*k
    rng = substream(4, 0)
    for k, s in ((3, 2), (4, 3), (6, 2), (8, 4)):
        base = [l for l in range(1, k + 1) for _ in range(s)]
        n = k * s
        for _ in range(25):
            pa = Word(tuple(base[i] for i in rng.permutation(n)), k)
            pb = Word(tuple(base[i] for i in rng.permutation(n)), k)
            assert lcs_reversible(pa, pb).length >= math.sqrt(n)


multis = st.integers(2, 3).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(1, k), max_size=7).map(lambda ls: Word(tuple(ls), k)),
        min_size=2, max_size=4))


@given(multis)
def test_multi_matches_brute_force(ws):
    res = lcs_multi(ws, witness=False)
    assert res.length == brute_lcs_multi([w.letters for w in ws])


short_multis = st.integers(2, 4).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(1, k), max_size=6).map(lambda ls: Word(tuple(ls), k)),
        min_size=2, max_size=4))


@given(short_multis)
def test_multi_witness_is_leftmost_greedy(ws):
    res = lcs_multi(ws)
    assert res.indices == leftmost_greedy_lcs([w.letters for w in ws])
    assert res.word.letters == tuple(ws[0][i] for i in res.indices[0])


permutation_sets = st.integers(1, 7).flatmap(
    lambda n: st.lists(st.permutations(range(1, n + 1)), min_size=3,
                       max_size=4)).map(
    lambda ps: [Word(tuple(p), len(p)) for p in ps])


@given(permutation_sets)
def test_multi_length_of_permutations_takes_the_chain(ws):
    # n match points against (n+1)^r cells: the chain always serves these
    assert _length_cost(ws, [_positions(w) for w in ws]) == (
        len(ws[0]) ** 2, True)
    res = lcs_multi(ws, witness=False)
    assert res.length == brute_lcs_multi([w.letters for w in ws])


small_multis = st.integers(1, 3).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(1, k), max_size=6).map(lambda ls: Word(tuple(ls), k)),
        min_size=3, max_size=4))


@given(small_multis)
def test_multi_length_both_routes_match_brute_force(ws):
    expected = brute_lcs_multi([w.letters for w in ws])
    assert lcs_multi(ws, witness=False).length == expected
    # whichever route the cost picks
    assert _chain_length(ws, [_positions(w) for w in ws]) == expected


def test_length_route_follows_the_cost():
    perm = Word(tuple(range(1, 41)), 40)
    assert _length_cost([perm] * 3, [_positions(perm)] * 3) == (1600, True)
    ones = Word((1,) * 20, 2)
    # 8000 points
    assert _length_cost([ones] * 3, [_positions(ones)] * 3) == (21 ** 3,
                                                                False)
    # the chain charges M^2 to the budget, in lcs_multi and per subset
    assert lcs_multi([perm] * 3, witness=False, budget_cells=1600).length == 40
    with pytest.raises(BudgetError, match="^joint LCS of three or more words "
                                          "needs 1600 cells and chain steps, "
                                          "over the budget of 1599; "
                                          "raise budget_cells$"):
        lcs_multi([perm] * 3, witness=False, budget_cells=1599)
    assert set_lcs_stats([perm] * 4, 3, budget_cells=4 * 1600).value == 40
    with pytest.raises(BudgetError, match="raise budget_cells$"):
        set_lcs_stats([perm] * 4, 3, budget_cells=4 * 1600 - 1)
    # witnesses stay on the dense table and its cell count
    with pytest.raises(BudgetError, match="3-way alignment needs 68921 "):
        lcs_multi([perm] * 3, budget_cells=68920)


def test_set_stats_pairwise_equal_each_pair_alone():
    # permutations that take the chain, one of them reversed, and two short
    # words that take the row DP
    words = list(quadratic_family(7).words[:4])
    words += [words[0].reversed(), Word((3, 1, 2), 343), Word((), 343)]
    pairwise = set_lcs_stats(words, 2).pairwise
    assert all(pairwise[i][j] == (lcs_len(a, b) if i != j else len(a))
               for (i, a), (j, b) in itertools.product(enumerate(words),
                                                       repeat=2))


def test_set_stats_cube_quadruple_past_the_dense_budget():
    # four 1331-letter permutations: 2.4e9 dense cells, 1331^2 chain steps
    assert set_lcs_stats(cube_quadruple(11).words, 3).value == 1


def spy(monkeypatch, name):
    """Calls of the ``twinlcs.lcs`` function ``name``, which still runs."""
    calls = []
    counted = getattr(lcs, name)
    monkeypatch.setattr(lcs, name,
                        lambda *args: calls.append(args) or counted(*args))
    return calls


def test_set_stats_costs_each_subset_once(monkeypatch):
    costed = spy(monkeypatch, "_length_cost")
    listed = spy(monkeypatch, "_positions")
    stats = set_lcs_stats(cube_quadruple(5).words, 3)
    assert len(costed) == 4  # one per 3-subset of the four words
    assert len(listed) == 4  # one per word, not one per word and subset
    assert stats.pairwise == tuple(
        tuple(125 if i == j else 5 for j in range(4)) for i in range(4))
    assert (stats.value, stats.best_subset) == (1, (0, 1, 2))


def test_set_stats_refuses_before_any_joint_length(monkeypatch):
    spies = [spy(monkeypatch, name)
             for name in ("_chain_length", "_suffix_table", "pair_lengths")]
    words = [sample_word(2, 200, 0, index=i) for i in range(4)]
    # four dense 201^3-cell subsets: the third passes the budget, with the
    # floor of the fourth; no length, not even a pair's, is computed
    with pytest.raises(BudgetError, match=f"needs {3 * 201 ** 3 + _SUBSET_CELLS}"
                                          " cells .*; raise budget_cells$"):
        set_lcs_stats(words, 3, budget_cells=2 * 10**7)
    assert spies == [[], [], []]


def test_set_stats_refuses_at_the_first_overshooting_subset(monkeypatch):
    costed = spy(monkeypatch, "_length_cost")
    words = [sample_word(2, 10, 0, index=i) for i in range(16)]
    # the floors of the C(16, 8) = 12870 subsets fit the budget; the first
    # subset alone needs 11^8 cells
    with pytest.raises(BudgetError, match="needs "
                       f"{12870 * _SUBSET_CELLS + 11 ** 8 - _SUBSET_CELLS} "
                       "cells"):
        set_lcs_stats(words, 8)
    assert len(costed) == 1


def test_set_stats_refuses_by_count_before_listing(monkeypatch):
    listed = spy(monkeypatch, "combinations")
    costed = spy(monkeypatch, "_length_cost")
    words = [sample_word(2, 10, 0, index=i) for i in range(30)]
    # C(30, 15) ~ 1.6e8 subsets: their floors alone are over the budget
    with pytest.raises(BudgetError,
                       match=f"needs {math.comb(30, 15) * _SUBSET_CELLS} "):
        set_lcs_stats(words, 15)
    assert listed == costed == []


def test_set_stats_budget_bounds_the_subsets_visited(monkeypatch):
    costed = spy(monkeypatch, "_length_cost")
    # each letter fills two of the words, so a 6-subset shares no letter
    # and its chain has no match point; each of the C(12, 6) = 924 subsets
    # is still charged the floor
    words = [Word((i // 2 + 1,) * 10, 6) for i in range(12)]
    with pytest.raises(BudgetError, match=f"needs {924 * _SUBSET_CELLS} "):
        set_lcs_stats(words, 6, budget_cells=924 * _SUBSET_CELLS - 1)
    assert costed == []
    stats = set_lcs_stats(words, 6, budget_cells=924 * _SUBSET_CELLS)
    assert (stats.value, len(costed)) == (0, 924)


# one to four indices into a list of up to five words over k = 1..3
subset_cases = st.integers(1, 3).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(1, k), max_size=6).map(
            lambda ls: Word(tuple(ls), k)),
        min_size=1, max_size=5)).flatmap(
    lambda ws: st.tuples(st.just(ws), st.lists(
        st.lists(st.integers(0, len(ws) - 1), min_size=1, max_size=4),
        max_size=6)))


@given(subset_cases)
def test_subset_lengths_equal_each_subset_alone(case):
    words, subsets = case
    got = subset_lengths(words, subsets, budget_cells=10**8)
    alone = [[words[i] for i in subset] for subset in subsets]
    assert got == [lcs_multi(ws, witness=False).length for ws in alone]
    assert got == [brute_lcs_multi([w.letters for w in ws]) for ws in alone]
    assert all(value == lcs_len(*ws) for value, ws in zip(got, alone)
               if len(ws) == 2)


def test_subset_lengths_list_each_word_once(monkeypatch):
    listed = spy(monkeypatch, "_positions")
    words = [sample_word(3, 12, 0, index=i) for i in range(5)]
    subsets = [(0, 1, 2), (1, 2, 3), (0, 1), (4,), (0, 2, 3, 1), (2, 3, 0)]
    got = subset_lengths(words, subsets, budget_cells=10**8)
    # words 0-3 are in subsets of three or more, each listed once in the
    # order first met; pairs and single indices list none
    assert [args[0] for args in listed] == words[:4]
    assert got == [brute_lcs_multi([words[i].letters for i in subset])
                   for subset in subsets]


def test_multi_witness():
    ws = [parse_word("1213"), parse_word("2123"), parse_word("1231")]
    res = lcs_multi(ws)
    assert res.length == 3
    assert res.word == parse_word("123")
    for w, idx in zip(ws, res.indices):
        assert tuple(w[i] for i in idx) == res.word.letters


def test_multi_validation():
    assert lcs_multi([parse_word("12")]).length == 2
    with pytest.raises(ValueError):
        lcs_multi([])
    with pytest.raises(ValueError):
        lcs_multi([Word((1,), 2), Word((1,), 3)])


def test_set_stats():
    ws = [parse_word("123"), parse_word("321"), parse_word("213")]
    stats = set_lcs_stats(ws, 2)
    assert stats.t == 2
    # best pair is (123, 213) with LCS 2
    assert stats.value == 2
    assert stats.best_subset == (0, 2)
    assert stats.pairwise[0][1] == 1
    assert stats.pairwise[0][0] == 3  # diagonal holds the word length
    # t = 1 takes the longest word, the first of equals
    assert set_lcs_stats(ws + [Word((1,), 3)], 1).best_subset == (0,)
    assert set_lcs_stats(ws, 1).value == 3
    # t = 3 takes the single triple
    assert set_lcs_stats(ws, 3).value == brute_lcs_multi(
        [w.letters for w in ws])
    with pytest.raises(ValueError):
        set_lcs_stats(ws, 4)
    with pytest.raises(ValueError):
        set_lcs_stats(ws, 0)
