"""Twins: certificates, exact solver, enumeration oracle, heuristics."""

import itertools
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (ReferenceTwinSearch, SearchBudgetExceeded,
                     blockwise_roles, brute_lcs, brute_twins,
                     is_monotone_reference, lexmin_monotone_roles,
                     monotone_role_words, role_stats_reference)
from twinlcs import (
    BudgetError,
    InvalidCertificateError,
    Word,
    estimate_lt_tail,
    extract,
    find_regularity_violation,
    is_monotone,
    is_regular_pair,
    is_twin_roles,
    lcs_pair,
    lt_exact,
    lt_oracle,
    minimal_certificate,
    monotonize,
    parse_roles,
    parse_word,
    random_monotone_certificate,
    regularize,
    role_stats,
    roles_to_text,
    run_count,
    sample_word,
    split_upper_bound,
    substream,
    twins_via_blocks,
    twins_via_runs,
)
from twinlcs import twins
from twinlcs.twins import (DEFAULT_NODE_BUDGET, _ballot_tables,
                           _oracle_lengths, _TwinSearch)

words = st.integers(2, 3).flatmap(
    lambda k: st.lists(st.integers(1, k), max_size=9).map(
        lambda ls: Word(tuple(ls), k)))

ternary_words = st.lists(st.integers(1, 3), max_size=10).map(
    lambda ls: Word(tuple(ls), 3))


# -- role words and certificates ----------------------------------------------


def test_parse_roles():
    assert parse_roles("0120") == (0, 1, 2, 0)
    assert roles_to_text((0, 1, 2)) == "012"
    with pytest.raises(ValueError):
        parse_roles("013")


def test_is_monotone():
    assert is_monotone((0, 1, 2))
    assert is_monotone(())
    assert not is_monotone((2, 1))       # prefix has more 2s
    assert not is_monotone((1, 1, 2))    # unbalanced
    assert not is_monotone((1, 3, 2))    # 3 is not a role


def test_extract_and_validity():
    w = parse_word("1212")
    cert = extract(w, (1, 0, 2, 0))
    assert cert.length == 1
    assert cert.first == (0,)
    assert cert.second == (2,)
    assert cert.twin_word() == Word((1,), 2)
    assert is_twin_roles(w, (1, 0, 2, 0))
    assert not is_twin_roles(w, (1, 2, 0, 0))  # letters 1 vs 2 differ
    with pytest.raises(InvalidCertificateError):
        extract(w, (1, 2, 0, 0))
    with pytest.raises(InvalidCertificateError):
        extract(w, (1, 0, 0, 0))  # unbalanced
    with pytest.raises(InvalidCertificateError):
        extract(w, (1, 0, 2))  # wrong length


def test_role_stats():
    stats = role_stats(parse_roles("012112021200"))
    assert (stats.pairs, stats.switches, stats.leading_zeros) == (4, 2, 1)
    assert stats.length == 12
    assert stats.to_json() == {"length": 12, "pairs": 4, "switches": 2,
                               "leading_zeros": 1}
    assert role_stats(()).pairs == 0
    with pytest.raises(InvalidCertificateError):
        role_stats((1, 1, 2))
    # a digit other than 0, 1 and 2 is not a role, as in extract
    with pytest.raises(InvalidCertificateError, match="position 1 is 3"):
        role_stats((0, 3, 1))


def test_role_word_reader_matches_references():
    # every role word with digits 0-3 up to length 7, 21,845 in all; extract
    # reads each against the all-1 word of its length, so only the role
    # word itself can be at fault
    def outcome(fn, *args):
        try:
            return fn(*args), None
        except Exception as exc:
            return None, (type(exc), str(exc))

    for n in range(8):
        word = Word((1,) * n, 1)
        for roles in itertools.product(range(4), repeat=n):
            expected, error = outcome(role_stats_reference, roles,
                                      InvalidCertificateError)
            stats, stats_error = outcome(role_stats, roles)
            cert, cert_error = outcome(extract, word, roles)
            assert stats_error == cert_error == error, roles
            if error is None:
                assert (stats.length, stats.pairs, stats.switches,
                        stats.leading_zeros) == expected, roles
                assert cert.first == tuple(
                    i for i, r in enumerate(roles) if r == 1), roles
                assert cert.second == tuple(
                    i for i, r in enumerate(roles) if r == 2), roles
                assert cert.is_monotone == is_monotone_reference(roles)
            assert is_monotone(roles) == is_monotone_reference(roles), roles


def test_exact_search_recursion_is_one_frame_per_position():
    # _find recurses once per position, so n = 80 needs n + O(1) frames
    # beyond the caller's; Python's default limit of 1000 is far off
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 120)
    try:
        cert = lt_exact(Word((1, 2) * 40, 2), max_length=80)
    finally:
        sys.setrecursionlimit(limit)
    assert cert.length == 40


def test_monotonize_preserves_length_and_word():
    w = parse_word("1121")
    cert = extract(w, (2, 0, 0, 1))  # valid but not monotone
    assert not cert.is_monotone
    mono = monotonize(cert)
    assert mono.is_monotone
    assert mono.roles == (1, 0, 0, 2)
    assert mono.length == cert.length
    assert mono.word == w


# -- the three independent routes agree ----------------------------------------


def test_exact_oracle_brute_agree_exhaustive_binary():
    for n in range(2, 9):
        for letters in itertools.product((1, 2), repeat=n):
            w = Word(letters, 2)
            expected = brute_twins(letters)
            assert lt_exact(w).length == expected
            assert lt_oracle(w) == expected


def test_exact_oracle_brute_agree_random_ternary():
    for i in range(120):
        w = sample_word(3, 8, 17, index=i)
        expected = brute_twins(w.letters)
        assert lt_exact(w).length == expected
        assert lt_oracle(w) == expected


def test_exact_oracle_agree_k4():
    for i in range(60):
        w = sample_word(4, 9, 23, index=i)
        assert lt_exact(w).length == lt_oracle(w)


def test_exact_returns_valid_lexmin_monotone_certificate():
    # the ceiling query settles most of these words at once; the value
    # comes from the enumeration oracle and the roles from the unpruned
    # reference, so neither shares the search's shortcut
    for k, longest in ((2, 10), (3, 6)):
        for letters in itertools.chain.from_iterable(
                itertools.product(range(1, k + 1), repeat=n)
                for n in range(longest + 1)):
            w = Word(letters, k)
            cert = lt_exact(w)
            assert is_twin_roles(w, cert.roles)
            assert cert.is_monotone
            assert cert.roles == lexmin_monotone_roles(letters, lt_oracle(w))


@given(ternary_words)
def test_exact_roles_match_lexmin_oracle_ternary(w):
    cert = lt_exact(w)
    assert cert.length == brute_twins(w.letters)
    assert cert.roles == lexmin_monotone_roles(w.letters, cert.length)


@given(words)
def test_minimal_certificate_matches_oracle_for_every_length(w):
    top = lt_exact(w).length
    for m in range(top + 1):
        assert (minimal_certificate(w, m).roles
                == lexmin_monotone_roles(w.letters, m))
    with pytest.raises(ValueError):
        minimal_certificate(w, top + 1)


def test_exact_periodic_word_within_default_budget():
    w = Word(tuple(range(1, 11)) * 4, 10)
    cert = lt_exact(w)
    assert cert.length == 20
    assert cert.roles == lexmin_monotone_roles(w.letters, 20)


def test_length_guards_and_budget():
    with pytest.raises(ValueError):
        lt_oracle(Word((1,) * 15, 2))
    with pytest.raises(ValueError):
        lt_exact(Word((1,) * 61, 2))
    with pytest.raises(BudgetError):
        lt_exact(Word(tuple(sample_word(4, 36, 5).letters), 4), budget_nodes=50)


@pytest.mark.parametrize("call, message", [
    (lambda: lt_exact(Word((1,) * 61, 2)),
     "exact search supports length <= 60, got 61"),
    (lambda: lt_oracle(Word((1,) * 15, 2)),
     "oracle enumeration supports length <= 14, got 15"),
    (lambda: estimate_lt_tail(2, 61, 0.5),
     "exact search supports length <= 60, got 61"),
], ids=["lt_exact", "lt_oracle", "estimate_lt_tail"])
def test_length_cap_messages(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_minimal_certificate_matches_unpruned_oracle_exhaustive_ternary():
    # the oracle's only cut is on free positions, so it cannot share a
    # pruning error with the search: every ternary word up to 7 letters,
    # at every length up to its twin length and one past it
    for n in range(8):
        for letters in itertools.product((1, 2, 3), repeat=n):
            w = Word(letters, 3)
            for m in itertools.count():
                want = lexmin_monotone_roles(letters, m)
                if want is None:
                    with pytest.raises(ValueError):
                        minimal_certificate(w, m)
                    break
                assert minimal_certificate(w, m).roles == want


def test_exact_sixty_letters_within_a_small_budget():
    # the bounds are tested before a child is called, so only states that
    # pass them count: these take 12,980-35,251 states (24,886-69,325
    # when the failing children were counted too)
    for i in range(4):
        w = sample_word(4, 60, 0, index=i)
        cert = lt_exact(w, budget_nodes=40_000)
        assert cert.length == 26
        assert is_twin_roles(w, cert.roles) and cert.is_monotone
        assert twins_via_runs(w).length <= cert.length <= split_upper_bound(w)


def test_ceiling_query_settles_most_binary_words(monkeypatch):
    # most binary words reach the letter-count ceiling, which lt_exact asks
    # first (31,896 and 7,947 states); climbing 0, 1, 2, ... pairs took
    # 116,058 and 45,496 states when children failing the bounds counted
    searches = []

    class Counted(_TwinSearch):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            searches.append(self)

    monkeypatch.setattr(twins, "_TwinSearch", Counted)
    for letters in itertools.chain.from_iterable(
            itertools.product((1, 2), repeat=n) for n in range(1, 11)):
        lt_exact(Word(letters, 2))
    assert sum(s.nodes for s in searches) <= 32_000
    searches.clear()
    for i in range(30):
        lt_exact(sample_word(2, 40, 0, index=i))
    assert sum(s.nodes for s in searches) <= 8_000


def test_search_pays_for_the_letters_that_occur_not_the_alphabet():
    # a word with more letters in its alphabet than positions is searched
    # renamed; tables sized by k = 10**6 peaked at about 480 MiB
    base = sample_word(3, 60, 0).letters[:-1]
    tracemalloc.start()
    try:
        cert = lt_exact(Word(base + (10**6,), 10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert cert.roles == lt_exact(Word(base + (4,), 4)).roles


@given(st.lists(st.integers(1, 4), max_size=12), st.integers(0, 99))
def test_renamed_letters_give_the_same_roles(letters, seed):
    # roles are positions, so spreading the letters over a far larger
    # alphabet changes neither the exact roles nor the random walk's draws
    word = Word(tuple(letters), 4)
    spread = Word(tuple(1000 * c for c in letters), 4000)
    assert lt_exact(spread).roles == lt_exact(word).roles

    def walk(w):
        try:
            return random_monotone_certificate(w, substream(seed, 0)).roles
        except ValueError:  # no repeated letter
            return None
    assert walk(spread) == walk(word)


def test_regression_example_word():
    w = parse_word("0110010010101101")
    cert = lt_exact(w)
    assert cert.length == 7
    assert roles_to_text(cert.roles) == "0120111211221222"
    assert lt_oracle(w, max_length=16) == 7


# -- the search against its reference -------------------------------------------


def _answers(search_for, ask, out_of_states):
    """Ask a search for 0, 1, 2, ... pairs until none is found: the roles
    and the node count after each query, then "budget" if the search ran
    out of states.  ``search_for(need)`` gives the search to ask."""
    out = []
    for need in itertools.count():
        search = search_for(need)
        try:
            roles = ask(search, need)
        except out_of_states:
            return out + ["budget"]
        out.append((roles, search.nodes))
        if roles is None:
            return out


def assert_matches_reference(letters, k, budget=DEFAULT_NODE_BUDGET):
    """Same roles, node counts and budget failures as the reference
    search, on a fresh search per query and on one search reused."""
    word = Word(tuple(letters), k)
    ours = _TwinSearch(word, budget)
    ref = ReferenceTwinSearch(letters, k, budget)
    for reuse in (False, True):
        got = _answers(
            lambda need: ours if reuse else _TwinSearch(word, budget),
            lambda search, need: search.find(need), BudgetError)
        want = _answers(
            lambda need: (ref if reuse
                          else ReferenceTwinSearch(letters, k, budget)),
            lambda search, need: search.find(0, (), need),
            SearchBudgetExceeded)
        assert got == want, (letters, reuse)


@pytest.mark.parametrize("k, longest", [(2, 12), (3, 8), (4, 6)])
def test_search_matches_reference_exhaustive(k, longest):
    for n in range(longest + 1):
        for letters in itertools.product(range(1, k + 1), repeat=n):
            assert_matches_reference(letters, k)


@given(st.integers(2, 8).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.integers(1, k), max_size=24),
    st.integers(0, 300) | st.just(DEFAULT_NODE_BUDGET))))
def test_search_matches_reference_random(case):
    k, letters, budget = case
    assert_matches_reference(letters, k, budget)


@given(st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.integers(1, k), min_size=k, max_size=12),
    st.lists(st.integers(1, k), max_size=12))))
def test_reloaded_search_answers_as_a_fresh_one(case):
    # the second word keeps a suffix of the first, whose failures the
    # reloaded search keeps: same roles for every need, never more states
    k, first, head = case
    second = tuple(head[:len(first)]) + tuple(first[len(head):])
    top = len(first) // 2 + 1
    loaded = _TwinSearch(Word(tuple(first), k))
    for need in range(top + 1):
        loaded.find(need)
    loaded.load(second)
    fresh = _TwinSearch(Word(second, k))
    for need in range(top + 1):
        assert loaded.find(need) == fresh.find(need), (first, second, need)
        assert loaded.nodes <= fresh.nodes
    assert (loaded.root_slack, loaded.left, loaded.next_at) == (
        fresh.root_slack, fresh.left, fresh.next_at)


def test_search_budget_stops_both_on_the_same_query():
    letters = sample_word(3, 24, 7).letters
    for budget in (0, 1, 5, 40):
        assert_matches_reference(letters, 3, budget)
    with pytest.raises(BudgetError):
        _TwinSearch(Word(letters, 3), 40).find(8)


def test_search_past_the_root_bounds_costs_nothing():
    # a need above n or above the letter-count ceiling is refused before
    # the root is called: no state counted, nothing remembered
    for word in (Word((1, 2, 1, 2, 3), 3), Word((1, 2, 3), 3), Word((), 2)):
        search = _TwinSearch(word)
        for need in (search.root_slack + 1, len(word) + 1):
            assert search.find(need) is None
            assert search.nodes == 0 and not search.failed[0]
    search = _TwinSearch(Word((1,) * 6, 1))
    assert search.root_slack == 3
    assert search.find(3) is not None and search.find(4) is None


@given(st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.integers(1, k), max_size=16),
    st.lists(st.integers(0, 9), max_size=6))))
def test_search_memo_never_outgrows_its_node_count(case):
    # only a state that passes its bounds is called, and each call writes
    # at most one failure, whatever the sequence of queries
    k, letters, needs = case
    search = _TwinSearch(Word(tuple(letters), k))
    for need in needs:
        search.find(need)
        assert sum(map(len, search.failed)) <= search.nodes


def test_search_node_count_pinned():
    # a refutation: 1,109 states when the children that fail their bounds
    # were called too
    search = _TwinSearch(sample_word(3, 40, 0))
    assert search.find(19) is None
    assert search.nodes == 527


# -- the enumeration oracle -----------------------------------------------------


def test_ballot_tables_match_reference_enumeration():
    for n in range(13):
        for m in range(1, n // 2 + 1):
            ones, twos = _ballot_tables(n, m)
            assert ones.shape == twos.shape == (m, ones.shape[1]), (n, m)
            rows = list(zip(map(tuple, ones.T.tolist()),
                            map(tuple, twos.T.tolist())))
            catalan = math.comb(2 * m, m) // (m + 1)
            assert len(rows) == math.comb(n, 2 * m) * catalan, (n, m)
            assert len(set(rows)) == len(rows), (n, m)
            assert set(rows) == set(monotone_role_words(n, m)), (n, m)


def _batch(k: int, n: int) -> tuple[list, np.ndarray]:
    words = list(itertools.product(range(1, k + 1), repeat=n))
    return words, np.array(words, dtype=np.int64).reshape(len(words), n)


def test_oracle_lengths_match_brute_force_per_length():
    for k, top in ((2, 8), (3, 5)):
        for n in range(top + 1):
            words, letters = _batch(k, n)
            assert (_oracle_lengths(letters).tolist()
                    == [brute_twins(w) for w in words]), (k, n)


def test_oracle_lengths_edge_batches():
    assert _oracle_lengths(np.zeros((0, 6), dtype=np.int64)).shape == (0,)
    empty_words = np.zeros((3, 0), dtype=np.int64)
    assert _oracle_lengths(empty_words).tolist() == [0] * 3
    assert _oracle_lengths(np.array([[1], [2]])).tolist() == [0, 0]
    for n in range(13):
        letters = np.array([[1] * n, [3] * n]).reshape(2, n)
        assert _oracle_lengths(letters).tolist() == [n // 2] * 2
        assert lt_oracle(Word((2,) * n, 2)) == n // 2


def test_oracle_pays_for_the_letters_that_occur_not_the_alphabet():
    # one array pass per letter of [k] took about 5 s of CPU at k = 10**6
    start = time.process_time()
    assert lt_oracle(Word((1, 2, 1, 2, 10**6), 10**6)) == 2
    assert time.process_time() - start < 0.5


def test_oracle_lengths_across_chunks():
    # 4096 words times 132 rows of 6 pairs already exceeds one step at m=6
    words, letters = _batch(2, 12)
    assert letters.shape[0] * 132 * 6 > twins._CHUNK_LETTERS
    assert (_oracle_lengths(letters).tolist()
            == [lt_exact(Word(w, 2)).length for w in words])


def test_oracle_lengths_split_table_rows(monkeypatch):
    # a step smaller than one word's table splits the table rows too
    words = [sample_word(3, 11, 4, index=i) for i in range(40)]
    monkeypatch.setattr(twins, "_CHUNK_LETTERS", 50)
    got = _oracle_lengths(np.array([w.letters for w in words]))
    assert got.tolist() == [lt_exact(w).length for w in words]


def test_oracle_budget_raises_before_building():
    word = parse_word("000001111100000111110001")
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="n=24, m=11 needs 356948592"):
            lt_oracle(word, max_length=24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_oracle_keeps_no_memory_between_calls():
    # uu has twins of length n/2 = 11, so only the m = 11 table is built;
    # neither it nor its ballot slots may outlive the call
    u = (1, 2, 1, 1, 2, 2, 1, 2, 1, 1, 2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert lt_oracle(Word(u + u, 2), max_length=22) == 11
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 0.1 * 2**20, kept


def test_oracle_step_memory_is_bounded_by_the_chunk():
    # a step holds three (span, words) arrays of at most _CHUNK_LETTERS
    # uint8 letters; the batch's own arrays (its letters, slack, lengths)
    # take about 0.25 MiB more at 4096 words
    _, letters = _batch(2, 12)
    tracemalloc.start()
    try:
        _oracle_lengths(letters)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * twins._CHUNK_LETTERS + 2**19, peak


def test_single_word_oracle_memory_is_its_tables():
    # the m = 7 tables hold 2 * 7 * 51,480 bytes (0.69 MiB); a step of one
    # word reads at most _SPAN_ROLE_WORDS of their role words
    tracemalloc.start()
    try:
        assert lt_oracle(parse_word("0110010010101101"), max_length=16) == 7
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


# -- canonical certificates -----------------------------------------------------


def test_minimal_certificate_counts():
    w = parse_word("1212")
    assert minimal_certificate(w, 0).length == 0
    assert minimal_certificate(w, 2).roles == (1, 1, 2, 2)
    with pytest.raises(ValueError):
        minimal_certificate(w, 3)
    with pytest.raises(ValueError):
        minimal_certificate(w, -1)


def test_regularize_requires_monotone():
    cert = extract(parse_word("11"), (2, 1))
    with pytest.raises(InvalidCertificateError):
        regularize(cert)


def test_regularize_properties_and_lexmin():
    rng = substream(31, 0)
    for i in range(300):
        n = 4 + int(rng.integers(0, 5))  # 4..8
        k = 2 + int(rng.integers(0, 2))
        w = sample_word(k, n, 31, index=i)
        try:
            cert = random_monotone_certificate(w, rng)
        except ValueError:
            continue  # no repeated letters to pair up
        out = regularize(cert)
        assert out.word == w
        assert out.length == cert.length
        assert out.is_monotone
        assert is_twin_roles(w, out.roles)
        assert out.roles <= cert.roles
        assert is_regular_pair(w, out.roles)
        assert out.roles == lexmin_monotone_roles(w.letters, cert.length)


def test_find_regularity_violation_kinds():
    # idle: unmarked third letter repeats the just-marked letter
    w = parse_word("112")
    assert find_regularity_violation(w, (1, 2, 0)) is None
    v = find_regularity_violation(parse_word("111"), (1, 2, 0))
    assert v is not None and v.kind == "idle" and (v.left, v.right) == (1, 2)
    # switch: a 1 right after a 2 holding the same letter
    v = find_regularity_violation(parse_word("1111"), (1, 2, 1, 2))
    assert v is not None and v.kind == "switch" and (v.left, v.right) == (1, 2)
    assert v.to_json() == {"kind": "switch", "left": 1, "right": 2}


# -- lower-bound heuristics -------------------------------------------------------


def test_run_count():
    assert run_count(parse_word("112233")) == 3
    assert run_count(parse_word("1212")) == 4
    assert run_count(Word((), 2)) == 0


def test_twins_via_runs():
    w = parse_word("111222")
    cert = twins_via_runs(w)
    assert cert.length == 2
    assert is_twin_roles(w, cert.roles)


@given(words)
def test_twins_via_runs_floor(w):
    cert = twins_via_runs(w)
    assert is_twin_roles(w, cert.roles)
    assert cert.length >= (len(w) - run_count(w)) / 2
    if len(w) >= 2:
        assert cert.length <= lt_oracle(w)


@given(words.filter(lambda w: len(w) >= 2))
def test_split_upper_bound_sound(w):
    assert split_upper_bound(w) >= lt_oracle(w)


def test_split_upper_bound_example():
    assert split_upper_bound(parse_word("1212")) == 2
    assert split_upper_bound(parse_word("123123")) <= 3


def test_split_upper_bound_budget():
    # length 40 fills 10660 cells, far below the budget; values pinned
    assert [split_upper_bound(sample_word(k, 40, 11, index=i))
            for k in (2, 3, 4, 8) for i in range(3)] == [
        19, 19, 20, 20, 20, 20, 19, 19, 18, 17, 17, 18]
    # (n^3 - n) / 6 cells: n = 843 fits the budget of 10^8, n = 844 not
    with pytest.raises(BudgetError, match="^split_upper_bound needs 100201790 "
                                          "alignment cells, over the budget "
                                          "of 100000000$"):
        split_upper_bound(sample_word(4, 844, 0))
    with pytest.raises(BudgetError, match="needs 4499999500 alignment cells"):
        split_upper_bound(sample_word(2, 3000, 0))


def test_twins_via_blocks():
    rng = substream(41, 0)
    for i in range(60):
        k = 2 + int(rng.integers(0, 3))
        blocks = 1 + int(rng.integers(0, 2))
        w = sample_word(k, 3 * k * blocks + int(rng.integers(0, 3)), 41, index=i)
        res = twins_via_blocks(w)
        assert is_twin_roles(w, res.certificate.roles)
        assert res.certificate.is_monotone
        assert len(res.block_values) == len(w) // (3 * k)
        assert res.per_block_floor == pytest.approx((k / 3) ** (1 / 3))
        assert res.certificate.length == sum(res.block_values)
        assert res.floor_met == all(
            v >= res.per_block_floor for v in res.block_values)


@st.composite
def tied_block_words(draw) -> Word:
    """Words of 1-3 full blocks and a partial one over few letters, where
    tracks are often copies of the block's first track: ties are common."""
    k = draw(st.integers(2, 6))
    pool = draw(st.integers(1, k))
    track = st.lists(st.integers(1, pool), min_size=k, max_size=k)
    letters = []
    for _ in range(draw(st.integers(1, 3))):
        first = draw(track)
        tracks = [first] + [first if draw(st.booleans()) else draw(track)
                            for _ in range(2)]
        letters += [tracks[off % 3][off // 3] for off in range(3 * k)]
    letters += draw(st.lists(st.integers(1, pool), max_size=3 * k - 1))
    return Word(tuple(letters), k)


def _track_witness(k: int):
    def witness(x, y):
        res = lcs_pair(Word(x, k), Word(y, k))
        assert res.length == brute_lcs(x, y)
        return res.length, res.indices
    return witness


@given(tied_block_words())
def test_block_twins_match_the_three_witness_reference(w):
    roles, values = blockwise_roles(w.letters, w.k, _track_witness(w.k))
    res = twins_via_blocks(w)
    assert res.block_values == values
    assert res.certificate == monotonize(extract(w, roles))


def test_block_twins_take_the_first_of_tied_pairs():
    # three equal tracks tie every pair, so tracks 0 and 1 take the roles
    k = 3
    w = Word(tuple(t for t in (1, 2, 3) for _ in range(3)), k)
    res = twins_via_blocks(w)
    assert res.block_values == (3,)
    assert res.certificate.roles == (1, 2, 0) * 3


def test_random_monotone_certificate():
    rng = substream(43, 0)
    for i in range(50):
        w = sample_word(2, 8, 43, index=i)
        cert = random_monotone_certificate(w, rng)
        assert cert.is_monotone
        assert cert.length >= 1
        assert is_twin_roles(w, cert.roles)
    with pytest.raises(ValueError):
        random_monotone_certificate(parse_word("123456"), rng)


@pytest.mark.parametrize("k, n, index, roles", [
    (2, 16, 0, "0110012110220202"),
    (3, 24, 1, "120001200100211021122002"),
    (4, 30, 2, "001011111001002222010022000022"),
])
def test_random_monotone_certificate_pinned_roles(k, n, index, roles):
    # the walk's exact roles for seeded words and streams, so a change in
    # how it tests feasibility cannot change its draws unnoticed
    word = sample_word(k, n, 0, index=index)
    cert = random_monotone_certificate(word, substream(7, index))
    assert roles_to_text(cert.roles) == roles
