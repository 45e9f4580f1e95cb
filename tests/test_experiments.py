"""Experiments: RNG discipline, tail estimation, conjecture search, suites."""

import hashlib
import itertools
import math
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (brute_lcs, exchange_descent, expected_lcs_naive,
                     tail_counts)
from twinlcs import (
    BudgetError,
    ExperimentConfig,
    PermutationDistribution,
    SUITES,
    Word,
    estimate_lt_tail,
    expected_lcs,
    lt_exact,
    minimize_expected_lcs,
    pairwise_lcs_table,
    permutations_of,
    sample_word,
    substream,
    threshold_pairs,
    verify_suite,
    wilson_interval,
)
from twinlcs.experiments import EXHAUSTIVE_CAP, _growth_strings
from twinlcs.perm import _local_minimum
from twinlcs.twins import _oracle_lengths, _TwinSearch


# -- rng discipline -------------------------------------------------------------


def test_substream_determinism_and_independence():
    a = substream(7, 3).integers(0, 1000, size=8)
    b = substream(7, 3).integers(0, 1000, size=8)
    c = substream(7, 4).integers(0, 1000, size=8)
    d = substream(8, 3).integers(0, 1000, size=8)
    assert (a == b).all()
    assert not (a == c).all()
    assert not (a == d).all()


def test_sample_word():
    w = sample_word(3, 20, 11, index=2)
    assert w == sample_word(3, 20, 11, index=2)
    assert w != sample_word(3, 20, 11, index=3)
    assert len(w) == 20 and w.k == 3
    assert all(1 <= a <= 3 for a in w)
    assert sample_word(1, 5, 0).letters == (1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        sample_word(0, 5, 0)


def test_sample_word_draws_what_its_substream_draws():
    # the reset generator starts where a new substream starts, whatever
    # the previous call left in its counter, buffer or spare 32-bit half
    for seed, index, k, n in itertools.product(
            (0, 1, 2 ** 63, 2 ** 64 - 1), (0, 7, 2 ** 64 - 1),
            (1, 2, 3, 300, 2 ** 40), (0, 1, 3, 40, 257)):
        want = substream(seed, index).integers(1, k + 1, size=n)
        assert sample_word(k, n, seed, index=index).letters == tuple(
            want.tolist()), (seed, index, k, n)


def test_sample_word_leaves_held_substreams_alone():
    held, alone = substream(5, 1), substream(5, 1)
    got = []
    for i in range(6):
        got.append(held.integers(0, 2 ** 40, size=i))
        sample_word(3, 2 * i + 1, 5, index=1)
        got.append(held.random(3))
    want = [draw for i in range(6)
            for draw in (alone.integers(0, 2 ** 40, size=i), alone.random(3))]
    assert all((a == b).all() for a, b in zip(got, want))


def test_sample_word_is_uniform_enough():
    # letter frequencies stay within 5 sigma on a large sample
    counts = [0, 0, 0]
    for i in range(300):
        for a in sample_word(3, 30, 99, index=i):
            counts[a - 1] += 1
    total = sum(counts)
    expected = total / 3
    sigma = math.sqrt(total * (1 / 3) * (2 / 3))
    for c in counts:
        assert abs(c - expected) < 5 * sigma


def test_wilson_interval():
    lo, hi = wilson_interval(8, 10)
    # standard Wilson score values for 8/10 at z = 1.96
    assert lo == pytest.approx(0.4901, abs=2e-3)
    assert hi == pytest.approx(0.9433, abs=2e-3)
    assert wilson_interval(0, 10)[0] == 0.0
    assert wilson_interval(10, 10)[1] == pytest.approx(1.0)
    lo, hi = wilson_interval(5, 10)
    assert lo < 0.5 < hi
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(11, 10)


def test_threshold_pairs():
    assert threshold_pairs(0.5, 12) == 6
    assert threshold_pairs(1 / 3, 12) == 4    # float fuzz must not bump to 5
    assert threshold_pairs(0.3, 11) == 4      # genuine ceil
    assert threshold_pairs(0.0, 9) == 0
    with pytest.raises(ValueError):
        threshold_pairs(-0.1, 4)


@pytest.mark.parametrize("alpha", [math.inf, 1e308, math.nan])
def test_threshold_pairs_rejects_non_finite_alpha_times_n(alpha):
    with pytest.raises(ValueError, match="must be finite"):
        threshold_pairs(alpha, 12)
    with pytest.raises(ValueError, match="must be finite"):
        estimate_lt_tail(2, 12, alpha)


def test_threshold_pairs_above_one_half():
    assert threshold_pairs(0.75, 12) == 9
    assert threshold_pairs(3.0, 12) == 36
    assert threshold_pairs(1e300, 1) == 1e300
    assert threshold_pairs(10 ** 400, 3) == 3 * 10 ** 400  # exact, finite
    est = estimate_lt_tail(2, 12, 0.75)
    assert (est.pairs, est.successes, est.exact) == (9, 0, 0)


# -- tail estimation --------------------------------------------------------------


def test_tail_exhaustive_route():
    est = estimate_lt_tail(2, 12, 0.5)
    assert est.method == "exhaustive"
    assert est.exact == Fraction(317, 1024)
    assert est.pairs == 6
    assert est.lo == est.hi == est.probability == pytest.approx(317 / 1024)
    assert est.trials == 4096


def test_tail_alpha_zero_short_circuits():
    est = estimate_lt_tail(5, 40, 0.0)
    assert est.method == "exact"
    assert est.exact == 1
    assert est.probability == 1.0


def test_tail_monte_carlo_route():
    config = ExperimentConfig(seed=5, trials=60)
    est = estimate_lt_tail(3, 10, 0.4, config)
    assert est.method == "monte-carlo"
    assert est.trials == 60
    assert 0.0 <= est.lo <= est.probability <= est.hi <= 1.0
    again = estimate_lt_tail(3, 10, 0.4, config)
    assert (again.successes, again.probability) == (est.successes,
                                                    est.probability)
    assert est.exact is None


def test_tail_monte_carlo_interval_covers_truth():
    # exhaustive truth over [2]^13 via the enumeration oracle, compared
    # against an independent Monte Carlo run
    m = threshold_pairs(0.4, 13)
    words = np.array(list(itertools.product((1, 2), repeat=13)))
    hits = int((_oracle_lengths(words) >= m).sum())
    truth = hits / 2 ** 13
    config = ExperimentConfig(seed=3, trials=400)
    est = estimate_lt_tail(2, 13, 0.4, config)
    assert est.method == "monte-carlo"
    assert est.lo <= truth <= est.hi


def test_tail_monte_carlo_counts_words_reaching_the_threshold():
    # one decision search per trial must count the words whose exact twin
    # length reaches the threshold
    config = ExperimentConfig(seed=2, trials=40)
    est = estimate_lt_tail(3, 24, 0.45, config)
    hits = sum(lt_exact(sample_word(3, 24, 2, index=t)).length >= est.pairs
               for t in range(40))
    assert 0 < est.successes == hits < 40
    with pytest.raises(ValueError, match="length <= 60"):
        estimate_lt_tail(3, 61, 0.45, config)


_TAIL_ORACLE_CASES = [(k, n) for k in range(1, 5) for n in range(1, 14)
                      if k ** n * 3 ** n <= 2 * 10 ** 6]


@pytest.mark.parametrize("k, n", _TAIL_ORACLE_CASES)
def test_tail_exhaustive_route_matches_brute_force_twins(k, n):
    # every threshold, against a census of exact twin lengths that
    # enumerates all 3^n role words of each word
    counts = tail_counts(k, n)
    for m in range(1, n // 2 + 2):
        est = estimate_lt_tail(k, n, m / n)
        hits = sum(c for length, c in counts.items() if length >= m)
        assert (est.method, est.pairs) == ("exhaustive", m)
        assert (est.successes, est.trials) == (hits, k ** n)
        assert est.exact == Fraction(hits, k ** n)


def test_growth_strings_name_letters_in_order_of_first_occurrence():
    # the successor walk against a filter of every word, n = 0 included
    for k in range(1, 5):
        for n in range(9):
            want = [s for s in itertools.product(range(1, k + 1), repeat=n)
                    if all(c <= max(s[:i], default=0) + 1
                           for i, c in enumerate(s))]
            got = list(_growth_strings(n, k))
            assert got == want, (n, k)
            # each string stands for the words that rename its letters
            assert sum(math.perm(k, max(s, default=0))
                       for s in got) == k ** n


_EXHAUSTIVE_CASES = [(k, n) for k in range(1, 7) for n in range(1, 13)
                     if k ** n <= EXHAUSTIVE_CAP]


@pytest.mark.parametrize("k, n", _EXHAUSTIVE_CASES)
def test_tail_exhaustive_walk_matches_a_search_per_word(k, n):
    # the walk over renaming classes against one fresh search per word,
    # k > n and k = 1 included
    words = [Word(letters, k)
             for letters in itertools.product(range(1, k + 1), repeat=n)]
    for alpha in (0.2, 0.3, 0.34, 0.4, 0.45, 0.5):
        est = estimate_lt_tail(k, n, alpha)
        m = threshold_pairs(alpha, n)
        if m == 0:
            assert (est.method, est.exact) == ("exact", 1)
            continue
        hits = sum(_TwinSearch(w).find(m) is not None for w in words)
        assert (est.method, est.pairs, est.trials) == ("exhaustive", m,
                                                       k ** n)
        assert (est.successes, est.exact) == (hits, Fraction(hits, k ** n))


def test_tail_exhaustive_route_honours_the_node_budget():
    with pytest.raises(BudgetError):
        estimate_lt_tail(2, 6, 0.5, ExperimentConfig(budget_nodes=1))


def test_tail_length_cap_applies_to_the_exhaustive_route():
    # 1^n <= EXHAUSTIVE_CAP for every n, so k = 1 always enumerates; a
    # small node budget shows that n = 60 takes one short search
    est = estimate_lt_tail(1, 60, 0.5, ExperimentConfig(budget_nodes=200))
    assert (est.method, est.pairs, est.trials, est.exact) == (
        "exhaustive", 30, 1, 1)
    with pytest.raises(ValueError, match="length <= 60"):
        estimate_lt_tail(1, 61, 0.5)
    assert estimate_lt_tail(1, 61, 0.0).exact == 1


# -- permutation distributions ------------------------------------------------------


def test_permutations_of():
    perms = permutations_of(3)
    assert perms == ((1, 2, 3), (1, 3, 2), (2, 1, 3),
                     (2, 3, 1), (3, 1, 2), (3, 2, 1))
    assert len(permutations_of(4)) == 24


def test_pairwise_lcs_table():
    for k in range(1, 6):
        table = pairwise_lcs_table(k)
        perms = permutations_of(k)
        assert table.dtype == np.int16
        assert not table.flags.writeable
        assert table.shape == (len(perms), len(perms))
        assert (table == table.T).all()
        for i, j in itertools.product(range(len(perms)), repeat=2):
            assert table[i, j] == brute_lcs(perms[i], perms[j]), (k, i, j)
    table = pairwise_lcs_table(3)
    # the three reverse pairs meet only in one letter
    assert table[0, 5] == table[1, 3] == table[2, 4] == 1
    with pytest.raises(BudgetError):
        pairwise_lcs_table(7)
    with pytest.raises(ValueError, match="alphabet size must be >= 1"):
        pairwise_lcs_table(0)


def test_pairwise_lcs_table_k6_digest():
    table = pairwise_lcs_table(6)
    assert table.dtype == np.int16 and table.shape == (720, 720)
    assert hashlib.sha256(table.tobytes()).hexdigest() == (
        "5efed4e49edefb27ff6f48ad14dcf683ad066dfcfb4c3b28daf0eb41faed1284")


def test_permutation_layer_refuses_over_the_cap_at_once():
    # one check, before anything of size k! is built: k = 13 would be a
    # 6.2G-entry tuple of weights
    start = time.process_time()
    for k in (7, 13):
        for build in (permutations_of, PermutationDistribution.uniform,
                      pairwise_lcs_table, minimize_expected_lcs,
                      lambda k: PermutationDistribution(k, (1,))):
            with pytest.raises(BudgetError, match=r"over the cap k <= 6"):
                build(k)
    assert time.process_time() - start < 1.0
    for build in (permutations_of, PermutationDistribution.uniform):
        with pytest.raises(ValueError, match="alphabet size must be >= 1"):
            build(0)


def test_distribution_validation():
    uniform = PermutationDistribution.uniform(3)
    assert uniform.exact
    assert sum(uniform.weights) == 1
    point = PermutationDistribution(3, (1, 0, 0, 0, 0, 0))
    assert point.exact
    with pytest.raises(ValueError):
        PermutationDistribution(3, (1, 0))  # wrong length
    with pytest.raises(ValueError):
        PermutationDistribution(2, (2, -1))
    with pytest.raises(ValueError):
        PermutationDistribution(2, (0.7, 0.2))


def test_expected_lcs_exact_values():
    assert expected_lcs(PermutationDistribution.uniform(2)) == Fraction(3, 2)
    assert expected_lcs(PermutationDistribution.uniform(3)) == 2
    point = PermutationDistribution(4, (0,) * 7 + (1,) + (0,) * 16)
    assert expected_lcs(point) == 4
    assert expected_lcs(PermutationDistribution.uniform(5)) \
        == Fraction(67, 24)
    assert expected_lcs(PermutationDistribution.uniform(6)) \
        == Fraction(2261, 720)
    uniform = PermutationDistribution.uniform(3)
    float_dist = PermutationDistribution(3, tuple(float(w)
                                                  for w in uniform.weights))
    assert expected_lcs(float_dist) == pytest.approx(2.0)


@lru_cache(maxsize=None)
def brute_table(k):
    perms = list(itertools.permutations(range(1, k + 1)))
    return tuple(tuple(brute_lcs(a, b) for b in perms) for a in perms)


@st.composite
def rational_laws(draw):
    """Exact laws for k <= 4 mixing int and Fraction weights, with zeros."""
    k = draw(st.integers(1, 4))
    size = math.factorial(k)
    raw = draw(st.lists(st.integers(0, 5), min_size=size, max_size=size)
               .filter(any))
    total = sum(raw)
    as_int = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    weights = tuple(x // total if flag and x % total == 0
                    else Fraction(x, total)
                    for x, flag in zip(raw, as_int))
    return PermutationDistribution(k, weights)


@given(rational_laws())
def test_expected_lcs_matches_naive_fraction_sum(dist):
    got = expected_lcs(dist)
    assert isinstance(got, Fraction)
    assert got == expected_lcs_naive(brute_table(dist.k), dist.weights)


def test_local_minimum_matches_scalar_oracle():
    # the screened descent must reproduce the pair-by-pair loop bit for bit
    for k in (3, 4):
        a = pairwise_lcs_table(k).astype(np.float64)
        size = a.shape[0]
        vertex = np.full(size, 1e-9)
        vertex[size // 3] = 1.0
        starts = [np.full(size, 1.0 / size), vertex / vertex.sum()]
        starts += [substream(0, s).dirichlet(np.ones(size))
                   for s in range(1, 9)]
        for start in starts:
            value, p = _local_minimum(a, start)
            raw = exchange_descent(a.tolist(), start.tolist(),
                                   (a @ start).tolist())
            want = np.maximum(np.array(raw), 0.0)
            want /= want.sum()
            assert value == float(want @ a @ want), (k, start)
            assert np.array_equal(p, want), (k, start)


@st.composite
def descent_cases(draw):
    """A square matrix and a start for the exchange descent.  Entries are
    small integers or reals, the matrix is symmetric or not, and the
    diagonal is lifted by 8, so no pair has curvature c < 0 (the descent's
    precondition); a scale of 1e-12 puts the gains of the moves near the
    tolerance.  Starts hold exact zeros and 1e-9 entries."""
    size = draw(st.integers(2, 12))
    entry = st.integers(-3, 3).map(float) | st.floats(-4.0, 4.0)
    a = np.array(draw(st.lists(entry, min_size=size * size,
                               max_size=size * size))).reshape(size, size)
    if draw(st.booleans()):
        a = np.triu(a) + np.triu(a, 1).T
    a += np.diag(np.full(size, 8.0))
    a *= draw(st.sampled_from([1.0, 1e-12]))
    weight = st.sampled_from([0.0, 1e-9]) | st.floats(0.0, 1.0)
    start = np.array(draw(st.lists(weight, min_size=size, max_size=size)))
    if not start.sum():
        start[draw(st.integers(0, size - 1))] = 1.0
    return a, start / start.sum()


@settings(max_examples=120)
@given(descent_cases())
def test_local_minimum_matches_scalar_oracle_on_general_matrices(case):
    # the screen may only skip pairs that cannot move, whatever the matrix
    a, start = case
    value, p = _local_minimum(a, start)
    raw = exchange_descent(a.tolist(), start.tolist(), (a @ start).tolist())
    want = np.maximum(np.array(raw), 0.0)
    want /= want.sum()
    assert np.array_equal(p, want)
    assert value == float(want @ a @ want)


def test_minimize_k5_pinned():
    res = minimize_expected_lcs(5, ExperimentConfig(seed=0), starts=4)
    assert (res.value, res.best_start) == (2.5833333333347173, 3)


def test_minimize_expected_lcs():
    res2 = minimize_expected_lcs(2, ExperimentConfig(seed=0), starts=40)
    assert float(res2.value) == pytest.approx(1.5, abs=1e-9)
    assert not res2.below_conjectured_floor
    res3 = minimize_expected_lcs(3, ExperimentConfig(seed=0), starts=40)
    assert float(res3.value) == pytest.approx(2.0, abs=1e-9)
    assert float(res3.value) >= math.sqrt(3)
    assert not res3.below_conjectured_floor
    assert float(res3.uniform_value) == pytest.approx(2.0)
    # determinism
    again = minimize_expected_lcs(3, ExperimentConfig(seed=0), starts=40)
    assert again.value == res3.value
    assert again.best_start == res3.best_start


def test_minimize_beats_uniform_at_k4():
    # the uniform distribution is not optimal at k = 4; the optimizer
    # should land strictly below it while staying above the sqrt(k) floor
    res = minimize_expected_lcs(4, ExperimentConfig(seed=0), starts=30)
    assert float(res.value) == pytest.approx(2.25, abs=1e-6)
    assert (res.value, res.best_start) == (2.2500000000000524, 13)
    assert float(res.value) < float(res.uniform_value)
    assert not res.below_conjectured_floor


# -- verification suites ---------------------------------------------------------------


SUITE_CHECKS = {
    "constructions": [
        "quadratic p=2", "quadratic p=3", "quadratic p=5",
        "cube quadruple n=1", "cube quadruple n=2", "cube quadruple n=3",
        "cube quadruple n=4", "grid pair explicit s=1 (2,2)",
        "grid pair explicit s=2 (2,2)", "grid pair auto k=9 s=2",
        "grid pair auto k=16 s=1", "multiperm s=1 dims=(2, 1, 2)",
        "multiperm s=2 dims=(2, 1, 2)", "multiperm s=2 dims=(2, 2, 2)",
        "tuplet t=2 kappa=2", "tuplet t=2 kappa=3",
        "stratified k=2 n=8 ms=(1, 4)", "stratified k=3 n=18 ms=(1, 3, 6)",
        "registry lists every family"],
    "roles": [
        "role count matches census", "binomial identity",
        "reference role word probability",
        "union bound dominates exact tail"],
    "twins-oracle": [
        "exact solver equals oracle (binary, exhaustive)",
        "exact solver equals oracle (ternary, sampled)",
        "run construction floor"],
    "bounds": [
        "density thresholds", "exponent negative above threshold",
        "asymptotic ordering", "lower-bound constants"],
    "lemmas": [
        "sharp image tables", "random image floor",
        "regularization properties", "block construction validity"],
}


def test_suites_all_pass():
    assert list(SUITES) == list(SUITE_CHECKS)
    for name in SUITES:
        report = verify_suite(name)
        assert report.ok, report.summary_lines()
        assert report.suite == name
        assert [c.name for c in report.checks] == SUITE_CHECKS[name]
        assert all(c.ok for c in report.checks)
        lines = report.summary_lines()
        assert lines[-1].startswith(f"suite {name}:")
        assert all(line.startswith("[PASS]") for line in lines[:-1])


def test_registry_check_fails_for_a_family_without_a_case(monkeypatch):
    from twinlcs import constructions
    monkeypatch.setitem(constructions.FAMILY_BUILDERS, "fake",
                        constructions.cube_quadruple)
    report = verify_suite("constructions")
    registry = report.checks[-1]
    assert registry.name == "registry lists every family"
    assert not registry.ok and "fake" in registry.detail
    assert not report.ok
    assert "[FAIL] registry lists every family" in report.summary_lines()[-2]


def test_unknown_suite():
    with pytest.raises(ValueError):
        verify_suite("nope")


def test_config_validation():
    cfg = ExperimentConfig(seed=1, trials=5)
    assert cfg.trials == 5
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(seed=-1)
    with pytest.raises(ValueError):
        minimize_expected_lcs(2, starts=0)
