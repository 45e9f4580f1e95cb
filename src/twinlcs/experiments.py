"""Seeded experiments, expected-LCS minimization, and verification suites.

Randomness is counter-based: every trial or start draws from its own
Philox substream keyed by (master seed, trial index), so results do not
depend on execution order and identical configs reproduce identical
output byte for byte.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .bounds import (alpha_threshold, asymptotic_threshold,
                     lower_bound_values, minmax_constant, monotone_image,
                     random_strongly_monotone, role_count, role_prob,
                     sharp_image_tables, theta, union_bound)
from .constructions import (FAMILY_BUILDERS, check_family, cube_quadruple,
                            grid_pair, multiperm_quadruple, quadratic_family,
                            stratified_family, tuplet_family)
from .errors import DEFAULT_BUDGET_CELLS, BudgetError, Record
from .twins import (DEFAULT_EXACT_LENGTH, DEFAULT_NODE_BUDGET, _TwinSearch,
                    _oracle_lengths, find_regularity_violation, is_monotone,
                    is_regular_pair, is_twin_roles, lt_exact, parse_roles,
                    random_monotone_certificate, regularize, role_stats,
                    run_count, twins_via_blocks, twins_via_runs)
from .words import Word, _lis

SCHEMA_VERSION = 1
Z95 = 1.959963984540054
MAX_TABLE_K = 6
EXHAUSTIVE_CAP = 4096


@dataclass(frozen=True)
class ExperimentConfig(Record):
    """Seed, trial count and work budgets of a seeded experiment (the
    exhaustive cap is EXHAUSTIVE_CAP); reruns with an equal config
    produce bit-identical results."""

    seed: int = 0
    trials: int = 1000
    budget_nodes: int = DEFAULT_NODE_BUDGET
    budget_cells: int = DEFAULT_BUDGET_CELLS

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.budget_nodes < 1 or self.budget_cells < 1:
            raise ValueError("budgets must be positive")


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent deterministic generator for one trial of a run."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_word(k: int, n: int, seed: int, index: int = 0) -> Word:
    """Uniform random word over [k]^n, deterministic per (seed, k, n,
    index)."""
    if k < 1:
        raise ValueError(f"alphabet size must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    rng = substream(seed, index)
    letters = tuple(int(x) for x in rng.integers(1, k + 1, size=n))
    return Word(letters, k)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    phat = successes / trials
    denom = 1.0 + Z95 * Z95 / trials
    center = (phat + Z95 * Z95 / (2 * trials)) / denom
    half = Z95 * math.sqrt(phat * (1.0 - phat) / trials
                           + Z95 * Z95 / (4.0 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


# -- twin-length tail estimation ---------------------------------------------


def threshold_pairs(alpha: float, n: int) -> int:
    """ceil(alpha * n) with protection against float fuzz at integers."""
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    value = alpha * n
    try:
        nearest = round(value)
    except (OverflowError, ValueError):  # an infinite or NaN float
        raise ValueError(f"alpha * n must be finite, got alpha={alpha}, "
                         f"n={n}") from None
    if abs(value - nearest) < 1e-9:
        return int(nearest)
    return math.ceil(value)


@dataclass(frozen=True)
class TailEstimate(Record):
    """Estimated Pr[LT(w) >= ceil(alpha n)] for uniform w over [k]^n."""

    k: int
    n: int
    alpha: float
    pairs: int
    probability: float
    lo: float
    hi: float
    trials: int
    successes: int
    method: str  # "exact", "exhaustive" or "monte-carlo"
    exact: Optional[Fraction]
    config: ExperimentConfig


def _growth_strings(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Restricted growth strings of length n over [k] in lexicographic
    order: each entry is at most one more than the largest before it (the
    first is 1).  Each is the word of its renaming class whose letters are
    1, 2, ... in order of first occurrence."""
    def grow(prefix: tuple[int, ...], top: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == n:
            yield prefix
            return
        for c in range(1, min(top + 1, k) + 1):
            yield from grow(prefix + (c,), max(top, c))
    return grow((), 0)


def estimate_lt_tail(k: int, n: int, alpha: float,
                     config: Optional[ExperimentConfig] = None
                     ) -> TailEstimate:
    """Probability that a uniform word has twins of length >= alpha * n.

    Both routes make one twin search call per word for exactly m pairs
    (twins of length m exist exactly when LT >= m) and reject
    n > DEFAULT_EXACT_LENGTH unless m is 0.  Monte Carlo, with a Wilson
    95% interval over seeded trial substreams, searches each sampled word
    afresh, and the node budget bounds each call.  When k^n is at most
    EXHAUSTIVE_CAP (4096) the fraction is exact (a collapsed interval):
    LT does not change when letters are renamed, so the route walks the
    restricted growth strings over [min(k, n)], each read right to left
    and standing for the perm(k, j) words with its j letters.
    Consecutive strings share their longest suffix, and one search is
    reloaded word after word, so a shared suffix is searched once and the
    node budget bounds each word's new states.
    """
    config = config or ExperimentConfig()
    if k < 1:
        raise ValueError(f"alphabet size must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    m = threshold_pairs(alpha, n)
    if m == 0:
        return TailEstimate(k, n, alpha, 0, 1.0, 1.0, 1.0, 0, 0, "exact",
                            Fraction(1), config)
    if n > DEFAULT_EXACT_LENGTH:
        raise ValueError(f"exact search supports length <= "
                         f"{DEFAULT_EXACT_LENGTH}, got {n}")
    exhaustive = k ** n <= EXHAUSTIVE_CAP
    if exhaustive:
        trials, hits = k ** n, 0
        search = _TwinSearch(Word((1,) * n, min(k, n)), config.budget_nodes)
        for rgs in _growth_strings(n, min(k, n)):
            search.load(rgs[::-1])
            if search.find(m) is not None:
                hits += math.perm(k, max(rgs))
    else:
        trials = config.trials
        hits = sum(_TwinSearch(sample_word(k, n, config.seed, index=trial),
                               config.budget_nodes).find(m) is not None
                   for trial in range(trials))
    p = hits / trials
    lo, hi = (p, p) if exhaustive else wilson_interval(hits, trials)
    return TailEstimate(k, n, alpha, m, p, lo, hi, trials, hits,
                        "exhaustive" if exhaustive else "monte-carlo",
                        Fraction(hits, trials) if exhaustive else None,
                        config)


# -- distributions on permutations and the expected-LCS form ------------------


def permutations_of(k: int) -> tuple[tuple[int, ...], ...]:
    """All permutations of [k] in lexicographic order."""
    if k < 1:
        raise ValueError(f"alphabet size must be >= 1, got {k}")
    return tuple(itertools.permutations(range(1, k + 1)))


# rows of the pairwise table coded per array step (a 16 x k! block of codes)
_TABLE_ROWS = 16


@lru_cache(maxsize=None)
def pairwise_lcs_table(k: int) -> np.ndarray:
    """Symmetric k! x k! table of LCS values between permutations of [k]
    in lexicographic order.  Capped: the table is quadratic in k!.

    Uses LCS(pi_i, pi_j) = LIS(pi_i^-1 o pi_j) (Fredman 1975).  A k-tuple
    of 0-based letters is coded as the base-k integer
    sum_m x_m k^(k-1-m), and the LIS of each of the k! permutations is
    stored once in an int16 array indexed by that code (k^k entries,
    91 KiB at k = 6).  Substituting x = pi_j(m), the code of
    pi_i^-1 o pi_j is sum_x pi_i^-1(x) k^(k-1-pi_j^-1(x)): an integer
    matrix product of the inverses with their place values, taken
    _TABLE_ROWS rows at a time and looked up.  O(k!^2 k) integer work
    in array steps; besides the table and the lookup it holds
    O(_TABLE_ROWS k!) codes.  k = 6 (518k entries) takes about 0.01 s
    of CPU on one core of a 2-core Xeon VM.  The read-only table is kept
    for the life of the process; a call over the cap raises and caches
    nothing.
    """
    if k > MAX_TABLE_K:
        raise BudgetError(
            f"pairwise LCS table needs {math.factorial(k)}^2 entries; "
            f"cap is k <= {MAX_TABLE_K}")
    perms = permutations_of(k)
    letters = np.array(perms) - 1
    place = k ** np.arange(k - 1, -1, -1)
    lis = np.zeros(k ** k, dtype=np.int16)
    lis[letters @ place] = [_lis(p, k + 1) for p in perms]
    # row i of inverse holds the 0-based position of each letter in pi_i
    inverse = np.argsort(letters, axis=1)
    weights = place[inverse].T
    table = np.empty((len(perms), len(perms)), dtype=np.int16)
    for row in range(0, len(perms), _TABLE_ROWS):
        table[row:row + _TABLE_ROWS] = lis[inverse[row:row + _TABLE_ROWS]
                                           @ weights]
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class PermutationDistribution(Record):
    """Probability weights over all permutations of [k], in
    lexicographic order.  Rational weights must sum to exactly 1; real
    weights to 1 within 1e-12."""

    k: int
    weights: tuple
    _json_extra = ("exact",)

    def __post_init__(self) -> None:
        size = math.factorial(self.k)
        if len(self.weights) != size:
            raise ValueError(
                f"need {size} weights for k={self.k}, got {len(self.weights)}")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        total = sum(self.weights)
        if self.exact:
            if total != 1:
                raise ValueError(f"rational weights must sum to 1, got {total}")
        elif abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 within 1e-12, got {total}")

    @property
    def exact(self) -> bool:
        return all(isinstance(w, (Fraction, int)) for w in self.weights)

    @classmethod
    def uniform(cls, k: int) -> "PermutationDistribution":
        size = math.factorial(k)
        return cls(k, (Fraction(1, size),) * size)


def expected_lcs(dist: PermutationDistribution) -> Union[Fraction, float]:
    """E[LCS(pi, pi')] for two independent draws from the distribution,
    as the exact quadratic form over the pairwise table.  Returns a
    Fraction for rational weights, a float otherwise."""
    table = pairwise_lcs_table(dist.k)
    if dist.exact:
        # integer numerators over the common denominator D:
        # E = sum_ij n_i n_j T[i, j] / D^2
        D = math.lcm(*(w.denominator for w in dist.weights))
        ns = [w.numerator * (D // w.denominator) for w in dist.weights]
        total = sum(ni * sum(map(operator.mul, ns, table[i].tolist()))
                    for i, ni in enumerate(ns) if ni)
        return Fraction(total, D * D)
    w = np.asarray(dist.weights, dtype=np.float64)
    return float(w @ table.astype(np.float64) @ w)


# -- conjecture minimization ---------------------------------------------------


# the descent stops after a sweep with no gain above _DESCENT_TOL
_DESCENT_TOL = 1e-12
_MAX_SWEEPS = 500


def _local_minimum(table: np.ndarray,
                   start: np.ndarray) -> tuple[float, np.ndarray]:
    """Pairwise-exchange descent for p^T A p over the simplex, for a
    finite table and a start with nonnegative entries.

    Each move shifts mass t from coordinate i to j, which changes the
    value by 2 t g + t^2 c, where g = (Ap)_j - (Ap)_i and
    c = A_ii + A_jj - 2 A_ij; t is the best of -p_j, p_i and, when
    c > 0, the stationary shift clipped to that segment.  Pairs (i, j),
    j > i, are visited in order and every move that gains more than
    _DESCENT_TOL is applied at once; stops at a sweep with no such move.

    A screen passes over the pairs that cannot move.  Moves keep p
    nonnegative, so every candidate t lies in [-p_j, p_i].  When
    c >= 0 the float sum 2 t g + t^2 c is at least the rounded 2 t g,
    because rounding is monotone; that is negative only when t g < 0,
    and it is then at least -2 fl(p_j g) (t < 0, g > 0) or
    -2 fl(-p_i g) (t > 0, g < 0).  So a pair can gain more than the
    tolerance tol only if fl(g p_j) > tol/2 or fl(g p_i) < -tol/2; a
    row with some pair whose c is negative or NaN is not screened.  One
    array step screens the rest of a row, the pairs that pass go, in
    order, through the scalar move, and after a move, which changes Ap
    and p_i, the rest of the row is screened again.  Skipped pairs
    could not have moved, so this equals the pair-by-pair loop bit for
    bit.  From 17 starts at k = 5, 18k of 2.3M pair visits pass it.
    """
    a = table
    p = start.astype(np.float64).copy()
    size = len(p)
    ap = a @ p
    diag = np.diagonal(a)
    unscreened = [not (a[i, i] + diag[i + 1:] - 2.0 * a[i, i + 1:] >= 0).all()
                  for i in range(size)]
    half_tol = _DESCENT_TOL / 2
    for _ in range(_MAX_SWEEPS):
        improved = False
        for i in range(size):
            j = i + 1
            while j < size:
                if unscreened[i]:
                    passed = range(j, size)
                else:
                    g = ap[j:] - ap[i]
                    screen = g * p[j:] > half_tol
                    if p[i] > 0:
                        screen |= g * p[i] < -half_tol
                    passed = (j + screen.nonzero()[0]).tolist()
                for j in passed:
                    g = ap.item(j) - ap.item(i)
                    c = a.item(i, i) + a.item(j, j) - 2.0 * a.item(i, j)
                    lo, hi = -p.item(j), p.item(i)
                    best_t = 0.0
                    best_delta = 0.0
                    candidates = ((lo, hi) if c <= 0
                                  else (lo, hi, min(hi, max(lo, -g / c))))
                    for t in candidates:
                        delta = 2.0 * t * g + t * t * c
                        if delta < best_delta:
                            best_delta = delta
                            best_t = t
                    if best_delta < -_DESCENT_TOL:
                        p[i] -= best_t
                        p[j] += best_t
                        ap += best_t * (a[:, j] - a[:, i])
                        improved = True
                        break
                else:
                    break
                j += 1
        if not improved:
            break
    p = np.maximum(p, 0.0)
    p /= p.sum()
    return float(p @ a @ p), p


@dataclass(frozen=True)
class MinimizeResult(Record):
    """Best local minimum of the expected LCS found by multi-start
    pairwise-exchange search; heuristic, with no global claim."""

    k: int
    value: float
    distribution: PermutationDistribution
    uniform_value: float
    starts: int
    best_start: int
    config: ExperimentConfig
    _json_extra = ("below_conjectured_floor",)

    @property
    def below_conjectured_floor(self) -> bool:
        """True would refute the sqrt(k) conjecture (up to numerics)."""
        return self.value < math.sqrt(self.k) - 1e-9


def minimize_expected_lcs(k: int,
                          config: Optional[ExperimentConfig] = None,
                          *, starts: int = 100) -> MinimizeResult:
    """Multi-start local minimization of E[LCS] over distributions on
    permutations of [k].

    The uniform distribution is always start 0, so the result never
    exceeds the uniform value.  Remaining starts are Dirichlet(1) draws
    from per-start substreams.  Each sweep screens every pair, in one
    array step per row and one more per applied move: at k = 5 a start
    takes about 0.02 s of CPU and the default 100 starts about 2 s (one
    core of a 2-core Xeon VM, Python 3.11, numpy 2.4).
    """
    config = config or ExperimentConfig()
    if starts < 1:
        raise ValueError("starts must be positive")
    table = pairwise_lcs_table(k).astype(np.float64)
    size = table.shape[0]
    uniform = np.full(size, 1.0 / size)
    uniform_value = float(uniform @ table @ uniform)
    best_value, best_p, best_start = math.inf, uniform, 0
    for start_index in range(starts):
        if start_index == 0:
            start = uniform
        else:
            start = substream(config.seed, start_index).dirichlet(
                np.ones(size))
        value, p = _local_minimum(table, start)
        if value < best_value:
            best_value, best_p, best_start = value, p, start_index
    dist = PermutationDistribution(k, tuple(float(x) for x in best_p))
    return MinimizeResult(k, best_value, dist, uniform_value, starts,
                          best_start, config)


# -- verification suites -------------------------------------------------------


@dataclass(frozen=True)
class CheckResult(Record):
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class SuiteReport(Record):
    suite: str
    ok: bool
    checks: tuple[CheckResult, ...]

    def summary_lines(self) -> list[str]:
        lines = [f"[{'PASS' if c.ok else 'FAIL'}] {c.name}"
                 + (f": {c.detail}" if c.detail else "")
                 for c in self.checks]
        lines.append(f"suite {self.suite}: "
                     f"{'all checks passed' if self.ok else 'FAILURES'}")
        return lines


def _run_check(name: str, fn: Callable[..., Optional[str]],
               *args) -> CheckResult:
    try:
        detail = fn(*args)
        return CheckResult(name, True, detail or "")
    except Exception as exc:  # report, never propagate
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")


def _suite_constructions(config: ExperimentConfig) -> list[CheckResult]:
    # (check name, builder, positional arguments, keyword arguments)
    cases = (
        ("quadratic p=2", quadratic_family, (2,), {}),
        ("quadratic p=3", quadratic_family, (3,), {}),
        ("quadratic p=5", quadratic_family, (5,), {}),
        ("cube quadruple n=1", cube_quadruple, (1,), {}),
        ("cube quadruple n=2", cube_quadruple, (2,), {}),
        ("cube quadruple n=3", cube_quadruple, (3,), {}),
        ("cube quadruple n=4", cube_quadruple, (4,), {}),
        ("grid pair explicit s=1 (2,2)", grid_pair, (),
         dict(s=1, k1=2, k2=2)),
        ("grid pair explicit s=2 (2,2)", grid_pair, (),
         dict(s=2, k1=2, k2=2)),
        ("grid pair auto k=9 s=2", grid_pair, (9, 2), {}),
        ("grid pair auto k=16 s=1", grid_pair, (16, 1), {}),
        ("multiperm s=1 dims=(2, 1, 2)", multiperm_quadruple,
         (1, 2, 1, 2), {}),
        ("multiperm s=2 dims=(2, 1, 2)", multiperm_quadruple,
         (2, 2, 1, 2), {}),
        ("multiperm s=2 dims=(2, 2, 2)", multiperm_quadruple,
         (2, 2, 2, 2), {}),
        ("tuplet t=2 kappa=2", tuplet_family, (2, 2), {}),
        ("tuplet t=2 kappa=3", tuplet_family, (2, 3), {}),
        ("stratified k=2 n=8 ms=(1, 4)", stratified_family,
         (2, 8, (1, 4)), {}),
        ("stratified k=3 n=18 ms=(1, 3, 6)", stratified_family,
         (3, 18, (1, 3, 6)), {}),
    )
    built = set()

    def holds(build: Callable, args: tuple, kwargs: dict) -> str:
        out = build(*args, **kwargs)
        built.add(out.family)
        report = check_family(out, budget_cells=config.budget_cells)
        bad = [(c, v) for c, v, ok in report if not ok]
        assert not bad, f"{out.family}{out.params}: ceilings violated {bad}"
        return f"{len(report)} ceilings hold"

    checks = [_run_check(name, holds, *case) for name, *case in cases]

    def registry_covered() -> str:
        missing = sorted(set(FAMILY_BUILDERS) - built)
        assert not missing, f"no case builds {missing}"
        return f"{sorted(FAMILY_BUILDERS)}"

    checks.append(_run_check("registry lists every family", registry_covered))
    return checks


def _role_census(n: int) -> Counter:
    """Exact census of all role words of length n by (pairs, switches,
    exact leading zeros).  Independent of the closed-form counter."""
    census: Counter = Counter()
    for roles in itertools.product((0, 1, 2), repeat=n):
        if roles.count(1) != roles.count(2):
            continue
        stats = role_stats(roles)
        census[(stats.pairs, stats.switches, stats.leading_zeros)] += 1
    return census


def _suite_roles(config: ExperimentConfig) -> list[CheckResult]:
    def census_matches() -> str:
        n = 8
        census = _role_census(n)
        for m in range(n // 2 + 1):
            for p in range(m + 1):
                for z in range(n - 2 * m + 1):
                    exact = sum(v for (mm, pp, zz), v in census.items()
                                if mm == m and pp == p and zz >= z)
                    got = role_count(n, m, p, z)
                    assert got == exact, (n, m, p, z, got, exact)
        return f"all (m,p,z) classes at n={n}"

    def binomial_identity() -> str:
        for m in range(1, 7):
            total = sum(role_count(2 * m, m, p, 0) for p in range(m + 1))
            assert total == math.comb(2 * m, m), m
        return "sum over switches is the central binomial"

    def reference_role_word() -> str:
        roles = parse_roles("012112021200")
        stats = role_stats(roles)
        prob = role_prob(2, stats.length, stats.pairs, stats.switches,
                         stats.leading_zeros)
        assert prob == Fraction(1, 512), prob
        # only words whose letters agree on every (first, second) pair
        # are twins under these roles; just those become a Word
        first, second = (
            operator.itemgetter(*(i for i, r in enumerate(roles) if r == side))
            for side in (1, 2))
        hits = sum(is_regular_pair(Word(letters, 2), roles)
                   for letters in itertools.product((1, 2), repeat=12)
                   if first(letters) == second(letters))
        assert Fraction(hits, 4096) == prob, (hits, prob)
        return f"probability 1/512 matches {hits}/4096 enumeration"

    def union_bound_sound() -> str:
        n = 10
        words = np.array(list(itertools.product((1, 2), repeat=n)))
        tail = Counter(_oracle_lengths(words).tolist())
        total = 2 ** n
        for m in range(n // 2 + 1):
            exact = Fraction(sum(v for lt, v in tail.items() if lt >= m),
                             total)
            assert union_bound(2, n, m) >= exact, m
        return f"dominates the exact tail at n={n}"

    return [_run_check("role count matches census", census_matches),
            _run_check("binomial identity", binomial_identity),
            _run_check("reference role word probability",
                       reference_role_word),
            _run_check("union bound dominates exact tail",
                       union_bound_sound)]


def _suite_twins_oracle(config: ExperimentConfig) -> list[CheckResult]:
    def exhaustive_binary() -> str:
        count = 0
        for n in range(1, 11):
            batch = list(itertools.product((1, 2), repeat=n))
            oracles = _oracle_lengths(np.array(batch)).tolist()
            for letters, oracle in zip(batch, oracles):
                word = Word(letters, 2)
                exact = lt_exact(word).length
                assert exact == oracle, (word.to_compact(), exact, oracle)
                count += 1
        return f"{count} binary words agree"

    def random_ternary() -> str:
        words = [sample_word(3, 9, config.seed, index=index)
                 for index in range(150)]
        oracles = _oracle_lengths(np.array([w.letters for w in words]))
        for word, oracle in zip(words, oracles.tolist()):
            exact = lt_exact(word).length
            assert exact == oracle, (word.to_compact(), exact, oracle)
        return "150 random ternary words agree"

    def run_floor() -> str:
        for index in range(100):
            word = sample_word(2, 16, config.seed, index=index)
            cert = twins_via_runs(word)
            floor = (len(word) - run_count(word)) / 2
            assert cert.length >= floor, (word.to_compact(), cert.length)
        return "run construction meets its floor on 100 words"

    return [_run_check("exact solver equals oracle (binary, exhaustive)",
                       exhaustive_binary),
            _run_check("exact solver equals oracle (ternary, sampled)",
                       random_ternary),
            _run_check("run construction floor", run_floor)]


def _suite_bounds(config: ExperimentConfig) -> list[CheckResult]:
    def thresholds() -> str:
        assert alpha_threshold(2) is None
        assert alpha_threshold(3) is None
        r4 = alpha_threshold(4)
        r5 = alpha_threshold(5)
        assert r4 is not None and r4.alpha <= 0.4932 + 5e-4, r4
        assert r5 is not None and r5.alpha <= 0.48 + 5e-4, r5
        assert r4.theta < 0 and r5.theta < 0
        return f"k=4 alpha={r4.alpha:.6f}, k=5 alpha={r5.alpha:.6f}"

    def negative_above() -> str:
        r = alpha_threshold(4)
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            a = r.alpha + frac * (0.5 - r.alpha)
            assert theta(a, 4).value < 0, a
        return "theta stays negative up to 1/2"

    def asymptotic_orders() -> str:
        k = 4000
        r = alpha_threshold(k)
        asy = asymptotic_threshold(k)
        assert asy.refined < asy.coarse
        assert r.alpha < asy.coarse, (r.alpha, asy.coarse)
        ratio = (r.alpha - asy.refined) * k ** 1.5
        assert 10 < ratio < 30, ratio
        return f"threshold below coarse form at k={k}, gap {ratio:.1f}k^-3/2"

    def constants() -> str:
        mc = minmax_constant()
        assert abs(mc.value - mc.exact_value) <= 1e-9
        lb = lower_bound_values(3)
        assert lb.minmax.value > float(lb.improved)
        assert abs(lb.linear_slope - 1 / 9) < 1e-12
        return f"min-max constant {mc.value:.9f}"

    return [_run_check("density thresholds", thresholds),
            _run_check("exponent negative above threshold", negative_above),
            _run_check("asymptotic ordering", asymptotic_orders),
            _run_check("lower-bound constants", constants)]


def _suite_lemmas(config: ExperimentConfig) -> list[CheckResult]:
    def sharp_tables() -> str:
        for s in range(1, 7):
            result = monotone_image(*sharp_image_tables(s), s)
            assert result.size == s * s, (s, result.size)
        return "projection triple hits s^2 exactly for s <= 6"

    def random_tables() -> str:
        for index in range(150):
            rng = substream(config.seed, index)
            s = int(rng.integers(1, 7))
            tables = [random_strongly_monotone(s, rng) for _ in range(3)]
            result = monotone_image(*tables, s)
            assert result.meets_floor, (s, result.size, result.floor)
        return "150 random triples meet ceil(s^2/6)"

    def regularization() -> str:
        for index in range(200):
            rng = substream(config.seed, index)
            k = int(rng.integers(2, 4))
            n = int(rng.integers(4, 15))
            word = sample_word(k, n, config.seed, index=10_000 + index)
            try:
                cert = random_monotone_certificate(word, rng)
            except ValueError:
                continue  # word admits no twins
            out = regularize(cert)
            assert out.length == cert.length
            assert out.is_monotone
            assert find_regularity_violation(word, out.roles) is None
            assert out.roles <= cert.roles
        return "200 random certificates regularized"

    def block_construction() -> str:
        failures = 0
        for index in range(100):
            word = sample_word(3, 27, config.seed, index=index)
            result = twins_via_blocks(word)
            assert is_twin_roles(word, result.certificate.roles)
            assert is_monotone(result.certificate.roles)
            if not result.floor_met:
                failures += 1
        assert failures <= 1, f"{failures} floor misses out of 100"
        return f"100 block certificates valid, {failures} floor misses"

    return [_run_check("sharp image tables", sharp_tables),
            _run_check("random image floor", random_tables),
            _run_check("regularization properties", regularization),
            _run_check("block construction validity", block_construction)]


_SUITE_RUNNERS = {
    "constructions": _suite_constructions,
    "roles": _suite_roles,
    "twins-oracle": _suite_twins_oracle,
    "bounds": _suite_bounds,
    "lemmas": _suite_lemmas,
}
SUITES = tuple(_SUITE_RUNNERS)


def verify_suite(name: str,
                 config: Optional[ExperimentConfig] = None) -> SuiteReport:
    """Run one named verification suite and report per-check results."""
    if name not in _SUITE_RUNNERS:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    config = config or ExperimentConfig()
    checks = tuple(_SUITE_RUNNERS[name](config))
    return SuiteReport(name, all(c.ok for c in checks), checks)
