"""Distributions on permutations, the expected-LCS form and its seeded
minimization, all under one cap, MAX_TABLE_K, checked before anything of
size k! is built."""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .errors import BudgetError, Record
from .experiments import ExperimentConfig, substream
from .words import _lis

MAX_TABLE_K = 6


def _check_k(k: int) -> None:
    """The layer's one size check: k below 1 is a ValueError, and k over
    MAX_TABLE_K a BudgetError, the table being quadratic in k!."""
    if k < 1:
        raise ValueError(f"alphabet size must be >= 1, got {k}")
    if k > MAX_TABLE_K:
        raise BudgetError(
            f"permutations of [{k}] are over the cap k <= {MAX_TABLE_K}: "
            f"the pairwise LCS table is quadratic in k!")


def permutations_of(k: int) -> tuple[tuple[int, ...], ...]:
    """All permutations of [k] in lexicographic order."""
    _check_k(k)
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
        _check_k(self.k)
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
        _check_k(k)
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
    finite table with c >= 0 for every pair (below) and a start with
    nonnegative entries.  An LCS table meets the precondition:
    c = 2k - 2 LCS(pi_i, pi_j) >= 0.

    Each move shifts mass t from coordinate i to j, which changes the
    value by 2 t g + t^2 c, where g = (Ap)_j - (Ap)_i and
    c = A_ii + A_jj - 2 A_ij; t is the best of -p_j, p_i and, when
    c > 0, the stationary shift clipped to that segment.  Pairs (i, j),
    j > i, are visited in order and every move that gains more than
    _DESCENT_TOL is applied at once; stops at a sweep with no such move.

    A screen passes over the pairs that cannot move.  Moves keep p
    nonnegative, so every candidate t lies in [-p_j, p_i].  As c >= 0
    the float sum 2 t g + t^2 c is at least the rounded 2 t g,
    because rounding is monotone; that is negative only when t g < 0,
    and it is then at least -2 fl(p_j g) (t < 0, g > 0) or
    -2 fl(-p_i g) (t > 0, g < 0).  So a pair can gain more than the
    tolerance tol only if fl(g p_j) > tol/2 or fl(g p_i) < -tol/2.  One
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
    half_tol = _DESCENT_TOL / 2
    for _ in range(_MAX_SWEEPS):
        improved = False
        for i in range(size):
            j = i + 1
            while j < size:
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
    core of a 2-core Xeon VM, Python 3.11, numpy 2.4).  It reads only
    ``config.seed``, not the budgets; its one cap is k <= MAX_TABLE_K (6).
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
