"""Tail bounds for twin lengths in random words, and numeric constants.

The calculus counts role words by their statistics (pairs, switches,
leading zeros), multiplies by the exact probability that a random word
realizes a given role word as a regular pair, and sums.  The exponential
rate of that sum is ``theta``; where theta turns negative, twins of the
corresponding density are asymptotically impossible, which yields the
per-alphabet density thresholds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import DEFAULT_BUDGET_CELLS, Record, check_budget


E = math.e


# -- exponential rate --------------------------------------------------------


@dataclass(frozen=True)
class ThetaBreakdown:
    """Value and additive terms of the tail exponent at density alpha.

    shape_term: (1-2a) ln(1/(1-2a)), placing the unmarked positions.
    match_term: -a ln(a^2 k), pair placements times the match probability.
    switch_term: -2a ln(2/(1 + sqrt(1-1/k))), the switch-count generating
        factor at its dominant point.
    idle_term: (1-2a) ln(1-1/k), the idle-position letter constraints.
    """

    alpha: float
    k: int
    shape_term: float
    match_term: float
    switch_term: float
    idle_term: float

    @property
    def value(self) -> float:
        return (self.shape_term + self.match_term + self.switch_term
                + self.idle_term)

    def to_json(self) -> dict:
        """Not the field rule: the terms are nested under ``terms``."""
        return {"alpha": self.alpha, "k": self.k, "value": self.value,
                "terms": {"shape": self.shape_term, "match": self.match_term,
                          "switch": self.switch_term, "idle": self.idle_term}}


def theta(alpha: float, k: int) -> ThetaBreakdown:
    """Tail exponent for twins of density alpha in words over [k].

    Defined for 1/k <= alpha <= 1/2 and k >= 2; at alpha = 1/2 the shape
    and idle terms vanish in the limit.
    """
    if k < 2:
        raise ValueError(f"alphabet size must be >= 2, got {k}")
    if not 1 / k <= alpha <= 0.5:
        raise ValueError(f"alpha must lie in [1/k, 1/2], got {alpha}")
    gap = 1.0 - 2.0 * alpha
    shape = gap * math.log(1.0 / gap) if gap > 0 else 0.0
    match = -alpha * math.log(alpha * alpha * k)
    switch = -2.0 * alpha * math.log(2.0 / (1.0 + math.sqrt(1.0 - 1.0 / k)))
    idle = gap * math.log(1.0 - 1.0 / k) if gap > 0 else 0.0
    return ThetaBreakdown(alpha, k, shape, match, switch, idle)


@dataclass(frozen=True)
class ThresholdResult(Record):
    """Smallest density at which the exponent has (just) turned negative."""

    k: int
    alpha: float
    theta: float
    bracket: tuple[float, float]


_SCAN_STEP = 1e-3
_TOL = 1e-9


def alpha_threshold(k: int) -> Optional[ThresholdResult]:
    """Scan down from alpha = 1/2 for the rightmost sign change of theta
    on [1/k, 1/2] and bisect it.

    Returns the smallest alpha, to within 1e-9, such that theta stays
    negative on [alpha, 1/2]; None when theta(1/2) is already
    nonnegative and the method certifies nothing.  The scan step guards
    against non-monotone sign structure, which is not ruled out.
    """
    if theta(0.5, k).value >= 0:
        return None
    floor = 1.0 / k
    hi = 0.5
    lo = hi - _SCAN_STEP
    while lo > floor + _SCAN_STEP and theta(lo, k).value < 0:
        hi = lo
        lo -= _SCAN_STEP
    if theta(lo, k).value < 0:
        return None
    # theta(lo) >= 0 > theta(hi); a 1e-9 bracket on [0, 1/2] is over 10^6
    # float spacings wide, so mid always lies strictly between lo and hi
    while hi - lo > _TOL:
        mid = (lo + hi) / 2
        if theta(mid, k).value < 0:
            hi = mid
        else:
            lo = mid
    return ThresholdResult(k, hi, theta(hi, k).value, (lo, hi))


@dataclass(frozen=True)
class AsymptoticThreshold(Record):
    """Large-alphabet approximations of the density threshold."""

    k: int
    leading: float  # e / sqrt(k)
    coarse: float   # e / sqrt(k) - e^2 / k
    refined: float  # e / sqrt(k) - (e^2 + 1/2) / k


def asymptotic_threshold(k: int) -> AsymptoticThreshold:
    if k < 2:
        raise ValueError(f"alphabet size must be >= 2, got {k}")
    lead = E / math.sqrt(k)
    return AsymptoticThreshold(k, lead, lead - E * E / k,
                               lead - (E * E + 0.5) / k)


# -- role-word counting and probability --------------------------------------


def role_count(n: int, pairs: int, switches: int, leading_zeros: int) -> int:
    """Number of role words of length n with the given pair count, the
    given switch count, and an all-zero prefix of length at least
    ``leading_zeros``.

    The positions avoid the first ``leading_zeros`` slots in
    C(n - z, 2m) ways and the marked pattern has exactly p switches in
    C(m, p)^2 ways.  Exact integer arithmetic, charged against
    ``DEFAULT_BUDGET_CELLS`` first (see _COUNT_BITS2); over it,
    BudgetError.  Out-of-range statistics describe an empty class and
    count 0.
    """
    if (n < 0 or pairs < 0 or switches < 0 or leading_zeros < 0
            or 2 * pairs > n - leading_zeros or switches > pairs):
        return 0
    bits = (_comb_bits(n - leading_zeros, 2 * pairs)
            + 2 * _comb_bits(pairs, switches))
    _check_bits_work("role_count", bits, 1, _COUNT_BITS2)
    return (math.comb(n - leading_zeros, 2 * pairs)
            * math.comb(pairs, switches) ** 2)


def _comb_bits(n: int, k: int) -> int:
    """A bound on the bit length of C(n, k), 0 <= k <= n: C(n, k) is at
    most 2^n and at most n^min(k, n - k)."""
    return min(n, min(k, n - k) * n.bit_length())


# The exact integers of role_count and rationals of role_prob and
# union_bound are charged against DEFAULT_BUDGET_CELLS before they are
# formed, in cells as is_regular's checks are (words._CHECK_CELLS).  The
# work grows with B^2 for numbers of B bits: role_count's product has at
# most the B of _comb_bits, and took 1.9-5.5 ps per B^2 in calls of 1-2 s
# (n from 4 * 10^5 to 10^6); the numbers of role_prob and union_bound have
# up to B = n times the bit length of k bits (the size of k^n), and
# role_prob took 0.011-0.021 ps per B^2 in calls of 1-2 s, and one summand
# of union_bound 0.27-2.33 ps (k from 2 to 10^30, n up to 12,000), against
# 41-77 ns a cell of lcs_multi, one core of a 2-core Xeon VM, Python 3.11.
# A cell pays for this many squared bits:
_COUNT_BITS2 = 10_000
_PROB_BITS2 = 2_000_000
_SUMMAND_BITS2 = 20_000


def _check_bits_work(what: str, bits: int, summands: int,
                     bits2_per_cell: int) -> None:
    check_budget(summands * bits * bits // bits2_per_cell,
                 DEFAULT_BUDGET_CELLS, what,
                 unit=f"cells ({bits2_per_cell} squared bits each)")


def role_prob(k: int, n: int, pairs: int, switches: int,
              leading_zeros: int) -> Fraction:
    """Probability that a uniform word of length n over [k] realizes a
    role word with these statistics as a regular pair.

    Each of the m pairs matches with probability 1/k; each switch and
    each idle position after the leading zeros must avoid one earlier
    letter, each an independent factor (1 - 1/k).  Charged against
    ``DEFAULT_BUDGET_CELLS`` first (see _PROB_BITS2); over it, BudgetError.
    """
    if k < 1:
        raise ValueError(f"alphabet size must be >= 1, got {k}")
    if not (0 <= 2 * pairs <= n and 0 <= switches <= pairs
            and 0 <= leading_zeros <= n - 2 * pairs):
        raise ValueError("role statistics out of range")
    _check_bits_work("role_prob", n * k.bit_length(), 1, _PROB_BITS2)
    free = switches + n - 2 * pairs - leading_zeros
    return Fraction(1, k) ** pairs * Fraction(k - 1, k) ** free


def union_bound(k: int, n: int, pairs: int) -> Fraction:
    """Exact upper bound on Pr[a uniform word of length n over [k] has
    twins of length >= pairs], summing count times probability over all
    switch and leading-zero statistics.

    Sound because a word with twins of length m has a lexicographically
    minimal monotone certificate with exactly m pairs, that certificate
    is regular, and the count-weighted sum dominates the union over all
    regular role words.  The n - pairs + 2 summands are charged against
    ``DEFAULT_BUDGET_CELLS`` first (see _SUMMAND_BITS2); over it,
    BudgetError.
    """
    if k < 1:
        raise ValueError(f"alphabet size must be >= 1, got {k}")
    if pairs < 0 or n < 0:
        raise ValueError("length and pair count must be nonnegative")
    if 2 * pairs > n:
        return Fraction(0)
    _check_bits_work("union_bound", n * k.bit_length(), n - pairs + 2,
                     _SUMMAND_BITS2)
    # the summand factors into a switch part and a leading-zero part
    q = Fraction(k - 1, k)
    switch_sum = sum(math.comb(pairs, p) ** 2 * q ** p
                     for p in range(pairs + 1))
    idle_sum = sum(math.comb(n - z, 2 * pairs) * q ** (n - 2 * pairs - z)
                   for z in range(n - 2 * pairs + 1))
    return Fraction(1, k) ** pairs * switch_sum * idle_sum


# -- numeric constants -------------------------------------------------------


@dataclass(frozen=True)
class MinMaxConstant(Record):
    """min over x in [0, 1] of max(1/3 + x^2/12, 1/2 - x/2), found
    numerically.

    The rising branch starts below the falling one and ends above it, so
    the minimum sits where they cross: x = sqrt(11) - 3 and value
    (4 - sqrt(11)) / 2.  ``x`` is the first float past the crossing found
    by bisection, and ``value`` the max of the branches there.
    """

    value: float
    x: float
    exact_value: float
    exact_x: float


def minmax_constant() -> MinMaxConstant:
    # bisect the crossing down to adjacent floats
    lo, hi = 0.0, 1.0
    while (mid := (lo + hi) / 2) not in (lo, hi):
        if 1.0 / 3.0 + mid * mid / 12.0 < 0.5 - mid / 2.0:
            lo = mid
        else:
            hi = mid
    value = max(1.0 / 3.0 + hi * hi / 12.0, 0.5 - hi / 2.0)
    return MinMaxConstant(value, hi, (4.0 - math.sqrt(11.0)) / 2.0,
                          math.sqrt(11.0) - 3.0)


@dataclass(frozen=True)
class LowerBoundValues(Record):
    """Proven lower-bound constants for twin density at alphabet size k.

    per_letter: the easy density 1/k.
    improved: 1.02/k, available for k >= 3.
    minmax: the k = 3 refinement constant (4 - sqrt(11))/2 with its
        numeric minimization record, None for k != 3.
    linear_slope and linear_offset: twins of length at least
    slope * n - offset exist in every word, with slope 3^(-4/3) k^(-2/3)
    and offset 3^(-1/3) k^(1/3).
    """

    k: int
    per_letter: Fraction
    improved: Optional[Fraction]
    minmax: Optional[MinMaxConstant]
    linear_slope: float
    linear_offset: float


def lower_bound_values(k: int) -> LowerBoundValues:
    if k < 2:
        raise ValueError(f"alphabet size must be >= 2, got {k}")
    improved = Fraction(102, 100 * k) if k >= 3 else None
    minmax = minmax_constant() if k == 3 else None
    slope = 3.0 ** (-4.0 / 3.0) * k ** (-2.0 / 3.0)
    offset = 3.0 ** (-1.0 / 3.0) * k ** (1.0 / 3.0)
    return LowerBoundValues(k, Fraction(1, k), improved, minmax, slope,
                            offset)


# -- images of strongly monotone maps ----------------------------------------


def _table_rows(f: Sequence[Sequence[int]], s: int) -> list[tuple[int, ...]]:
    """An s-by-s table as its rows: f(x, y) is rows[x - 1][y - 1]."""
    rows = [tuple(row) for row in f]
    if len(rows) != s or any(len(row) != s for row in rows):
        raise ValueError(f"table must be {s}x{s}")
    return rows


@dataclass(frozen=True)
class MonotoneImageResult(Record):
    """Size of {(f1(x,y), f2(x,z), f3(y,z))} over the cube [s]^3."""

    s: int
    size: int
    floor: int  # ceil(s^2 / 6)
    _json_extra = ("meets_floor",)

    @property
    def meets_floor(self) -> bool:
        return self.size >= self.floor


def strong_monotonicity_violation(f: Sequence[Sequence[int]], s: int
                                  ) -> Optional[tuple[tuple[int, int],
                                                      tuple[int, int]]]:
    """The first pair of 1-based cells, scanning by (x, y), certifying
    that f is not strongly monotone on [s]^2 (nondecreasing in each
    argument, strictly increasing when both grow), or None."""
    g = _table_rows(f, s)
    for x in range(s):  # 0-based; the cells returned are 1-based
        for y in range(s):
            if x + 1 < s and g[x + 1][y] < g[x][y]:
                return ((x + 1, y + 1), (x + 2, y + 1))
            if y + 1 < s and g[x][y + 1] < g[x][y]:
                return ((x + 1, y + 1), (x + 1, y + 2))
            if x + 1 < s and y + 1 < s and g[x + 1][y + 1] <= g[x][y]:
                return ((x + 1, y + 1), (x + 2, y + 2))
    return None


def monotone_image(f1: Sequence[Sequence[int]], f2: Sequence[Sequence[int]],
                   f3: Sequence[Sequence[int]], s: int) -> MonotoneImageResult:
    """Count the combined image of three s-by-s tables; raises ValueError
    when any table fails strong monotonicity (with the violating cells).
    The s^3 triples are charged against ``DEFAULT_BUDGET_CELLS`` before
    any table is read; over it, BudgetError."""
    if s < 1:
        raise ValueError(f"side must be >= 1, got {s}")
    check_budget(s ** 3, DEFAULT_BUDGET_CELLS, "monotone_image",
                 unit="triples")
    tables = []
    for name, f in (("f1", f1), ("f2", f2), ("f3", f3)):
        bad = strong_monotonicity_violation(f, s)
        if bad is not None:
            raise ValueError(f"{name} is not strongly monotone: cells {bad}")
        tables.append(_table_rows(f, s))
    g1, g2, g3 = tables
    image = {(g1[x][y], g2[x][z], g3[y][z])
             for x, y, z in itertools.product(range(s), repeat=3)}
    return MonotoneImageResult(s, len(image), -(-s * s // 6))


def sharp_image_tables(s: int) -> tuple[list[list[int]], list[list[int]],
                                        list[list[int]]]:
    """Tables whose combined image has size exactly s^2: each is the
    projection to its first argument, so the triple (x, x, y) forgets
    the third cube coordinate entirely."""
    proj = [[x for _ in range(s)] for x in range(1, s + 1)]
    return proj, [row[:] for row in proj], [row[:] for row in proj]


def random_strongly_monotone(s: int,
                             rng: np.random.Generator) -> list[list[int]]:
    """Sample a strongly monotone table on [s]^2: each entry tops its
    left, upper and (strictly) diagonal neighbors, plus a random
    increment."""
    # one draw of all s^2 increments takes the same stream as s^2 scalar
    # draws, cell by cell in row order
    steps = iter(rng.integers(0, 4, size=s * s).tolist())
    padded = [[0] * (s + 1) for _ in range(s + 1)]
    for x in range(1, s + 1):
        for y in range(1, s + 1):
            base = max(padded[x - 1][y], padded[x][y - 1],
                       padded[x - 1][y - 1] + 1)
            padded[x][y] = base + next(steps)
    return [row[1:] for row in padded[1:]]
