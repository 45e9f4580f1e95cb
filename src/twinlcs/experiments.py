"""Seeded sampling and twin-length tail estimation.

Randomness is counter-based: every trial or start draws from its own
Philox substream keyed by (master seed, trial index), so results do not
depend on execution order and identical configs reproduce identical
output byte for byte.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from .errors import DEFAULT_BUDGET_CELLS, Record
from .twins import DEFAULT_NODE_BUDGET, _check_length, _TwinSearch
from .words import Word

SCHEMA_VERSION = 1
Z95 = 1.959963984540054
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


@functools.cache
def _word_rng() -> np.random.Generator:
    """The generator sample_word resets on every call, built at first use
    so that importing the package does not import numpy.random."""
    return np.random.Generator(np.random.Philox(0))


def sample_word(k: int, n: int, seed: int, index: int = 0) -> Word:
    """Uniform random word over [k]^n, deterministic per (seed, k, n,
    index): the letters ``substream(seed, index)`` would draw.  Building
    that generator costs about 30 us, so one private generator is reset
    to the state a new one starts in (not safe across threads)."""
    if k < 1:
        raise ValueError(f"alphabet size must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    rng = _word_rng()
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0,) * 4,
                  "key": np.array([seed, index], dtype=np.uint64)},
        "buffer": (0,) * 4, "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    return Word(rng.integers(1, k + 1, size=n).tolist(), k)


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
    1, 2, ... in order of first occurrence.

    The successor raises the last entry that can grow, which is below both
    k and one more than the largest before it, and resets the rest to 1.
    """
    s = [1] * n
    top = [1] * n  # top[i]: largest of s[:i + 1]
    while True:
        yield tuple(s)
        i = n - 1
        while i > 0 and (s[i] > top[i - 1] or s[i] == k):
            i -= 1
        if i <= 0:
            return
        s[i] += 1
        s[i + 1:] = [1] * (n - 1 - i)
        top[i:] = [max(top[i - 1], s[i])] * (n - i)


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
    _check_length(n)
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
