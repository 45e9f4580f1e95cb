"""Verification suites: named groups of checks that rerun the paper's
lemmas, the family ceilings, the role calculus and the exact twin search
against independent counts, each reported as PASS or FAIL.  With the CLI,
the only module that imports from bounds and constructions."""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .bounds import (alpha_threshold, asymptotic_threshold,
                     lower_bound_values, minmax_constant, monotone_image,
                     random_strongly_monotone, role_count, role_prob,
                     sharp_image_tables, theta, union_bound)
from .constructions import (FAMILY_BUILDERS, check_family, cube_quadruple,
                            grid_pair, multiperm_quadruple, quadratic_family,
                            stratified_family, tuplet_family)
from .errors import Record
from .experiments import ExperimentConfig, sample_word, substream
from .twins import (_marked, _oracle_lengths, find_regularity_violation,
                    is_monotone, is_regular_pair, is_twin_roles, lt_exact,
                    parse_roles, random_monotone_certificate, regularize,
                    role_stats, run_count, twins_via_blocks, twins_via_runs)
from .words import Word


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
        report = check_family(out)
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
    exact leading zeros), each listed once as its 2m marked positions and
    the m of them that hold 1s.  Independent of the closed-form counter."""
    census: Counter = Counter()
    for m in range(n // 2 + 1):
        for marked in itertools.combinations(range(n), 2 * m):
            for ones in itertools.combinations(marked, m):
                roles = [0] * n
                for i in marked:
                    roles[i] = 1 if i in ones else 2
                stats = role_stats(roles)
                census[(stats.pairs, stats.switches,
                        stats.leading_zeros)] += 1
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
        first, second = (operator.itemgetter(*side)
                         for side in _marked(roles))
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
    def agree(words: list[Word]) -> int:
        oracles = _oracle_lengths(np.array([w.letters for w in words]))
        for word, oracle in zip(words, oracles.tolist()):
            exact = lt_exact(word).length
            assert exact == oracle, (word.to_compact(), exact, oracle)
        return len(words)

    def exhaustive_binary() -> str:
        count = sum(agree([Word(letters, 2) for letters
                           in itertools.product((1, 2), repeat=n)])
                    for n in range(1, 11))
        return f"{count} binary words agree"

    def random_ternary() -> str:
        agree([sample_word(3, 9, config.seed, index=index)
               for index in range(150)])
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
