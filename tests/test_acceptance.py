"""Acceptance gate: sixteen end-to-end checks, one verdict line each.

Every test prints PASS or FAIL for its criterion; the lines are echoed
in the terminal summary (see conftest) so they survive output capture.
Seeds are frozen, so all sampled workloads are reproducible bit for bit.
"""

import functools
import itertools
import math
import re
import time
from collections import Counter
from fractions import Fraction

import pytest

import conftest
from oracles import lexmin_monotone_roles, role_census
from twinlcs import (
    Word,
    alpha_threshold,
    check_family,
    cube_quadruple,
    grid_pair,
    is_regular_pair,
    is_twin_roles,
    lcs_reversible,
    lt_exact,
    lt_oracle,
    minimize_expected_lcs,
    minmax_constant,
    monotone_image,
    multiperm_quadruple,
    pairwise_lcs_table,
    parse_roles,
    parse_word,
    quadratic_family,
    random_monotone_certificate,
    random_strongly_monotone,
    regularize,
    role_count,
    role_prob,
    roles_to_text,
    run_count,
    sample_word,
    sharp_image_tables,
    stratified_family,
    substream,
    theta,
    tuplet_family,
    twins_via_blocks,
    twins_via_runs,
    union_bound,
)
from twinlcs.cli import main as cli_main

SEED_CERTS = 20260811
SEED_IMAGE = 20260813
SEED_SUBSETS = 20260814
SEED_BLOCKS = 20260825


def criterion(num, text):
    """Print one pass/fail line for the wrapped test."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                line = f"FAIL criterion {num:02d}: {text}"
                print(line)
                conftest.ACCEPTANCE_LINES.append(line)
                raise
            line = f"PASS criterion {num:02d}: {text}"
            print(line)
            conftest.ACCEPTANCE_LINES.append(line)

        return inner

    return wrap


@criterion(1, "density thresholds: alpha(4) <= 0.4932 and alpha(5) <= 0.48,"
              " theta negative there, each run under 1 s")
def test_criterion_01(capsys):
    targets = {4: (0.4932, 0.493156880379), 5: (0.48, 0.479975652695)}
    for k, (cap, frozen) in targets.items():
        start = time.perf_counter()
        code = cli_main(["bound", "threshold", "--k", str(k)])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        alpha = float(re.search(r"alpha: ([0-9.]+)", out).group(1))
        reported_theta = float(re.search(r"theta: (\S+)", out).group(1))
        assert alpha <= cap
        assert abs(alpha - frozen) <= 5e-4
        assert reported_theta < 0
        full = alpha_threshold(k)
        assert theta(full.alpha, k).value < 0
        assert abs(full.alpha - alpha) < 1e-9
        assert elapsed < 1.0, f"k={k} took {elapsed:.2f}s"


@criterion(2, "min-max constant equals (4 - sqrt(11))/2 to 1e-9 and"
              " exceeds 1.02/3")
def test_criterion_02():
    target = (4.0 - math.sqrt(11.0)) / 2.0
    mm = minmax_constant()
    assert abs(mm.value - target) <= 1e-9
    assert mm.value > 1.02 / 3.0
    assert target > 1.02 / 3.0


@criterion(3, "quadratic family: pairwise LCS <= 4p - 2 for"
              " p in {2, 3, 5, 7, 11}, exhaustively, p = 11 under 60 s")
def test_criterion_03():
    for p in (2, 3, 5, 7, 11):
        start = time.perf_counter()
        out = quadratic_family(p)
        report = check_family(out)
        elapsed = time.perf_counter() - start
        assert len(report) == p * (p - 1) // 2
        for ceiling, value, ok in report:
            assert ceiling.bound == 4 * p - 2
            assert ok, (p, ceiling.indices, value)
        if p == 11:
            assert elapsed < 60.0, f"p=11 took {elapsed:.1f}s"


@criterion(4, "cube quadruple: all six pairwise LCS <= n with equality"
              " witnessed, n in 1..4")
def test_criterion_04():
    for n in range(1, 5):
        out = cube_quadruple(n)
        report = check_family(out)
        assert len(report) == 6
        values = [value for _, value, ok in report if ok]
        assert len(values) == 6, f"n={n} has a violated ceiling"
        assert max(values) == n, f"n={n}: no pair attains the bound"


GRID_AUTO = {
    (1, 4): (3, 2, 2), (1, 9): (4, 3, 3), (1, 16): (5, 4, 4),
    (2, 4): (2, 2, 4), (2, 9): (3, 3, 6), (2, 16): (3, 6, 7),
    (3, 4): (2, 2, 6), (3, 9): (2, 5, 7), (3, 16): (3, 6, 9),
}


@criterion(5, "grid pair: sqrt(n) <= reversible LCS <= sqrt(n) + s for"
              " s in {1, 2, 3} x k in {4, 9, 16}")
def test_criterion_05():
    for (s, k), frozen in GRID_AUTO.items():
        out = grid_pair(k=k, s=s)
        first, second = out.words
        n = len(first)
        value = lcs_reversible(first, second).length
        assert (out.params["k1"], out.params["k2"], value) == frozen
        assert value >= math.sqrt(n) - 1e-9, (s, k, value, n)
        assert value <= math.sqrt(n) + s + 1e-9, (s, k, value, n)


@criterion(6, "multipermutation quadruple: all six pairwise LCS values"
              " equal their closed forms on the small parameter grid")
def test_criterion_06():
    dims_grid = [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2),
                 (2, 2, 1), (2, 1, 2), (1, 2, 2), (2, 2, 2)]
    for s in (1, 2, 3):
        for dims in dims_grid:
            out = multiperm_quadruple(s, *dims)
            for ceiling, value, ok in check_family(out):
                assert ok and value == ceiling.bound, \
                    (s, dims, ceiling.indices, value, ceiling.bound)


@criterion(7, "exact twins equal the oracle on all binary words with"
              " n <= 12 and on 1000 random ternary words with n <= 10")
def test_criterion_07():
    for n in range(1, 13):
        for letters in itertools.product((1, 2), repeat=n):
            word = Word(letters, 2)
            assert lt_exact(word).length == lt_oracle(word), letters
    for i in range(1000):
        rng = substream(77, i)
        n = 1 + int(rng.integers(10))
        word = sample_word(3, n, 77, index=1000 + i)
        assert lt_exact(word).length == lt_oracle(word), word.to_text()


@criterion(8, "reference word 0110010010101101 has twin length exactly 7"
              " by both routes")
def test_criterion_08():
    word = parse_word("0110010010101101")
    exact = lt_exact(word)
    assert exact.length >= 7
    assert exact.length == 7
    assert lt_oracle(word, max_length=16) == 7
    assert roles_to_text(exact.roles) == "0120111211221222"


@criterion(9, "role-word count matches enumeration for n <= 12, binomial"
              " identity for m <= 8, reference probability is 2^-9")
def test_criterion_09():
    for n in range(1, 13):
        census = role_census(n)
        for m in range(n // 2 + 1):
            for p in range(m + 1):
                for z in range(n + 1):
                    expected = sum(count for (cm, cp, lead), count
                                   in census.items()
                                   if cm == m and cp == p and lead >= z)
                    assert role_count(n, m, p, z) == expected, (n, m, p, z)
    for m in range(9):
        total = sum(role_count(2 * m, m, p, 0) for p in range(m + 1))
        assert total == math.comb(2 * m, m), m
    reference = role_prob(2, 12, 4, 2, 1)
    assert reference == Fraction(1, 2 ** 9)
    roles = parse_roles("012112021200")
    hits = sum(1 for letters in itertools.product((1, 2), repeat=12)
               if is_twin_roles(Word(letters, 2), roles)
               and is_regular_pair(Word(letters, 2), roles))
    assert Fraction(hits, 2 ** 12) == reference


@criterion(10, "union bound dominates the exact twin-length tail on"
               " binary words of length 12 for every m")
def test_criterion_10():
    dist = Counter()
    for letters in itertools.product((1, 2), repeat=12):
        dist[lt_exact(Word(letters, 2)).length] += 1
    assert dist == {4: 46, 5: 2782, 6: 1268}
    for m in range(7):
        tail = Fraction(sum(count for length, count in dist.items()
                            if length >= m), 2 ** 12)
        assert union_bound(2, 12, m) >= tail, (m, tail)


@criterion(11, "regularization is canonical on 10^4 random monotone"
               " certificates: regular, monotone, length-preserving,"
               " lexicographic minimum")
def test_criterion_11():
    params = substream(SEED_CERTS, 0)
    draws = [(2 + int(params.integers(0, 2)), 4 + int(params.integers(0, 11)))
             for _ in range(10_000)]
    oracle_checked = 0
    for i, (k, n) in enumerate(draws):
        word = sample_word(k, n, SEED_CERTS, index=i + 1)
        cert = random_monotone_certificate(
            word, substream(SEED_CERTS, 10 ** 6 + i))
        reg = regularize(cert)
        assert reg.is_monotone
        assert reg.length == cert.length
        assert is_regular_pair(word, reg.roles)
        assert reg.roles <= cert.roles
        if n <= 8:
            assert reg.roles == lexmin_monotone_roles(word.letters,
                                                      cert.length), i
            oracle_checked += 1
    assert oracle_checked > 4000


@criterion(12, "block twins are valid with the per-block floor met on"
               " >= 99% of 1000 instances; run floor holds on all")
def test_criterion_12():
    params = substream(SEED_BLOCKS, 0)
    draws = [(2 + int(params.integers(0, 15)), 1 + int(params.integers(0, 3)))
             for _ in range(1000)]
    misses = []
    for i, (k, blocks) in enumerate(draws):
        n = 3 * k * blocks
        word = sample_word(k, n, SEED_BLOCKS, index=i + 1)
        res = twins_via_blocks(word)
        assert res.certificate.is_monotone
        assert res.certificate.length == sum(res.block_values), i
        runs = twins_via_runs(word)
        assert runs.length >= (n - run_count(word)) / 2, i
        if not res.floor_met:
            misses.append((i, k, blocks, res.block_values))
    for i, k, blocks, values in misses:
        print(f"finding: instance {i} (k={k}, {blocks} blocks) has block"
              f" values {values} below the floor {(k / 3) ** (1 / 3):.3f}")
    assert misses == [(207, 5, 2, (1, 3)), (842, 4, 3, (2, 2, 1)),
                      (997, 4, 3, (1, 1, 2))]
    assert len(misses) <= 10


@criterion(13, "monotone image >= ceil(s^2/6) on 1000 random strongly"
               " monotone triples per s <= 6; sharp tables give exactly s^2")
def test_criterion_13():
    for s in range(1, 7):
        rng = substream(SEED_IMAGE, s)
        for trial in range(1000):
            tables = [random_strongly_monotone(s, rng) for _ in range(3)]
            res = monotone_image(*tables, s)
            assert res.size >= -(-s * s // 6), (s, trial, res.size)
            assert res.meets_floor
        sharp = monotone_image(*sharp_image_tables(s), s)
        assert sharp.size == s * s, (s, sharp.size)


@criterion(14, "tuplet family: every pair of the four words has joint"
               " LCS <= kappa; any 3 permutations of [k] contain a pair"
               " with LCS >= k^(1/3), k <= 6")
def test_criterion_14():
    for kappa in (2, 3):
        out = tuplet_family(2, kappa)
        report = check_family(out)
        assert len(report) == 6
        for ceiling, value, ok in report:
            assert ceiling.bound == kappa
            assert ok, (kappa, ceiling.indices, value)
    for k in range(3, 7):
        table = pairwise_lcs_table(k)
        size = table.shape[0]
        floor = k ** (1.0 / 3.0)
        rng = substream(SEED_SUBSETS, k)
        for trial in range(300):
            a, b, c = (int(x) for x in rng.choice(size, size=3,
                                                  replace=False))
            best = max(table[a][b], table[a][c], table[b][c])
            assert best >= floor, (k, trial, (a, b, c), best)


@criterion(15, "stratified family: LCS(w_m1, w_m2) <= (1/k + m1/m2) n"
               " across the k in {2, 3}, n <= 48 grid")
def test_criterion_15():
    configs = [
        (2, 12, (1, 2, 3)),
        (2, 24, (1, 2, 3, 4, 6)),
        (2, 48, (1, 2, 3, 4, 6, 8, 12)),
        (3, 18, (1, 2, 3)),
        (3, 24, (1, 2, 4)),
        (3, 48, (1, 2, 4, 8)),
    ]
    for k, n, ms in configs:
        out = stratified_family(k, n, ms)
        for ceiling, value, ok in check_family(out):
            assert ok, (k, n, ceiling.indices, value, ceiling.bound)


@criterion(16, "expected-LCS minimization returns 1.5 for k = 2 and stays"
               " at or above sqrt(3) for k = 3 over 100 starts")
def test_criterion_16():
    res2 = minimize_expected_lcs(2)
    assert abs(res2.value - 1.5) <= 1e-9
    res3 = minimize_expected_lcs(3, starts=100)
    assert res3.starts == 100
    if res3.below_conjectured_floor:
        pytest.fail(
            f"sqrt(k) conjecture violated at k=3: expected LCS"
            f" {res3.value!r} from start {res3.best_start} with"
            f" distribution {res3.distribution.to_json()!r}")
    assert res3.value >= math.sqrt(3) - 1e-9
