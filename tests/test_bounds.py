"""Tail calculus: exponent density, thresholds, role counts, constants."""

import json
import math
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (monotonicity_violation, role_census,
                     scalar_strongly_monotone, tail_counts, theta_decimal)
from twinlcs import (
    BudgetError,
    alpha_threshold,
    asymptotic_threshold,
    lower_bound_values,
    minmax_constant,
    monotone_image,
    random_strongly_monotone,
    role_count,
    role_prob,
    sharp_image_tables,
    strong_monotonicity_violation,
    substream,
    theta,
    union_bound,
)
from twinlcs.errors import check_budget
from twinlcs.verify import _role_census

# frozen against the 60-digit Decimal evaluation in oracles.theta_decimal
THETA_TABLE = {
    (Fraction(1, 2), 2): +0.188226406459598,
    (Fraction(1, 2), 3): +0.047603546112479,
    (Fraction(1, 2), 4): -0.069336464195074,
    (Fraction(1, 2), 5): -0.165802437255290,
    (Fraction(9, 20), 4): +0.233911948370704,
    (Fraction(47, 100), 5): +0.057724618401779,
    (Fraction(49, 100), 5): -0.068910146256736,
    (Fraction(1, 4), 4): +0.514637912236518,
    (Fraction(1, 3), 3): +0.533094829667077,
    (Fraction(2, 5), 4): +0.387396837691773,
}


def test_theta_frozen_values():
    for (alpha, k), expected in THETA_TABLE.items():
        assert theta(float(alpha), k).value == pytest.approx(expected,
                                                             abs=1e-12)
from twinlcs.verify import _role_census


@given(st.integers(2, 12), st.fractions(0, 1))
def test_theta_matches_decimal_oracle(k, frac):
    alpha = Fraction(1, k) + frac * (Fraction(1, 2) - Fraction(1, k))
    got = theta(float(alpha), k).value
    want = float(theta_decimal(alpha, k))
    assert got == pytest.approx(want, abs=1e-10)


def test_theta_terms_sum_and_limits():
    b = theta(0.45, 4)
    assert b.value == pytest.approx(
        b.shape_term + b.match_term + b.switch_term + b.idle_term, abs=0)
    half = theta(0.5, 3)
    assert half.shape_term == 0  # x*log(1/x) -> 0
    assert half.idle_term == 0
    doc = b.to_json()
    assert {"alpha", "k", "value"} <= set(doc)


def test_theta_domain():
    for alpha, k in ((0.2, 4), (0.51, 4), (-0.1, 2), (0.3, 1)):
        with pytest.raises(ValueError):
            theta(alpha, k)
    assert theta(0.25, 4).alpha == 0.25  # left endpoint allowed
    assert theta(0.5, 2).alpha == 0.5


# -- threshold -----------------------------------------------------------------


def test_threshold_none_when_density_stays_positive():
    assert alpha_threshold(2) is None
    assert alpha_threshold(3) is None


THRESHOLDS = {4: 0.493156880379, 5: 0.479975652695,
              6: 0.467033044815, 10: 0.423904222488}


def test_threshold_frozen_values():
    for k, expected in THRESHOLDS.items():
        res = alpha_threshold(k)
        assert res.alpha == pytest.approx(expected, abs=1e-6)
        assert res.theta < 0
        assert abs(res.theta) < 1e-6


def test_threshold_is_rightmost_sign_change():
    for k in (4, 5, 7):
        res = alpha_threshold(k)
        lo, hi = res.bracket
        assert lo <= res.alpha <= hi
        assert hi - lo <= 1e-8
        assert theta(lo, k).value >= 0 > theta(hi, k).value
        # density stays negative from the threshold up to 1/2
        for frac in (0.25, 0.5, 0.75, 1.0):
            a = res.alpha + frac * (0.5 - res.alpha)
            assert theta(a, k).value < 0


# -- asymptotic forms ------------------------------------------------------------


def test_asymptotic_forms():
    e = math.e
    for k in (4, 16, 100, 4000):
        forms = asymptotic_threshold(k)
        assert forms.leading == pytest.approx(e / math.sqrt(k))
        assert forms.coarse == pytest.approx(e / math.sqrt(k) - e * e / k)
        assert forms.refined == pytest.approx(
            e / math.sqrt(k) - (e * e + 0.5) / k)
        assert forms.refined < forms.coarse < forms.leading


def test_threshold_approaches_refined_form():
    # the gap to the refined two-term form shrinks like k^(-3/2); the
    # measured constant sits near 19, so the coarse one-term-error form
    # is only an upper envelope for large k
    k = 4000
    alpha = alpha_threshold(k).alpha
    forms = asymptotic_threshold(k)
    ratio = (alpha - forms.refined) * k ** 1.5
    assert 15 < ratio < 25
    assert alpha < forms.coarse


def test_threshold_coarse_comparison_small_k():
    # below k ~ 1600 the true threshold exceeds even the coarse form
    assert alpha_threshold(30).alpha > asymptotic_threshold(30).coarse
    assert alpha_threshold(2000).alpha < asymptotic_threshold(2000).coarse


# -- role counting ----------------------------------------------------------------


def test_role_count_closed_form():
    assert role_count(12, 4, 2, 1) == math.comb(11, 8) * math.comb(4, 2) ** 2
    assert role_count(4, 1, 0, 0) == 6 * 1
    # out of range: zero by convention
    assert role_count(4, 3, 0, 0) == 0
    assert role_count(4, 1, 2, 0) == 0
    assert role_count(4, 1, 0, 5) == 0
    assert role_count(4, -1, 0, 0) == 0


def test_role_count_is_charged_by_the_size_of_its_count():
    # C(10^7, 2) has 46 bits however long the words; the count of the
    # class below has about 1.5 * 10^7 and would take minutes
    assert role_count(10**7, 1, 0, 0) == math.comb(10**7, 2)
    start = time.process_time()
    with pytest.raises(BudgetError, match="^role_count needs 25600000000 "):
        role_count(10**7, 3 * 10**6, 10**6, 0)
    assert time.process_time() - start < 0.1


@pytest.mark.parametrize("n", [4, 6, 8])
def test_role_count_matches_census(n):
    census = role_census(n)
    for m in range(0, n // 2 + 1):
        for p in range(0, m + 1):
            for z in range(0, n + 1):
                expected = sum(v for (mm, pp, zz), v in census.items()
                               if mm == m and pp == p and zz >= z)
                assert role_count(n, m, p, z) == expected, (n, m, p, z)


def test_role_count_binomial_identity():
    for m in range(0, 9):
        total = sum(role_count(2 * m, m, p, 0) for p in range(m + 1))
        assert total == math.comb(2 * m, m)


@pytest.mark.parametrize("n", range(9))
def test_verify_census_lists_each_balanced_role_word_once(n):
    assert _role_census(n) == role_census(n)
    assert sum(_role_census(n).values()) == sum(
        math.comb(n, 2 * m) * math.comb(2 * m, m) for m in range(n // 2 + 1))


def test_role_prob():
    assert role_prob(2, 12, 4, 2, 1) == Fraction(1, 512)
    assert role_prob(3, 6, 2, 1, 0) == \
        Fraction(1, 3) ** 2 * Fraction(2, 3) ** 3
    assert role_prob(2, 4, 2, 0, 0) == Fraction(1, 4)
    # k = 1 degenerates: pairs always match, any free position is impossible
    assert role_prob(1, 4, 2, 0, 0) == 1
    assert role_prob(1, 4, 1, 0, 0) == 0
    for bad in ((0, 12, 4, 2, 1), (2, 12, 7, 0, 0), (2, 12, 4, 5, 1),
                (2, 12, 4, 2, 5), (2, 12, -1, 0, 0)):
        with pytest.raises(ValueError):
            role_prob(*bad)


def test_role_prob_matches_direct_enumeration():
    # probability that a fixed role word is a valid regular certificate
    # for a uniform binary word
    import itertools
    from twinlcs import Word, is_regular_pair, is_twin_roles
    roles = (0, 1, 2, 1, 1, 2, 0, 2, 1, 2, 0, 0)
    hits = sum(1 for ls in itertools.product((1, 2), repeat=12)
               if is_twin_roles(Word(ls, 2), roles)
               and is_regular_pair(Word(ls, 2), roles))
    assert hits == 8
    assert Fraction(hits, 2 ** 12) == role_prob(2, 12, 4, 2, 1)


# -- union bound -------------------------------------------------------------------


def test_union_bound_frozen():
    assert union_bound(2, 12, 6) == Fraction(8989, 4096)
    assert union_bound(2, 12, 5) == Fraction(38709, 1024)
    assert union_bound(2, 12, 7) == 0
    # length 2, one pair: role words 12 (no switch) and 21 (one switch)
    assert union_bound(2, 2, 1) == Fraction(1, 2) + Fraction(1, 4)


@pytest.mark.parametrize("k, n, pairs", [(0, 1, 1), (-3, 2, 2), (0, 4, 1)])
def test_union_bound_rejects_bad_alphabet_before_empty_cases(k, n, pairs):
    # an empty tail (2 * pairs > n) must not hide a bad alphabet
    with pytest.raises(ValueError, match="alphabet size must be >= 1"):
        union_bound(k, n, pairs)


def test_union_bound_dominates_exhaustive_tail():
    counts = tail_counts(2, 8)
    total = 2 ** 8
    for m in range(0, 5):
        tail = Fraction(sum(v for lt, v in counts.items() if lt >= m), total)
        assert union_bound(2, 8, m) >= tail, m


@pytest.mark.parametrize("call, what", [
    (lambda: union_bound(2, 10**17, 3), "union_bound"),
    (lambda: union_bound(10**30, 2000, 10), "union_bound"),  # 103 s
    (lambda: role_prob(2, 10**18, 1, 0, 0), "role_prob"),
    (lambda: role_prob(3, 10**8, 1, 0, 0), "role_prob"),  # 92 s
])
def test_exact_rationals_are_charged_before_they_are_formed(call, what):
    start = time.process_time()
    with pytest.raises(BudgetError, match=f"^{what} needs .* cells"):
        call()
    assert time.process_time() - start < 0.1


@pytest.mark.parametrize("needed, text", [
    pytest.param(10**3900, str(10**3900), id="12956-bits-in-full"),
    pytest.param(10**5000 - 1, "about 10^5000", id="below-10^5000"),
    pytest.param(10**5000, "about 10^5000", id="10^5000"),
    pytest.param(2**13001, "about 10^3914", id="2^13001"),
])
def test_budget_message_writes_a_huge_count_by_its_size(needed, text):
    with pytest.raises(BudgetError) as info:
        check_budget(needed, 1, "work")
    assert str(info.value) == (f"work needs {text} alignment cells, over the "
                               "budget of 1")


# -- constants ---------------------------------------------------------------------


def test_minmax_constant():
    res = minmax_constant()
    exact = (4 - math.sqrt(11)) / 2
    assert res.value == pytest.approx(exact, abs=1e-11)
    assert res.x == pytest.approx(math.sqrt(11) - 3, abs=1e-6)
    assert res.exact_value == pytest.approx(exact, abs=0)
    # the two curves cross at the optimum
    x = res.x
    assert 1 / 3 + x * x / 12 == pytest.approx(1 / 2 - x / 2, abs=1e-6)


def test_minmax_constant_within_two_ulps_of_the_crossing():
    # the bisection stops at adjacent floats around sqrt(11) - 3
    root = Decimal(11).sqrt()
    res = minmax_constant()
    for got, exact in ((res.x, root - 3), (res.value, (4 - root) / 2)):
        assert abs(Decimal(got) - exact) <= 2 * Decimal(math.ulp(got))


@pytest.mark.parametrize("k", [2, 3, 7])
def test_lower_bound_json_keeps_exact_rationals(k):
    vals = lower_bound_values(k)
    doc = vals.to_json()
    assert Fraction(doc["per_letter"]) == vals.per_letter == Fraction(1, k)
    if k == 2:
        assert doc["improved"] is vals.improved is None
    else:
        assert Fraction(doc["improved"]) == vals.improved
    # the min-max constant refines the bound at k = 3 only
    if k == 3:
        assert doc["minmax"] == minmax_constant().to_json()
    else:
        assert doc["minmax"] is vals.minmax is None
    json.dumps(doc)


def test_lower_bound_values():
    vals = lower_bound_values(3)
    assert vals.per_letter == Fraction(1, 3)
    assert vals.improved == Fraction(17, 50)
    assert vals.minmax.value == pytest.approx((4 - math.sqrt(11)) / 2,
                                              abs=1e-9)
    assert vals.linear_slope == pytest.approx(3 ** (-4 / 3) * 3 ** (-2 / 3))
    assert vals.linear_offset == pytest.approx(1.0)
    assert vals.improved > Fraction(1, 3)
    assert vals.minmax.value > vals.improved
    vals2 = lower_bound_values(2)
    assert vals2.improved is None
    vals8 = lower_bound_values(8)
    assert vals8.per_letter == Fraction(1, 8)
    assert vals8.improved == Fraction(102, 800)
    with pytest.raises(ValueError):
        lower_bound_values(1)


# -- monotone images -----------------------------------------------------------------


def test_sharp_tables_hit_square():
    for s in range(1, 7):
        tables = sharp_image_tables(s)
        res = monotone_image(*tables, s)
        assert res.size == s * s
        assert res.floor == -(-s * s // 6)
        assert res.meets_floor
    assert monotone_image(*sharp_image_tables(4), 4).to_json() == {
        "s": 4, "size": 16, "floor": 3, "meets_floor": True}


def test_monotone_image_rejects_violations():
    flat = [[1, 1], [1, 1]]  # not strictly increasing on the diagonal
    assert strong_monotonicity_violation(flat, 2) is not None
    good = [[1, 2], [2, 3]]
    assert strong_monotonicity_violation(good, 2) is None
    with pytest.raises(ValueError) as err:
        monotone_image(flat, good, good, 2)
    assert "f1" in str(err.value)
    decreasing = [[2, 1], [3, 4]]
    assert strong_monotonicity_violation(decreasing, 2) is not None


def test_violation_cells_match_oracle():
    rng = substream(54, 0)
    found = 0
    for _ in range(500):
        s = int(rng.integers(1, 6))
        table = rng.integers(0, 2 * s, size=(s, s)).tolist()
        expected = monotonicity_violation(table)
        assert strong_monotonicity_violation(table, s) == expected, table
        found += expected is not None
    assert 0 < found < 500
    with pytest.raises(ValueError, match="^table must be 2x2$"):
        strong_monotonicity_violation([[1, 2], [3]], 2)


def test_batched_increments_equal_scalar_draws():
    # criteria 12-13 and `verify lemmas` read their tables from this
    # stream: one draw of s^2 increments must take it exactly as s^2
    # scalar draws did, leaving the generator at the same place
    for index in range(60):
        for s in range(1, 7):
            batched, scalar = substream(55, index), substream(55, index)
            assert (random_strongly_monotone(s, batched)
                    == scalar_strongly_monotone(s, scalar)), (index, s)
            # Philox's state holds arrays, so compare it as text
            assert (repr(batched.bit_generator.state)
                    == repr(scalar.bit_generator.state))
            assert batched.integers(0, 4) == scalar.integers(0, 4)


def test_monotone_image_budget():
    # s^3 triples: 465^3 is just over the budget of 10^8, and the charge
    # comes before any table is read
    with pytest.raises(BudgetError, match="^monotone_image needs 100544625 "
                                          "triples, over the budget of "
                                          "100000000$"):
        monotone_image([], [], [], 465)


def test_random_tables_meet_floor():
    rng = substream(53, 0)
    for s in range(1, 7):
        for _ in range(50):
            tables = [random_strongly_monotone(s, rng) for _ in range(3)]
            res = monotone_image(*tables, s)
            assert res.size >= -(-s * s // 6)
            # oracle recount: the maps see the cube through its three
            # coordinate-pair projections
            triples = {(tables[0][x - 1][y - 1], tables[1][x - 1][z - 1],
                        tables[2][y - 1][z - 1])
                       for x in range(1, s + 1)
                       for y in range(1, s + 1)
                       for z in range(1, s + 1)}
            assert res.size == len(triples)
