"""Low-LCS families: verified ceilings, frozen values, input validation."""

import hashlib
import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import brute_lcs, brute_lcs_multi, key_sorted_letters
from twinlcs import (
    BudgetError,
    Ceiling,
    FAMILY_BUILDERS,
    FamilyOutput,
    Word,
    check_family,
    cube_quadruple,
    grid_pair,
    lcs_len,
    lcs_multi,
    lcs_pair,
    lcs_reversible,
    multiperm_quadruple,
    quadratic_family,
    stratified_family,
    tuplet_family,
)
from twinlcs import constructions, lcs
from twinlcs.constructions import _is_prime, _sorted_word


def assert_all_hold(out, **kwargs):
    report = check_family(out, **kwargs)
    bad = [(c.indices, c.mode, value, c.bound)
           for c, value, ok in report if not ok]
    assert not bad, bad
    return report


def test_primes():
    assert [p for p in range(2, 30) if _is_prime(p)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not _is_prime(1) and not _is_prime(0) and not _is_prime(-7)


# -- quadratic -----------------------------------------------------------------


def test_quadratic_small():
    out = quadratic_family(2)
    assert len(out.words) == 2
    assert all(sorted(w) == list(range(1, w.k + 1)) for w in out.words)
    assert len(out.words[0]) == 8
    report = assert_all_hold(out)
    # independent recomputation of the single ceiling
    (ceiling, value, _), = report
    assert value == brute_lcs(out.words[0].letters, out.words[1].letters)
    assert ceiling.bound == 6


def test_quadratic_p3():
    out = quadratic_family(3)
    assert len(out.words) == 3
    assert len(out.words[0]) == 27
    report = assert_all_hold(out)
    for c, value, _ in report:
        assert value == brute_lcs(out.words[c.indices[0]].letters,
                                  out.words[c.indices[1]].letters)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_quadratic_largest_pair_lcs_is_3p_minus_1(p):
    """Measured data for p in {5, 7, 11, 13}, not a theorem: the largest
    pairwise LCS is exactly 3p - 1, below the 4p - 2 ceiling."""
    values = [value for _, value, _ in check_family(quadratic_family(p))]
    assert max(values) == 3 * p - 1 < 4 * p - 2


def test_quadratic_restricted():
    out = quadratic_family(3, k=10)
    assert all(len(w) == 10 for w in out.words)
    assert all(w.k == 10 for w in out.words)
    assert_all_hold(out)


def test_quadratic_validation():
    with pytest.raises(ValueError):
        quadratic_family(4)
    with pytest.raises(ValueError):
        quadratic_family(3, k=28)


# -- cube ----------------------------------------------------------------------


def test_cube_bounds_and_equality():
    for n in (1, 2, 3):
        out = cube_quadruple(n)
        assert len(out.words) == 4
        assert all(len(w) == n ** 3 for w in out.words)
        report = assert_all_hold(out)
        assert any(value == n for _, value, _ in report)
        if n <= 2:
            for c, value, _ in report:
                assert value == brute_lcs(out.words[c.indices[0]].letters,
                                          out.words[c.indices[1]].letters)
    with pytest.raises(ValueError):
        cube_quadruple(0)


# -- grid ----------------------------------------------------------------------

GRID_AUTO = {
    # (s, k): (k1, k2, LCSr)
    (1, 4): (3, 2, 2),
    (1, 9): (4, 3, 3),
    (1, 16): (5, 4, 4),
    (2, 4): (2, 2, 4),
    (2, 9): (3, 3, 6),
    (2, 16): (3, 6, 7),
    (3, 4): (2, 2, 6),
    (3, 9): (2, 5, 7),
    (3, 16): (3, 6, 9),
}


def test_grid_auto_frozen_table():
    for (s, k), (k1, k2, lcsr) in GRID_AUTO.items():
        out = grid_pair(k=k, s=s)
        assert out.params["k1"] == k1
        assert out.params["k2"] == k2
        assert out.params["auto"]
        assert all(len(w) == k * s for w in out.words)
        assert all(sorted(w) == sorted(list(range(1, w.k + 1)) * s)
                   for w in out.words)
        assert lcs_reversible(*out.words).length == lcsr
        assert_all_hold(out)


def test_grid_explicit():
    out = grid_pair(s=2, k1=2, k2=3)
    assert out.params["k"] == 6
    assert not out.params["auto"]
    report = assert_all_hold(out)
    modes = {c.mode: (value, c.bound) for c, value, _ in report}
    assert modes["lcs"][1] == 2 * 2       # k1 * s
    assert modes["rev"][1] == 3 + 2 - 1   # k2 + s - 1


def test_grid_validation():
    with pytest.raises(ValueError):
        grid_pair(k=0)
    with pytest.raises(ValueError):
        grid_pair(s=0, k=4)
    with pytest.raises(ValueError):
        grid_pair(k1=2)  # k2 missing
    with pytest.raises(ValueError, match="give k, or k1 and k2, not both"):
        grid_pair(5, 1, k1=3, k2=3)  # k would be silently 9


# -- multiperm -------------------------------------------------------------------


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("dims", [(2, 1, 2), (2, 2, 2), (3, 2, 2),
                                  (2, 2, 3), (2, 2, 1)])
def test_multiperm_attains_closed_forms(s, dims):
    out = multiperm_quadruple(s, *dims)
    assert len(out.words) == 4
    report = check_family(out)
    for c, value, ok in report:
        assert ok
        assert value == c.bound, (c.indices, value, c.bound)


def test_multiperm_degenerate_pair_bound():
    # with k3 = 1 words 1 and 3 sort fixed-x blocks identically
    out = multiperm_quadruple(2, 2, 3, 1)
    bounds = {c.indices: c.bound for c in out.ceilings}
    assert bounds[(1, 3)] == 3 * 2       # k2 * s
    assert bounds[(0, 1)] == 2           # k3 + s - 1
    out = multiperm_quadruple(2, 2, 3, 2)
    bounds = {c.indices: c.bound for c in out.ceilings}
    assert bounds[(1, 3)] == 3 * 3       # k2 * (2s - 1)


def test_multiperm_auto():
    out = multiperm_quadruple(3, k=36)
    assert all(len(w) == 36 * 3 for w in out.words)
    assert out.params["auto"]
    assert_all_hold(out)


def test_multiperm_validation():
    with pytest.raises(ValueError):
        multiperm_quadruple(0, 1, 1, 1)
    with pytest.raises(ValueError,
                       match="give k, or k1, k2 and k3, not both"):
        multiperm_quadruple(1, 2, 2, 2, k=3)  # k would be silently 8
    with pytest.raises(ValueError):
        multiperm_quadruple(1, 2, None, 2)
    with pytest.raises(ValueError):
        multiperm_quadruple(1)  # neither dims nor k


# -- tuplet ----------------------------------------------------------------------


@pytest.mark.parametrize("kappa", [2, 3])
def test_tuplet_t2(kappa):
    out = tuplet_family(2, kappa)
    assert len(out.words) == 4
    assert len(out.words[0]) == kappa ** 3
    report = assert_all_hold(out)
    assert len(report) == 6
    for c, value, _ in report:
        assert c.mode == "set"
        assert value == brute_lcs_multi(
            [out.words[i].letters for i in c.indices])
        assert value <= kappa


def test_tuplet_t3_full_alphabet():
    # 1024-letter permutations: each triple is a 1024-point chain, where
    # the dense table would need 1025^3 cells
    out = tuplet_family(3, 2)
    report = check_family(out)
    assert len(report) == 20
    assert all(c.mode == "set" and value <= 2 for c, value, _ in report)


def test_tuplet_joint_ceilings_are_charged_together(monkeypatch):
    # each of the 20 triples of 1024-letter permutations is a chain of
    # 1024^2 steps, and one call charges all of them before any is computed
    computed = []
    for name in ("_chain_length", "_suffix_table"):
        route = getattr(lcs, name)
        monkeypatch.setattr(lcs, name, lambda *args, route=route: (
            computed.append(args) or route(*args)))
    out = tuplet_family(3, 2)
    with pytest.raises(BudgetError, match="^joint LCS of three or more words "
                                          "needs 20971520 cells and chain "
                                          "steps, over the budget of "
                                          "20971519; raise budget_cells$"):
        check_family(out, budget_cells=20_971_519)
    assert computed == []
    report = assert_all_hold(out, budget_cells=20_971_520)
    assert len(computed) == 20 and max(v for _, v, _ in report) == 2


def test_tuplet_budget_and_validation():
    with pytest.raises(BudgetError):
        tuplet_family(3, 4)  # 4^C(5,3) letters exceed the default cap
    # 2^35 letters per word: refused before any power that large is formed
    with pytest.raises(BudgetError, match="letters, over the cap"):
        tuplet_family(4, 2)
    # one letter per word, but C(39, 20) key coordinates for it
    with pytest.raises(BudgetError, match="needs 68923264410 key entries"):
        tuplet_family(20, 1)
    with pytest.raises(ValueError):
        tuplet_family(1, 2)
    with pytest.raises(ValueError):
        tuplet_family(2, 0)


@pytest.mark.parametrize("kappa", [1, 2])
def test_tuplet_refuses_a_huge_order_before_counting(kappa):
    # C(2t-1, t) at t = 10^6 takes about 30 s and has 301,029 digits
    start = time.process_time()
    with pytest.raises(BudgetError) as exc:
        tuplet_family(10**6, kappa)
    assert time.process_time() - start < 0.1
    assert str(exc.value) == ("family needs at least 2^999999 key entries "
                              "per word, over the cap 4000000")


def test_tuplet_with_unit_range_builds_past_64_coordinates():
    # C(9, 5) = 126 coordinates, more axes than np.indices allows
    out = tuplet_family(5, 1)
    assert [w.letters for w in out.words] == [(1,)] * 10
    report = assert_all_hold(out)
    assert len(report) == math.comb(10, 5)
    assert {value for _, value, _ in report} == {1}


# -- size cap --------------------------------------------------------------------


@pytest.mark.parametrize("build, args, kwargs", [
    (quadratic_family, (3,), {}),
    (cube_quadruple, (2,), {}),
    (grid_pair, (), dict(s=2, k1=2, k2=3)),
    (grid_pair, (9, 2), {}),
    (multiperm_quadruple, (2, 2, 1, 2), {}),
    (multiperm_quadruple, (1,), dict(k=4)),
    (tuplet_family, (2, 2), {}),
    (stratified_family, (2, 8, (1, 4)), {}),
    (stratified_family, (3, 18, (1, 3, 6)), {}),
])
def test_letter_cap_counts_every_letter(monkeypatch, build, args, kwargs):
    # families whose words are not trimmed, so the words hold every letter
    letters = sum(map(len, build(*args, **kwargs).words))
    monkeypatch.setattr(constructions, "_MAX_LETTERS", letters)
    build(*args, **kwargs)
    monkeypatch.setattr(constructions, "_MAX_LETTERS", letters - 1)
    with pytest.raises(BudgetError, match=f"needs {letters} letters"):
        build(*args, **kwargs)


# -- stratified ------------------------------------------------------------------


def test_stratified_shapes():
    out = stratified_family(2, 8, (1, 4))
    texts = [w.to_compact() for w in out.words]
    # w_1, w_4, two constants, then the reversed staircase; the ascending
    # staircase is w_4 itself
    assert texts == ["12121212", "11112222", "11111111", "22222222",
                     "22221111"]
    assert_all_hold(out)


def test_stratified_bounds_formula():
    n, k = 24, 2
    ms = (1, 2, 3, 4)
    out = stratified_family(k, n, ms)
    assert_all_hold(out)
    # periodic-vs-periodic ceilings carry exactly (1/k + m1/m2) * n
    for (i1, m1), (i2, m2) in itertools.combinations(enumerate(ms), 2):
        expected = (Fraction(1, k) + Fraction(m1, m2)) * n
        matching = [c for c in out.ceilings if c.indices == (i1, i2)]
        assert matching and matching[0].bound == expected
        value = lcs_pair(out.words[i1], out.words[i2], witness=False).length
        assert value <= expected


def test_stratified_staircase_dedup():
    # step = n/k present in ms: the ascending staircase is reused
    out = stratified_family(2, 8, (1, 4))
    assert len(out.words) == 5
    # step missing from ms: staircase appended
    out = stratified_family(2, 8, (1, 2))
    assert len(out.words) == 6
    assert out.words[4].to_compact() == "11112222"


def test_stratified_validation():
    with pytest.raises(ValueError):
        stratified_family(2, 8, (3,))  # 3*2 does not divide 8
    with pytest.raises(ValueError):
        stratified_family(2, 8, ())
    with pytest.raises(ValueError):
        stratified_family(0, 8, (1,))


# -- generic plumbing --------------------------------------------------------------


def test_family_registry():
    assert set(FAMILY_BUILDERS) == {"quadratic", "cube", "grid", "multiperm",
                                    "tuplet", "stratified"}


def test_family_output_json():
    out = grid_pair(s=1, k1=2, k2=2)
    doc = out.to_json()
    assert doc["family"] == "grid"
    assert doc["params"]["k1"] == 2
    assert len(doc["words"]) == 2
    assert all({"indices", "mode", "bound"} <= set(c) for c in doc["ceilings"])


def test_stratified_ceiling_bounds_are_ints():
    # mk | n for every m makes each bound whole: (1/k + m1/m2) n between
    # periodic words, n/k against a constant word, 0 between constants
    k, n = 3, 18
    out = stratified_family(k, n, (1, 3, 6))
    allowed = {Fraction(1, k) * n + Fraction(m1, m2) * n
               for m1, m2 in itertools.combinations((1, 3, 6), 2)}
    allowed |= {Fraction(n, k), 0}
    for ceiling, doc in zip(out.ceilings, out.to_json()["ceilings"]):
        assert type(ceiling.bound) is int and ceiling.bound in allowed
        assert doc["bound"] == ceiling.bound


def test_unknown_ceiling_mode_is_rejected_when_checked():
    # a ceiling is a plain record; the mode is decided where it is computed
    out = grid_pair(s=1, k1=2, k2=2)
    bad = Ceiling((0, 1), "max", 2)
    with pytest.raises(ValueError, match="unknown ceiling mode 'max'"):
        check_family(FamilyOutput(out.family, out.params, out.words,
                                  out.ceilings + (bad,)))


# one small instance of each family; all but tuplet and stratified reach
# the match-point chain, and grid has a "rev" ceiling
CHECK_CASES = {
    "quadratic": lambda: quadratic_family(7),
    "cube": lambda: cube_quadruple(5),
    "grid": lambda: grid_pair(300, 2),
    "multiperm": lambda: multiperm_quadruple(2, k=300),
    "tuplet": lambda: tuplet_family(2, 2),
    "stratified": lambda: stratified_family(3, 18, (1, 3, 6)),
}


def test_check_cases_cover_every_family():
    assert set(CHECK_CASES) == set(FAMILY_BUILDERS)


@pytest.mark.parametrize("name", sorted(CHECK_CASES))
def test_check_family_equals_each_ceiling_alone(name):
    out = CHECK_CASES[name]()
    report = check_family(out)
    assert [c for c, _, _ in report] == list(out.ceilings)
    for ceiling, value, ok in report:
        words = [out.words[i] for i in ceiling.indices]
        if ceiling.mode == "lcs":
            alone = lcs_len(*words)
        elif ceiling.mode == "rev":
            alone = lcs_len(words[0], words[1].reversed())
        else:
            alone = lcs_multi(words, witness=False).length
        assert value == alone and ok == (value <= ceiling.bound), ceiling


def test_check_family_reverses_each_partner_once(monkeypatch):
    # two "rev" ceilings against word 1 and one against word 0
    out = grid_pair(300, 2)
    out = FamilyOutput(out.family, out.params, out.words,
                       out.ceilings + (Ceiling((1, 1), "rev", 600),
                                       Ceiling((1, 0), "rev", 600)))
    reversals = []
    reversed_word = Word.reversed

    def spy(word):
        reversals.append(word)
        return reversed_word(word)

    monkeypatch.setattr(Word, "reversed", spy)
    values = [value for _, value, _ in check_family(out)]
    assert reversals == [out.words[1], out.words[0]]
    monkeypatch.undo()
    a, b = out.words
    assert values == [lcs_len(a, b), lcs_len(a, b.reversed()),
                      lcs_len(b, b.reversed()), lcs_len(b, a.reversed())]


@pytest.mark.parametrize("t, kappa, k", [(2, 2, 4), (2, 3, 13), (3, 2, 40)])
def test_tuplet_k_never_increases_value(t, kappa, k):
    full = tuplet_family(t, kappa)
    out = tuplet_family(t, kappa, k)
    assert out.params == {"t": t, "kappa": kappa, "k": k}
    assert out.ceilings == full.ceilings
    first_k = [w.restrict(range(1, k + 1)) for w in full.words]
    assert [w.letters for w in out.words] == [w.letters for w in first_k]
    assert all(w.k == k for w in out.words)
    for (c, v_full, _), (_, v_restr, ok) in zip(check_family(full),
                                                check_family(out)):
        assert ok and v_restr <= v_full
        assert v_restr == lcs_multi([first_k[i] for i in c.indices],
                                    witness=False).length


def test_tuplet_k_outside_its_letters_rejected():
    # k = 0 would delete every letter and certify nothing
    for k in (0, -3, 1025):
        with pytest.raises(ValueError, match=rf"\[1, 1024\], got {k}$"):
            tuplet_family(3, 2, k)


def test_param_lookup():
    out = grid_pair(4, 1)
    assert list(out.params) == ["k", "s", "k1", "k2", "auto"]
    payload = out.to_json()["params"]
    assert payload == out.params and payload is not out.params
    payload["s"] = 7  # editing the JSON payload leaves the record alone
    assert out.params["s"] == 1


# -- key-array builds ------------------------------------------------------------

# sha256 of the words' text forms, one per line: each family's words
# are fixed letter for letter, whatever sorts their key tables
WORD_DIGESTS = [
    pytest.param(lambda: quadratic_family(13), "fb2c44f1eb23f6cfad6ffa0ea6"
                 "68a0d2c1c434d4a90627a29134422d9059631a", id="quadratic-13"),
    pytest.param(lambda: quadratic_family(7, 100), "09c420abab7eb6c22f25e073"
                 "473d8dbd74ed5c89b08dfd6229c9604ea5ca6bf2",
                 id="quadratic-7-k100"),
    pytest.param(lambda: cube_quadruple(11), "cb510a7d266e6e527dd696d45549"
                 "6c34ee1c2976bf549ee1076a2bb1992e65c6", id="cube-11"),
    pytest.param(lambda: grid_pair(1000, 3), "88a536a014ad9244abe35aa72d7d"
                 "be570b307b429bcd066f8357b5646c902a0e", id="grid-k1000-s3"),
    pytest.param(lambda: multiperm_quadruple(2, k=1000), "a544a0f01dbc9d44"
                 "534cff342c4886e8a9cd88a1a5bdbde7d7eaf1db010bdcf3",
                 id="multiperm-s2-k1000"),
    pytest.param(lambda: tuplet_family(3, 2), "fa6c18657a26f66a5c9557a3dbef"
                 "ba73042ef5189574a42ee7a064b5d632f722", id="tuplet-3-2"),
    pytest.param(lambda: tuplet_family(3, 3), "b6ca3353b6cfbc4d77ea12af7cf6"
                 "1baef55b615f2f69bd3cce09f5336dcd1d14", id="tuplet-3-3"),
    pytest.param(lambda: tuplet_family(7, 1), "88a48c2bb17d5bd7493d00694561"
                 "493ec06f1c04ef7d4f15b04174910d1d8ab8", id="tuplet-7-1"),
]


@pytest.mark.parametrize("build, digest", WORD_DIGESTS)
def test_pinned_word_digests(build, digest):
    text = "\n".join(w.to_text() for w in build().words)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of the whole JSON output, words, params and ceilings alike
@pytest.mark.parametrize("build, digest", [
    pytest.param(lambda: tuplet_family(5, 1), "3a2c037297187e1810b7002fb622"
                 "006bbe8d644248c9bee45a8d4b49993c951a", id="tuplet-5-1"),
    pytest.param(lambda: stratified_family(3, 18, (1, 3, 6)), "591a76a977d0"
                 "76f530885d9997cda3757aa298ffb03b7432d605784d391826c5",
                 id="stratified-3-18"),
])
def test_pinned_json_digests(build, digest):
    text = json.dumps(build().to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


key_tables = st.integers(1, 3).flatmap(lambda arity: st.lists(
    st.tuples(*[st.integers(-3, 3)] * arity), min_size=1, max_size=30,
    unique=True))


@given(key_tables, st.data())
def test_sorted_word_matches_tuple_sort(keys, data):
    letters = data.draw(st.permutations(range(1, len(keys) + 1)))
    k = data.draw(st.integers(1, len(keys)))
    word = _sorted_word(np.array(letters), np.array(keys).T, k)
    expected = [c for c in key_sorted_letters(letters, keys) if c <= k]
    assert word == Word(tuple(expected), k)


def test_repeated_key_raises():
    letters = np.array([1, 2, 3])
    keys = (np.array([1, 0, 1]), np.array([7, 5, 7]))
    with pytest.raises(ValueError, match=r"not injective at \(1, 7\)"):
        _sorted_word(letters, keys, 3)
