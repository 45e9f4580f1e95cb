"""Word type, parsing, rendering and regularity."""

import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import regularity_violation
from twinlcs import BudgetError, Word, is_regular, parse_word, sample_word
from twinlcs.words import _CHECK_CELLS

words = st.integers(1, 4).flatmap(
    lambda k: st.lists(st.integers(1, k), max_size=12).map(
        lambda ls: Word(tuple(ls), k)))


# -- construction and parsing -------------------------------------------------


def test_word_validates_alphabet():
    with pytest.raises(ValueError):
        Word((1, 2), 1)
    with pytest.raises(ValueError):
        Word((0,), 2)
    with pytest.raises(ValueError):
        Word((), 0)
    assert len(Word((), 1)) == 0


def test_word_names_its_first_bad_letter():
    # the range check is on min and max, but the message names the first
    # letter out of range, here 5 and not the smaller 0 after it
    with pytest.raises(ValueError, match=r"^letter 5 outside alphabet \[1, 3\]$"):
        Word((1, 5, 2, 0), 3)
    with pytest.raises(ValueError, match=r"^letter 0 outside alphabet \[1, 3\]$"):
        Word((0, 2, 7), 3)


def test_word_accepts_numpy_letters():
    w = Word(np.array([3, 1, 2], dtype=np.int16), 3)
    assert w.letters == (3, 1, 2)
    assert all(type(a) is int for a in w.letters)
    assert Word((np.int64(2), np.uint8(1)), 2) == Word((2, 1), 2)


def test_word_basic_ops():
    w = Word((1, 2, 2, 3), 3)
    assert w.reversed().letters == (3, 2, 2, 1)
    assert w.restrict({2}).letters == (2, 2)
    assert w.restrict({2}).k == 3


def test_parse_word_forms():
    assert parse_word("0110") == Word((1, 2, 2, 1), 2)
    assert parse_word("123") == Word((1, 2, 3), 3)
    assert parse_word("22") == Word((2, 2), 2)
    assert parse_word("k=4;w=1,2") == Word((1, 2), 4)
    assert parse_word("k=4;w=") == Word((), 4)
    for bad in ("", "1,2", "k=2;x=1", "12a"):
        with pytest.raises(ValueError):
            parse_word(bad)


def test_compact_rendering():
    w = Word((1, 2, 2, 1), 2)
    assert w.to_compact() == "1221"
    with pytest.raises(ValueError):
        Word((1,), 10).to_compact()


@given(words)
def test_parse_round_trips(w):
    assert parse_word(w.to_text()) == w


# -- regularity ----------------------------------------------------------------


def test_constant_word_is_regular():
    w = Word((1,) * 8, 2)
    assert is_regular(w, Fraction(1, 4), 2)
    assert is_regular(w, 1, 1)


def test_regularity_violation_is_first_in_scan_order():
    # 11112222: the length-2 prefix window sees letter 1 at frequency 1
    # against a global 1/2, so the gap 1/2 >= eps already at (0, 2).
    w = parse_word("11112222")
    report = is_regular(w, Fraction(1, 4), 1)
    assert not report
    witness = report.witness
    assert (witness.start, witness.end) == (0, 2)
    assert witness.pattern == Word((1,), 2)
    assert witness.gap == Fraction(1, 2)


def test_regularity_matches_fraction_oracle():
    # integer decisions must give the same verdict, witness and gap as
    # comparing Fractions window by window
    rng = random.Random(20)
    verdicts = set()
    for _ in range(300):
        k = rng.randint(1, 3)
        n = rng.randint(1, 16)
        if rng.random() < 0.3:  # periodic words are often regular
            period = rng.randint(1, 3)
            unit = [rng.randint(1, k) for _ in range(period)]
            letters = tuple((unit * n)[:n])
        else:
            letters = tuple(rng.randint(1, k) for _ in range(n))
        eps = Fraction(rng.randint(1, 12), 12)
        max_length = rng.randint(1, min(3, n))
        report = is_regular(Word(letters, k), eps, max_length)
        expected = regularity_violation(letters, eps, max_length)
        verdicts.add(report.ok)
        if expected is None:
            assert report.ok and report.witness is None
        else:
            got = report.witness
            assert not report.ok
            assert (got.start, got.end, got.pattern.letters, got.gap) \
                == expected, (letters, eps, max_length)
    assert verdicts == {True, False}


def test_regularity_matches_oracle_on_longer_words():
    # prefix-count rows against the oracle's counting of every window, on
    # words up to 40 letters, patterns up to 4 and eps from 7/10^30 (every
    # window qualifies) to 999/1000 (only the whole word does)
    rng = random.Random(21)
    verdicts, starts = set(), set()
    for _ in range(150):
        k = rng.randint(1, 4)
        n = rng.randint(1, 40)
        if rng.random() < 0.4:
            unit = [rng.randint(1, k) for _ in range(rng.randint(1, 4))]
            letters = tuple((unit * n)[:n])
        else:
            letters = tuple(rng.randint(1, k) for _ in range(n))
        eps = rng.choice([Fraction(7, 10**30), Fraction(999, 1000),
                          Fraction(rng.randint(1, n), n),
                          Fraction(rng.randint(1, 10**6), 10**6 + 3)])
        max_length = rng.randint(1, min(4, n))
        report = is_regular(Word(letters, k), eps, max_length)
        expected = regularity_violation(letters, eps, max_length)
        verdicts.add(report.ok)
        if expected is None:
            assert report.ok and report.witness is None
        else:
            got = report.witness
            starts.add(got.start)
            assert (got.start, got.end, got.pattern.letters, got.gap) \
                == expected, (letters, eps, max_length)
    assert verdicts == {True, False}
    assert len(starts) > 1  # witnesses beyond the first window start


def test_regularity_validation():
    w = parse_word("1212")
    with pytest.raises(ValueError):
        is_regular(w, 0, 1)
    with pytest.raises(ValueError):
        is_regular(w, Fraction(3, 2), 1)
    with pytest.raises(ValueError):
        is_regular(w, Fraction(1, 2), 5)
    # a cap below 1 checks no pattern, so it could only ever say "regular"
    irregular = Word((1, 2, 1, 2, 2, 1, 1, 1, 1, 1, 2, 2), 2)
    assert not is_regular(irregular, Fraction(1, 4), 1)
    for cap in (0, -1):
        with pytest.raises(ValueError, match="pattern cap must lie in"):
            is_regular(irregular, Fraction(1, 4), cap)


def test_regularity_budget_charges_windows_times_patterns(monkeypatch):
    irregular = Word((1, 2, 1, 2, 2, 1, 1, 1, 1, 1, 2, 2), 2)
    eps, cap, n = Fraction(1, 4), 2, len(irregular)
    windows = sum(1 for i in range(n) for j in range(i + 1, n + 1)
                  if j - i >= eps * n)
    patterns = {irregular.letters[i:i + m] for m in range(1, cap + 1)
                for i in range(n - m + 1)}
    assert windows * len(patterns) == 55 * 6
    charge = _CHECK_CELLS * windows * len(patterns)
    monkeypatch.setattr("twinlcs.words.DEFAULT_BUDGET_CELLS", charge)
    assert not is_regular(irregular, eps, cap)
    # one below the charge: refused before the scan finds the violation
    monkeypatch.setattr("twinlcs.words.DEFAULT_BUDGET_CELLS", charge - 1)
    with pytest.raises(BudgetError, match=f"^is_regular needs {charge} "
                                          rf"cells \({_CHECK_CELLS} per "
                                          "window-pattern check"):
        is_regular(irregular, eps, cap)


def test_regularity_budget_refuses_a_long_scan_before_it_starts():
    # 94.7M window-pattern checks, about 30 s of scanning if admitted: the
    # charge passes the budget at pattern length 2, before any row is built
    w = sample_word(4, 3000, 0)
    start = time.process_time()
    with pytest.raises(BudgetError, match="^is_regular needs "):
        is_regular(w, Fraction(1, 2), 3)
    assert time.process_time() - start < 1.0


def test_regularity_budget_refuses_before_listing_long_patterns():
    # 634,501 windows: the running charge passes the budget at pattern
    # length 5, long before the 100-letter patterns would be listed
    w = sample_word(2, 1500, 0)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="^is_regular needs "):
            is_regular(w, Fraction(1, 4), 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
