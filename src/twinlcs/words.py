"""Words over a finite alphabet [k] = {1, ..., k} and basic word statistics.

Letters are 1-based throughout.  Binary examples written with 0/1 elsewhere are
shifted to 1/2 on parse.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .errors import DEFAULT_BUDGET_CELLS, Record, check_budget

Letters = tuple[int, ...]


@dataclass(frozen=True)
class Word(Record):
    """An immutable word over the alphabet {1, ..., k}."""

    letters: Letters
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"alphabet size must be >= 1, got {self.k}")
        letters = tuple(map(int, self.letters))
        object.__setattr__(self, "letters", letters)
        if letters and not 1 <= min(letters) <= max(letters) <= self.k:
            # name the first letter out of range
            bad = next(a for a in letters if not 1 <= a <= self.k)
            raise ValueError(f"letter {bad} outside alphabet [1, {self.k}]")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def reversed(self) -> "Word":
        return Word(self.letters[::-1], self.k)

    def restrict(self, keep: Iterable[int]) -> "Word":
        """Delete every letter not in ``keep`` (alphabet size is unchanged)."""
        keep = set(keep)
        return Word(tuple(a for a in self.letters if a in keep), self.k)

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        return f"k={self.k};w=" + ",".join(str(a) for a in self.letters)

    def to_compact(self) -> str:
        """Digit-string form, available for alphabets of at most 9 letters."""
        if self.k > 9:
            raise ValueError("compact form needs an alphabet of at most 9 digits")
        return "".join(str(a) for a in self.letters)


def parse_word(text: str) -> Word:
    """Parse ``k=<int>;w=<comma-separated letters>`` or a compact digit string.

    Compact strings containing a ``0`` are taken to be 0-based (letters are
    shifted up by one); otherwise digits are the letters themselves and the
    alphabet is the largest digit seen.
    """
    text = text.strip()
    if text.startswith("k="):
        head, _, body = text.partition(";")
        k = int(head[2:])
        body = body.strip()
        if not body.startswith("w="):
            raise ValueError(f"malformed word literal: {text!r}")
        payload = body[2:].strip()
        letters = tuple(int(t) for t in payload.split(",")) if payload else ()
        return Word(letters, k)
    if not text or not text.isdigit():
        raise ValueError(f"malformed word literal: {text!r}")
    digits = [int(c) for c in text]
    if 0 in digits:
        return Word(tuple(d + 1 for d in digits), max(digits) + 1)
    return Word(tuple(digits), max(digits))


def _lis(seq: Iterable[int], above: int) -> int:
    """Length of the longest strictly increasing subsequence of ``seq``,
    whose entries all lie below ``above``, by patience sorting.  The last
    pile top is the sentinel ``above``, so each entry costs one bisection
    and no length check."""
    tops = [above]
    for x in seq:
        h = bisect_left(tops, x)
        if tops[h] == above:
            tops.append(above)
        tops[h] = x
    return len(tops) - 1


# -- regularity -------------------------------------------------------------

# A window-pattern check of is_regular takes as much CPU as _CHECK_CELLS
# cells of the dense joint-LCS table, and is charged that many: 0.32-0.36 us
# a check (random words of 600 and 1200 letters over 4, eps = 1/2, L = 3)
# against 41-77 ns a cell (lcs_multi of three random words of 150-250
# letters), one core of a 2-core Xeon VM, Python 3.11, numpy 2.4.
_CHECK_CELLS = 5


@dataclass(frozen=True)
class RegularityWitness:
    """First violating window and pattern, in scan order (start, end, pattern)."""

    start: int
    end: int
    pattern: Word
    gap: Fraction


@dataclass(frozen=True)
class RegularityReport:
    ok: bool
    witness: Optional[RegularityWitness]

    def __bool__(self) -> bool:
        return self.ok


def is_regular(w: Word, eps, max_length: int) -> RegularityReport:
    """Check (eps, L)-regularity of w.

    Regular means: every window of length at least eps*len(w) matches w to
    within eps on the frequency of every pattern of length at most L.  Windows
    are scanned by (start, end) and patterns by (length, lexicographic);
    the first violation is reported.  A pattern's count inside a window
    is the difference of two prefix counts of its occurrences.  The scan
    is charged _CHECK_CELLS cells for each qualifying window times each
    distinct pattern of w against ``DEFAULT_BUDGET_CELLS``; over it,
    BudgetError.  The patterns are listed one length at a time and the
    charge, with the patterns up to the length reached, is checked after
    each, so a refused call stops before it lists the longer ones.
    """
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    n = len(w)
    if not 1 <= max_length <= n:
        raise ValueError(f"pattern cap must lie in [1, {n}], got {max_length}")

    # With eps = a/b, c of `slots` window starts and g of `total` word starts:
    # |c/slots - g/total| >= eps  <=>  b |c total - g slots| >= a slots total,
    # decided in ints; the Fraction gap is built only for the witness.
    a, b = eps.numerator, eps.denominator
    shortest = -(-a * n // b)  # the least window length of at least eps * n
    windows = (n - shortest + 1) * (n - shortest + 2) // 2

    # Occurrence starts per pattern; windows are factors of w, so only
    # patterns occurring in w can ever disagree with it.
    starts: dict[Letters, list[int]] = {}
    for m in range(1, max_length + 1):
        for i in range(n - m + 1):
            starts.setdefault(w.letters[i : i + m], []).append(i)
        check_budget(_CHECK_CELLS * windows * len(starts),
                     DEFAULT_BUDGET_CELLS, "is_regular",
                     unit=f"cells ({_CHECK_CELLS} per window-pattern check)")
    # Per pattern, prefix counts of its starts at each window start i
    # (``before``) and each window end j (``upto``): the occurrences inside
    # [i, j) number upto[j - shortest] - before[i].  Each row has one entry
    # per window start, so all rows hold at most twice the charged checks.
    rows = []
    for pat in sorted(starts, key=lambda pat: (len(pat), pat)):
        pos, m = starts[pat], len(pat)
        before = [bisect_left(pos, i) for i in range(n - shortest + 1)]
        upto = [bisect_right(pos, j - m) for j in range(shortest, n + 1)]
        rows.append((pat, m, len(pos), n - m + 1, before, upto))
    for i in range(n):
        for j in range(i + shortest, n + 1):
            for pat, m, g, total, before, upto in rows:
                if m > j - i:
                    break  # rows run by length: the rest are longer still
                c = upto[j - shortest] - before[i]
                slots = j - i - m + 1
                if b * abs(c * total - g * slots) >= a * slots * total:
                    gap = abs(Fraction(c, slots) - Fraction(g, total))
                    witness = RegularityWitness(i, j, Word(pat, w.k), gap)
                    return RegularityReport(False, witness)
    return RegularityReport(True, None)
