"""Longest common subsequences: pairs, reversals, and joint LCS of word sets.

``lcs_multi`` serves two or more words, and ``lcs_pair`` calls it.  Two-word
lengths use a bit-parallel row DP (big-int rows, one pass per letter of the
second word) and build no table.  Witnesses come from one dense suffix table
whatever the number of words.  Joint lengths of three or more words take one
of two routes, whichever costs less: the dense table, with prod(len(w)+1)
cells, or the longest chain of match points (Hunt & Szymanski 1977), with M**2
steps for M match points.  The chain is taken when M**2 is below the cell
count, as for permutations (M = n) and for multipermutations with few copies
of each letter; the budget then counts M**2 instead of cells.
Witnesses follow the leftmost-greedy convention: among optimal alignments, the
one whose flattened index sequence (i1, j1, i2, j2, ...) is lexicographically
smallest.  A first-occurrence walk reads them off the table: each step tries
the first word's positions in order, each matched to the next occurrence of
its letter in every other word.  All results are deterministic; nothing here
keeps mutable state.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product
from math import prod
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetError
from .words import Word

DEFAULT_BUDGET_CELLS = 10**8


@dataclass(frozen=True)
class LcsResult:
    """LCS length plus, when requested, one witness alignment.

    ``indices`` holds one index tuple per input word; ``word`` is the common
    subsequence itself.  Length-only queries leave both as None.
    """

    length: int
    word: Optional[Word] = None
    indices: Optional[tuple[tuple[int, ...], ...]] = None

    def to_json(self) -> dict:
        out: dict = {"length": self.length}
        if self.word is not None:
            out["word"] = self.word.to_text()
        if self.indices is not None:
            out["indices"] = [list(ix) for ix in self.indices]
        return out


def _require_common_alphabet(words: Sequence[Word]) -> None:
    if any(w.k != words[0].k for w in words):
        raise ValueError("all words must share one alphabet")


def lcs_len(a: Word, b: Word) -> int:
    """LCS length of two words over a common alphabet (bit-parallel row DP)."""
    _require_common_alphabet((a, b))
    n = len(a)
    if n == 0 or len(b) == 0:
        return 0
    masks: dict[int, int] = {}
    for i, c in enumerate(a.letters):
        masks[c] = masks.get(c, 0) | (1 << i)
    full = (1 << n) - 1
    row = 0
    for c in b.letters:
        u = row | masks.get(c, 0)
        row = u & ~((u - ((row << 1) | 1)) & full)
    return row.bit_count()


def _check_budget(cells: int, budget_cells: int, what: str, *,
                  length_only_helps: bool = False,
                  unit: str = "alignment cells") -> None:
    if cells > budget_cells:
        hint = " or use length-only queries" if length_only_helps else ""
        raise BudgetError(
            f"{what} needs {cells} {unit}, over the budget of "
            f"{budget_cells}; raise budget_cells{hint}"
        )


def _length_cost(words: Sequence[Word]) -> tuple[int, bool]:
    """Budget charge of a joint length query of three or more words, and
    whether the match-point chain serves it: the chain's M**2 steps when
    that is below the prod(len(w)+1) cells of the dense table."""
    cells = prod(len(w) + 1 for w in words)
    counts = [Counter(w.letters) for w in words]
    points = sum(prod(cnt[c] for cnt in counts) for c in counts[0])
    if points * points < cells:
        return points * points, True
    return cells, False


def _chain_length(words: Sequence[Word]) -> int:
    """Joint LCS of three or more words as the longest chain of match points.

    A match point takes one position in each word, all carrying one
    letter; a common subsequence is a chain of match points that grows
    strictly in every coordinate.  The points are listed in order of their
    position in the first word, so those with a smaller first coordinate
    form a prefix, and the longest chain ending at each point is one array
    step over that prefix: M steps of O(M) work.
    """
    first, *others = [w.letters for w in words]
    where = []
    for w in others:
        at: dict[int, list[int]] = {}
        for i, c in enumerate(w):
            at.setdefault(c, []).append(i)
        where.append(at)
    tails: list[tuple[int, ...]] = []
    starts: list[int] = []  # index of the first point sharing the position
    for c in first:
        group = list(product(*(at.get(c, ()) for at in where)))
        starts += [len(tails)] * len(group)
        tails += group
    if not tails:
        return 0
    head, *rest = np.array(tails, dtype=np.int64).T.copy()
    best = np.zeros(len(tails), dtype=np.int64)
    for j, g in enumerate(starts):
        below = head[:g] < head[j]
        for row in rest:
            below &= row[:g] < row[j]
        best[j] = best[:g][below].max(initial=0) + 1
    return int(best.max())


def _suffix_table(words: Sequence[Word]) -> np.ndarray:
    """Full suffix table S[v] = joint LCS of the suffixes starting at v,
    for two or more words."""
    *heads, last = [w.letters for w in words]
    last_v = np.asarray(last, dtype=np.int64)
    S = np.zeros([len(w) + 1 for w in words], dtype=np.int32)
    # rows with an index at the end of some word stay zero
    for idx in product(*(range(len(h) - 1, -1, -1) for h in heads)):
        base = np.zeros(len(last) + 1, dtype=np.int32)
        for d in range(len(heads)):
            np.maximum(base, S[idx[:d] + (idx[d] + 1,) + idx[d + 1:]], out=base)
        c = heads[0][idx[0]]
        if all(h[i] == c for h, i in zip(heads, idx)):
            diag = S[tuple(i + 1 for i in idx)]
            base[:-1] = np.maximum(base[:-1], np.where(last_v == c, 1 + diag[1:], 0))
        S[idx] = np.flip(np.maximum.accumulate(np.flip(base)))
    return S


def _walk_witness(words: Sequence[Word], S: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Leftmost-greedy alignment read off a suffix table.

    Each step takes the smallest position p of the first word whose
    letter still has an optimal continuation.  For a fixed p the next
    occurrence of that letter in every other word gives the
    componentwise-smallest matching tuple, which has the largest S
    because S is non-increasing in every coordinate; so only that tuple
    is tested, and when it passes it is the lexicographic minimum.
    """
    first, others = words[0].letters, [w.letters for w in words[1:]]
    v = (0,) * len(words)
    t = int(S[v])
    picks: list[tuple[int, ...]] = []
    while t > 0:
        t -= 1
        for p in range(v[0], len(first)):
            try:
                u = (p,) + tuple(w.index(first[p], s)
                                 for w, s in zip(others, v[1:]))
            except ValueError:  # the letter does not occur again somewhere
                continue
            if S[tuple(x + 1 for x in u)] >= t:
                break
        else:  # cannot happen for a correct table
            raise AssertionError("witness walk lost the optimum")
        picks.append(u)
        v = tuple(x + 1 for x in u)
    return tuple(zip(*picks)) if picks else ((),) * len(words)


def lcs_pair(a: Word, b: Word, *, witness: bool = True,
             budget_cells: int = DEFAULT_BUDGET_CELLS) -> LcsResult:
    """LCS of two words; with ``witness`` the leftmost-greedy alignment."""
    return lcs_multi((a, b), witness=witness, budget_cells=budget_cells)


@dataclass(frozen=True)
class ReversibleResult:
    """max(LCS(a, b), LCS(a, reverse(b))) and which orientation won.

    Ties prefer the forward orientation.  Witness indices for the reverse
    orientation refer to the reversed copy of b.
    """

    length: int
    orientation: str  # "forward" | "reverse"
    detail: LcsResult

    def to_json(self) -> dict:
        return {"length": self.length, "orientation": self.orientation,
                "detail": self.detail.to_json()}


def lcs_reversible(a: Word, b: Word, *, witness: bool = False,
                   budget_cells: int = DEFAULT_BUDGET_CELLS) -> ReversibleResult:
    fwd = lcs_len(a, b)
    rev = lcs_len(a, b.reversed())
    if fwd >= rev:
        detail = lcs_pair(a, b, witness=witness, budget_cells=budget_cells) \
            if witness else LcsResult(fwd)
        return ReversibleResult(fwd, "forward", detail)
    detail = lcs_pair(a, b.reversed(), witness=witness, budget_cells=budget_cells) \
        if witness else LcsResult(rev)
    return ReversibleResult(rev, "reverse", detail)


def lcs_multi(words: Sequence[Word], *, witness: bool = True,
              budget_cells: int = DEFAULT_BUDGET_CELLS) -> LcsResult:
    """Joint LCS of two or more words, with the leftmost-greedy witness
    unless ``witness`` is False.

    Two-word length-only queries use the bit-parallel row DP; they build
    no table, so no budget applies to them.  Witnesses come from the dense
    suffix table, whose prod(len(w)+1) cells must fit ``budget_cells``.
    Length-only queries of three or more words take the cheaper of that
    table and the match-point chain: the chain when the square of the
    number M of match points is below the cell count, and then M**2 is
    what must fit the budget.
    """
    words = list(words)
    if len(words) < 1:
        raise ValueError("need at least one word")
    _require_common_alphabet(words)
    if len(words) == 2 and not witness:  # bit-parallel rows, no table
        return LcsResult(lcs_len(words[0], words[1]))
    if len(words) == 1:
        w = words[0]
        if not witness:
            return LcsResult(len(w))
        return LcsResult(len(w), w, (tuple(range(len(w))),))
    if any(len(w) == 0 for w in words):
        if not witness:
            return LcsResult(0)
        return LcsResult(0, Word((), words[0].k), ((),) * len(words))
    if witness:
        cost, chain = prod(len(w) + 1 for w in words), False
    else:
        cost, chain = _length_cost(words)
    if chain:
        _check_budget(cost, budget_cells, f"{len(words)}-way match-point chain",
                      unit="steps (match points squared)")
        return LcsResult(_chain_length(words))
    # only a two-word witness has a length-only route that needs no table
    _check_budget(cost, budget_cells, f"{len(words)}-way alignment",
                  length_only_helps=len(words) == 2)
    S = _suffix_table(words)
    length = int(S[(0,) * len(words)])
    if not witness:
        return LcsResult(length)
    indices = _walk_witness(words, S)
    common = Word(tuple(words[0][i] for i in indices[0]), words[0].k)
    return LcsResult(length, common, indices)


@dataclass(frozen=True)
class SetLcsStats:
    """Pairwise LCS table of a word set plus the best T-subset joint LCS."""

    t: int
    pairwise: tuple[tuple[int, ...], ...]
    value: int
    best_subset: tuple[int, ...]

    def to_json(self) -> dict:
        return {"t": self.t, "pairwise": [list(r) for r in self.pairwise],
                "value": self.value, "best_subset": list(self.best_subset)}


def set_lcs_stats(words: Sequence[Word], t: int, *,
                  budget_cells: int = DEFAULT_BUDGET_CELLS) -> SetLcsStats:
    """Pairwise LCS matrix and max joint LCS over subsets of size t.

    For t >= 3 the budget covers all subsets together, each charged what
    the route ``lcs_multi`` picks for it costs.
    """
    words = list(words)
    _require_common_alphabet(words)
    if not 1 <= t <= len(words):
        raise ValueError(f"subset size {t} out of range for {len(words)} words")
    n = len(words)
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        table[i][i] = len(words[i])
    for i, j in combinations(range(n), 2):
        table[i][j] = table[j][i] = lcs_len(words[i], words[j])
    if t == 1:
        best = max(range(n), key=lambda i: len(words[i]))
        value, subset = len(words[best]), (best,)
    elif t == 2:
        value, subset = -1, (0, 1)
        for i, j in combinations(range(n), 2):
            if table[i][j] > value:
                value, subset = table[i][j], (i, j)
    else:
        spent = 0
        value, subset = -1, tuple(range(t))
        for combo in combinations(range(n), t):
            group = [words[i] for i in combo]
            # each subset costs what the route lcs_multi picks for it
            spent += _length_cost(group)[0]
            _check_budget(spent, budget_cells, f"joint LCS over {t}-subsets",
                          unit="cells and chain steps")
            got = lcs_multi(group, witness=False,
                            budget_cells=budget_cells).length
            if got > value:
                value, subset = got, combo
    frozen = tuple(tuple(r) for r in table)
    return SetLcsStats(t, frozen, value, subset)
