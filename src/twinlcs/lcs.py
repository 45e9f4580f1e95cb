"""Longest common subsequences: pairs, reversals, and joint LCS of word sets.

``lcs_multi`` serves two or more words, and ``lcs_pair`` calls it.  A pair
length takes whichever of two routes costs less, as estimated from letter
counts before any per-point work: a bit-parallel row DP (big-int rows, one
pass per letter of the second word) that keeps its last row only, or the
longest chain of the pair's match points by patience sorting, for sparse
pairs such as permutations.  ``pair_lengths`` computes the lengths of many
pairs of one word list, and ``lcs_len`` is its one-pair case.
``subset_lengths`` is the front door for the lengths of many word subsets
(one index, a pair, or three or more words): ``lcs_multi`` (length only),
``check_family`` and ``set_lcs_stats`` each make one call, whose pairs go
through one ``pair_lengths`` call.  The chain's setup is shared within
that call only: each word becomes one letter array, and each word that
comes second in a pair is listed by letter once, so a family of m words
is prepared m times, not m(m - 1) times.
A pair witness always comes from bit rows: the DP runs over the reversed
words and keeps all len(b)+1 rows, from which any suffix value
LCS(a[i:], b[j:]) is one masked popcount.  Three or more words take one
of two routes for a length, whichever costs less: the
dense suffix table, with prod(len(w)+1) cells, or the longest chain of match
points (Hunt & Szymanski 1977), with M**2 steps for M match points.  The chain
is taken when M**2 is below the cell count, as for permutations (M = n) and
for multipermutations with few copies of each letter; the budget then counts
M**2 instead of cells.  Their witnesses come from the dense table.
Joint lengths are charged in ``subset_lengths`` alone, all the subsets of
one call together and each at least a floor; a witness is charged by
``lcs_multi``.  The budget and its check live in ``errors.py``.
Witnesses follow the leftmost-greedy convention: among optimal alignments, the
one whose flattened index sequence (i1, j1, i2, j2, ...) is lexicographically
smallest.  One first-occurrence walk reads them off the suffix values, from
bit rows or the table: each step tries the first word's positions in order,
each matched to the next occurrence of its letter in every other word.  All
results are deterministic; nothing here keeps mutable state.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations, product
from math import comb, prod
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DEFAULT_BUDGET_CELLS, Record, check_budget
from .words import Word, _lis


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
        """Not the field rule: the word as text, and no None fields."""
        out: dict = {"length": self.length}
        if self.word is not None:
            out["word"] = self.word.to_text()
        if self.indices is not None:
            out["indices"] = [list(ix) for ix in self.indices]
        return out


def _require_common_alphabet(words: Sequence[Word]) -> None:
    for w in words:  # a plain loop: lcs_len pays this on every call
        if w.k != words[0].k:
            raise ValueError("all words must share one alphabet")


def _row_dp(x: Sequence[int], y: Sequence[int],
            rows: Optional[list[int]] = None) -> int:
    """Bit-parallel LCS row DP of x against y; returns the last row.

    After the first j letters of y, bit i of the row is set when
    LCS(x[:i+1], y[:j]) exceeds LCS(x[:i], y[:j]), so the popcount of the
    low i bits is LCS(x[:i], y[:j]).  Each row after the first is appended
    to ``rows`` when it is given.
    """
    masks: dict[int, int] = {}
    for i, c in enumerate(x):
        masks[c] = masks.get(c, 0) | (1 << i)
    full = (1 << len(x)) - 1
    row = 0
    for c in y:
        u = row | masks.get(c, 0)
        row = u & ~((u - ((row << 1) | 1)) & full)
        if rows is not None:
            rows.append(row)
    return row


def _letter_arrays(words: Sequence[Word]) -> tuple[list[np.ndarray], int]:
    """The letters of each word as an int64 array, and a size above every
    letter.  Letters far above the word lengths are renumbered first, one
    numbering for all the words, so that no array has one entry per letter
    of a huge alphabet."""
    xs = [np.fromiter(w.letters, np.int64, len(w.letters)) for w in words]
    top = max(x.max(initial=0) for x in xs)
    if top > 4 * sum(map(len, xs)):
        codes = np.unique(np.concatenate(xs), return_inverse=True)[1]
        xs = np.split(codes, np.cumsum([len(x) for x in xs])[:-1])
        top = codes.max(initial=0)
    return xs, int(top) + 1


def _listing(y: np.ndarray, size: int
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Match-point listing of a second word, its letters below ``size``:
    the count of each letter, the positions grouped by letter (j descending
    within a letter), and where each letter's group starts."""
    count = np.bincount(y, minlength=size)
    order = np.lexsort((-np.arange(len(y)), y))
    return count, order, np.cumsum(count) - count


def _pair_chain(x: np.ndarray, listing: tuple[np.ndarray, ...],
                most: int) -> Optional[int]:
    """LCS length of the letters x against a listed word as the longest
    chain of their match points (Hunt & Szymanski 1977), or None, before
    any per-point work, when they have more than ``most`` match points.

    A match point (i, j) has x[i] == y[j]; a common subsequence is a chain
    of points that grows strictly in both coordinates.  Listed by i
    ascending and, at one i, by j descending, the chains are the strictly
    increasing subsequences of the j's, and patience sorting (``_lis``,
    every j below len(y)) finds the longest with one bisection per point.
    The point list takes O(``most``) memory.
    """
    count, order, first = listing
    per = count[x]  # the match points at each position of x
    points = int(per.sum())
    if points > most:
        return None
    ends = np.cumsum(per)
    js = order[np.arange(points) + np.repeat(first[x] - ends + per, per)]
    return _lis(js.tolist(), len(order))


def pair_lengths(words: Sequence[Word],
                 pairs: Sequence[tuple[int, int]]) -> list[int]:
    """LCS(words[i], words[j]) for each (i, j) in ``pairs``, all the words
    over one alphabet, each pair by the route that ``lcs_len`` describes.

    When the chain may serve some pair, the words are prepared once for
    the whole call: each becomes one letter array, and each word that
    comes second in such a pair is listed once and serves all its pairs
    before the next is listed, so the call holds one listing at a time and
    its memory stays linear in the words.  Serves ``lcs_len`` and
    ``subset_lengths``; the package does not export it.
    """
    _require_common_alphabet(words)
    lengths: list[int] = []
    chained: dict[int, list[tuple[int, int, int]]] = {}  # j: (slot, i, most)
    for i, j in pairs:
        x, y = words[i].letters, words[j].letters
        if len(x) >= 96 and len(y) >= 96:
            # Measured on random pairs, the chain's time fell below the row
            # DP's at about 80 letters for permutations (M = n), 300 with
            # two copies of each letter (M = 2n) and 650 with three
            # (M = 3n); dense pairs, such as binary words (M ~ n * n / 2),
            # stay on the row DP.  The cap keeps the chain's M-sized arrays
            # linear in the words.  Near it, on random pairs of 6000 letters
            # with eight copies of each, the two routes took the same time
            # (19 ms).
            most = min(len(y) * (2000 + len(x)) // 1000 - 100,
                       4 * (len(x) + len(y)))
            if len(x) * len(y) <= words[i].k * most:
                chained.setdefault(j, []).append((len(lengths), i, most))
                lengths.append(0)
                continue
        lengths.append(_row_dp(x, y).bit_count())
    if chained:
        xs, size = _letter_arrays(words)
        for j, group in chained.items():
            listing = _listing(xs[j], size)
            for slot, i, most in group:
                got = _pair_chain(xs[i], listing, most)
                lengths[slot] = (got if got is not None else
                                 _row_dp(words[i].letters,
                                         words[j].letters).bit_count())
    return lengths


def lcs_len(a: Word, b: Word) -> int:
    """LCS length of two words over a common alphabet.

    Two routes give the same value: the bit-parallel row DP, len(b) big-int
    steps of len(a) bits, and the longest chain of the M match points, one
    bisection each.  The chain is taken when both words have at least 96
    letters, M + 100 <= len(b) * (2 + len(a) / 1000) and
    M <= 4 * (len(a) + len(b)), so its memory stays linear.  M is counted in
    O(len(a) + len(b)) before any per-point work, and not at all when
    len(a) * len(b) / k, the M of words in which every letter is equally
    frequent, is already over.
    """
    return pair_lengths((a, b), ((0, 1),))[0]


def _pair_suffix(a: Word, b: Word) -> Callable[[tuple[int, ...]], int]:
    """Suffix values LCS(a[i:], b[j:]) of a pair, looked up at (i, j).

    The row DP runs over the reversed words and keeps its len(b)+1 rows of
    len(a) bits.  Reordered so that rows[j] belongs to b[j:], the low
    len(a)-i bits of rows[j] cover a[i:], and their popcount is the value.
    """
    n = len(a)
    rows = [0]
    _row_dp(a.letters[::-1], b.letters[::-1], rows)
    rows.reverse()
    return lambda v: (rows[v[1]] & ((1 << (n - v[0])) - 1)).bit_count()


# the hint of a caller that takes a ``budget_cells`` parameter
_RAISE_BUDGET = "raise budget_cells"


def _positions(word: Word) -> dict[int, list[int]]:
    """Increasing positions of each letter in the word."""
    at: dict[int, list[int]] = {}
    for i, c in enumerate(word.letters):
        at.setdefault(c, []).append(i)
    return at


def _length_cost(words: Sequence[Word], where: Sequence[dict[int, list[int]]]
                 ) -> tuple[int, bool]:
    """Budget charge of a joint length query of three or more words, given
    the ``_positions`` of each, and whether the match-point chain serves
    it: the chain's M**2 steps when that is below the prod(len(w)+1) cells
    of the dense table."""
    cells = prod(len(w) + 1 for w in words)
    points = sum(prod(len(at.get(c, ())) for at in where) for c in where[0])
    if points * points < cells:
        return points * points, True
    return cells, False


def _chain_length(words: Sequence[Word],
                  where: Sequence[dict[int, list[int]]]) -> int:
    """Joint LCS of three or more words, given the ``_positions`` of each,
    as the longest chain of match points.

    A match point takes one position in each word, all carrying one
    letter; a common subsequence is a chain of match points that grows
    strictly in every coordinate.  The points are listed in order of their
    position in the first word, so those with a smaller first coordinate
    form a prefix, and the longest chain ending at each point is one array
    step over that prefix: M steps of O(M) work.
    """
    tails: list[tuple[int, ...]] = []
    starts: list[int] = []  # index of the first point sharing the position
    for c in words[0].letters:
        group = list(product(*(at.get(c, ()) for at in where[1:])))
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
    for three or more words."""
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


# A subset of three or more words is charged at least _SUBSET_CELLS cells:
# listing, costing and computing one subset of one-letter words took 13-27
# us (set_lcs_stats at t = 3, 5 and 10, check_family of tuplet_family(8 or
# 10, 1)) against 30-52 ns a cell (lcs_multi of three random words of
# 150-250 letters over 4), one core of a 2-core Xeon VM, Python 3.11,
# numpy 2.4.  At this floor the 184,756 ceilings of tuplet_family(10, 1)
# fit the default budget.
_SUBSET_CELLS = 500


def _charge_joint(needed: int, budget_cells: int) -> None:
    """The budget check of joint lengths of three or more words."""
    check_budget(needed, budget_cells, "joint LCS of three or more words",
                 hint=_RAISE_BUDGET, unit="cells and chain steps")


def subset_lengths(words: Sequence[Word], subsets: Sequence[Sequence[int]],
                   *, budget_cells: int) -> list[int]:
    """Joint LCS length of the words at each index tuple of ``subsets``,
    all the words over one alphabet.

    One index gives that word's length, and the pairs go through one
    ``pair_lengths`` call, free of the budget.  Three or more words take
    the cheaper of the dense suffix table and the match-point chain, as
    ``_length_cost`` finds from the ``_positions`` of each word, listed
    once per call.  These subsets are charged together against
    ``budget_cells``: each at least _SUBSET_CELLS, which is charged for
    all of them before any is costed, plus the excess of its route's cost
    as it is costed.  The call refuses at the first overshoot, before any
    length is computed.  Shared by ``lcs_multi``, ``check_family`` and
    ``set_lcs_stats``; the package does not export it.
    """
    _require_common_alphabet(words)
    lengths = [0] * len(subsets)
    pairs: dict[int, tuple[int, int]] = {}  # slot: pair
    joint: list[int] = []  # slots of three or more words
    for slot, subset in enumerate(subsets):
        if len(subset) == 1:
            lengths[slot] = len(words[subset[0]])
        elif len(subset) == 2:
            pairs[slot] = tuple(subset)
        else:
            joint.append(slot)
    spent = len(joint) * _SUBSET_CELLS
    _charge_joint(spent, budget_cells)
    positions: dict[int, dict[int, list[int]]] = {}  # word index: positions
    chains: list[bool] = []  # whether the chain serves each joint slot
    for slot in joint:
        for i in subsets[slot]:
            if i not in positions:
                positions[i] = _positions(words[i])
        cost, chain = _length_cost([words[i] for i in subsets[slot]],
                                   [positions[i] for i in subsets[slot]])
        chains.append(chain)
        spent += max(cost - _SUBSET_CELLS, 0)
        _charge_joint(spent, budget_cells)
    for slot, value in zip(pairs, pair_lengths(words, list(pairs.values()))):
        lengths[slot] = value
    for slot, chain in zip(joint, chains):
        group = [words[i] for i in subsets[slot]]
        lengths[slot] = (
            _chain_length(group, [positions[i] for i in subsets[slot]])
            if chain else _suffix_table(group).item((0,) * len(group)))
    return lengths


def _walk_witness(words: Sequence[Word], value: Callable[[tuple[int, ...]], int]
                  ) -> tuple[tuple[int, ...], ...]:
    """Leftmost-greedy alignment read off suffix values.

    ``value(v)`` is the joint LCS of the suffixes starting at the index
    tuple v.  Each step takes the smallest position p of the first word
    whose letter still has an optimal continuation.  For a fixed p the
    next occurrence of that letter in every other word, found by bisection
    in its position list, gives the componentwise-smallest matching tuple,
    which has the largest value because suffix values are non-increasing
    in every coordinate; so only that tuple is tested, and when it passes
    it is the lexicographic minimum.
    """
    first = words[0].letters
    where = [_positions(w) for w in words[1:]]
    v = (0,) * len(words)
    t = value(v)
    picks: list[tuple[int, ...]] = []
    while t > 0:
        t -= 1
        for p in range(v[0], len(first)):
            u = (p,)
            for at, s in zip(where, v[1:]):
                hits = at.get(first[p], ())
                h = bisect_left(hits, s)
                if h == len(hits):  # the letter does not occur again here
                    break
                u += (hits[h],)
            else:
                if value(tuple(x + 1 for x in u)) >= t:
                    break
        else:  # cannot happen for correct suffix values
            raise AssertionError("witness walk lost the optimum")
        picks.append(u)
        v = tuple(x + 1 for x in u)
    return tuple(zip(*picks)) if picks else ((),) * len(words)


def lcs_pair(a: Word, b: Word, *, witness: bool = True,
             budget_cells: int = DEFAULT_BUDGET_CELLS) -> LcsResult:
    """LCS of two words; with ``witness`` the leftmost-greedy alignment.

    A length needs one bit row and no budget.  A witness keeps len(b)+1 bit
    rows of len(a) bits and is charged (len(a)+1)(len(b)+1) cells against
    ``budget_cells``.
    """
    return lcs_multi((a, b), witness=witness, budget_cells=budget_cells)


@dataclass(frozen=True)
class ReversibleResult(Record):
    """max(LCS(a, b), LCS(a, reverse(b))) and which orientation won.

    Ties prefer the forward orientation.  Witness indices for the reverse
    orientation refer to the reversed copy of b.
    """

    length: int
    orientation: str  # "forward" | "reverse"
    detail: LcsResult


def lcs_reversible(a: Word, b: Word, *, witness: bool = False,
                   budget_cells: int = DEFAULT_BUDGET_CELLS) -> ReversibleResult:
    fwd = lcs_len(a, b)
    rev = lcs_len(a, b.reversed())
    orientation, other, length = (("forward", b, fwd) if fwd >= rev
                                  else ("reverse", b.reversed(), rev))
    detail = (lcs_pair(a, other, budget_cells=budget_cells) if witness
              else LcsResult(length))
    return ReversibleResult(length, orientation, detail)


def lcs_multi(words: Sequence[Word], *, witness: bool = True,
              budget_cells: int = DEFAULT_BUDGET_CELLS) -> LcsResult:
    """Joint LCS of two or more words, with the leftmost-greedy witness
    unless ``witness`` is False.

    A length is one ``subset_lengths`` call with one subset: two words
    take a pair route and no budget, three or more the cheaper of the dense
    table and the match-point chain, charged as that call charges them.  A
    pair witness keeps len(b)+1 bit rows of len(a) bits and is still
    charged the (len(a)+1)(len(b)+1) cells of the suffix values it reads;
    a witness of three or more words takes the dense suffix table, whose
    prod(len(w)+1) cells must fit ``budget_cells``.
    """
    words = list(words)
    if len(words) < 1:
        raise ValueError("need at least one word")
    _require_common_alphabet(words)
    if not witness:
        return LcsResult(subset_lengths(words, [range(len(words))],
                                        budget_cells=budget_cells)[0])
    shortest = min(words, key=len)
    if len(words) == 1 or not shortest:  # the answer is the shortest word
        return LcsResult(len(shortest), shortest,
                         (tuple(range(len(shortest))),) * len(words))
    # only a two-word witness has a length-only route with no budget
    check_budget(prod(len(w) + 1 for w in words), budget_cells,
                 f"{len(words)}-way alignment",
                 hint=(_RAISE_BUDGET + " or use length-only queries"
                       if len(words) == 2 else _RAISE_BUDGET))
    if len(words) == 2:
        value = _pair_suffix(words[0], words[1])
    else:
        value = _suffix_table(words).item
    indices = _walk_witness(words, value)
    common = Word(tuple(words[0][i] for i in indices[0]), words[0].k)
    return LcsResult(len(indices[0]), common, indices)


@dataclass(frozen=True)
class SetLcsStats(Record):
    """Pairwise LCS table of a word set plus the best T-subset joint LCS."""

    t: int
    pairwise: tuple[tuple[int, ...], ...]
    value: int
    best_subset: tuple[int, ...]


def set_lcs_stats(words: Sequence[Word], t: int, *,
                  budget_cells: int = DEFAULT_BUDGET_CELLS) -> SetLcsStats:
    """Pairwise LCS matrix and max joint LCS over subsets of size t.

    The pairs, and for t >= 3 the t-subsets, go through one
    ``subset_lengths`` call, so each word is prepared for the pair chain
    and listed by letter at most once, and the t-subsets are charged
    together, at least _SUBSET_CELLS each.  C(n, t) of them at that floor
    are charged before any is listed, so an over-budget t is refused at
    once; the call then refuses at the first overshoot, before any length
    is computed.  The best subset is the first of the largest value.
    """
    words = list(words)
    if not 1 <= t <= len(words):
        raise ValueError(f"subset size {t} out of range for {len(words)} words")
    n = len(words)
    if t >= 3:  # the floor of every subset, before any is listed
        _charge_joint(comb(n, t) * _SUBSET_CELLS, budget_cells)
    pairs = list(combinations(range(n), 2))
    subsets = list(combinations(range(n), t))
    joint = subsets if t >= 3 else []
    lengths = subset_lengths(words, pairs + joint, budget_cells=budget_cells)
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        table[i][i] = len(words[i])
    for (i, j), value in zip(pairs, lengths):
        table[i][j] = table[j][i] = value
    # for t <= 2 the table holds single lengths and pair values
    values = (lengths[len(pairs):] if joint
              else [table[c[0]][c[-1]] for c in subsets])
    value, subset = -1, ()
    for combo, got in zip(subsets, values):
        if got > value:
            value, subset = got, combo
    frozen = tuple(tuple(r) for r in table)
    return SetLcsStats(t, frozen, value, subset)
