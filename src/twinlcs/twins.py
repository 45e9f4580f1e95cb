"""Twins: pairs of disjoint, equal subsequences of a single word.

A twin certificate marks each position of a word with a role: 0 for
unused, 1 for the first subsequence, 2 for the second.  Reading the
role-1 positions left to right must spell the same word as the role-2
positions.  The length of the twins is the number of pairs.

One target-directed search over (position, owed letters) states finds
the lexicographically smallest monotone role word with a given number
of pairs.  ``minimal_certificate`` asks it once.  ``lt_exact`` first asks
for the letter-count ceiling, the sum over letters of count // 2, which
most short binary words reach; when that fails it asks for 0, 1, 2, ...
pairs and returns the last role word found.  ``load`` points a search at
another word of the same length, keeping what it knows about the suffix
the two words share.  ``lt_oracle`` recomputes the value by brute
enumeration of role words and exists purely as an independent
cross-check; it shares no logic with the search.  It enumerates a
monotone role word with m pairs as a choice of its 2m marked positions
times a ballot word of m 1s and m 2s on them, as arrays, and
``_oracle_lengths`` checks a whole batch of words of one length in one
pass.

A role word is *monotone* when every prefix contains at least as many
1s as 2s (equivalently: the i-th marked position of the first
subsequence precedes the i-th marked position of the second).  Any
twins can be rearranged into monotone twins of the same length by
pairing the i-th smallest indices of both sides, so restricting
attention to monotone role words never changes the value.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (DEFAULT_BUDGET_CELLS, BudgetError,
                     InvalidCertificateError, Record, check_budget)
from .lcs import lcs_len, lcs_pair
from .words import Word

Roles = tuple[int, ...]

DEFAULT_EXACT_LENGTH = 60
DEFAULT_ORACLE_LENGTH = 14
# Bounds time, not memory: each state of the twin search may leave a failure
# of 110-120 bytes (RSS) in its memo, so 5M states can hold about 0.6 GB.
DEFAULT_NODE_BUDGET = 5_000_000


def parse_roles(text: str) -> Roles:
    """Parse a role word given as a string of digits 0, 1, 2."""
    roles = tuple(int(ch) for ch in text.strip())
    for r in roles:
        if r not in (0, 1, 2):
            raise ValueError(f"role digits must be 0, 1 or 2, got {r}")
    return roles


def roles_to_text(roles: Roles) -> str:
    return "".join(str(r) for r in roles)


def _marked(roles: Roles) -> tuple[list[int], list[int]]:
    """The 1-positions and the 2-positions of a role word; raises
    InvalidCertificateError at a digit outside {0, 1, 2}, then on unequal
    counts."""
    first, second = [], []
    for i, r in enumerate(roles):
        if r == 1:
            first.append(i)
        elif r == 2:
            second.append(i)
        elif r != 0:
            raise InvalidCertificateError(f"role at position {i} is {r}")
    if len(first) != len(second):
        raise InvalidCertificateError(
            f"unbalanced roles: {len(first)} ones vs {len(second)} twos")
    return first, second


def is_monotone(roles: Roles) -> bool:
    """True when the role word is balanced and no prefix has more 2s than
    1s, that is, when the i-th 1 comes before the i-th 2."""
    try:
        first, second = _marked(roles)
    except InvalidCertificateError:
        return False
    return all(map(operator.lt, first, second))


@dataclass(frozen=True)
class TwinCertificate:
    """A word together with a role word whose marked subsequences agree."""

    word: Word
    roles: Roles
    first: tuple[int, ...]
    second: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.first)

    @property
    def is_monotone(self) -> bool:
        return all(map(operator.lt, self.first, self.second))

    def twin_word(self) -> Word:
        """The common word spelled by either marked subsequence."""
        return Word(tuple(self.word[i] for i in self.first), self.word.k)

    def to_json(self) -> dict:
        """Not the field rule: the roles as text, plus ``monotone``."""
        return {
            "word": self.word.to_json(),
            "roles": roles_to_text(self.roles),
            "first": list(self.first),
            "second": list(self.second),
            "length": self.length,
            "monotone": self.is_monotone,
        }


def extract(word: Word, roles: Roles) -> TwinCertificate:
    """Validate a role word against a word and package the certificate.

    Raises InvalidCertificateError when the role word has the wrong
    length, a digit outside {0, 1, 2}, unbalanced counts, or when the
    two marked subsequences spell different words.
    """
    roles = tuple(int(r) for r in roles)
    if len(roles) != len(word):
        raise InvalidCertificateError(
            f"role word length {len(roles)} != word length {len(word)}")
    first, second = _marked(roles)
    for a, b in zip(first, second):
        if word[a] != word[b]:
            raise InvalidCertificateError(
                f"subsequences differ: position {a} holds {word[a]}, "
                f"position {b} holds {word[b]}")
    return TwinCertificate(word, roles, tuple(first), tuple(second))


def is_twin_roles(word: Word, roles: Roles) -> bool:
    try:
        extract(word, roles)
    except InvalidCertificateError:
        return False
    return True


# -- role statistics --------------------------------------------------------


@dataclass(frozen=True)
class RoleStats(Record):
    """Counts read off a role word.

    pairs: number of 1s (= number of 2s).
    switches: number of 1-positions whose nearest preceding nonzero
        role is a 2 (a hand-back from the second subsequence to the
        first, zeros aside).
    leading_zeros: length of the all-zero prefix.
    """

    length: int
    pairs: int
    switches: int
    leading_zeros: int


def role_stats(roles: Roles) -> RoleStats:
    """Pairs, switch count and leading-zero count of a role word; raises
    InvalidCertificateError as ``_marked`` does.  The 2s after exactly d
    1s form a block, so each such d < pairs makes the (d+1)-th 1 a switch."""
    first, second = _marked(roles)
    switches = len(set(map(bisect.bisect_left, itertools.repeat(first),
                           second)) - {len(first)})
    leading = min(first[0], second[0]) if first else len(roles)
    return RoleStats(len(roles), len(first), switches, leading)


# -- monotonization and regularity ------------------------------------------


def monotonize(cert: TwinCertificate) -> TwinCertificate:
    """Rearrange a certificate into a monotone one of the same length.

    Pairs the i-th marked position of each side and reassigns the
    smaller index to the first subsequence.  Both new index sequences
    are increasing and letters are preserved, so the result is a valid
    monotone certificate of equal length.
    """
    roles = [0] * len(cert.word)
    for a, b in zip(cert.first, cert.second):
        roles[min(a, b)], roles[max(a, b)] = 1, 2
    return extract(cert.word, tuple(roles))


@dataclass(frozen=True)
class RegularityViolation(Record):
    """A forbidden same-letter pattern inside a certificate.

    kind "switch": position ``left`` has role 2, position ``right`` has
    role 1, only zeros lie strictly between, and both hold one letter.
    kind "idle": position ``left`` is the nearest nonzero role before
    the unmarked position ``right`` and both hold one letter.
    """

    kind: str
    left: int
    right: int


def find_regularity_violation(word: Word,
                              roles: Roles) -> Optional[RegularityViolation]:
    """First forbidden pattern in reading order, or None."""
    last_nonzero = -1
    for j, r in enumerate(roles):
        if r == 0:
            if last_nonzero >= 0 and word[last_nonzero] == word[j]:
                return RegularityViolation("idle", last_nonzero, j)
        else:
            if (r == 1 and last_nonzero >= 0 and roles[last_nonzero] == 2
                    and word[last_nonzero] == word[j]):
                return RegularityViolation("switch", last_nonzero, j)
            last_nonzero = j
    return None


def is_regular_pair(word: Word, roles: Roles) -> bool:
    """True when neither forbidden same-letter pattern occurs."""
    return find_regularity_violation(word, roles) is None


# -- twin search -------------------------------------------------------------


class _TwinSearch:
    """Target-directed search over (position, owed letters) states.

    The state after scanning a prefix is the queue ``debt`` of letters
    marked 1 but not yet matched by a 2 (first in, first out).  ``find``
    asks for a role word that places a given number of pairs and empties
    the queue by the end of the word.  ``nodes`` counts the states that
    pass their bounds and that the failure memo does not settle; a child
    that fails its bounds is not called, which on random words halves
    the count (and the memo) of the same search.

    Each state also carries two integers, handed down from its parent in
    O(1), that decide whether it can still succeed:

    - ``end``: the index just past the greedy match of the owed letters
      in letters[pos:], or n + 1 when they cannot all be matched (pos
      when nothing is owed).  The queue is first in, first out, so the
      2 of every further pair comes after the 2s of all owed letters,
      the last of which sits at end - 1 or later: at most n - end more
      pairs fit.  As need >= 0, ``need <= n - end`` also requires
      end <= n, that is, that the debt can be cleared at all.
    - ``slack``: the sum over letters c of (c's left in letters[pos:]
      minus c's owed) // 2.  A further pair takes two copies of one
      letter that are not owed, so at most ``slack`` more pairs fit.
      When end <= n it is also at most half of the n - pos - len(debt)
      free positions, so it stands in for that bound too.

    Reading letter c at pos:

    - role 2 (c heads the queue) keeps both, since the greedy match took
      the head at pos;
    - role 0 keeps ``end`` unless c heads the queue, which is then
      matched again from pos + 1 (an empty queue gives pos + 1).  With
      ``avail`` the count of c left minus the count owed, ``slack``
      changes by (avail - 1) // 2 - avail // 2: it drops by one when
      ``avail`` is even;
    - role 1 appends c to the queue, whose greedy match continues from
      the role-0 child's end, at next_at[end0][c] + 1.  One c fewer is
      left and one more is owed, so ``slack`` drops by one.
    """

    def __init__(self, word: Word, budget_nodes: int = DEFAULT_NODE_BUDGET):
        letters, k = word.letters, word.k
        if k > len(letters):
            # the tables are sized by the alphabet, so a word with fewer
            # letters than that is renamed 1..k' in order of first
            # occurrence; roles are positions, so no answer changes
            names: dict[int, int] = {}
            letters = tuple(names.setdefault(c, len(names) + 1)
                            for c in letters)
            k = len(names)
        self.n = n = len(letters)
        self.budget_nodes = budget_nodes
        # failed[pos][debt]: smallest need known to fail at the state (load
        # gives rows 0..n-1 dicts of their own)
        self.failed: list[dict[Roles, int]] = [{}] * (n + 1)
        # next_at[p][c]: first index >= p holding c, else n (rows n and
        # n + 1 are all n, so an unmatched debt stays at n + 1);
        # left[p]: occurrences of letters[p] in letters[p:] (left[n] = 0)
        self.next_at = [(n,) * (k + 1)] * (n + 2)
        self.left = [0] * (n + 1)
        self.letters = (0,) * n  # no letter is 0, so load builds every row
        self.load(letters)

    def load(self, letters: tuple[int, ...]) -> None:
        """Search ``letters`` from now on: a word of the same length over
        the same alphabet, taken as given (no renaming).

        Every table row and failure at a position depends only on the
        suffix from there, so only the rows up to the last position whose
        letter changed are rebuilt and only their failures are dropped.
        The node count starts again from 0.
        """
        top = self.n - 1
        while top >= 0 and letters[top] == self.letters[top]:
            top -= 1
        next_at, left, failed = self.next_at, self.left, self.failed
        nxt = list(next_at[top + 1])
        for p in range(top, -1, -1):
            c = letters[p]
            left[p] = left[nxt[c]] + 1
            nxt[c] = p
            next_at[p] = tuple(nxt)
            failed[p] = {}
        self.letters = letters
        self.nodes = 0
        # next_at[0] holds each letter's first position, where left counts
        # all its copies (letter 0 and absent letters point at n)
        self.root_slack = sum(left[p] // 2 for p in next_at[0])

    def greedy_end(self, pos: int, debt: Roles) -> int:
        """Index just past the greedy match of ``debt`` in letters[pos:],
        or n + 1 when it cannot be matched."""
        for c in debt:
            pos = self.next_at[pos][c] + 1
        return pos

    def find(self, need: int) -> Optional[Roles]:
        """Lexicographically smallest monotone role word with exactly
        ``need`` pairs, or None."""
        if need > self.root_slack:  # at most n // 2, so end = 0 passes
            return None
        return self._find(0, (), need, 0, self.root_slack)

    def _find(self, pos: int, debt: Roles, need: int, end: int,
              slack: int) -> Optional[Roles]:
        """Lexicographically smallest role suffix for letters[pos:] that
        places exactly ``need`` more pairs and clears ``debt``, or None.

        The caller has tested need <= n - end and need <= slack.  The
        role-0 child is tested on both, the role-1 child on ``end`` alone
        (a pair fewer, one less ``slack``) and the role-2 child keeps
        these numbers.  Roles are tried in the order 0, 1, 2, so the first
        completion found is the minimum.  A failure is remembered as the
        smallest ``need`` that failed at the state; dropping the last pair
        of any completion leaves one with a pair fewer, so every larger
        ``need`` fails there too.
        """
        failed = self.failed[pos]
        if need >= failed.get(debt, need + 1):
            return None
        self.nodes += 1
        if self.nodes > self.budget_nodes:
            raise BudgetError(
                f"twin search exceeded {self.budget_nodes} states")
        if not debt and not need:  # only zeros remain, also at pos == n
            return (0,) * (self.n - pos)
        c = self.letters[pos]
        avail = self.left[pos] - debt.count(c)
        room = self.n - need  # need <= n - end, as a bound on end
        end0 = (end if debt and debt[0] != c
                else self.greedy_end(pos + 1, debt))
        slack0 = slack - 1 + (avail & 1)
        if end0 <= room and need <= slack0:
            found = self._find(pos + 1, debt, need, end0, slack0)
            if found is not None:
                return (0,) + found
        if need:
            end1 = self.next_at[end0][c] + 1
            if end1 <= room + 1:
                found = self._find(pos + 1, debt + (c,), need - 1, end1,
                                   slack - 1)
                if found is not None:
                    return (1,) + found
        if debt and debt[0] == c:
            found = self._find(pos + 1, debt[1:], need, end, slack)
            if found is not None:
                return (2,) + found
        failed[debt] = need
        return None


def _check_length(n: int, cap: int = DEFAULT_EXACT_LENGTH,
                  route: str = "exact search") -> None:
    """Raise ValueError when a word of length n is over a route's cap."""
    if n > cap:
        raise ValueError(f"{route} supports length <= {cap}, got {n}")


def lt_exact(word: Word, *, max_length: int = DEFAULT_EXACT_LENGTH,
             budget_nodes: int = DEFAULT_NODE_BUDGET) -> TwinCertificate:
    """Maximum-length twins with the lexicographically smallest monotone
    role word among the optima.

    Asks the search first for the ceiling, the sum over letters of
    count // 2 (each pair takes two copies of one letter, and the sum is
    at most n // 2), so a success settles the value in one query.
    Otherwise it asks for 0, 1, 2, ... pairs and keeps the last success;
    failures found for one target stay valid for the next.  Raises
    BudgetError past ``budget_nodes`` states; each may leave a failure of
    110-120 bytes in the memo, so the default can hold about 0.6 GB
    before that.
    """
    _check_length(len(word), max_length)
    search = _TwinSearch(word, budget_nodes)
    best = search.find(search.root_slack)
    if best is None:
        need = 0
        while (roles := search.find(need)) is not None:
            need, best = need + 1, roles
    return extract(word, best)


def minimal_certificate(word: Word, length: int) -> TwinCertificate:
    """Lexicographically smallest monotone certificate with exactly
    ``length`` pairs; raises ValueError when none exists and BudgetError
    past ``DEFAULT_NODE_BUDGET`` search states."""
    if length < 0:
        raise ValueError("twin length must be nonnegative")
    roles = _TwinSearch(word).find(length)
    if roles is None:
        raise ValueError(f"no twins of length {length} in {word.to_text()}")
    return extract(word, roles)


def regularize(cert: TwinCertificate) -> TwinCertificate:
    """Canonical certificate of the same length: the lexicographically
    smallest monotone role word with as many pairs.

    The minimum contains neither forbidden pattern: resolving a
    "switch" by exchanging the two roles, or an "idle" by sliding a
    mark onto the unmarked twin letter, would produce a smaller valid
    monotone role word.  Requires a monotone input.
    """
    if not cert.is_monotone:
        raise InvalidCertificateError("regularize requires a monotone input")
    return minimal_certificate(cert.word, cert.length)


# -- independent oracle ------------------------------------------------------


# Letters in each array of one oracle step, a chunk of words times a span of
# role words.  A step holds three such arrays at once (0.75 MiB of uint8
# letters); over all 4096 binary words of length 12 the traced peak of
# _oracle_lengths is 0.98 MiB.  A span takes at most _SPAN_ROLE_WORDS role
# words, so that a single word stops soon after the first one that fits.
_CHUNK_LETTERS = 1 << 18
_SPAN_ROLE_WORDS = 1 << 13


def _ballot_slots(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Slots of the 1s and of the 2s in every ballot word of m 1s and m 2s.

    Returns arrays of shape (Catalan(m), m).  The i-th 1 (from 0) of a
    ballot word sits at a slot <= 2i, so the rows grow one 1 at a time,
    each extended by every slot after its last 1 up to that limit: only
    ballot prefixes are ever visited.  The 2s fill the remaining slots.
    """
    ones = np.zeros((1, 1), dtype=np.int8)
    for i in range(1, m):
        last = ones[:, -1].astype(np.intp)
        fan = 2 * i - last
        start = np.repeat(np.cumsum(fan) - fan, fan)
        new = np.repeat(last + 1, fan) + np.arange(start.size) - start
        ones = np.column_stack([np.repeat(ones, fan, axis=0),
                                new.astype(np.int8)])
    free = np.ones((len(ones), 2 * m), dtype=bool)
    np.put_along_axis(free, ones.astype(np.intp), False, axis=1)
    twos = np.nonzero(free)[1].astype(np.int8).reshape(len(ones), m)
    return ones, twos


def _ballot_tables(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Index tables of every monotone role word of length n with m >= 1 pairs.

    Returns arrays (ones, twos) of shape (m, count), pair-major: column r
    lists the role-1 and role-2 positions of the r-th role word.  A role
    word is a choice of its 2m marked positions times a ballot word on
    them, so the tables are the C(n, 2m) position choices indexed by the
    Catalan(m) ballot slots.  Their entries are charged against
    ``DEFAULT_BUDGET_CELLS`` before anything is built.
    """
    marked = math.comb(n, 2 * m)
    entries = marked * (math.comb(2 * m, m) // (m + 1)) * 2 * m
    check_budget(entries, DEFAULT_BUDGET_CELLS, f"twin oracle at n={n}, m={m}",
                 hint="use the exact search", unit="role-table entries")
    positions = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n), 2 * m)),
        dtype=np.min_scalar_type(n), count=marked * 2 * m
    ).reshape(marked, 2 * m)
    slot_ones, slot_twos = _ballot_slots(m)
    return (positions.T[slot_ones.T].reshape(m, -1),
            positions.T[slot_twos.T].reshape(m, -1))


def _any_twins(letters: np.ndarray, ones: np.ndarray,
               twos: np.ndarray) -> np.ndarray:
    """Per row of ``letters``: does some role word of the pair-major
    tables mark equal letters?

    A step takes a chunk of words, transposed so that gathering one
    position copies a contiguous run of the chunk's letters, and a span
    of role words.  It builds the (span, words) mask of the role words
    whose pair slot 0 holds two different letters (their XOR is nonzero),
    ORs in slots 1 ... m-1 one at a time, and marks each word that some
    role word leaves clear; a chunk stops once all its words are marked.
    """
    count = len(letters)
    m, roles = ones.shape
    hit = np.zeros(count, dtype=bool)
    words = max(1, _CHUNK_LETTERS // roles)
    span = max(1, min(_SPAN_ROLE_WORDS, _CHUNK_LETTERS // words))
    for lo in range(0, count, words):
        sub = np.ascontiguousarray(letters[lo:lo + words].T)
        done = hit[lo:lo + words]
        for r in range(0, roles, span):
            cols = slice(r, r + span)
            differ = sub.take(ones[0, cols], axis=0)
            differ ^= sub.take(twos[0, cols], axis=0)
            for s in range(1, m):
                slot = sub.take(ones[s, cols], axis=0)
                slot ^= sub.take(twos[s, cols], axis=0)
                differ |= slot
            done |= (differ == 0).any(axis=0)
            if done.all():
                break
    return hit


def _oracle_lengths(letters: np.ndarray) -> np.ndarray:
    """Maximum twin length of each row of a (count, n) array of positive
    letters, by brute enumeration of monotone role words.

    Works from the largest pair count down; at each count it tests only
    the rows not yet settled whose per-letter slack allows that many
    pairs, against every role word of the table, in steps whose arrays
    hold at most ``_CHUNK_LETTERS`` letters each (``_any_twins``).  The
    slack takes one array pass per letter that occurs, whatever the
    alphabet.
    """
    letters = np.asarray(letters)
    letters = letters.astype(np.min_scalar_type(letters.max(initial=0)))
    count, n = letters.shape
    slack = np.minimum(n // 2, sum((letters == c).sum(axis=1) // 2
                                   for c in set(letters.ravel().tolist())))
    lengths = np.zeros(count, dtype=np.intp)
    todo = np.flatnonzero(slack)
    for m in range(int(slack.max(initial=0)), 0, -1):
        rows = todo[slack[todo] >= m]
        if rows.size:
            lengths[rows[_any_twins(letters[rows], *_ballot_tables(n, m))]] = m
            todo = todo[lengths[todo] == 0]
            if not todo.size:
                break
    return lengths


def lt_oracle(word: Word, *, max_length: int = DEFAULT_ORACLE_LENGTH) -> int:
    """Maximum twin length by brute enumeration of monotone role words.

    A monotone role word is a choice of its marked positions times a
    ballot word on them.  For each candidate pair count, in decreasing
    order, every such role word is materialized and checked against the
    word one pair slot at a time; ``_oracle_lengths`` does the
    same for a whole batch of words of one length at once.  Independent
    of the search by design.  Raises ValueError past ``max_length`` and
    BudgetError when a role table would exceed ``DEFAULT_BUDGET_CELLS``.
    """
    _check_length(len(word), max_length, "oracle enumeration")
    return int(_oracle_lengths(np.array([word.letters]))[0])


# -- cheap bounds and quick constructions ------------------------------------


def run_count(word: Word) -> int:
    """Number of maximal blocks of one repeated letter."""
    return sum(1 for _ in itertools.groupby(word))


def split_upper_bound(word: Word) -> int:
    """Upper bound on the twin length from single splits.

    For any split w = xy, pairs inside x are at most the trivial bound
    for x, pairs inside y likewise, and pairs crossing the split read
    off a common subsequence of x and y.  Minimizing over splits keeps
    the bound sound.  The n - 1 split LCS rows fill (n^3 - n) / 6 cells
    in all, charged against ``DEFAULT_BUDGET_CELLS`` before the first.
    """

    def cheap(lo: int, hi: int) -> int:
        counts: dict[int, int] = {}
        for i in range(lo, hi):
            counts[word[i]] = counts.get(word[i], 0) + 1
        return min((hi - lo) // 2, sum(v // 2 for v in counts.values()))

    n = len(word)
    check_budget((n ** 3 - n) // 6, DEFAULT_BUDGET_CELLS, "split_upper_bound")
    best = cheap(0, n)
    for s in range(1, n):
        head = Word(word.letters[:s], word.k)
        tail = Word(word.letters[s:], word.k)
        bound = cheap(0, s) + lcs_len(head, tail) + cheap(s, n)
        if bound < best:
            best = bound
    return best


def twins_via_runs(word: Word) -> TwinCertificate:
    """Twins from repeated letters: each run of length L yields
    floor(L/2) pairs, so the total is at least (n - #runs) / 2."""
    roles: list[int] = []
    for _, run in itertools.groupby(word):
        size = len(list(run))
        half = size // 2
        roles += [1] * half + [2] * half + [0] * (size % 2)
    return extract(word, tuple(roles))


@dataclass(frozen=True)
class BlockTwinsResult(Record):
    """Twins assembled from disjoint blocks of 3k consecutive positions.

    Each full block is split into three length-k tracks by position
    residue mod 3; the best pairwise LCS among the tracks becomes that
    block's contribution.  ``per_block_floor`` is (k/3)^(1/3), the
    guarantee each block is expected to meet.
    """

    certificate: TwinCertificate
    block_values: tuple[int, ...]
    per_block_floor: float
    _json_extra = ("floor_met",)

    @property
    def floor_met(self) -> bool:
        return all(v >= self.per_block_floor for v in self.block_values)


def twins_via_blocks(word: Word) -> BlockTwinsResult:
    """Blockwise twins: round-robin split each block of 3k positions
    into three tracks, take the best pairwise LCS per block, and chain
    the per-block twins.  A trailing partial block is dropped.

    Each block takes the three pair lengths and one witness, for the
    first longest pair in the order (0, 1), (0, 2), (1, 2), so the
    witness budget is charged once per block."""
    k = word.k
    n = len(word)
    size = 3 * k
    roles = [0] * n
    values = []
    for base in range(0, n - size + 1, size):
        tracks = [range(base + track, base + size, 3) for track in range(3)]
        block = word.letters[base:base + size]
        track_words = [Word(block[track::3], k) for track in range(3)]
        pairs = ((0, 1), (0, 2), (1, 2))
        lengths = [lcs_len(track_words[a], track_words[b]) for a, b in pairs]
        a, b = pairs[lengths.index(max(lengths))]
        res = lcs_pair(track_words[a], track_words[b])
        in_a, in_b = res.indices
        for idx in in_a:
            roles[tracks[a][idx]] = 1
        for idx in in_b:
            roles[tracks[b][idx]] = 2
        values.append(res.length)
    cert = monotonize(extract(word, tuple(roles)))
    return BlockTwinsResult(cert, tuple(values), (k / 3) ** (1.0 / 3.0))


_MONOTONE_TRIES = 64


def random_monotone_certificate(word: Word,
                                rng: np.random.Generator) -> TwinCertificate:
    """Sample a monotone certificate by a feasibility-guarded role walk.

    At each position one of the roles 0, 1, 2 is drawn uniformly among
    those after which the owed letters still fit into the remainder of
    the word, so the walk never dead-ends.  The walk retries until at
    least one pair lands.  It carries the owed letters' greedy end as
    the twin search does: every state it reaches has end <= n, so role
    2 is always open when the letter heads the queue.
    """
    n = len(word)
    search = _TwinSearch(word)  # reused for its transitions
    for _ in range(_MONOTONE_TRIES):
        debt: Roles = ()
        roles = []
        end = 0
        for pos in range(n):
            c = search.letters[pos]
            end0 = (end if debt and debt[0] != c
                    else search.greedy_end(pos + 1, debt))
            end1 = search.next_at[end0][c] + 1
            options = []
            if end0 <= n:
                options.append((0, debt, end0))
            if end1 <= n:
                options.append((1, debt + (c,), end1))
            if debt and debt[0] == c:
                options.append((2, debt[1:], end))
            role, debt, end = options[int(rng.integers(len(options)))]
            roles.append(role)
        if 1 in roles:
            return extract(word, tuple(roles))
    raise ValueError("no certificate with pairs found; word may lack"
                     " repeated letters")
