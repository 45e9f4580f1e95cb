"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive: plain-list DP for LCS, full 3^n
role enumeration for twins, Decimal arithmetic for the exponent density.
Nothing imports from twinlcs, so a package bug cannot hide in its oracle.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from decimal import Decimal, getcontext
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

getcontext().prec = 60


# -- key-sorted words ----------------------------------------------------------


def key_sorted_letters(letters: Sequence[int],
                       keys: Sequence[tuple[int, ...]]) -> list[int]:
    """The letters in increasing order of their key tuples (Python's sort)."""
    return [letter for _, letter in sorted(zip(keys, letters))]


# -- longest common subsequence ----------------------------------------------


def brute_lcs(a: Sequence[int], b: Sequence[int]) -> int:
    """Textbook two-row DP."""
    a = tuple(a)
    b = tuple(b)
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[-1]))
        prev = cur
    return prev[len(b)]


def brute_lcs_multi(words: Sequence[Sequence[int]]) -> int:
    """Joint LCS of several short words.

    Jumping to the first occurrence of the chosen letter in each word
    never hurts, so the memo is keyed on the current index tuple only.
    """
    ws = [tuple(w) for w in words]

    @lru_cache(maxsize=None)
    def go(idx: tuple[int, ...]) -> int:
        best = 0
        i0 = idx[0]
        for c in set(ws[0][i0:]):
            nxt = []
            for w, i in zip(ws, idx):
                while i < len(w) and w[i] != c:
                    i += 1
                if i == len(w):
                    break
                nxt.append(i + 1)
            else:
                best = max(best, 1 + go(tuple(nxt)))
        return best

    value = go((0,) * len(ws))
    go.cache_clear()
    return value


def leftmost_greedy_lcs(words: Sequence[Sequence[int]]
                        ) -> tuple[tuple[int, ...], ...]:
    """Witness alignment whose flattened index sequence is smallest.

    Step by step, take the lexicographically smallest tuple of matching
    positions (one past the previous tuple in every word) after which
    the suffixes still hold a joint LCS one shorter.  Suffix values come
    from brute_lcs for two words and brute_lcs_multi otherwise.
    Returns one index tuple per word.
    """
    ws = [tuple(w) for w in words]
    joint = brute_lcs if len(ws) == 2 else lambda *s: brute_lcs_multi(s)

    def rest(front: tuple[int, ...]) -> int:
        return joint(*(w[i:] for w, i in zip(ws, front)))

    front = (0,) * len(ws)
    picks = []
    need = rest(front)
    while need:
        need -= 1
        picks.append(next(
            u for u in itertools.product(
                *(range(i, len(w)) for w, i in zip(ws, front)))
            if len({w[i] for w, i in zip(ws, u)}) == 1
            and rest(tuple(i + 1 for i in u)) == need))
        front = tuple(i + 1 for i in picks[-1])
    return tuple(tuple(u[d] for u in picks) for d in range(len(ws)))


# -- twins by exhaustive role enumeration ------------------------------------


def brute_twins(letters: Sequence[int]) -> int:
    """Maximum twin length over all 3^n role assignments.

    A role word is any map position -> {0, 1, 2}; it encodes twins when
    the role-1 subsequence equals the role-2 subsequence letterwise.
    """
    letters = tuple(letters)
    n = len(letters)
    best = 0
    for roles in itertools.product((0, 1, 2), repeat=n):
        size = roles.count(1)
        if size <= best or roles.count(2) != size:
            continue
        ones = [letters[i] for i in range(n) if roles[i] == 1]
        twos = [letters[i] for i in range(n) if roles[i] == 2]
        if ones == twos:
            best = size
    return best


def lexmin_monotone_roles(letters: Sequence[int],
                          pairs: int) -> Optional[tuple[int, ...]]:
    """Smallest monotone role word encoding exactly ``pairs`` twin pairs.

    Depth-first search trying roles in the order 0 < 1 < 2, so the first
    completed assignment is the lexicographic minimum.  For monotone
    role words validity is FIFO: the t-th 2 must carry the same letter
    as the t-th 1.  Returns None when no such role word exists.
    """
    letters = tuple(letters)
    n = len(letters)

    def dfs(pos: int, queue: deque, opened: int,
            prefix: list) -> Optional[tuple[int, ...]]:
        if pos == n:
            if not queue and opened == pairs:
                return tuple(prefix)
            return None
        remaining = n - pos
        # every pending 1 still needs a 2; every unopened pair needs both
        if len(queue) + 2 * (pairs - opened) > remaining:
            return None
        c = letters[pos]
        prefix.append(0)
        hit = dfs(pos + 1, queue, opened, prefix)
        prefix.pop()
        if hit is not None:
            return hit
        if opened < pairs:
            queue.append(c)
            prefix.append(1)
            hit = dfs(pos + 1, queue, opened + 1, prefix)
            prefix.pop()
            queue.pop()
            if hit is not None:
                return hit
        if queue and queue[0] == c:
            front = queue.popleft()
            prefix.append(2)
            hit = dfs(pos + 1, queue, opened, prefix)
            prefix.pop()
            queue.appendleft(front)
            if hit is not None:
                return hit
        return None

    if pairs < 0 or 2 * pairs > n:
        return None
    return dfs(0, deque(), 0, [])


class SearchBudgetExceeded(Exception):
    """The reference twin search visited more states than its budget."""


class ReferenceTwinSearch:
    """The twin search over (position, owed letters) states, with every
    feasibility test recomputed from the state at every node.

    Same states, memo and role order as the package's search, so the two
    must agree on roles and on the node count of every query.  The
    bounds are tested before the memo lookup, so a state that fails them
    is neither counted nor remembered.  ``_clears`` walks the whole owed queue and ``_fits`` counts each
    letter of it afresh, which is what the package's search avoids.
    Every further pair has its 2 after the owed letters' 2s, so
    ``_clears`` also asks that ``need`` 2s fit after the greedy match.
    """

    def __init__(self, letters: Sequence[int], k: int, budget_nodes: int):
        self.letters = tuple(letters)
        self.n = len(self.letters)
        self.k = k
        self.budget_nodes = budget_nodes
        self.nodes = 0
        # failed[(pos, debt)]: smallest need known to fail at the state
        self.failed: dict[tuple[int, tuple[int, ...]], int] = {}
        # next_at[p][c]: first index >= p holding c, else n;
        # counts[p][c]: occurrences of c in letters[p:]
        nxt, row = [self.n] * (k + 1), [0] * (k + 1)
        self.next_at, self.counts = [tuple(nxt)], [tuple(row)]
        for p in range(self.n - 1, -1, -1):
            nxt, row = list(nxt), list(row)
            nxt[self.letters[p]] = p
            row[self.letters[p]] += 1
            self.next_at.append(tuple(nxt))
            self.counts.append(tuple(row))
        self.next_at.reverse()
        self.counts.reverse()

    def _clears(self, pos: int, debt: tuple[int, ...], need: int) -> bool:
        """Can the owed letters be matched, in order, within letters[pos:],
        with room for ``need`` further 2s after the greedy match?"""
        p = pos
        for c in debt:
            p = self.next_at[p][c]
            if p >= self.n:
                return False
            p += 1
        return need <= self.n - p

    def _fits(self, pos: int, debt: tuple[int, ...], need: int) -> bool:
        """Do ``need`` further pairs fit the global and per-letter slack?"""
        if need > (self.n - pos - len(debt)) // 2:
            return False
        counts = self.counts[pos]
        per_letter = 0
        for c in range(1, self.k + 1):
            avail = counts[c] - debt.count(c)
            if avail >= 2:
                per_letter += avail // 2
        return need <= per_letter

    def find(self, pos: int, debt: tuple[int, ...],
             need: int) -> Optional[tuple[int, ...]]:
        """Lexicographically smallest role suffix for letters[pos:] that
        places exactly ``need`` more pairs and clears ``debt``, or None."""
        if not (self._clears(pos, debt, need)
                and self._fits(pos, debt, need)):
            return None
        key = (pos, debt)
        if need >= self.failed.get(key, need + 1):
            return None
        self.nodes += 1
        if self.nodes > self.budget_nodes:
            raise SearchBudgetExceeded(self.budget_nodes)
        if not debt and not need:  # only zeros remain, also at pos == n
            return (0,) * (self.n - pos)
        c = self.letters[pos]
        found = self.find(pos + 1, debt, need)
        if found is not None:
            return (0,) + found
        if need:
            found = self.find(pos + 1, debt + (c,), need - 1)
            if found is not None:
                return (1,) + found
        if debt and debt[0] == c:
            found = self.find(pos + 1, debt[1:], need)
            if found is not None:
                return (2,) + found
        self.failed[key] = need
        return None


def monotone_role_words(n: int, m: int
                        ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every monotone role word of length n with m pairs, as the pair
    (role-1 positions, role-2 positions), by a depth-first walk that
    places a 1 while fewer than m are open and a 2 while it trails."""
    rows = []
    ones: list[int] = []
    twos: list[int] = []

    def rec(pos: int) -> None:
        if len(ones) == m and len(twos) == m:
            rows.append((tuple(ones), tuple(twos)))
            return
        if n - pos < 2 * m - len(ones) - len(twos):
            return
        rec(pos + 1)
        if len(ones) < m:
            ones.append(pos)
            rec(pos + 1)
            ones.pop()
        if len(twos) < len(ones):
            twos.append(pos)
            rec(pos + 1)
            twos.pop()

    rec(0)
    return rows


def blockwise_roles(letters: Sequence[int], k: int, witness
                    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Role word (before monotonization) and block values of the
    blockwise twins, with a full witness for all three track pairs.

    Each block of 3k positions is dealt round-robin into three tracks.
    ``witness(x, y)`` returns (length, (indices in x, indices in y)) for
    two track words; it is passed in so that the reference places the
    package's alignment.  The first longest pair in the order (0, 1),
    (0, 2), (1, 2) marks its positions 1 and 2.
    """
    letters = tuple(letters)
    roles = [0] * len(letters)
    values = []
    size = 3 * k
    for base in range(0, len(letters) - size + 1, size):
        tracks = [[base + off for off in range(size) if off % 3 == track]
                  for track in range(3)]
        words = [tuple(letters[p] for p in tr) for tr in tracks]
        best = None
        for a, b in ((0, 1), (0, 2), (1, 2)):
            length, indices = witness(words[a], words[b])
            if best is None or length > best[0]:
                best = (length, a, b, indices)
        length, a, b, (in_a, in_b) = best
        for i in in_a:
            roles[tracks[a][i]] = 1
        for i in in_b:
            roles[tracks[b][i]] = 2
        values.append(length)
    return tuple(roles), tuple(values)


# -- role-word census ---------------------------------------------------------


def role_census(n: int) -> Counter:
    """Balanced role words of length n keyed by (pairs, switches, leading zeros).

    A switch is a 1 whose nearest preceding nonzero role is a 2.
    """
    census: Counter = Counter()
    for roles in itertools.product((0, 1, 2), repeat=n):
        if roles.count(1) != roles.count(2):
            continue
        nz = [r for r in roles if r]
        switches = sum(1 for a, b in zip(nz, nz[1:]) if a == 2 and b == 1)
        lead = 0
        for r in roles:
            if r:
                break
            lead += 1
        census[(roles.count(1), switches, lead)] += 1
    return census


def role_stats_reference(roles: Sequence[int], error: type = ValueError
                         ) -> tuple[int, int, int, int]:
    """(length, pairs, switches, leading zeros) of a role word in one pass.

    Raises ``error`` at the first digit outside {0, 1, 2}, then when the
    counts of 1s and 2s differ, with the package's messages.
    """
    ones = twos = 0
    switches = 0
    leading = 0
    last_nonzero = 0
    in_prefix = True
    for i, r in enumerate(roles):
        if r == 0:
            if in_prefix:
                leading += 1
            continue
        in_prefix = False
        if r == 1:
            ones += 1
            if last_nonzero == 2:
                switches += 1
        elif r == 2:
            twos += 1
        else:
            raise error(f"role at position {i} is {r}")
        last_nonzero = r
    if ones != twos:
        raise error(f"unbalanced roles: {ones} ones vs {twos} twos")
    return len(roles), ones, switches, leading


def is_monotone_reference(roles: Sequence[int]) -> bool:
    """Every digit is 0, 1 or 2, and every prefix holds at least as many
    1s as 2s, the whole word exactly as many."""
    roles = tuple(roles)
    prefixes = [roles[:i] for i in range(len(roles) + 1)]
    return (set(roles) <= {0, 1, 2}
            and all(p.count(2) <= p.count(1) for p in prefixes)
            and roles.count(1) == roles.count(2))


# -- exponent density in high precision ---------------------------------------


def theta_decimal(alpha, k: int) -> Decimal:
    """Four-term exponent density evaluated with 60-digit Decimals."""
    alpha = Fraction(alpha)
    a = Decimal(alpha.numerator) / Decimal(alpha.denominator)
    one = Decimal(1)
    two = Decimal(2)
    kk = Decimal(k)
    gap = one - two * a
    shape = gap * (one / gap).ln() if gap else Decimal(0)
    match = -a * (a * a * kk).ln()
    switch = -two * a * (two / (one + (one - one / kk).sqrt())).ln()
    idle = gap * (one - one / kk).ln() if gap else Decimal(0)
    return shape + match + switch + idle


# -- exact twin-tail distribution over all words -------------------------------


def tail_counts(k: int, n: int, max_len: int = 14) -> Counter:
    """Number of words in [k]^n with each exact twin length.

    Uses brute_twins (3^n roles), so keep k^n * 3^n small.
    """
    counts: Counter = Counter()
    for letters in itertools.product(range(1, k + 1), repeat=n):
        counts[brute_twins(letters)] += 1
    return counts


# -- expected-LCS descent and regularity, as scalar loops ----------------------


def exchange_descent(a: Sequence[Sequence[float]], p: Sequence[float],
                     ap: Sequence[float], *, tol: float = 1e-12,
                     max_sweeps: int = 500) -> list[float]:
    """Pair-by-pair exchange descent for p^T A p over the simplex.

    Visits every pair i < j in order and applies each improving move at
    once: the shift t of mass from coordinate i to j minimises
    2 t g + t^2 c over the candidates (-p[j], p[i] and, when c > 0, the
    clipped stationary point), where g = (Ap)[j] - (Ap)[i] and
    c = A[i][i] + A[j][j] - 2 A[i][j].  Stops after a sweep with no
    move.  The caller supplies Ap for the start (its rounding depends on
    how the product was summed); the final p is returned unnormalised.
    """
    a = [list(map(float, row)) for row in a]
    p = list(map(float, p))
    ap = list(map(float, ap))
    size = len(p)
    for _ in range(max_sweeps):
        improved = False
        for i in range(size):
            for j in range(i + 1, size):
                g = ap[j] - ap[i]
                c = a[i][i] + a[j][j] - 2.0 * a[i][j]
                lo, hi = -p[j], p[i]
                best_t = 0.0
                best_delta = 0.0
                for t in (lo, hi) if c <= 0 else (lo, hi,
                                                  min(hi, max(lo, -g / c))):
                    delta = 2.0 * t * g + t * t * c
                    if delta < best_delta:
                        best_delta = delta
                        best_t = t
                if best_delta < -tol:
                    p[i] -= best_t
                    p[j] += best_t
                    for r in range(size):
                        ap[r] += best_t * (a[r][j] - a[r][i])
                    improved = True
        if not improved:
            break
    return p


def expected_lcs_naive(table: Sequence[Sequence[int]],
                       weights: Sequence) -> Fraction:
    """sum_ij w_i w_j T[i][j] as one Fraction double sum."""
    total = Fraction(0)
    for wi, row in zip(weights, table):
        for wj, t in zip(weights, row):
            total += Fraction(wi) * Fraction(wj) * int(t)
    return total


def regularity_violation(letters: Sequence[int], eps,
                         max_length: int) -> Optional[tuple]:
    """First (start, end, pattern, gap) with a window frequency off by at
    least eps, scanning windows by (start, end) and patterns by (length,
    lexicographic); None when the word is (eps, L)-regular.  Every
    comparison is made with Fractions."""
    letters = tuple(letters)
    eps = Fraction(eps)
    n = len(letters)
    occurrences: dict = {}
    for m in range(1, max_length + 1):
        for i in range(n - m + 1):
            occurrences.setdefault(letters[i:i + m], []).append(i)
    patterns = sorted(occurrences, key=lambda pat: (len(pat), pat))
    for i in range(n):
        for j in range(i + 1, n + 1):
            if Fraction(j - i) < eps * n:
                continue
            for pat in patterns:
                m = len(pat)
                if m > j - i:
                    continue
                inside = sum(1 for s in occurrences[pat] if i <= s <= j - m)
                gap = abs(Fraction(inside, j - i - m + 1)
                          - Fraction(len(occurrences[pat]), n - m + 1))
                if gap >= eps:
                    return i, j, pat, gap
    return None


# -- strongly monotone tables, cell by cell ------------------------------------


def scalar_strongly_monotone(s: int, rng) -> list[list[int]]:
    """A strongly monotone s-by-s table drawn with one scalar
    ``rng.integers(0, 4)`` per cell in row order: each entry tops its
    left, upper and (strictly) diagonal neighbors by the draw."""
    padded = [[0] * (s + 1) for _ in range(s + 1)]
    for x in range(1, s + 1):
        for y in range(1, s + 1):
            base = max(padded[x - 1][y], padded[x][y - 1],
                       padded[x - 1][y - 1] + 1)
            padded[x][y] = base + int(rng.integers(0, 4))
    return [row[1:] for row in padded[1:]]


def monotonicity_violation(table: Sequence[Sequence[int]]) -> Optional[tuple]:
    """First pair of 1-based cells (x, y), (x', y') where the table f
    fails f(x', y') >= f(x, y), strictly when both arguments grow; cells
    are scanned by (x, y), and (x+1, y), (x, y+1), (x+1, y+1) are tried in
    that order.  None when the table is strongly monotone."""
    s = len(table)

    def f(x, y):
        return table[x - 1][y - 1]

    for x in range(1, s + 1):
        for y in range(1, s + 1):
            for dx, dy in ((1, 0), (0, 1), (1, 1)):
                if x + dx > s or y + dy > s:
                    continue
                if f(x + dx, y + dy) < f(x, y) + dx * dy:
                    return (x, y), (x + dx, y + dy)
    return None
