"""Families of permutations and multipermutations with small mutual LCS.

Every family is produced by one mechanism: write down, for each
(letter, copy) pair, an integer key vector, and sort the pairs by key.
Reading the letters in sorted order gives the word.  Negating every key
reverses the word exactly, and deleting letters never increases any
common-subsequence value, which is how restricted instances inherit
their ceilings.

Each builder returns a :class:`FamilyOutput` carrying the words plus
the list of certified ceilings (pairwise LCS, LCS against a reversed
partner, or joint LCS of a subset).  ``check_family`` recomputes every
ceiling with the LCS engine.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import BudgetError
from .lcs import DEFAULT_BUDGET_CELLS, lcs_len, lcs_multi
from .words import Word


# -- primality helpers -------------------------------------------------------

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(x: int) -> bool:
    """Deterministic Miller-Rabin, exact for x below 3.3e24."""
    if x < 2:
        return False
    for p in _MR_WITNESSES:
        if x % p == 0:
            return x == p
    d = x - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        y = pow(a, d, x)
        if y in (1, x - 1):
            continue
        for _ in range(r - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


def next_prime(x: int) -> int:
    """Smallest prime >= x."""
    if x <= 2:
        return 2
    cand = x | 1
    while not is_prime(cand):
        cand += 2
    return cand


# -- lexicographic builds ----------------------------------------------------


@dataclass(frozen=True)
class LexSpec:
    """A key table: one (letter, key vector) row per position of the word."""

    rows: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self):
        rows = tuple((int(letter), tuple(int(c) for c in key))
                     for letter, key in self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows:
            return
        arity = len(rows[0][1])
        seen = set()
        for letter, key in rows:
            if letter < 1:
                raise ValueError(f"letters start at 1, got {letter}")
            if len(key) != arity:
                raise ValueError("key vectors must share one arity")
            if key in seen:
                raise ValueError(f"key table is not injective at {key}")
            seen.add(key)


def lex_build(spec: LexSpec, k: Optional[int] = None) -> Word:
    """The word read off the key table in sorted key order."""
    letters = tuple(letter for _, letter in
                    sorted((key, letter) for letter, key in spec.rows))
    if k is None:
        k = max(letters, default=1)
    return Word(letters, k)


def _rank(values: Sequence[int], radices: Sequence[int]) -> int:
    """Mixed-radix letter index, first coordinate most significant."""
    letter = 0
    for v, r in zip(values, radices):
        letter = letter * r + (v - 1)
    return letter + 1


def _compact(words: Sequence[Word]) -> tuple[Word, ...]:
    """Relabel the letters actually used onto 1..m, order preserved."""
    used = sorted(set().union(*[set(w.letters) for w in words]))
    relabel = {c: i + 1 for i, c in enumerate(used)}
    return tuple(Word(tuple(relabel[c] for c in w.letters), len(used))
                 for w in words)


# -- family outputs ----------------------------------------------------------


@dataclass(frozen=True)
class Ceiling:
    """A certified upper bound on a common-subsequence value.

    mode "lcs": LCS of the two indexed words.
    mode "rev": LCS of the first word against the reversed second.
    mode "set": joint LCS of all indexed words.
    """

    indices: tuple[int, ...]
    mode: str
    bound: object

    def __post_init__(self):
        if self.mode not in ("lcs", "rev", "set"):
            raise ValueError(f"unknown ceiling mode {self.mode!r}")
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))

    def to_json(self) -> dict:
        bound = self.bound
        if isinstance(bound, Fraction):
            bound = {"num": bound.numerator, "den": bound.denominator}
        return {"indices": list(self.indices), "mode": self.mode,
                "bound": bound}


@dataclass(frozen=True)
class FamilyOutput:
    family: str
    params: tuple[tuple[str, object], ...]
    words: tuple[Word, ...]
    ceilings: tuple[Ceiling, ...]

    def param(self, name: str):
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    def to_json(self) -> dict:
        return {"family": self.family,
                "params": {k: v for k, v in self.params},
                "words": [w.to_json() for w in self.words],
                "ceilings": [c.to_json() for c in self.ceilings]}


def ceiling_value(out: FamilyOutput, ceiling: Ceiling, *,
                  budget_cells: int = DEFAULT_BUDGET_CELLS,
                  set_restrict: Optional[int] = None) -> int:
    """Recompute the quantity a ceiling bounds.

    ``set_restrict`` caps joint-LCS checks by first deleting all letters
    above the cap from every word; deletion never increases the joint
    LCS, so the check remains sound for the restricted instance.
    """
    words = [out.words[i] for i in ceiling.indices]
    if ceiling.mode == "lcs":
        return lcs_len(words[0], words[1])
    if ceiling.mode == "rev":
        return lcs_len(words[0], words[1].reversed())
    if set_restrict is not None:
        words = [w.restrict(range(1, set_restrict + 1)) for w in words]
    return lcs_multi(words, witness=False, budget_cells=budget_cells).length


def check_family(out: FamilyOutput, *,
                 budget_cells: int = DEFAULT_BUDGET_CELLS,
                 set_restrict: Optional[int] = None
                 ) -> list[tuple[Ceiling, int, bool]]:
    """(ceiling, computed value, value <= bound) for every ceiling."""
    report = []
    for ceiling in out.ceilings:
        value = ceiling_value(out, ceiling, budget_cells=budget_cells,
                              set_restrict=set_restrict)
        report.append((ceiling, value, value <= ceiling.bound))
    return report


# -- concrete families -------------------------------------------------------


def quadratic_family(p: int, k: Optional[int] = None) -> FamilyOutput:
    """p permutations of the p^3 cube with pairwise LCS at most 4p - 2.

    Word i sorts the cube by the residues (i^2 x + i y + z, 2 i x + y, x)
    mod p.  With ``k`` the family is restricted to its first k letters.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    cube = p ** 3
    if k is None:
        k = cube
    if not 1 <= k <= cube:
        raise ValueError(f"k must lie in [1, {cube}], got {k}")
    words = []
    for i in range(p):
        rows = []
        for x, y, z in itertools.product(range(p), repeat=3):
            letter = 1 + x * p * p + y * p + z
            key = ((i * i * x + i * y + z) % p, (2 * i * x + y) % p, x)
            rows.append((letter, key))
        words.append(lex_build(LexSpec(tuple(rows)), k=cube))
    if k < cube:
        words = _compact([w.restrict(range(1, k + 1)) for w in words])
    ceilings = tuple(Ceiling((i, j), "lcs", 4 * p - 2)
                     for i, j in itertools.combinations(range(p), 2))
    return FamilyOutput("quadratic", (("p", p), ("k", k)),
                        tuple(words), ceilings)


_CUBE_SIGNS = ((1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1))


def cube_quadruple(n: int) -> FamilyOutput:
    """Four permutations of the n^3 cube with pairwise LCS at most n.

    Each word sorts the cube by (s1 x, s2 y, s3 z) for a sign pattern
    with an even number of minuses removed; any two patterns agree on
    exactly one axis, and a common subsequence must follow that axis.
    """
    if n < 1:
        raise ValueError(f"side must be >= 1, got {n}")
    words = []
    for signs in _CUBE_SIGNS:
        rows = []
        for x, y, z in itertools.product(range(1, n + 1), repeat=3):
            letter = _rank((x, y, z), (n, n, n))
            key = (signs[0] * x, signs[1] * y, signs[2] * z)
            rows.append((letter, key))
        words.append(lex_build(LexSpec(tuple(rows)), k=n ** 3))
    ceilings = tuple(Ceiling((i, j), "lcs", n)
                     for i, j in itertools.combinations(range(4), 2))
    return FamilyOutput("cube", (("n", n),), tuple(words), ceilings)


def _floor_sqrt_ratio(k: int, s: int) -> int:
    """Largest t with t*t*s <= k."""
    t = max(int(math.isqrt(max(k // s, 0))), 0)
    while (t + 1) * (t + 1) * s <= k:
        t += 1
    while t * t * s > k:
        t -= 1
    return t


def grid_pair(k: Optional[int] = None, s: int = 1, *,
              k1: Optional[int] = None, k2: Optional[int] = None
              ) -> FamilyOutput:
    """A multipermutation pair on a k1 x k2 grid, s copies per letter.

    The first word lists the letters in ascending blocks, the second
    descends inside each block, so forward common subsequences are
    trapped inside at most k1 blocks of s copies while reversed ones
    cross blocks at most k2 + s - 1 times.  In auto mode k1 is the
    half-up rounding of sqrt(k/s) + 1/2 and k2 = ceil(k/k1); the grid is
    then trimmed to exactly k letters by deleting the largest ones.
    """
    if s < 1:
        raise ValueError(f"multiplicity must be >= 1, got {s}")
    auto = k1 is None and k2 is None
    if auto:
        if k is None or k < 1:
            raise ValueError("auto mode needs a positive letter count k")
        k1 = _floor_sqrt_ratio(k, s) + 1
        k2 = -(-k // k1)
    elif k1 is None or k2 is None:
        raise ValueError("give both k1 and k2, or neither")
    elif k1 < 1 or k2 < 1:
        raise ValueError("grid sides must be >= 1")
    else:
        k = k1 * k2
    rows_fwd = []
    rows_bwd = []
    for x in range(1, k1 + 1):
        for y in range(1, k2 + 1):
            letter = _rank((x, y), (k1, k2))
            for r in range(1, s + 1):
                rows_fwd.append((letter, (x, y, r)))
                rows_bwd.append((letter, (x, r, -y)))
    words = (lex_build(LexSpec(tuple(rows_fwd)), k=k1 * k2),
             lex_build(LexSpec(tuple(rows_bwd)), k=k1 * k2))
    if auto and k1 * k2 > k:
        words = _compact([w.restrict(range(1, k + 1)) for w in words])
    ceilings = (Ceiling((0, 1), "lcs", k1 * s),
                Ceiling((0, 1), "rev", k2 + s - 1))
    return FamilyOutput("grid", (("k", k), ("s", s), ("k1", k1), ("k2", k2),
                                 ("auto", auto)), words, ceilings)


def multiperm_quadruple(s: int, k1: Optional[int] = None,
                        k2: Optional[int] = None, k3: Optional[int] = None,
                        k: Optional[int] = None) -> FamilyOutput:
    """Four multipermutations of a k1 x k2 x k3 box, s copies per letter.

    The six pairwise LCS values obey (and on the full box attain):
    words (0,1) and (2,3): k3 + s - 1; (0,3) and (1,2): k1 s;
    (0,2): k2 s; (1,3): k2 (2s - 1), the latter needing k3 >= 2 when
    s >= 2.  With k3 = 1 words 1 and 3 order every fixed-x block the
    same way, so that pair degenerates to k2 s.
    """
    if s < 1:
        raise ValueError(f"multiplicity must be >= 1, got {s}")
    explicit = (k1, k2, k3)
    auto = all(v is None for v in explicit)
    if auto:
        if k is None or k < 1:
            raise ValueError("auto mode needs a positive letter count k")
        v = (k / (4 * s)) ** (1.0 / 3.0) + 1.0 / 3.0
        k2 = max(1, math.floor(v + 0.5))
        k1 = 2 * k2
        k3 = -(-k // (k1 * k2))
        if s >= 2 and k3 < 2:
            k3 = 2
    elif any(v is None for v in explicit):
        raise ValueError("give all of k1, k2, k3, or none")
    elif min(k1, k2, k3) < 1:
        raise ValueError("box sides must be >= 1")
    else:
        k = k1 * k2 * k3
    rows = [[] for _ in range(4)]
    for x in range(1, k1 + 1):
        for y in range(1, k2 + 1):
            for z in range(1, k3 + 1):
                letter = _rank((x, y, z), (k1, k2, k3))
                for r in range(1, s + 1):
                    rows[0].append((letter, (x, y, z, r)))
                    rows[1].append((letter, (-x, -y, r, z)))
                    rows[2].append((letter, (-x, y, -z, r)))
                    rows[3].append((letter, (x, -y, r, -z)))
    words = tuple(lex_build(LexSpec(tuple(rs)), k=k1 * k2 * k3) for rs in rows)
    if auto and k1 * k2 * k3 > k:
        words = _compact([w.restrict(range(1, k + 1)) for w in words])
    ceilings = (Ceiling((0, 1), "lcs", k3 + s - 1),
                Ceiling((2, 3), "lcs", k3 + s - 1),
                Ceiling((0, 3), "lcs", k1 * s),
                Ceiling((1, 2), "lcs", k1 * s),
                Ceiling((0, 2), "lcs", k2 * s),
                Ceiling((1, 3), "lcs",
                        k2 * s if k3 == 1 else k2 * (2 * s - 1)))
    return FamilyOutput("multiperm",
                        (("s", s), ("k", k), ("k1", k1), ("k2", k2),
                         ("k3", k3), ("auto", auto)), words, ceilings)


def tuplet_family(t: int, kappa: int, *,
                  max_letters: int = 10 ** 6) -> FamilyOutput:
    """2t permutations such that every t of them have joint LCS <= kappa.

    One coordinate per t-subset I of {1..2t-1}, each running over
    [kappa].  Word i > 0 sorts coordinate I ascending exactly when
    i is in I; word 0 sorts every coordinate descending.  Any t of the
    words leave exactly one coordinate sorted the same way by all of
    them, and a joint common subsequence can only move along it.
    """
    if t < 2:
        raise ValueError(f"tuplet order must be >= 2, got {t}")
    if kappa < 1:
        raise ValueError(f"coordinate range must be >= 1, got {kappa}")
    subsets = list(itertools.combinations(range(1, 2 * t), t))
    letters = kappa ** len(subsets)
    if letters > max_letters:
        raise BudgetError(
            f"family needs {letters} letters, over the cap {max_letters}")
    radices = (kappa,) * len(subsets)
    signs_per_word = [[-1] * len(subsets)]
    for i in range(1, 2 * t):
        signs_per_word.append([1 if i in I else -1 for I in subsets])
    words = []
    for signs in signs_per_word:
        rows = []
        for values in itertools.product(range(1, kappa + 1),
                                        repeat=len(subsets)):
            letter = _rank(values, radices)
            key = tuple(sg * v for sg, v in zip(signs, values))
            rows.append((letter, key))
        words.append(lex_build(LexSpec(tuple(rows)), k=letters))
    ceilings = tuple(Ceiling(subset, "set", kappa)
                     for subset in itertools.combinations(range(2 * t), t))
    return FamilyOutput("tuplet", (("t", t), ("kappa", kappa)),
                        tuple(words), ceilings)


def stratified_family(k: int, n: int, ms: Sequence[int]) -> FamilyOutput:
    """Periodic words w_m = (1^m 2^m .. k^m)^(n/mk) plus the constant
    words and the two staircases, with LCS(w_m1, w_m2) <= (1/k + m1/m2) n
    for m1 < m2.

    Every m in ms must satisfy mk | n.  The ascending staircase equals
    w_(n/k) and is omitted when that word is already present.
    """
    if k < 1 or n < 1:
        raise ValueError("alphabet size and length must be >= 1")
    ms = tuple(sorted(set(int(m) for m in ms)))
    if not ms or ms[0] < 1:
        raise ValueError("ms must be positive")
    for m in ms:
        if n % (m * k) != 0:
            raise ValueError(f"m = {m} needs m*k to divide n = {n}")
    words = []
    index_of_m = {}
    for m in ms:
        block = tuple(letter for letter in range(1, k + 1) for _ in range(m))
        index_of_m[m] = len(words)
        words.append(Word(block * (n // (m * k)), k))
    const_index = {}
    for letter in range(1, k + 1):
        const_index[letter] = len(words)
        words.append(Word((letter,) * n, k))
    step = n // k
    stair = Word(tuple(letter for letter in range(1, k + 1)
                       for _ in range(step)), k)
    if step in index_of_m:
        stair_idx = index_of_m[step]
    else:
        stair_idx = len(words)
        words.append(stair)
    rstair_idx = len(words)
    words.append(stair.reversed())

    per_letter = Fraction(n, k)
    ceilings = []
    strat = [(m, index_of_m[m]) for m in ms]
    if step not in index_of_m:
        strat.append((step, stair_idx))
        strat.sort()
    for (m1, i1), (m2, i2) in itertools.combinations(strat, 2):
        ceilings.append(Ceiling((i1, i2), "lcs",
                                per_letter + Fraction(m1, m2) * n))
    for a, b in itertools.combinations(const_index.values(), 2):
        ceilings.append(Ceiling((a, b), "lcs", 0))
    for _, i in strat:
        for c in const_index.values():
            ceilings.append(Ceiling((i, c), "lcs", per_letter))
    for c in const_index.values():
        ceilings.append(Ceiling((c, rstair_idx), "lcs", per_letter))
    ceilings.append(Ceiling((stair_idx, rstair_idx), "lcs", per_letter))
    return FamilyOutput("stratified", (("k", k), ("n", n), ("ms", ms)),
                        tuple(words), tuple(ceilings))


FAMILY_BUILDERS = {
    "quadratic": quadratic_family,
    "cube": cube_quadruple,
    "grid": grid_pair,
    "multiperm": multiperm_quadruple,
    "tuplet": tuplet_family,
    "stratified": stratified_family,
}
