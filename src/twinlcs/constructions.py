"""Families of permutations and multipermutations with small mutual LCS.

All families but the stratified one come from one mechanism: give each
(letter, copy) position an integer key vector and read the letters in
increasing key order.  A builder takes the coordinates of its box from
``np.indices`` (the tuplet family, whose coordinates can outnumber the
axes numpy allows, by row-major arithmetic on the letter index), numbers
the letters by arithmetic on them, writes each key coordinate as one
array, most significant first, and a single ``np.lexsort`` orders every
position; equal key vectors raise ValueError.  Negating every key
reverses the word exactly, and deleting letters never increases any
common-subsequence value, which is how instances restricted to their
first k letters inherit their ceilings.  A family is restricted only as
it is built: the quadratic and tuplet builders take such a k, and the
grid and multipermutation auto modes trim their boxes to k letters.

Each builder returns a :class:`FamilyOutput` carrying the words plus
the list of certified ceilings (pairwise LCS, LCS against a reversed
partner, or joint LCS of a subset).  ``check_family`` recomputes every
ceiling of the words it is given with the LCS engine.  A family of more
than four million letters in all raises BudgetError before anything is
built, and so does a tuplet family whose key table for one word, or whose
list of ceilings, holds more than four million entries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DEFAULT_BUDGET_CELLS, BudgetError, Record
from .lcs import subset_lengths
from .words import Word


# -- size cap and primality --------------------------------------------------

# Letters over all words of one family, checked by every builder before it
# allocates: at the cap, cube_quadruple(100) peaks near 0.3 GB in about 2 s.
_MAX_LETTERS = 4 * 10**6


def _check_letters(count: int, unit: str = "letters") -> None:
    if count > _MAX_LETTERS:
        raise BudgetError(f"family needs {count} {unit}, over the cap "
                          f"{_MAX_LETTERS}")


def _is_prime(x: int) -> bool:
    """Trial division; the letter cap keeps the moduli it sees small."""
    return x >= 2 and all(x % d for d in range(2, math.isqrt(x) + 1))


# -- key-array builds --------------------------------------------------------


def _sorted_word(letters: np.ndarray, keys: Sequence[np.ndarray],
                 k: int) -> Word:
    """The letters up to k, read in increasing order of their key vectors.

    ``letters`` and every row of ``keys`` (one per key coordinate, most
    significant first: a sequence of equal-shaped arrays or one array
    with the coordinates first) hold one entry per position, in the
    same row-major order.  Equal key vectors would leave the order
    open, so they raise ValueError.  Key rows that are constant over
    the positions order nothing and are left out of the sort.
    """
    columns = np.reshape(keys, (len(keys), -1))
    varying = columns[(columns != columns[:, :1]).any(axis=1)]
    order = (np.lexsort(varying[::-1]) if len(varying)
             else np.arange(columns.shape[1]))
    ranked = columns[:, order]
    tied = np.flatnonzero((ranked[:, 1:] == ranked[:, :-1]).all(axis=0))
    if tied.size:
        key = tuple(ranked[:, tied[0]].tolist())
        raise ValueError(f"key table is not injective at {key}")
    word = np.ravel(letters)[order]
    return Word(tuple(word[word <= k].tolist()), k)


# -- family outputs ----------------------------------------------------------


@dataclass(frozen=True)
class Ceiling(Record):
    """A certified upper bound on a common-subsequence value.

    mode "lcs": LCS of the two indexed words.
    mode "rev": LCS of the first word against the reversed second.
    mode "set": joint LCS of all indexed words.
    """

    indices: tuple[int, ...]
    mode: str
    bound: int


@dataclass(frozen=True)
class FamilyOutput(Record):
    family: str
    params: dict
    words: tuple[Word, ...]
    ceilings: tuple[Ceiling, ...]


def check_family(out: FamilyOutput, *,
                 budget_cells: int = DEFAULT_BUDGET_CELLS
                 ) -> list[tuple[Ceiling, int, bool]]:
    """(ceiling, computed value, value <= bound) for every ceiling.

    Every ceiling goes through one ``subset_lengths`` call, with each
    reversed partner built once, so each word is prepared for the
    match-point chain at most once.  Only the joint "set" ceilings charge
    ``budget_cells``, all together, and the call refuses before it
    computes any value; a tuplet family too long for them is built with a
    smaller ``k``, so the words checked are the words printed.  A mode
    other than "lcs", "rev" and "set" names no quantity: ValueError,
    before any value is computed.
    """
    words = list(out.words)
    reversed_at: dict[int, int] = {}  # word index: index of its reversal
    subsets = []
    for ceiling in out.ceilings:
        if ceiling.mode == "rev":
            i, j = ceiling.indices
            if j not in reversed_at:
                reversed_at[j] = len(words)
                words.append(out.words[j].reversed())
            subsets.append((i, reversed_at[j]))
        elif ceiling.mode in ("lcs", "set"):
            subsets.append(ceiling.indices)
        else:
            raise ValueError(f"unknown ceiling mode {ceiling.mode!r}")
    values = subset_lengths(words, subsets, budget_cells=budget_cells)
    return [(ceiling, value, value <= ceiling.bound)
            for ceiling, value in zip(out.ceilings, values)]


# -- concrete families -------------------------------------------------------


def quadratic_family(p: int, k: Optional[int] = None) -> FamilyOutput:
    """p permutations of the p^3 cube with pairwise LCS at most 4p - 2.

    Word i sorts the cube by the residues (i^2 x + i y + z, 2 i x + y, x)
    mod p.  With ``k`` the family is restricted to its first k letters.
    """
    _check_letters(p ** 4)
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    cube = p ** 3
    if k is None:
        k = cube
    if not 1 <= k <= cube:
        raise ValueError(f"k must lie in [1, {cube}], got {k}")
    x, y, z = np.indices((p, p, p))
    letters = 1 + np.arange(cube)
    words = tuple(
        _sorted_word(letters, ((i * i * x + i * y + z) % p,
                               (2 * i * x + y) % p, x), k)
        for i in range(p))
    ceilings = tuple(Ceiling((i, j), "lcs", 4 * p - 2)
                     for i, j in itertools.combinations(range(p), 2))
    return FamilyOutput("quadratic", {"p": p, "k": k}, words, ceilings)


_CUBE_SIGNS = ((1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1))


def cube_quadruple(n: int) -> FamilyOutput:
    """Four permutations of the n^3 cube with pairwise LCS at most n.

    Each word sorts the cube by (s1 x, s2 y, s3 z) for a sign pattern
    with an even number of minuses removed; any two patterns agree on
    exactly one axis, and a common subsequence must follow that axis.
    """
    if n < 1:
        raise ValueError(f"side must be >= 1, got {n}")
    _check_letters(4 * n ** 3)
    axes = np.indices((n, n, n))
    letters = 1 + np.arange(n ** 3)
    words = tuple(_sorted_word(letters, [sign * axis for sign, axis
                                         in zip(signs, axes)], n ** 3)
                  for signs in _CUBE_SIGNS)
    ceilings = tuple(Ceiling((i, j), "lcs", n)
                     for i, j in itertools.combinations(range(4), 2))
    return FamilyOutput("cube", {"n": n}, words, ceilings)


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
        k1 = math.isqrt(k // s) + 1
        k2 = -(-k // k1)
    elif k1 is None or k2 is None:
        raise ValueError("give both k1 and k2, or neither")
    elif k is not None:
        raise ValueError("give k, or k1 and k2, not both")
    elif k1 < 1 or k2 < 1:
        raise ValueError("grid sides must be >= 1")
    else:
        k = k1 * k2
    _check_letters(2 * k1 * k2 * s)
    x, y, r = np.indices((k1, k2, s))
    letters = 1 + x * k2 + y
    words = (_sorted_word(letters, (x, y, r), k),
             _sorted_word(letters, (x, r, -y), k))
    ceilings = (Ceiling((0, 1), "lcs", k1 * s),
                Ceiling((0, 1), "rev", k2 + s - 1))
    return FamilyOutput("grid", {"k": k, "s": s, "k1": k1, "k2": k2,
                                 "auto": auto}, words, ceilings)


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
    elif k is not None:
        raise ValueError("give k, or k1, k2 and k3, not both")
    elif min(k1, k2, k3) < 1:
        raise ValueError("box sides must be >= 1")
    else:
        k = k1 * k2 * k3
    _check_letters(4 * k1 * k2 * k3 * s)
    x, y, z, r = np.indices((k1, k2, k3, s))
    letters = 1 + (x * k2 + y) * k3 + z
    keys = ((x, y, z, r), (-x, -y, r, z), (-x, y, -z, r), (x, -y, r, -z))
    words = tuple(_sorted_word(letters, key, k) for key in keys)
    ceilings = (Ceiling((0, 1), "lcs", k3 + s - 1),
                Ceiling((2, 3), "lcs", k3 + s - 1),
                Ceiling((0, 3), "lcs", k1 * s),
                Ceiling((1, 2), "lcs", k1 * s),
                Ceiling((0, 2), "lcs", k2 * s),
                Ceiling((1, 3), "lcs",
                        k2 * s if k3 == 1 else k2 * (2 * s - 1)))
    return FamilyOutput("multiperm",
                        {"s": s, "k": k, "k1": k1, "k2": k2, "k3": k3,
                         "auto": auto}, words, ceilings)


def tuplet_family(t: int, kappa: int,
                  k: Optional[int] = None) -> FamilyOutput:
    """2t permutations such that every t of them have joint LCS <= kappa.

    One coordinate per t-subset I of {1..2t-1}, each running over
    [kappa].  Word i > 0 sorts coordinate I ascending exactly when
    i is in I; word 0 sorts every coordinate descending.  Any t of the
    words leave exactly one coordinate sorted the same way by all of
    them, and a joint common subsequence can only move along it.  With
    ``k`` the family is restricted to its first k letters, which keeps
    its joint checks short.
    """
    if t < 2:
        raise ValueError(f"tuplet order must be >= 2, got {t}")
    if kappa < 1:
        raise ValueError(f"coordinate range must be >= 1, got {kappa}")
    # C(2t-1, t) >= 2^(t-1), the key entries of one word, so a t past the
    # cap's bit length is refused before the count is formed: at t = 10^6
    # that alone takes 30 s, and its digits would not fit a message
    if t > _MAX_LETTERS.bit_length():
        raise BudgetError(f"family needs at least 2^{t - 1} key entries per "
                          f"word, over the cap {_MAX_LETTERS}")
    coordinates = math.comb(2 * t - 1, t)
    # with kappa >= 2 a box of cap.bit_length() coordinates is already over
    # the cap, so no larger power is formed; the count then is a lower bound
    size = 1 if kappa == 1 else kappa ** min(coordinates,
                                             _MAX_LETTERS.bit_length())
    _check_letters(2 * t * size)
    # each word sorts a key table of one entry per coordinate and letter,
    # and each of the C(2t, t) ceilings lists t words
    _check_letters(coordinates * size, "key entries per word")
    _check_letters(t * math.comb(2 * t, t), "ceiling indices")
    if k is None:
        k = size
    if not 1 <= k <= size:
        raise ValueError(f"k must lie in [1, {size}], got {k}")
    index = np.arange(size)
    # one row per coordinate, row-major as np.indices
    powers = kappa ** np.arange(coordinates - 1, -1, -1)
    axes = index // powers[:, None] % kappa
    letters = 1 + index
    # bit i of a subset's mask is set when word i sorts it ascending; no
    # subset holds 0, so word 0 sorts every coordinate descending
    subsets = np.array(list(itertools.combinations(range(1, 2 * t), t)))
    masks = (1 << subsets).sum(axis=1)
    signs = np.where(masks >> np.arange(2 * t)[:, None] & 1, 1, -1)
    words = tuple(_sorted_word(letters, row[:, None] * axes, k)
                  for row in signs)
    ceilings = tuple(Ceiling(subset, "set", kappa)
                     for subset in itertools.combinations(range(2 * t), t))
    return FamilyOutput("tuplet", {"t": t, "kappa": kappa, "k": k}, words,
                        ceilings)


def stratified_family(k: int, n: int, ms: Sequence[int]) -> FamilyOutput:
    """Periodic words w_m = (1^m 2^m .. k^m)^(n/mk) plus the constant
    words and the two staircases, with LCS(w_m1, w_m2) <= (1/k + m1/m2) n
    for m1 < m2.

    Every m in ms must satisfy mk | n, so n/k and m1 n / m2 are whole
    and every ceiling is an integer.  The ascending staircase equals
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
    step = n // k  # w_step is the ascending staircase
    _check_letters((len(ms) + k + 1 + (step not in ms)) * n)

    def periodic(m: int) -> Word:
        block = tuple(letter for letter in range(1, k + 1) for _ in range(m))
        return Word(block * (n // (m * k)), k)

    words = [periodic(m) for m in ms]
    index_of_m = {m: i for i, m in enumerate(ms)}
    consts = range(len(words), len(words) + k)
    words += [Word((letter,) * n, k) for letter in range(1, k + 1)]
    if step not in index_of_m:
        index_of_m[step] = len(words)
        words.append(periodic(step))
    stair, rstair = index_of_m[step], len(words)
    words.append(words[stair].reversed())

    per_letter = n // k
    strat = sorted(index_of_m.items())
    ceilings = [Ceiling((i1, i2), "lcs", per_letter + m1 * (n // m2))
                for (m1, i1), (m2, i2) in itertools.combinations(strat, 2)]
    ceilings += [Ceiling(pair, "lcs", 0)
                 for pair in itertools.combinations(consts, 2)]
    ceilings += [Ceiling((i, c), "lcs", per_letter)
                 for _, i in strat for c in consts]
    ceilings += [Ceiling((c, rstair), "lcs", per_letter) for c in consts]
    ceilings.append(Ceiling((stair, rstair), "lcs", per_letter))
    return FamilyOutput("stratified", {"k": k, "n": n, "ms": ms},
                        tuple(words), tuple(ceilings))


FAMILY_BUILDERS = {
    "quadratic": quadratic_family,
    "cube": cube_quadruple,
    "grid": grid_pair,
    "multiperm": multiperm_quadruple,
    "tuplet": tuplet_family,
    "stratified": stratified_family,
}
