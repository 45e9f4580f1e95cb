"""The four benchmark workloads: seeded inputs, one pass, output checks.

Every workload calls only public ``twinlcs`` functions.  Each call into
the package sits inside a span named ``<module>.<function>``, so a traced
pass can time every module from outside.  Work counts (alignment cells,
match points, call counts) are computed here from the inputs, not
measured inside the package, and are pinned so that a change to them
shows as a failed check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import random
import tracemalloc
from fractions import Fraction
from math import prod

import numpy as np

from twinlcs import (ExperimentConfig, FamilyOutput, PermutationDistribution,
                     SUITES, Word, check_family, cube_quadruple,
                     estimate_lt_tail, expected_lcs, grid_pair, is_regular,
                     is_twin_roles, lcs_len, lcs_multi, lcs_pair, lt_exact,
                     lt_oracle, minimize_expected_lcs, multiperm_quadruple,
                     pairwise_lcs_table, quadratic_family, sample_word,
                     set_lcs_stats, split_upper_bound, tuplet_family,
                     twins_via_runs, union_bound, verify_suite,
                     wilson_interval)
from twinlcs import cli


class Checks:
    """Counts checked outputs and keeps a note for each wrong one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _mib(nbytes: float) -> float:
    return nbytes / 2 ** 20


def _ms(seconds: list[float], q: float) -> float:
    """Percentile q (0..1) of span durations, in ms, by linear interpolation."""
    return 1e3 * float(np.quantile(np.asarray(seconds), q))


# -- tail: Monte-Carlo twin tail ---------------------------------------------

TAIL_K, TAIL_N, TAIL_ALPHA, TAIL_PAIRS = 3, 40, 0.475, 19
# seed 0: (successes, Wilson lo, Wilson hi) per trial count
TAIL_PINNED = {120: (55, 0.3718612878252585, 0.5473903093763002),
               30: (15, 0.33154125640533766, 0.6684587435946623)}


class Tail:
    """estimate_lt_tail(k=3, n=40, alpha=0.475): all twin search.

    The run pass has 120 trials: per-word search time varies about
    0.75x its mean between words, so with fewer trials the pass time
    follows the seed more than the code.
    """

    sizes = {"run": 120, "trace": 30}

    def inputs(self, seed: int, size: str) -> dict:
        return {"seed": seed,
                "config": ExperimentConfig(seed=seed,
                                           trials=self.sizes[size])}

    def ops(self, inp: dict) -> int:
        return inp["config"].trials

    def run(self, inp: dict, tr) -> dict:
        with tr.span("experiments.estimate_lt_tail"):
            est = estimate_lt_tail(TAIL_K, TAIL_N, TAIL_ALPHA, inp["config"])
        return {"estimate": est}

    def digest(self, out: dict) -> list:
        est = out["estimate"]
        return [est.successes, est.lo, est.hi]

    def check(self, inp: dict, out: dict, checks: Checks) -> None:
        est, trials = out["estimate"], inp["config"].trials
        checks.expect(est.method == "monte-carlo" and est.trials == trials,
                      f"tail: method {est.method}, {est.trials} trials")
        checks.expect(est.pairs == TAIL_PAIRS, f"tail: threshold {est.pairs}")
        checks.expect(est.probability == est.successes / trials,
                      "tail: probability is not successes/trials")
        checks.expect((est.lo, est.hi) == wilson_interval(est.successes,
                                                          trials),
                      "tail: interval is not the Wilson interval")
        if inp["seed"] == 0:
            checks.expect((est.successes, est.lo, est.hi)
                          == TAIL_PINNED[trials],
                          f"tail: seed 0 gave {est.successes}/{trials}, "
                          f"[{est.lo}, {est.hi}]")

    def traced(self, inp: dict, out: dict, tr, checks: Checks) -> dict:
        """Replay the estimate one trial at a time, then check every
        certificate between the runs floor and the split bound."""
        config = inp["config"]
        certs = []
        with tr.span("bench.replay"):
            for trial in range(config.trials):
                with tr.span("experiments.sample_word"):
                    word = sample_word(TAIL_K, TAIL_N, config.seed,
                                       index=trial)
                with tr.span("twins.lt_exact"):
                    cert = lt_exact(word, budget_nodes=config.budget_nodes)
                certs.append((word, cert))
        hits = 0
        for word, cert in certs:
            hits += cert.length >= TAIL_PAIRS
            floor = twins_via_runs(word).length
            checks.expect(is_twin_roles(word, cert.roles)
                          and floor <= cert.length <= split_upper_bound(word),
                          f"tail: certificate for {word.to_compact()}")
        checks.expect(hits == out["estimate"].successes,
                      f"tail: replay hit {hits}, estimate "
                      f"{out['estimate'].successes}")
        exact = tr.durations("twins.lt_exact")
        checks.expect(len(exact) == config.trials, "tail: lt_exact calls")
        return {
            "twins.lt_exact_s": (sum(exact), "s"),
            "twins.lt_exact_calls": (len(exact), "count"),
            "twins.lt_exact_p50_ms": (_ms(exact, 0.5), "ms"),
            "twins.lt_exact_p90_ms": (_ms(exact, 0.9), "ms"),
            "experiments.tail_overhead_s": (
                tr.total("experiments.estimate_lt_tail")
                - tr.total("experiments.sample_word") - sum(exact), "s"),
        }


# -- families: build and certify the low-LCS families ------------------------

FAMILY_BUILDS = (
    ("quadratic", lambda: quadratic_family(11)),
    ("cube", lambda: cube_quadruple(11)),
    ("grid", lambda: grid_pair(1000, 3)),
    ("multiperm", lambda: multiperm_quadruple(2, k=1000)),
    ("tuplet", lambda: tuplet_family(3, 2)),
    ("cube5", lambda: cube_quadruple(5)),
)
# alphabet size of each family above, for the seeded relabelling
FAMILY_ALPHABETS = (1331, 1000, 1024, 125)
CHECKED_BY_FAMILY = ("quadratic", "grid", "multiperm")
TUPLET_RESTRICT = 40
# computed work, the same on every seed (relabelling keeps every count)
FAMILY_COUNTS = {"lcs.lcs_pair_cells": 3001 * 3001,
                 "lcs.lcs_multi_cells": 20 * 41 ** 3,
                 "lcs.match_points": 20 * 40,
                 "lcs.lcs_len_long_calls": 6,
                 "constructions.ceilings": 55 + 2 + 6}


def _relabel(fam: FamilyOutput, perm: tuple[int, ...]) -> FamilyOutput:
    """Rename every letter through one permutation of the alphabet.

    Every LCS value, alignment position and ceiling is unchanged.
    """
    words = tuple(Word(tuple(perm[c] for c in w.letters), w.k)
                  for w in fam.words)
    return FamilyOutput(fam.family, fam.params, words, fam.ceilings)


def _is_witness(a: Word, b: Word, res) -> bool:
    ia, ib = res.indices
    return (len(ia) == len(ib) == res.length
            and all(x < y for x, y in zip(ia, ia[1:]))
            and all(x < y for x, y in zip(ib, ib[1:]))
            and all(0 <= i < len(a) and 0 <= j < len(b) and a[i] == b[j]
                    for i, j in zip(ia, ib))
            and res.word.letters == tuple(a[i] for i in ia))


def _match_points(words: list[Word]) -> int:
    """Sum over letters of the product of their counts in each word."""
    counts = [np.bincount(w.letters, minlength=w.k + 1) for w in words]
    return int(sum(prod(int(c[x]) for c in counts)
                   for x in range(1, words[0].k + 1)))


class Families:
    """Six families, certified through all three LCS routes: the
    bit-parallel length, the dense pair table with its witness walk, and
    the dense multi table.  The seed renames letters, which moves no
    count or value."""

    def inputs(self, seed: int, size: str) -> dict:
        rng = random.Random(seed)
        relabel = {}
        for k in FAMILY_ALPHABETS:
            perm = list(range(1, k + 1))
            rng.shuffle(perm)
            relabel[k] = (0, *perm)
        return {"relabel": relabel}

    def ops(self, inp: dict) -> int:
        return 55 + 6 + 2 + 6 + 20 + 1  # ceilings plus one witness

    def run(self, inp: dict, tr) -> dict:
        fams = {}
        for name, build in FAMILY_BUILDS:
            with tr.span("constructions.build"):
                fam = build()
            fams[name] = _relabel(fam, inp["relabel"][fam.words[0].k])
        reports = {}
        for name in CHECKED_BY_FAMILY:
            with tr.span("constructions.check_family"):
                reports[name] = check_family(fams[name])
        cube = []
        for ceiling in fams["cube"].ceilings:
            a, b = (fams["cube"].words[i] for i in ceiling.indices)
            with tr.span("lcs.lcs_len"):
                cube.append(lcs_len(a, b))
        grid = fams["grid"].words
        with tr.span("lcs.lcs_pair"):
            witness = lcs_pair(grid[0], grid[1])
        keep = range(1, TUPLET_RESTRICT + 1)
        restricted = []
        for w in fams["tuplet"].words:
            with tr.span("words.restrict"):
                restricted.append(w.restrict(keep))
        tuplet = []
        for ceiling in fams["tuplet"].ceilings:
            with tr.span("lcs.lcs_multi"):
                tuplet.append(lcs_multi([restricted[i]
                                         for i in ceiling.indices],
                                        witness=False).length)
        with tr.span("lcs.set_lcs_stats"):
            stats = set_lcs_stats(fams["cube5"].words, 3)
        return {"fams": fams, "reports": reports, "cube": cube,
                "witness": witness, "restricted": restricted,
                "tuplet": tuplet, "stats": stats}

    def digest(self, out: dict) -> list:
        return [[v for _, v, _ in r] for r in out["reports"].values()] + [
            out["cube"], list(out["witness"].indices), out["tuplet"],
            out["stats"].value, list(out["stats"].best_subset)]

    def check(self, inp: dict, out: dict, checks: Checks) -> None:
        for name, report in out["reports"].items():
            for ceiling, value, ok in report:
                checks.expect(ok and value <= ceiling.bound,
                              f"{name}: {ceiling.mode}{ceiling.indices} "
                              f"= {value} > {ceiling.bound}")
        for ceiling, value in zip(out["fams"]["cube"].ceilings, out["cube"]):
            checks.expect(value <= ceiling.bound,
                          f"cube: lcs{ceiling.indices} = {value}")
        grid = out["fams"]["grid"].words
        forward = next(v for c, v, _ in out["reports"]["grid"]
                       if c.mode == "lcs")
        checks.expect(_is_witness(grid[0], grid[1], out["witness"])
                      and out["witness"].length == forward,
                      "grid: witness is not a longest common subsequence")
        for ceiling, value in zip(out["fams"]["tuplet"].ceilings,
                                  out["tuplet"]):
            checks.expect(1 <= value <= ceiling.bound,
                          f"tuplet: set{ceiling.indices} = {value}")
        stats = out["stats"]
        pairwise = stats.pairwise
        checks.expect(
            all(pairwise[i][i] == 125 for i in range(4))
            and all(pairwise[i][j] <= 5 for i in range(4) for j in range(4)
                    if i != j)
            and 1 <= stats.value <= min(pairwise[i][j]
                                        for i in stats.best_subset
                                        for j in stats.best_subset if i != j),
            f"cube5: set_lcs_stats {stats.to_json()}")

    def traced(self, inp: dict, out: dict, tr, checks: Checks) -> dict:
        grid = out["fams"]["grid"].words
        triples = [[out["restricted"][i] for i in c.indices]
                   for c in out["fams"]["tuplet"].ceilings]
        counts = {
            "lcs.lcs_pair_cells": (len(grid[0]) + 1) * (len(grid[1]) + 1),
            "lcs.lcs_multi_cells": sum(prod(len(w) + 1 for w in t)
                                       for t in triples),
            "lcs.match_points": sum(_match_points(t) for t in triples),
            "lcs.lcs_len_long_calls": len(tr.durations("lcs.lcs_len")),
            "constructions.ceilings": sum(len(r) for r in
                                          out["reports"].values()),
        }
        for name, value in counts.items():
            checks.expect(value == FAMILY_COUNTS[name],
                          f"families: {name} = {value}, pinned "
                          f"{FAMILY_COUNTS[name]}")
        # memory of the largest table, with tracemalloc on for this call only
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        lcs_pair(grid[0], grid[1])
        peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.stop()
        long_s = tr.total("lcs.lcs_len")
        return {
            "constructions.build_s": (tr.total("constructions.build"), "s"),
            "constructions.check_family_s": (
                tr.total("constructions.check_family"), "s"),
            "constructions.ceilings": (counts["constructions.ceilings"],
                                       "count"),
            "lcs.lcs_len_long_s": (long_s, "s"),
            "lcs.lcs_len_long_calls": (counts["lcs.lcs_len_long_calls"],
                                       "count"),
            "lcs.lcs_len_long_us_per_call": (
                1e6 * long_s / counts["lcs.lcs_len_long_calls"], "us"),
            "lcs.lcs_pair_s": (tr.total("lcs.lcs_pair"), "s"),
            "lcs.lcs_pair_cells": (counts["lcs.lcs_pair_cells"], "count"),
            "lcs.table_mib_computed": (
                _mib(4 * counts["lcs.lcs_pair_cells"]), "MiB"),
            "lcs.lcs_pair_traced_peak_mib": (_mib(peak), "MiB"),
            "lcs.lcs_multi_s": (tr.total("lcs.lcs_multi"), "s"),
            "lcs.lcs_multi_cells": (counts["lcs.lcs_multi_cells"], "count"),
            "lcs.match_points": (counts["lcs.match_points"], "count"),
            "lcs.match_ratio": (counts["lcs.match_points"]
                                / counts["lcs.lcs_multi_cells"], "ratio"),
            "lcs.set_lcs_stats_s": (tr.total("lcs.set_lcs_stats"), "s"),
        }


# -- perm: the expected-LCS conjecture -----------------------------------------

PERM_K, PERM_SAMPLE, PERM_STARTS = 6, 2000, 4
UNIFORM_K5 = Fraction(67, 24)


def _dp_lcs(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Textbook quadratic LCS, independent of the package."""
    row = [0] * (len(b) + 1)
    for x in a:
        prev = 0
        for j, y in enumerate(b, 1):
            cur = row[j]
            row[j] = prev + 1 if x == y else max(row[j], row[j - 1])
            prev = cur
    return row[-1]


class Perm:
    """pairwise_lcs_table(6) built cold, sampled LCS queries between
    permutations, the exact uniform value at k=5 and the exchange
    descent.  The descent always runs from the same starts (seed 0,
    four starts) so that its work does not change with the seed; the
    seed draws the sampled queries."""

    def inputs(self, seed: int, size: str) -> dict:
        perms = list(itertools.permutations(range(1, PERM_K + 1)))
        rng = random.Random(seed)
        queries = []
        for _ in range(PERM_SAMPLE):
            i, j = rng.randrange(len(perms)), rng.randrange(len(perms))
            inverse = [0] * (PERM_K + 1)
            for pos, x in enumerate(perms[i], 1):
                inverse[x] = pos
            composed = tuple(inverse[x] for x in perms[j])
            queries.append((i, j, Word(perms[i], PERM_K),
                            Word(perms[j], PERM_K), Word(composed, PERM_K)))
        return {"perms": perms, "queries": queries,
                "identity": Word(tuple(range(1, PERM_K + 1)), PERM_K),
                "uniform": PermutationDistribution.uniform(5),
                "config": ExperimentConfig(seed=0)}

    def ops(self, inp: dict) -> int:
        return len(inp["queries"]) + 3  # queries, table, uniform, minimum

    def run(self, inp: dict, tr) -> dict:
        with tr.span("experiments.pairwise_lcs_table"):
            table = pairwise_lcs_table(PERM_K)
        answers = []
        identity = inp["identity"]
        for _, _, a, b, composed in inp["queries"]:
            with tr.span("lcs.lcs_len"):
                direct = lcs_len(a, b)
            with tr.span("lcs.lcs_len"):
                relative = lcs_len(identity, composed)
            answers.append((direct, relative))
        with tr.span("experiments.expected_lcs"):
            uniform = expected_lcs(inp["uniform"])
        with tr.span("experiments.minimize_expected_lcs"):
            minimum = minimize_expected_lcs(5, inp["config"],
                                            starts=PERM_STARTS)
        return {"table": table, "answers": answers, "uniform": uniform,
                "minimum": minimum}

    def digest(self, out: dict) -> list:
        return [hashlib.sha256(out["table"].tobytes()).hexdigest(),
                out["answers"], str(out["uniform"]), out["minimum"].value,
                out["minimum"].best_start]

    def check(self, inp: dict, out: dict, checks: Checks) -> None:
        table = np.asarray(out["table"])
        size = len(inp["perms"])
        checks.expect(table.shape == (size, size)
                      and bool((table == table.T).all())
                      and bool((np.diag(table) == PERM_K).all())
                      and int(table.min()) >= 1,
                      "perm: table is not symmetric with diagonal k")
        perms = inp["perms"]
        for (i, j, *_), (direct, relative) in zip(inp["queries"],
                                                  out["answers"]):
            checks.expect(direct == relative == int(table[i, j])
                          == _dp_lcs(perms[i], perms[j]),
                          f"perm: LCS({perms[i]}, {perms[j]})")
        checks.expect(out["uniform"] == UNIFORM_K5,
                      f"perm: uniform k=5 gave {out['uniform']}")
        minimum = out["minimum"]
        checks.expect(minimum.k == 5 and minimum.starts == PERM_STARTS
                      and abs(minimum.uniform_value - float(UNIFORM_K5))
                      < 1e-12
                      and 1.0 <= minimum.value
                      <= minimum.uniform_value + 1e-12,
                      f"perm: minimum {minimum.value} above uniform "
                      f"{minimum.uniform_value}")

    def traced(self, inp: dict, out: dict, tr, checks: Checks) -> dict:
        calls = tr.durations("lcs.lcs_len")
        checks.expect(len(calls) == 2 * PERM_SAMPLE,
                      f"perm: {len(calls)} lcs_len calls")
        return {
            "experiments.pairwise_lcs_table_s": (
                tr.total("experiments.pairwise_lcs_table"), "s"),
            "experiments.expected_lcs_s": (
                tr.total("experiments.expected_lcs"), "s"),
            "experiments.minimize_s": (
                tr.total("experiments.minimize_expected_lcs"), "s"),
            "lcs.lcs_len_short_s": (sum(calls), "s"),
            "lcs.lcs_len_short_calls": (len(calls), "count"),
            "lcs.lcs_len_short_us_per_call": (1e6 * sum(calls) / len(calls),
                                              "us"),
        }


# -- verify: the correctness gate and the bounds ------------------------------

# The command-line examples of the README with their printed output.  The
# README elides the middle of `verify roles`; only the lines it shows are
# compared there.
README_EXAMPLES = (
    (["lcs", "1212", "2121"],
     ["length: 3", "common: k=2;w=1,2,1", "first: 0 1 2", "second: 1 2 3"]),
    (["twins", "0110010010101101"],
     ["length: 7", "roles: 0120111211221222",
      "twin word: k=2;w=2,1,2,1,2,1,2", "first: 1 4 5 6 8 9 12",
      "second: 2 7 10 11 13 14 15"]),
    (["bound", "threshold", "--k", "4"],
     ["alpha: 0.493156880", "theta: -2.313e-09"]),
    (["construct", "grid", "--k", "9", "--s", "2", "--check"],
     ["family: grid", "params: k=9 s=2 k1=3 k2=3 auto=True", "words: 2",
      "  k=9;w=1,1,2,2,3,3,4,4,5,5,6,6,7,7,8,8,9,9",
      "  k=9;w=3,2,1,3,2,1,6,5,4,6,5,4,9,8,7,9,8,7", "ceilings: 2",
      "  lcs[0, 1] <= 6: value 6 ok", "  rev[0, 1] <= 4: value 4 ok"]),
    (["experiment", "lt-tail", "--k", "2", "--n", "12", "--alpha", "0.5"],
     ["Pr[LT >= 6] over [2]^12", "method: exhaustive",
      "probability: 0.309570", "interval: [0.309570, 0.309570]",
      "trials: 4096", "exact: 317/1024"]),
    (["verify", "roles"],
     ["[PASS] role count matches census: all (m,p,z) classes at n=8",
      "[PASS] binomial identity: sum over switches is the central binomial",
      "...", "suite roles: all checks passed"]),
)
UNION_SHA256 = ("25fbf0eb5b717bc005d3d8652485df18"
                "d9e96f06a9be4cdb7677b443b6f9fbdd")  # union_bound(2, 400, 150)
ORACLE_WORDS, ORACLE_LENGTH = 16, 14
# twin length 5, the least of any binary word of length 14: with it every
# pass enumerates the same ballot tables, whatever the seeded words need
ORACLE_DEEPEST = Word((1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 1, 1, 1, 2), 2)
REGULAR_PERIODS, REGULAR_EPS, REGULAR_L = 30, Fraction(1, 4), 2


def _matches(shown: list[str], printed: list[str]) -> bool:
    if "..." in shown:
        cut = shown.index("...")
        head, tail = shown[:cut], shown[cut + 1:]
        return (printed[:len(head)] == head
                and printed[len(printed) - len(tail):] == tail)
    return printed == shown


class Verify:
    """The five verify suites, every README command through cli.main,
    union_bound(2, 400, 150), is_regular on a periodic word of length
    120, and lt_oracle on binary words of length 14."""

    def inputs(self, seed: int, size: str) -> dict:
        rng = random.Random(seed)
        block = rng.sample(range(1, 5), 4)  # four distinct letters per period
        oracle = [ORACLE_DEEPEST] + [
            Word(tuple(rng.randint(1, 2) for _ in range(ORACLE_LENGTH)), 2)
            for _ in range(ORACLE_WORDS - 1)]
        return {"config": ExperimentConfig(seed=seed),
                "periodic": Word(tuple(block) * REGULAR_PERIODS, 4),
                "oracle": oracle}

    def ops(self, inp: dict) -> int:
        return len(SUITES) + len(README_EXAMPLES) + 2 + len(inp["oracle"])

    def run(self, inp: dict, tr) -> dict:
        suites = {}
        for name in SUITES:
            with tr.span(f"experiments.verify_{name}"):
                suites[name] = verify_suite(name, inp["config"])
        examples = []
        for argv, _ in README_EXAMPLES:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), tr.span("cli.main"):
                code = cli.main(list(argv))
            examples.append((code, buf.getvalue().splitlines()))
        with tr.span("bounds.union_bound"):
            union = union_bound(2, 400, 150)
        with tr.span("words.is_regular"):
            regular = is_regular(inp["periodic"], REGULAR_EPS, REGULAR_L)
        oracle = []
        for word in inp["oracle"]:
            with tr.span("twins.lt_oracle"):
                oracle.append(lt_oracle(word))
        return {"suites": suites, "examples": examples, "union": union,
                "regular": regular, "oracle": oracle}

    def digest(self, out: dict) -> list:
        return [[r.ok for r in out["suites"].values()], out["examples"],
                str(out["union"]), out["regular"].ok, out["oracle"]]

    def check(self, inp: dict, out: dict, checks: Checks) -> None:
        for name, report in out["suites"].items():
            checks.expect(report.ok and all(c.ok for c in report.checks),
                          f"verify {name}: {report.summary_lines()}")
        for (argv, shown), (code, printed) in zip(README_EXAMPLES,
                                                  out["examples"]):
            checks.expect(code == 0 and _matches(shown, printed),
                          f"twinlcs {' '.join(argv)}: exit {code}, "
                          f"printed {printed}")
        checks.expect(hashlib.sha256(str(out["union"]).encode()).hexdigest()
                      == UNION_SHA256, "union_bound(2, 400, 150) changed")
        checks.expect(out["regular"].ok,
                      f"is_regular: periodic word reported irregular "
                      f"{out['regular'].witness}")
        for word, value in zip(inp["oracle"], out["oracle"]):
            checks.expect(value == lt_exact(word).length,
                          f"lt_oracle({word.to_compact()}) = {value}")

    def traced(self, inp: dict, out: dict, tr, checks: Checks) -> dict:
        layer = {f"experiments.verify_{name}_s": (
            tr.total(f"experiments.verify_{name}"), "s") for name in SUITES}
        layer.update({
            "cli.main_s": (tr.total("cli.main"), "s"),
            "bounds.union_bound_s": (tr.total("bounds.union_bound"), "s"),
            "words.is_regular_s": (tr.total("words.is_regular"), "s"),
            "twins.lt_oracle_s": (tr.total("twins.lt_oracle"), "s"),
        })
        return layer


WORKLOADS = {"tail": Tail(), "families": Families(), "perm": Perm(),
             "verify": Verify()}
