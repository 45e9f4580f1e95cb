"""Command-line interface: LCS queries, twin search, family construction,
tail bounds, seeded experiments, and verification suites.

Words are accepted inline (full ``k=2;w=1,2,1`` form or compact digits)
or from a file via ``@path``.  Global flags may appear before or after
the subcommand.  With ``--json`` every command emits one JSON document
carrying a schema_version field; ``--out`` redirects output to a file.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys
from functools import cache
from pathlib import Path
from typing import Optional

from .bounds import (alpha_threshold, asymptotic_threshold,
                     lower_bound_values, role_count, role_prob, theta,
                     union_bound)
from .constructions import FAMILY_BUILDERS, check_family
from .errors import BudgetError
from .experiments import SCHEMA_VERSION, ExperimentConfig, estimate_lt_tail
from .lcs import lcs_pair, lcs_reversible, set_lcs_stats
from .perm import minimize_expected_lcs
from .twins import (DEFAULT_EXACT_LENGTH, DEFAULT_ORACLE_LENGTH, lt_exact,
                    lt_oracle, parse_roles, role_stats, roles_to_text,
                    twins_via_blocks, twins_via_runs)
from .verify import SUITES, verify_suite
from .words import Word, parse_word


def load_word(text: str) -> Word:
    """Parse an inline word or, with a leading ``@``, a word file."""
    if text.startswith("@"):
        text = Path(text[1:]).read_text(encoding="utf-8").strip()
    return parse_word(text)


def _emit(args: argparse.Namespace, payload: dict,
          lines: list[str]) -> None:
    if args.json:
        body = json.dumps({"schema_version": SCHEMA_VERSION, **payload},
                          indent=2, sort_keys=True, default=str) + "\n"
    else:
        body = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(body, encoding="utf-8")
    else:
        sys.stdout.write(body)


# -- subcommand handlers ------------------------------------------------------


def _cmd_lcs(args: argparse.Namespace, config: ExperimentConfig) -> int:
    a = load_word(args.first)
    b = load_word(args.second)
    if args.reversible:
        result = lcs_reversible(a, b, witness=not args.no_witness,
                                budget_cells=config.budget_cells)
        lines = [f"length: {result.length}",
                 f"orientation: {result.orientation}"]
        detail = result.detail
    else:
        detail = lcs_pair(a, b, witness=not args.no_witness,
                          budget_cells=config.budget_cells)
        result = detail
        lines = [f"length: {detail.length}"]
    if detail.word is not None:
        lines.append(f"common: {detail.word.to_text()}")
        for label, ix in zip(("first", "second"), detail.indices):
            lines.append(f"{label}: {' '.join(map(str, ix))}")
    _emit(args, result.to_json(), lines)
    return 0


def _cmd_lcs_set(args: argparse.Namespace, config: ExperimentConfig) -> int:
    words = [load_word(text) for text in args.words]
    stats = set_lcs_stats(words, args.t, budget_cells=config.budget_cells)
    lines = [f"words: {len(words)}", f"t: {stats.t}",
             f"joint value: {stats.value}",
             f"best subset: {' '.join(map(str, stats.best_subset))}",
             "pairwise:"]
    lines += ["  " + " ".join(f"{v:3d}" for v in row)
              for row in stats.pairwise]
    _emit(args, stats.to_json(), lines)
    return 0


def _certificate_lines(cert) -> list[str]:
    return [f"length: {cert.length}",
            f"roles: {roles_to_text(cert.roles)}",
            f"twin word: {cert.twin_word().to_text()}",
            f"first: {' '.join(map(str, cert.first))}",
            f"second: {' '.join(map(str, cert.second))}"]


def _cmd_twins(args: argparse.Namespace, config: ExperimentConfig) -> int:
    word = load_word(args.word)
    # without --max-length each method keeps its own default cap
    limit = {} if args.max_length is None else {"max_length": args.max_length}
    if args.method == "oracle":
        value = lt_oracle(word, **limit)
        _emit(args, {"value": value, "method": "oracle"},
              [f"length: {value}"])
        return 0
    if args.method == "runs":
        cert = twins_via_runs(word)
        _emit(args, cert.to_json(), _certificate_lines(cert))
        return 0
    if args.method == "blocks":
        result = twins_via_blocks(word)
        lines = _certificate_lines(result.certificate)
        lines.append(f"block values: {' '.join(map(str, result.block_values))}")
        lines.append(f"per-block floor: {result.per_block_floor:.4f} "
                     f"({'met' if result.floor_met else 'missed'})")
        _emit(args, result.to_json(), lines)
        return 0
    cert = lt_exact(word, **limit, budget_nodes=config.budget_nodes)
    _emit(args, cert.to_json(), _certificate_lines(cert))
    return 0


def _parse_ms(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"--ms expects comma-separated integers: {exc}")


def _cmd_construct(args: argparse.Namespace, config: ExperimentConfig) -> int:
    build = FAMILY_BUILDERS[args.family]
    params = inspect.signature(build).parameters
    kwargs = {k: v for k, v in vars(args).items() if k in params}
    if "ms" in kwargs:
        kwargs["ms"] = _parse_ms(kwargs["ms"])
    out = build(**kwargs)
    payload = out.to_json()
    lines = [f"family: {out.family}",
             "params: " + " ".join(f"{k}={v}" for k, v in out.params.items()),
             f"words: {len(out.words)}"]
    lines += [f"  {w.to_text()}" for w in out.words]
    lines.append(f"ceilings: {len(out.ceilings)}")
    if args.check:
        report = check_family(out, budget_cells=config.budget_cells,
                              set_restrict=args.set_restrict)
        payload["checks"] = [
            {"ceiling": c.to_json(), "value": v, "ok": ok}
            for c, v, ok in report]
        for c, v, ok in report:
            lines.append(f"  {c.mode}{list(c.indices)} <= {c.bound}: "
                         f"value {v} {'ok' if ok else 'VIOLATED'}")
        if not all(ok for _, _, ok in report):
            _emit(args, payload, lines)
            return 1
    else:
        lines += [f"  {c.mode}{list(c.indices)} <= {c.bound}"
                  for c in out.ceilings]
    _emit(args, payload, lines)
    return 0


def _cmd_bound(args: argparse.Namespace, config: ExperimentConfig) -> int:
    what = args.what
    if what == "theta":
        breakdown = theta(args.alpha, args.k)
        lines = [f"theta({args.alpha}, {args.k}) = {breakdown.value:.9f}",
                 f"shape: {breakdown.shape_term:.9f}",
                 f"match: {breakdown.match_term:.9f}",
                 f"switch: {breakdown.switch_term:.9f}",
                 f"idle: {breakdown.idle_term:.9f}"]
        _emit(args, breakdown.to_json(), lines)
        return 0
    if what == "threshold":
        result = alpha_threshold(args.k)
        if result is None:
            _emit(args, {"k": args.k, "alpha": None},
                  [f"k={args.k}: no negative-exponent density "
                   "(method certifies nothing)"])
            return 0
        _emit(args, result.to_json(),
              [f"alpha: {result.alpha:.9f}",
               f"theta: {result.theta:.3e}"])
        return 0
    if what == "union":
        value = union_bound(args.k, args.n, args.m)
        _emit(args, {"k": args.k, "n": args.n, "m": args.m,
                     "bound": str(value), "float": float(value)},
              [f"union bound: {value} ~ {float(value):.6g}"])
        return 0
    if what == "count":
        value = role_count(args.n, args.m, args.p, args.z)
        _emit(args, {"n": args.n, "m": args.m, "p": args.p, "z": args.z,
                     "count": value},
              [f"role words: {value}"])
        return 0
    if what == "prob":
        if args.roles is not None:
            stats = role_stats(parse_roles(args.roles))
            n, m, p, z = (stats.length, stats.pairs, stats.switches,
                          stats.leading_zeros)
        elif None in (args.n, args.m, args.p, args.z):
            raise ValueError("prob needs --roles or all of --n --m --p --z")
        else:
            n, m, p, z = args.n, args.m, args.p, args.z
        value = role_prob(args.k, n, m, p, z)
        _emit(args, {"k": args.k, "n": n, "m": m, "p": p, "z": z,
                     "probability": str(value), "float": float(value)},
              [f"probability: {value} ~ {float(value):.6g}"])
        return 0
    # constants
    values = lower_bound_values(args.k)
    asymptotic = asymptotic_threshold(args.k)
    payload = {"lower_bounds": values.to_json(),
               "asymptotic": asymptotic.to_json()}
    mm = values.minmax
    lines = [f"per-letter: {values.per_letter}",
             "improved: " + (str(values.improved)
                             if values.improved is not None else "n/a"),
             "min-max constant: " + (f"{mm.value:.9f} at x={mm.x:.9f}"
                                     if mm is not None else "n/a"),
             f"linear: {values.linear_slope:.9f} n - "
             f"{values.linear_offset:.9f}",
             f"asymptotic leading: {asymptotic.leading:.9f}",
             f"asymptotic coarse: {asymptotic.coarse:.9f}",
             f"asymptotic refined: {asymptotic.refined:.9f}"]
    _emit(args, payload, lines)
    return 0


def _cmd_experiment(args: argparse.Namespace,
                    config: ExperimentConfig) -> int:
    if args.experiment == "lt-tail":
        config = dataclasses.replace(config, trials=args.trials)
        estimate = estimate_lt_tail(args.k, args.n, args.alpha, config)
        lines = [f"Pr[LT >= {estimate.pairs}] over [{args.k}]^{args.n}",
                 f"method: {estimate.method}",
                 f"probability: {estimate.probability:.6f}",
                 f"interval: [{estimate.lo:.6f}, {estimate.hi:.6f}]",
                 f"trials: {estimate.trials}"]
        if estimate.exact is not None:
            lines.append(f"exact: {estimate.exact}")
        _emit(args, estimate.to_json(), lines)
        return 0
    result = minimize_expected_lcs(args.k, config, starts=args.starts)
    lines = [f"minimum found: {result.value:.9f}",
             f"uniform value: {result.uniform_value:.9f}",
             f"starts: {result.starts} (best: {result.best_start})",
             f"conjectured floor sqrt({args.k}) = {args.k ** 0.5:.9f}"]
    if result.below_conjectured_floor:
        lines.append("BELOW CONJECTURED FLOOR: counterexample candidate; "
                     "inspect the distribution")
    _emit(args, result.to_json(), lines)
    return 1 if result.below_conjectured_floor else 0


def _cmd_verify(args: argparse.Namespace, config: ExperimentConfig) -> int:
    report = verify_suite(args.suite, config)
    _emit(args, report.to_json(), report.summary_lines())
    return 0 if report.ok else 1


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="master seed for randomized work "
                        f"(default {ExperimentConfig.seed})")
    common.add_argument("--budget-cells", type=int, default=argparse.SUPPRESS,
                        help="cap on LCS work: a pair witness keeps m+1 "
                        "bit rows and is charged (n+1)(m+1) cells; three "
                        "or more words are charged dense table cells, or "
                        "chain steps for joint lengths")
    common.add_argument("--budget-nodes", type=int, default=argparse.SUPPRESS,
                        help="cap on twin search states, per searched "
                        "word; each state keeps about 100-130 bytes of "
                        "failure memo, so the default can hold about "
                        "0.6 GB")
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="emit one JSON document")
    common.add_argument("--out", type=str, default=argparse.SUPPRESS,
                        help="write output to this file")

    root = argparse.ArgumentParser(
        prog="twinlcs",
        parents=[common],
        description="Twins, common subsequences, permutation families, "
                    "and tail bounds.")
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lcs", parents=[common],
                       help="longest common subsequence of two words")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--no-witness", action="store_true",
                   help="length only, no alignment")
    p.add_argument("--reversible", action="store_true",
                   help="also try the reversed second word")
    p.set_defaults(func=_cmd_lcs)

    p = sub.add_parser("lcs-set", parents=[common],
                       help="pairwise table and best joint subsequence")
    p.add_argument("words", nargs="+")
    p.add_argument("--t", type=int, default=2,
                   help="subset size for the joint value")
    p.set_defaults(func=_cmd_lcs_set)

    p = sub.add_parser("twins", parents=[common],
                       help="longest twins of a word")
    p.add_argument("word")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", dest="method", action="store_const",
                       const="exact",
                       help="target-directed twin search (default)")
    group.add_argument("--oracle", dest="method", action="store_const",
                       const="oracle", help="brute enumeration")
    group.add_argument("--runs", dest="method", action="store_const",
                       const="runs", help="run-pairing construction")
    group.add_argument("--blocks", dest="method", action="store_const",
                       const="blocks", help="blockwise construction")
    p.add_argument("--max-length", type=int, default=None,
                   help="longest word the method accepts (default: exact "
                   f"{DEFAULT_EXACT_LENGTH}, oracle {DEFAULT_ORACLE_LENGTH}; "
                   "runs and blocks take any length)")
    p.set_defaults(func=_cmd_twins, method="exact")

    p = sub.add_parser("construct", parents=[common],
                       help="build a low-LCS word family")
    p.set_defaults(func=_cmd_construct)
    fam = p.add_subparsers(dest="family", required=True)
    for name, build in FAMILY_BUILDERS.items():
        q = fam.add_parser(
            name, parents=[common], description=inspect.getdoc(build),
            formatter_class=argparse.RawDescriptionHelpFormatter)
        # one option per builder parameter, so the dests are its keywords
        for param in inspect.signature(build).parameters.values():
            required = param.default is param.empty
            if param.name == "ms":
                q.add_argument("--ms", type=str, required=required,
                               help="comma-separated block lengths")
            else:
                q.add_argument(f"--{param.name}", type=int, required=required,
                               default=None if required else param.default)
        q.add_argument("--check", action="store_true",
                       help="verify every ceiling numerically")
        q.add_argument("--set-restrict", type=int, default=None,
                       help="restrict alphabet before joint-LCS checks")

    p = sub.add_parser("bound", parents=[common],
                       help="tail-bound calculus and constants")
    p.set_defaults(func=_cmd_bound)
    what = p.add_subparsers(dest="what", required=True)
    q = what.add_parser("theta", parents=[common])
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--k", type=int, required=True)
    q = what.add_parser("threshold", parents=[common])
    q.add_argument("--k", type=int, required=True)
    q = what.add_parser("union", parents=[common])
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q = what.add_parser("count", parents=[common])
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--z", type=int, required=True)
    q = what.add_parser("prob", parents=[common])
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--roles", type=str, default=None,
                   help="role word; overrides --n/--m/--p/--z")
    q.add_argument("--n", type=int, default=None)
    q.add_argument("--m", type=int, default=None)
    q.add_argument("--p", type=int, default=None)
    q.add_argument("--z", type=int, default=None)
    q = what.add_parser("constants", parents=[common])
    q.add_argument("--k", type=int, required=True)

    p = sub.add_parser("experiment", parents=[common],
                       help="seeded randomized experiments")
    p.set_defaults(func=_cmd_experiment)
    exp = p.add_subparsers(dest="experiment", required=True)
    q = exp.add_parser("lt-tail", parents=[common])
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--trials", type=int, default=ExperimentConfig.trials)
    q = exp.add_parser("conjecture", parents=[common])
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--starts", type=int, default=inspect.signature(
        minimize_expected_lcs).parameters["starts"].default)

    p = sub.add_parser("verify", parents=[common],
                       help="run a verification suite")
    p.add_argument("suite", choices=SUITES)
    p.set_defaults(func=_cmd_verify)

    return root


_GLOBAL_DEFAULTS = (("seed", ExperimentConfig.seed),
                    ("budget_cells", ExperimentConfig.budget_cells),
                    ("budget_nodes", ExperimentConfig.budget_nodes),
                    ("json", False), ("out", None))


@cache
def _parser() -> argparse.ArgumentParser:
    """The tree of ``build_parser``, built once per process: parsing leaves
    it unchanged, and building it costs more than most commands."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    # global flags use suppressed defaults so any position wins; fill the rest
    for dest, value in _GLOBAL_DEFAULTS:
        if not hasattr(args, dest):
            setattr(args, dest, value)
    try:
        # rejects a bad seed or budget on every command
        config = ExperimentConfig(seed=args.seed,
                                  budget_nodes=args.budget_nodes,
                                  budget_cells=args.budget_cells)
        return args.func(args, config)
    except (ValueError, OSError) as exc:  # bad input, unusable file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
