"""Command-line interface: LCS queries, twin search, family construction,
tail bounds, seeded experiments, and verification suites.

Words are accepted inline (full ``k=2;w=1,2,1`` form or compact digits)
or from a file via ``@path``.  ``--json`` and ``--out`` may appear
before or after the subcommand; each leaf command takes, after its name,
a flag for just the ExperimentConfig settings its handler reads.
A setting given before the command name is refused with a message naming
it.  Argparse picks the handler: each leaf command, and each twin method
flag, stores its own in ``func``.  A handler returns its JSON
payload and text lines; ``main`` alone builds the ExperimentConfig and
writes the output, with exact integers and rationals in full.  With
``--json`` every command emits one JSON document carrying a
schema_version field; ``--out`` redirects output to a file.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from contextlib import contextmanager
from functools import cache
from pathlib import Path
from typing import Optional

from .bounds import (alpha_threshold, asymptotic_threshold,
                     lower_bound_values, role_count, role_prob, theta,
                     union_bound)
from .constructions import FAMILY_BUILDERS, check_family
from .errors import DEFAULT_BUDGET_CELLS, BudgetError, check_budget
from .experiments import SCHEMA_VERSION, ExperimentConfig, estimate_lt_tail
from .lcs import lcs_pair, lcs_reversible, set_lcs_stats
from .perm import MAX_TABLE_K, minimize_expected_lcs
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


# -- subcommand handlers: each returns (payload, lines[, exit code]) ---------


@contextmanager
def _integer_text_of_any_size():
    """Lift Python's cap on the digits of integer text (from 3.10.7 and
    3.11) while exact values are written; the cap is restored after, so
    parsing input keeps it."""
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is None:  # no cap to lift
        yield
        return
    saved = limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


# Writing an integer of B bits as decimal text takes time growing with B^2
# in Python 3.11: 1.5 ps per B^2 from 10^5 to 3 * 10^6 bits, against 41-77
# ns a cell of lcs_multi, one core of a 2-core Xeon VM.  A cell pays for
# this many squared bits:
_TEXT_BITS2 = 20_000


def _charge_text(value) -> None:
    """Charge the text of an exact integer or rational against
    ``DEFAULT_BUDGET_CELLS``: role_prob's budget admits values whose text
    would take minutes."""
    bits2 = (value.numerator.bit_length() ** 2
             + value.denominator.bit_length() ** 2)
    check_budget(bits2 // _TEXT_BITS2, DEFAULT_BUDGET_CELLS,
                 "writing the exact value",
                 unit=f"cells ({_TEXT_BITS2} squared bits each)")


def _exact_text(value) -> str:
    """An exact integer or rational in full, its text charged first."""
    _charge_text(value)
    with _integer_text_of_any_size():
        return str(value)


def _cmd_lcs(args: argparse.Namespace, config: ExperimentConfig):
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
    return result.to_json(), lines


def _cmd_lcs_set(args: argparse.Namespace, config: ExperimentConfig):
    words = [load_word(text) for text in args.words]
    stats = set_lcs_stats(words, args.t, budget_cells=config.budget_cells)
    lines = [f"words: {len(words)}", f"t: {stats.t}",
             f"joint value: {stats.value}",
             f"best subset: {' '.join(map(str, stats.best_subset))}",
             "pairwise:"]
    lines += ["  " + " ".join(f"{v:3d}" for v in row)
              for row in stats.pairwise]
    return stats.to_json(), lines


def _certificate_lines(cert) -> list[str]:
    return [f"length: {cert.length}",
            f"roles: {roles_to_text(cert.roles)}",
            f"twin word: {cert.twin_word().to_text()}",
            f"first: {' '.join(map(str, cert.first))}",
            f"second: {' '.join(map(str, cert.second))}"]


def _max_length(args: argparse.Namespace) -> dict:
    # without --max-length each method keeps its own default cap
    return {} if args.max_length is None else {"max_length": args.max_length}


def _cmd_twins_exact(args: argparse.Namespace, config: ExperimentConfig):
    cert = lt_exact(load_word(args.word), **_max_length(args),
                    budget_nodes=config.budget_nodes)
    return cert.to_json(), _certificate_lines(cert)


def _cmd_twins_oracle(args: argparse.Namespace, config: ExperimentConfig):
    value = lt_oracle(load_word(args.word), **_max_length(args))
    return {"value": value, "method": "oracle"}, [f"length: {value}"]


def _cmd_twins_runs(args: argparse.Namespace, config: ExperimentConfig):
    cert = twins_via_runs(load_word(args.word))
    return cert.to_json(), _certificate_lines(cert)


def _cmd_twins_blocks(args: argparse.Namespace, config: ExperimentConfig):
    result = twins_via_blocks(load_word(args.word))
    lines = _certificate_lines(result.certificate)
    lines.append(f"block values: {' '.join(map(str, result.block_values))}")
    lines.append(f"per-block floor: {result.per_block_floor:.4f} "
                 f"({'met' if result.floor_met else 'missed'})")
    return result.to_json(), lines


def _parse_ms(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"--ms expects comma-separated integers: {exc}")


def _cmd_construct(args: argparse.Namespace, config: ExperimentConfig):
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
    if not args.check:
        lines += [f"  {c.mode}{list(c.indices)} <= {c.bound}"
                  for c in out.ceilings]
        return payload, lines
    report = check_family(out, budget_cells=config.budget_cells)
    payload["checks"] = [{"ceiling": c.to_json(), "value": v, "ok": ok}
                         for c, v, ok in report]
    lines += [f"  {c.mode}{list(c.indices)} <= {c.bound}: "
              f"value {v} {'ok' if ok else 'VIOLATED'}" for c, v, ok in report]
    return payload, lines, 0 if all(ok for _, _, ok in report) else 1


def _cmd_bound_theta(args: argparse.Namespace, config: ExperimentConfig):
    breakdown = theta(args.alpha, args.k)
    return breakdown.to_json(), [
        f"theta({args.alpha}, {args.k}) = {breakdown.value:.9f}",
        f"shape: {breakdown.shape_term:.9f}",
        f"match: {breakdown.match_term:.9f}",
        f"switch: {breakdown.switch_term:.9f}",
        f"idle: {breakdown.idle_term:.9f}"]


def _cmd_bound_threshold(args: argparse.Namespace, config: ExperimentConfig):
    result = alpha_threshold(args.k)
    if result is None:
        return {"k": args.k, "alpha": None}, [
            f"k={args.k}: no negative-exponent density "
            "(method certifies nothing)"]
    return result.to_json(), [f"alpha: {result.alpha:.9f}",
                              f"theta: {result.theta:.3e}"]


def _cmd_bound_union(args: argparse.Namespace, config: ExperimentConfig):
    value = union_bound(args.k, args.n, args.m)
    try:
        approx: Optional[float] = float(value)
    except OverflowError:  # a union bound can pass the float range
        approx = None
    exact = _exact_text(value)
    return ({"k": args.k, "n": args.n, "m": args.m,
             "bound": exact, "float": approx},
            [f"union bound: {exact}"
             + ("" if approx is None else f" ~ {approx:.6g}")])


def _cmd_bound_count(args: argparse.Namespace, config: ExperimentConfig):
    value = role_count(args.n, args.m, args.p, args.z)
    payload = {"n": args.n, "m": args.m, "p": args.p, "z": args.z,
               "count": value}
    if vars(args).get("json"):  # main writes the count, once
        _charge_text(value)
        return payload, []
    return payload, [f"role words: {_exact_text(value)}"]


def _cmd_bound_prob(args: argparse.Namespace, config: ExperimentConfig):
    if args.roles is not None:
        stats = role_stats(parse_roles(args.roles))
        n, m, p, z = (stats.length, stats.pairs, stats.switches,
                      stats.leading_zeros)
    elif None in (args.n, args.m, args.p, args.z):
        raise ValueError("prob needs --roles or all of --n --m --p --z")
    else:
        n, m, p, z = args.n, args.m, args.p, args.z
    value = role_prob(args.k, n, m, p, z)
    exact = _exact_text(value)
    return ({"k": args.k, "n": n, "m": m, "p": p, "z": z,
             "probability": exact, "float": float(value)},
            [f"probability: {exact} ~ {float(value):.6g}"])


def _cmd_bound_constants(args: argparse.Namespace, config: ExperimentConfig):
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
    return payload, lines


def _cmd_lt_tail(args: argparse.Namespace, config: ExperimentConfig):
    estimate = estimate_lt_tail(args.k, args.n, args.alpha, config)
    lines = [f"Pr[LT >= {estimate.pairs}] over [{args.k}]^{args.n}",
             f"method: {estimate.method}",
             f"probability: {estimate.probability:.6f}",
             f"interval: [{estimate.lo:.6f}, {estimate.hi:.6f}]",
             f"trials: {estimate.trials}"]
    if estimate.exact is not None:
        lines.append(f"exact: {estimate.exact}")
    return estimate.to_json(), lines


def _cmd_conjecture(args: argparse.Namespace, config: ExperimentConfig):
    result = minimize_expected_lcs(args.k, config, starts=args.starts)
    lines = [f"minimum found: {result.value:.9f}",
             f"uniform value: {result.uniform_value:.9f}",
             f"starts: {result.starts} (best: {result.best_start})",
             f"conjectured floor sqrt({args.k}) = {args.k ** 0.5:.9f}"]
    if result.below_conjectured_floor:
        lines.append("BELOW CONJECTURED FLOOR: counterexample candidate; "
                     "inspect the distribution")
    return result.to_json(), lines, int(result.below_conjectured_floor)


def _cmd_verify(args: argparse.Namespace, config: ExperimentConfig):
    report = verify_suite(args.suite, config)
    return report.to_json(), report.summary_lines(), 0 if report.ok else 1


# -- parser -------------------------------------------------------------------


# the ExperimentConfig fields a command may read, each with its flag's help
_SETTINGS = {
    "seed": "master seed for randomized work "
            f"(default {ExperimentConfig.seed})",
    "trials": "sampled words when the tail is not enumerated "
              f"(default {ExperimentConfig.trials})",
    "budget_nodes": "cap on twin search states, per searched word; each "
                    "state may leave 110-120 bytes of failure memo, so the "
                    "default can hold about 0.6 GB",
    "budget_cells": "cap on LCS work: a pair witness keeps m+1 bit rows and "
                    "is charged (n+1)(m+1) cells; a witness of three or "
                    "more words is charged dense table cells; the joint "
                    "lengths of one query or one family check are charged "
                    "together, each the cheaper of table cells and chain "
                    "steps, with a floor per subset",
}

# Only joint ("set") ceilings charge the cell budget when a family is
# checked, so of the construct families only those with such ceilings take
# --budget-cells.
_JOINT_FAMILIES = ("tuplet",)


def _after_the_command(text: str):
    raise argparse.ArgumentTypeError("a setting goes after the command name")


def build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="emit one JSON document")
    output.add_argument("--out", type=str, default=argparse.SUPPRESS,
                        help="write output to this file")

    # a setting given to the root or a group parser is named in the error,
    # not read as a command name
    early = argparse.ArgumentParser(add_help=False)
    for field in _SETTINGS:
        early.add_argument("--" + field.replace("_", "-"),
                           type=_after_the_command,
                           default=argparse.SUPPRESS, help=argparse.SUPPRESS)

    root = argparse.ArgumentParser(
        prog="twinlcs",
        parents=[output, early],
        description="Twins, common subsequences, permutation families, "
                    "and tail bounds.")
    sub = root.add_subparsers(dest="command", required=True)

    def leaf(parent, name: str, func, *settings: str,
             **kwargs) -> argparse.ArgumentParser:
        """A command with one flag per setting its handler reads."""
        q = parent.add_parser(name, parents=[output], **kwargs)
        for field in settings:
            q.add_argument("--" + field.replace("_", "-"), type=int,
                           default=argparse.SUPPRESS, help=_SETTINGS[field])
        q.set_defaults(func=func)
        return q

    p = leaf(sub, "lcs", _cmd_lcs, "budget_cells",
             help="longest common subsequence of two words")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--no-witness", action="store_true",
                   help="length only, no alignment")
    p.add_argument("--reversible", action="store_true",
                   help="also try the reversed second word")

    p = leaf(sub, "lcs-set", _cmd_lcs_set, "budget_cells",
             help="pairwise table and best joint subsequence")
    p.add_argument("words", nargs="+")
    p.add_argument("--t", type=int, default=2,
                   help="subset size for the joint value")

    # each method flag stores its own handler; --exact's is the default
    p = leaf(sub, "twins", _cmd_twins_exact, "budget_nodes",
             help="longest twins of a word")
    p.add_argument("word")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", dest="func", action="store_const",
                       const=_cmd_twins_exact,
                       help="target-directed twin search (default)")
    group.add_argument("--oracle", dest="func", action="store_const",
                       const=_cmd_twins_oracle, help="brute enumeration")
    group.add_argument("--runs", dest="func", action="store_const",
                       const=_cmd_twins_runs, help="run-pairing construction")
    group.add_argument("--blocks", dest="func", action="store_const",
                       const=_cmd_twins_blocks, help="blockwise construction")
    p.add_argument("--max-length", type=int, default=None,
                   help="longest word the method accepts (default: exact "
                   f"{DEFAULT_EXACT_LENGTH}, oracle {DEFAULT_ORACLE_LENGTH}; "
                   "runs and blocks take any length)")

    p = sub.add_parser("construct", parents=[output, early],
                       help="build a low-LCS word family")
    fam = p.add_subparsers(dest="family", required=True)
    for name, build in FAMILY_BUILDERS.items():
        settings = ("budget_cells",) if name in _JOINT_FAMILIES else ()
        q = leaf(fam, name, _cmd_construct, *settings,
                 description=inspect.getdoc(build),
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

    p = sub.add_parser("bound", parents=[output, early],
                       help="tail-bound calculus and constants")
    what = p.add_subparsers(dest="what", required=True)
    q = leaf(what, "theta", _cmd_bound_theta)
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--k", type=int, required=True)
    q = leaf(what, "threshold", _cmd_bound_threshold)
    q.add_argument("--k", type=int, required=True)
    q = leaf(what, "union", _cmd_bound_union)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q = leaf(what, "count", _cmd_bound_count)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--z", type=int, required=True)
    q = leaf(what, "prob", _cmd_bound_prob)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--roles", type=str, default=None,
                   help="role word; overrides --n/--m/--p/--z")
    q.add_argument("--n", type=int, default=None)
    q.add_argument("--m", type=int, default=None)
    q.add_argument("--p", type=int, default=None)
    q.add_argument("--z", type=int, default=None)
    q = leaf(what, "constants", _cmd_bound_constants)
    q.add_argument("--k", type=int, required=True)

    p = sub.add_parser("experiment", parents=[output, early],
                       help="seeded randomized experiments")
    exp = p.add_subparsers(dest="experiment", required=True)
    q = leaf(exp, "lt-tail", _cmd_lt_tail, "seed", "trials",
             "budget_nodes")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--alpha", type=float, required=True)
    q = leaf(exp, "conjecture", _cmd_conjecture, "seed",
             help=f"minimize E[LCS]; one cap, k <= {MAX_TABLE_K}")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--starts", type=int, default=inspect.signature(
        minimize_expected_lcs).parameters["starts"].default)

    p = leaf(sub, "verify", _cmd_verify, "seed",
             help="run a verification suite")
    p.add_argument("suite", choices=SUITES)

    return root


@cache
def _parser() -> argparse.ArgumentParser:
    """The tree of ``build_parser``, built once per process: parsing leaves
    it unchanged, and building it costs more than most commands."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    # flags use suppressed defaults, so --json and --out win in any
    # position and only the settings given reach ExperimentConfig
    args = _parser().parse_args(argv)
    given = vars(args)
    fields = inspect.signature(ExperimentConfig).parameters
    try:
        # rejects a bad seed, trial count or budget on every command
        # that takes one
        config = ExperimentConfig(**{k: v for k, v in given.items()
                                     if k in fields})
        payload, lines, *code = args.func(args, config)
        if given.get("json"):
            # an exact integer in the payload was charged by _exact_text
            with _integer_text_of_any_size():
                lines = [json.dumps({"schema_version": SCHEMA_VERSION,
                                     **payload},
                                    indent=2, sort_keys=True, default=str)]
        body = "\n".join(lines) + "\n"
        if given.get("out"):
            Path(given["out"]).write_text(body, encoding="utf-8")
        else:
            sys.stdout.write(body)
        return code[0] if code else 0
    # bad input, including a number too large for a float; unusable file
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
