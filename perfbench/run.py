"""twinlcs benchmark: four seeded workloads, end-to-end and per-module.

    python3 perfbench/run.py --workload tail --seed 0 --seconds 25 --trace 0

Run from the root of a source tree; the package is imported from
``src/``.  With ``--trace 0`` the passes of one workload repeat, each in
a fresh process, until ``--seconds`` is used up; the last line of output
is a JSON object with ``setup_s``, ``run_cpu_s`` and ``peak_rss_mib``.  With
``--trace 1`` one traced pass of every workload runs, plus one untraced
pass of the named workload at the same size for the tracing overhead;
the JSON carries the per-module metrics.  Lines before the JSON repeat
every metric by name with its unit, and spans go to
``.perfbench/spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("tail", "families", "perm", "verify")
MIN_SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0
# one thread per pass; numpy's BLAS would otherwise start one per core
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# name of each workload's throughput: operations per second of pass wall time
OPS = {"tail": "trials_per_s", "families": "certified_per_s",
       "perm": "queries_per_s", "verify": "checks_per_s"}


class RunError(Exception):
    """The run cannot give a result (no program, or a worker died)."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path("src").resolve())
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def call_worker(env: dict, deadline: float, workload: str, seed: int,
                mode: str, size: str) -> dict:
    argv = [sys.executable, str(WORKER), "--workload", workload,
            "--seed", str(seed), "--mode", mode, "--size", size]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("out of time before the next pass")
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{workload} {mode} pass did not end in time") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"{workload} {mode} worker exited "
                       f"{proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    if "error" in result:
        print(f"{workload}: pass raised\n{result['error']}", file=sys.stderr)
    return result


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(args, env: dict, deadline: float
             ) -> tuple[dict, list[str], list[dict]]:
    """Repeat cold passes until the time is used; report medians."""
    started = time.monotonic()
    passes = []
    while True:
        passes.append(call_worker(env, deadline, args.workload, args.seed,
                                  "run", "run"))
        used = time.monotonic() - started
        if used + passes[-1]["wall_s"] > args.seconds:
            break
    setups = passes[:]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(call_worker(env, deadline, args.workload, args.seed,
                                  "setup", "run"))
    good = [p for p in passes if "error" not in p]
    if not good:
        raise RunError("every pass raised")

    def median(key: str, samples: list[dict]) -> float:
        return statistics.median(p[key] for p in samples)

    metrics = {
        "setup_s": metric(median("setup_s", setups), "s"),
        "run_cpu_s": metric(median("run_cpu_s", good), "s"),
        "peak_rss_mib": metric(median("peak_rss_mib", good), "MiB"),
    }
    ops = sum(p["ops"] for p in good)
    # a percentile above the median needs ten samples beyond it
    lines = [f"run_cpu_s: median of {len(good)} passes: "
             + " ".join(f"{p['run_cpu_s']:.4f}" for p in good),
             f"run_s = {median('run_s', good)} s (wall, median; not gated)",
             f"setup_s: median of {len(setups)} cold starts; wall "
             f"{median('setup_wall_s', setups)} s",
             f"{OPS[args.workload]} = {ops / sum(p['run_s'] for p in good)} "
             f"1/s of wall time ({ops} operations)"]
    same = len({p["digest"] for p in good}) == 1
    agreement = {"attempted": 1, "failed": int(not same),
                 "failures": [] if same else ["passes of one seed disagree"]}
    return metrics, lines, [*passes, agreement]


def traced(args, env: dict, deadline: float
           ) -> tuple[dict, list[str], list[dict]]:
    """One traced pass of every workload, all seven modules."""
    results = {w: call_worker(env, deadline, w, args.seed, "traced", "trace")
               for w in WORKLOADS}
    base = call_worker(env, deadline, args.workload, args.seed, "run",
                       "trace")
    for w, result in [*results.items(), ("untraced", base)]:
        if "error" in result:
            raise RunError(f"the {w} pass raised")
    metrics = {}
    for w in WORKLOADS:
        for name, (value, unit) in results[w]["layer"].items():
            metrics[name] = metric(value, unit)
    short, long_ = (metrics["lcs.lcs_len_short_calls"]["value"],
                    metrics["lcs.lcs_len_long_calls"]["value"])
    total_s = (metrics["lcs.lcs_len_short_s"]["value"]
               + metrics["lcs.lcs_len_long_s"]["value"])
    metrics["lcs.lcs_len_s"] = metric(total_s, "s")
    metrics["lcs.lcs_len_calls"] = metric(short + long_, "count")
    metrics["lcs.lcs_len_us_per_call"] = metric(1e6 * total_s
                                                / (short + long_), "us")
    own = results[args.workload]
    overhead = own["run_cpu_s"] - base["run_cpu_s"]
    metrics["trace.overhead_s"] = metric(overhead, "s")
    lines = [f"trace: traced run_cpu_s {own['run_cpu_s']} s, untraced "
             f"{base['run_cpu_s']} s, overhead {overhead} s on "
             f"{args.workload}"]
    for w in WORKLOADS:
        for module, entry in sorted(results[w]["modules"].items()):
            lines.append(f"span {w}/{module}: {entry['spans']} spans, "
                         f"total {entry['total_s']:.6f} s, "
                         f"self {entry['self_s']:.6f} s")
    return metrics, lines, [*results.values(), base]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (Path("src") / "twinlcs" / "__init__.py").is_file():
        print("error: run from the root of a twinlcs source tree "
              "(src/twinlcs not found)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    env = worker_env()
    try:
        # compile the package's bytecode once, as an installed copy has it
        call_worker(env, deadline, args.workload, args.seed, "setup", "run")
        run = traced if args.trace else untraced
        metrics, lines, passes = run(args, env, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for failure in p.get("failures", []):
            print(f"FAILED: {failure}")
    print(f"machine: python {sys.version.split()[0]}, numpy "
          f"{numpy.__version__}, {os.cpu_count()} cpus, one thread per pass")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print(line)
    for name, m in metrics.items():
        # counts come from the inputs, not from inside the package
        computed = m["unit"] == "count" or name.endswith("_computed")
        print(f"{name} = {m['value']} {m['unit']}"
              + (" (computed)" if computed else ""))
    print(f"failed_frac = {failed / attempted} ({failed} of {attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
