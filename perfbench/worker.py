"""One pass of one workload in a fresh interpreter.

Every pass runs in its own process so that the package's process-wide
caches (the permutation and LCS tables, the ballot tables of the twin
oracle) start cold, as they do for a command-line user.  Times are
taken twice: as wall time and as the process's CPU time, which a busy
host does not inflate (one thread, so CPU time is the pass's own work).
Prints one JSON object on its last line of output.

    python3 perfbench/worker.py --workload tail --seed 0 --mode run --size run
"""

import time

_START = time.perf_counter()
_START_CPU = time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (imports twinlcs and numpy)
from spans import NullTracer, Tracer  # noqa: E402

SPAN_DIR = Path(".perfbench") / "spans"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "traced"),
                        required=True)
    parser.add_argument("--size", choices=("run", "trace"), required=True)
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed, args.size)
    result = {"setup_s": time.process_time() - _START_CPU,
              "setup_wall_s": time.perf_counter() - _START}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    traced = args.mode == "traced"
    tracer = Tracer() if traced else NullTracer()
    checks = workloads.Checks()
    ops = workload.ops(inputs)
    try:
        start, start_cpu = time.perf_counter(), time.process_time()
        with tracer.span("bench.pass"):
            out = workload.run(inputs, tracer)
        run_cpu_s = time.process_time() - start_cpu
        run_s = time.perf_counter() - start
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        workload.check(inputs, out, checks)
        layer = workload.traced(inputs, out, tracer, checks) if traced else {}
    except Exception:  # a raising pass is a failed pass, not a lost run
        result.update(error=traceback.format_exc(), attempted=ops, failed=ops)
        print(json.dumps(result))
        return 0
    result.update(run_s=run_s, run_cpu_s=run_cpu_s,
                  peak_rss_mib=peak_kib / 1024, ops=ops,
                  attempted=checks.attempted, failed=len(checks.failures),
                  failures=checks.failures[:5],
                  digest=json.dumps(workload.digest(out), default=str))
    if traced:
        result["layer"] = layer
        result["modules"] = tracer.by_module()
        tracer.write(SPAN_DIR / f"{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
