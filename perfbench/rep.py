"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N --work-dir DIR --result FILE
                             [--mode setup|run|trace]

`setup` imports lyapsearch, makes the inputs and exits; `run` then times the
workload's operations and checks their outputs; `trace` does the same with
the tracer installed and adds the per-layer metrics.  The result is written
as JSON to FILE; `ready` is the CLOCK_MONOTONIC time at which set-up ended,
which the parent compares with the time it started this process.
"""

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports lyapsearch: part of set-up)


# The outermost span starts and ends inside the timed interval; what falls
# between the two is the only time the layers may leave unaccounted.
ACCOUNTING_TOLERANCE = 1e-3


class _NoTracer:
    def span(self, name):
        return contextlib.nullcontext()

    def operation(self, label):
        return contextlib.nullcontext()


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    args = parser.parse_args()

    make_inputs, run, check = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed, args.work_dir)
    ready = time.monotonic()
    out = {"ready": ready}
    if args.mode == "setup":
        args.result.write_text(json.dumps(out))
        return 0

    tracer = _NoTracer()
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer(args.work_dir)
        tracer.install()

    cpu0 = _cpu_s()
    start = time.perf_counter()
    with tracer.span(f"bench.{args.workload}"):
        result = run(inputs, tracer)
    wall = time.perf_counter() - start
    out.update(wall_s=wall, cpu_s=_cpu_s() - cpu0, peak_rss_mb=_peak_rss_mb(),
               inputs={"mu": inputs.mu, "L": inputs.L, "argv": inputs.argv})
    checks = check(inputs, result)

    if args.mode == "trace":
        from lyapsearch.pq import g_shift

        info = g_shift.cache_info()
        tracer.count({"pq.g_shift.hits": info.hits, "pq.g_shift.misses": info.misses,
                      "pq.g_shift.size": info.currsize})
        tracer.finish()
        records, counters = tracing.load(args.work_dir)
        layers = tracing.layer_metrics(records, counters, tracer.pid)
        accounted = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS)
        checks.append(workloads.Check(
            "layer self times add up to the traced wall time",
            abs(accounted - wall) <= ACCOUNTING_TOLERANCE * wall,
            f"{accounted:.6f} s of {wall:.6f} s"))
        out["layers"] = layers
    out["checks"] = [vars(c) for c in checks]
    args.result.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
