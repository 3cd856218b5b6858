"""Benchmark of lyapsearch: one workload, one seed, one result line.

    python3 perfbench/run.py --workload catalog|grid-search|crosscheck \\
        --seed N --seconds S --trace 0|1

Every repetition runs in a fresh interpreter (perfbench/rep.py), one at a
time, because command-line users pay cold caches on every run.  With
`--trace 0` the run first times several set-up-only interpreters, then
repeats the workload until `--seconds` is used up (at least once) and reports
the median of each end-to-end metric.  With `--trace 1` it runs the workload
once untraced and once traced and reports the per-layer metrics, including
the tracing overhead.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the metric names and
units are those of BENCHMARK.json.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("catalog", "grid-search", "crosscheck")
SETUP_PROBES = 5
REP_TIMEOUT_S = 170
# One thread per process: the analysis pool is the only parallelism measured.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, work_dir: Path):
        self.workload, self.seed, self.work_dir = workload, seed, work_dir
        self.count = 0
        self.env = {**os.environ, **CHILD_ENV}

    def rep(self, mode: str) -> dict:
        """One fresh interpreter; its result plus setup_s from our clock."""
        self.count += 1
        rep_dir = self.work_dir / f"rep-{self.count}"
        rep_dir.mkdir()
        result = rep_dir / "result.json"
        cmd = [sys.executable, str(HERE / "rep.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--work-dir", str(rep_dir), "--result", str(result),
               "--mode", mode]
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                                  timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} repetition exceeded {REP_TIMEOUT_S} s")
        total = time.monotonic() - start
        if proc.returncode != 0 or not result.is_file():
            raise BenchError(f"{mode} repetition exited with code {proc.returncode}")
        out = json.loads(result.read_text())
        out["setup_s"] = out["ready"] - start
        out["total_s"] = total
        return out


def _spread(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))  # the middle one is the median


def measure(runner: Runner, seconds: float) -> tuple[dict[str, list[float]], list[dict]]:
    deadline = time.monotonic() + seconds
    runner.rep("setup")  # warm-up: bytecode and page cache, as a returning user has them
    samples: dict[str, list[float]] = {"setup_s": [runner.rep("setup")["setup_s"]
                                                   for _ in range(SETUP_PROBES)]}
    reps = []
    while True:
        rep = runner.rep("run")
        reps.append(rep)
        for key in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb"):
            samples.setdefault(key, []).append(rep[key])
        if time.monotonic() + rep["total_s"] > deadline:
            return samples, reps


def trace(runner: Runner) -> tuple[dict[str, float], list[dict]]:
    runner.rep("setup")
    plain = runner.rep("run")
    traced = runner.rep("trace")
    layers = dict(traced["layers"])
    layers["trace.wall_s"] = traced["wall_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return layers, [plain, traced]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "lyapsearch" / "__init__.py").is_file():
        print(f"error: no lyapsearch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run_root = ROOT / ".perfbench_run"
    run_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=run_root))
    try:
        runner = Runner(args.workload, args.seed, work_dir)
        if args.trace:
            values, reps = trace(runner)
            lines = [f"{name:40s} {value:.6g}" for name, value in sorted(values.items())]
        else:
            samples, reps = measure(runner, args.seconds)
            values, lines = {}, []
            units = {m["name"]: m["unit"] for m in wanted}
            for name, series in samples.items():
                q1, med, q3 = _spread(series)
                values[name] = med
                lines.append(f"{name:12s} median {med:.6g} {units.get(name, '')}  "
                             f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(series)})")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    checks = [c for rep in reps for c in rep["checks"]]
    failed = [c for c in checks if not c["ok"]]
    inputs = reps[0]["inputs"]
    print(f"workload {args.workload} seed {args.seed}: mu={inputs['mu']:g} L={inputs['L']}")
    for line in lines:
        print(line)
    print(f"fail_frac    {len(failed)}/{len(checks)} = {len(failed) / len(checks):.4g} "
          f"(checks failed / attempted over {len(reps)} repetitions)")
    for c in failed:
        print(f"  FAILED: {c['name']}: {c['detail']}")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
