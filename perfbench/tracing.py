"""Spans and counters around the public functions of lyapsearch's modules.

The tracer wraps functions from outside the package by replacing every
reference a lyapsearch module holds to them.  A wrapped function either
records one span per call (name, start, end, parent span, operation id) or,
when it runs more than about 10^4 times per run, only a call count and a
summed time.  Spans and counters stay in memory and are written when the
process finishes; pool workers, which inherit the wrappers through fork,
append theirs to a file of their own after each top-level span, and the
parent merges the files.

A span's self time is its duration minus the time of the spans and counted
calls directly inside it, so in one process the self times of all spans and
counted calls add up to the duration of the outermost span.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from pathlib import Path

# (module, function, hook).  A hook maps (result, args, kwargs) to
# (counter increments, span attributes).
SPANS = (
    ("cli", "main", None),
    ("sequences", "enumerate_pairs", lambda r, a, kw: ({"sequences.groups": len(r)}, None)),
    ("analysis", "verify_catalog", None),
    ("analysis", "analyze_groups",
     lambda r, a, kw: ({"analysis.infeasible_groups": sum(g.result is None for g in r)},
                       {"jobs": kw.get("jobs", a[2] if len(a) > 2 else None)})),
    ("analysis", "max_rate", None),
    ("analysis", "certified_time", None),
    ("analysis", "psd_conditions", lambda r, a, kw: ({"analysis.minors": len(r.minors)}, None)),
    ("analysis", "compile_conditions", None),
    ("simulate", "integrate", lambda r, a, kw: ({"simulate.rk4_steps": len(r.times) - 1}, None)),
    ("simulate", "conservation_check", None),
    ("lyapunov", "monotonicity_check", None),
    ("restart", "run_restart", None),
)

COUNTED = (
    ("pq", "apply_operation", None),
    ("analysis", "feasible", lambda r, a, kw: ({"analysis.feasible.true": int(bool(r))}, None)),
)

LAYERS = ("bench", "cli", "sequences", "pq", "analysis", "simulate", "lyapunov", "restart")


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.records: list[dict] = []
        self.counters: dict[str, float] = {}
        self.stack: list[list] = []  # open spans: [id, name, start, child time, attrs]
        self.next_id = 0
        self.op: str | None = None
        self.worker = False
        self.fork_depth = 0
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording ---------------------------------------------------------

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.records, self.counters = [], {}
        self.worker = True
        self.fork_depth = len(self.stack)

    def _open(self, name: str, attrs: dict | None = None) -> list:
        self.next_id += 1
        frame = [f"{self.pid}.{self.next_id}", name, 0.0, 0.0, attrs]
        self.stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _close(self, frame: list) -> dict:
        end = time.perf_counter()
        self.stack.pop()
        duration = end - frame[2]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        record = {"id": frame[0], "parent": parent[0] if parent else None, "op": self.op,
                  "name": frame[1], "start": frame[2], "end": end,
                  "self": duration - frame[3], "pid": self.pid, "attrs": frame[4]}
        self.records.append(record)
        return record

    def count(self, increments: dict) -> None:
        for key, value in increments.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def _after_span(self) -> None:
        if self.worker and len(self.stack) == self.fork_depth:
            self._flush()

    def span_wrapper(self, name: str, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(name)
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                record = self._close(frame)
                if returned and hook is not None:
                    increments, record["attrs"] = hook(result, args, kwargs)
                    self.count(increments)
                self._after_span()
            return result
        return wrapper

    def counted_wrapper(self, name: str, fn, hook):
        calls, total = name + ".calls", name + ".s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                counters = self.counters
                counters[calls] = counters.get(calls, 0) + 1
                counters[total] = counters.get(total, 0.0) + duration
                if self.stack:
                    self.stack[-1][3] += duration
            if hook is not None:
                self.count(hook(result, args, kwargs)[0])
            return result
        return wrapper

    def span(self, name: str, attrs: dict | None = None):
        """Context manager for the benchmark's own spans."""
        return _Span(self, name, attrs)

    def operation(self, label: str):
        """A top-level benchmark operation; spans inside it carry its id."""
        self.op = label
        return _Span(self, "bench.op", {"label": label})

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap SPANS and COUNTED in every loaded lyapsearch module."""
        modules = [m for n, m in sys.modules.items()
                   if n == "lyapsearch" or n.startswith("lyapsearch.")]
        for table, make in ((SPANS, self.span_wrapper), (COUNTED, self.counted_wrapper)):
            for module, func, hook in table:
                original = getattr(sys.modules[f"lyapsearch.{module}"], func)
                wrapped = make(f"{module}.{func}", original, hook)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    # -- writing -----------------------------------------------------------

    def _flush(self) -> None:
        with open(self.out_dir / f"spans-{self.pid}.jsonl", "a") as fh:
            for record in self.records:
                fh.write(json.dumps(record) + "\n")
            fh.write(json.dumps({"pid": self.pid, "counters": self.counters}) + "\n")
        self.records, self.counters = [], {}

    def finish(self) -> None:
        self._flush()


class _Span:
    def __init__(self, tracer: Tracer, name: str, attrs: dict | None):
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self):
        self.frame = self.tracer._open(self.name, self.attrs)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.frame)
        return False


def load(out_dir: Path) -> tuple[list[dict], dict[int, dict[str, float]]]:
    """Merge the span files of the main process and its workers.

    Returns the spans and, per process id, the summed counters.
    """
    records, counters = [], {}
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            item = json.loads(line)
            if "counters" in item:
                own = counters.setdefault(item["pid"], {})
                for key, value in item["counters"].items():
                    own[key] = own.get(key, 0) + value
            else:
                records.append(item)
    return records, counters


def _percentile_ms(durations: list[float], q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(records: list[dict], counters_by_pid: dict[int, dict[str, float]],
                  main_pid: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    counters: dict[str, float] = {}
    for own in counters_by_pid.values():
        for key, value in own.items():
            counters[key] = counters.get(key, 0) + value
    main_counters = counters_by_pid.get(main_pid, {})
    by_name: dict[str, list[dict]] = {}
    for r in records:
        by_name.setdefault(r["name"], []).append(r)

    def durations(name):
        return [r["end"] - r["start"] for r in by_name.get(name, ())]

    def total(name):
        return sum(durations(name))

    def self_s(name):
        return sum(r["self"] for r in by_name.get(name, ()))

    def count(key):
        return counters.get(key, 0)

    m: dict[str, float] = {}
    for name in ("sequences.enumerate_pairs", "analysis.psd_conditions",
                 "analysis.compile_conditions", "analysis.max_rate", "simulate.integrate",
                 "simulate.conservation_check"):
        m[f"{name}.calls"] = len(by_name.get(name, ()))
        m[f"{name}.s"] = total(name)
    for name in ("pq.apply_operation", "analysis.feasible"):
        m[f"{name}.calls"] = count(f"{name}.calls")
        m[f"{name}.s"] = count(f"{name}.s")
    m["sequences.groups"] = count("sequences.groups")
    for key in ("hits", "misses", "size"):
        m[f"pq.g_shift.{key}"] = count(f"pq.g_shift.{key}")
    m["analysis.minors"] = count("analysis.minors")
    m["analysis.certified_time.s"] = total("analysis.certified_time")
    feasible_calls = count("analysis.feasible.calls")
    m["analysis.feasible.true_frac"] = (
        count("analysis.feasible.true") / feasible_calls if feasible_calls else 0.0)
    rates = durations("analysis.max_rate")
    m["analysis.max_rate.p50_ms"] = _percentile_ms(rates, 50)
    m["analysis.max_rate.p90_ms"] = _percentile_ms(rates, 90)
    pools = by_name.get("analysis.analyze_groups", ())
    m["analysis.analyze_groups.s"] = total("analysis.analyze_groups")
    capacity = sum(max((r["attrs"] or {}).get("jobs") or 1, 1) * (r["end"] - r["start"])
                   for r in pools)
    m["analysis.pool_efficiency"] = sum(rates) / capacity if capacity else 0.0
    m["analysis.infeasible_groups"] = count("analysis.infeasible_groups")
    steps = count("simulate.rk4_steps")
    m["simulate.rk4_steps"] = steps
    m["simulate.rk4_us_per_step"] = total("simulate.integrate") / steps * 1e6 if steps else 0.0
    m["lyapunov.monotonicity_check.self_s"] = self_s("lyapunov.monotonicity_check")
    m["restart.run_restart.self_s"] = self_s("restart.run_restart")
    m["cli.main.self_s"] = self_s("cli.main")

    # Self time per layer, in the main process only: workers run beside it.
    layer_self = {layer: 0.0 for layer in LAYERS}
    for r in records:
        if r["pid"] == main_pid:
            layer_self[r["name"].split(".", 1)[0]] += r["self"]
    for module, func, _hook in COUNTED:
        layer_self[module] += main_counters.get(f"{module}.{func}.s", 0.0)
    for layer, value in layer_self.items():
        m[f"{layer}.self_s"] = value
    return m
