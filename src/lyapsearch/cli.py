"""Command-line front end: search, verify-catalog, simulate, restart, dump-groups."""

from __future__ import annotations

import argparse
import csv
import math
import re
import sys

import numpy as np

from . import analysis, restart as restart_mod, simulate as sim
from .expr import GAMMA_FORMS, ExprError
from .sequences import dump_groups_csv, enumerate_pairs
from .systems import resolve_system


def _number(text: str, arg: str, form: str) -> float:
    """float(text), or a usage error naming form, the expected shape of arg."""
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected {form}, got {arg!r}") from None


def _parse_param(text: str) -> tuple[str, float]:
    name, _, value = text.partition("=")
    if not _:
        raise argparse.ArgumentTypeError(f"expected NAME=NUMBER, got {text!r}")
    return name.strip(), _number(value, text, "NAME=NUMBER")


def _parse_finite(text: str) -> float:
    value = _number(text, text, "a number")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_finite_param(text: str) -> tuple[str, float]:
    name, value = _parse_param(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"parameter {name} must be finite, got {text!r}")
    return name, value


MAX_GRID_VALUES = 10_000  # values of one START:STEP:STOP range


def _parse_param_grid(text: str) -> tuple[str, tuple[float, ...]]:
    form = "NAME=V1,V2,... or NAME=START:STEP:STOP"
    name, _, spec = text.partition("=")
    parts = spec.split(":")
    if not _ or len(parts) not in (1, 3):
        raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")
    if len(parts) == 1:
        values = tuple(_number(v, text, form) for v in spec.split(","))
    else:
        start, step, stop = (_number(p, text, form) for p in parts)
        if not all(map(math.isfinite, (start, step, stop))):
            raise argparse.ArgumentTypeError(f"grid range {text!r} must be finite")
        if step == 0 or (stop - start) * step < 0:
            raise argparse.ArgumentTypeError(
                f"grid step of {text!r} must be nonzero and point from start to stop")
        steps = (stop - start) / step + 1e-9
        if not steps < MAX_GRID_VALUES:
            count = math.floor(steps) + 1 if math.isfinite(steps) else steps
            raise argparse.ArgumentTypeError(
                f"grid range {text!r} has {count:.6g} values, more than "
                f"the {MAX_GRID_VALUES} a range may have")
        n = int(math.floor(steps)) + 1
        values = tuple(start + i * step for i in range(n))
    return name.strip(), values


def _parse_jobs(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a whole number of workers >= 1, got {text!r}")
    return int(text)


def _parse_t_domain(text: str):
    if text == "all":
        return analysis.AllPositive()
    if text == "eventually":
        return analysis.Eventually()
    kind, _, bounds = text.partition(":")
    try:
        if kind == "eventually":
            return analysis.Eventually(_number(bounds, text, "eventually:T"))
        if kind == "window":
            lo_hi = bounds.split(":")
            if len(lo_hi) != 2:
                raise argparse.ArgumentTypeError(f"expected window:LO:HI, got {text!r}")
            return analysis.Window(*(_number(b, text, "window:LO:HI") for b in lo_hi))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad t-domain {text!r}: {exc}")
    raise argparse.ArgumentTypeError(
        f"expected all, eventually, eventually:T or window:LO:HI, got {text!r}")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes a value such as -1e-3 or -inf for a number.

    argparse tells a negative number from an option by a pattern that knows
    only forms like -5 and -.5, so `--mu -1e-3` would read as an option
    missing its value; here the number reaches the option's own check.
    Subparsers are made of the same class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lyapsearch")
    parser.add_argument("--jobs", type=_parse_jobs, default=1,
                        help="analysis worker pool size (default: 1, no pool)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="enumerate pairs and maximize the rate per group")
    p.add_argument("--spec", required=True, help="catalog name or system-spec file")
    p.add_argument("--gamma", choices=sorted(GAMMA_FORMS), default="linear")
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--L", type=float, default=None)
    p.add_argument("--convex", action="store_true")
    p.add_argument("--param", type=_parse_param, action="append", default=[],
                   help="NAME=VALUE, a one-value --param-grid")
    p.add_argument("--param-grid", type=_parse_param_grid, action="append", default=[])
    p.add_argument("--t-domain", type=_parse_t_domain, default=analysis.AllPositive())
    p.add_argument("--out", default=None, help="report CSV (default: stdout)")

    p = sub.add_parser("verify-catalog", help="re-derive every catalog rate")
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--L", type=float, default=4.0)
    p.add_argument("--rows", default=None,
                   help="comma-separated row labels to run (default: all)")
    p.add_argument("--out", default=None)

    p = sub.add_parser("simulate", help="integrate a system and fit its decay rate")
    p.add_argument("--spec", required=True)
    p.add_argument("--gamma", choices=sorted(GAMMA_FORMS), default="linear")
    p.add_argument("--mu", type=_parse_finite, default=1.0)
    p.add_argument("--L", type=_parse_finite, default=4.0)
    p.add_argument("--dim", type=int, default=10)
    p.add_argument("--t0", type=_parse_finite, default=1.0)
    p.add_argument("--t1", type=_parse_finite, default=100.0)
    p.add_argument("--dt", type=_parse_finite, default=1e-3)
    p.add_argument("--param", type=_parse_finite_param, action="append", default=[])
    p.add_argument("--csv", default=None)

    p = sub.add_parser("restart", help="run the clock-restart scheme")
    p.add_argument("--l", type=_parse_finite, required=True)
    p.add_argument("--c", type=_parse_finite, required=True)
    p.add_argument("--mu", type=_parse_finite, default=1.0)
    p.add_argument("--L", type=_parse_finite, default=4.0)
    p.add_argument("--dim", type=int, default=10)
    p.add_argument("--rounds", type=int, default=20)
    p.add_argument("--dt", type=_parse_finite, default=1e-3)
    p.add_argument("--csv", default=None)

    p = sub.add_parser("dump-groups", help="enumerate and list the pair groups")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    return parser


def _open_out(path):
    return open(path, "w", newline="") if path else sys.stdout


def _check_params(names, system, gamma) -> None:
    """Every parameter name given on the command line is a free parameter of the
    system or of the gamma form, and is given once."""
    known = system.free_params | gamma.params
    for name in names:
        if name not in known:
            raise ValueError(
                f"parameter {name!r} is neither a free parameter of system {system.name} "
                f"({', '.join(sorted(system.free_params)) or 'none'}) nor of the {gamma.name} "
                f"gamma form ({', '.join(sorted(gamma.params)) or 'none'})")
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"parameter {name!r} is given more than once")


def _cmd_search(args) -> int:
    system = resolve_system(args.spec)
    _check_params([name for name, _ in args.param + args.param_grid], system,
                  GAMMA_FORMS[args.gamma])
    query = analysis.RateQuery(
        gamma=GAMMA_FORMS[args.gamma], mu=args.mu, L=args.L, convex=args.convex,
        grid={**{n: (v,) for n, v in args.param}, **dict(args.param_grid)},
        t_domain=args.t_domain)
    groups = enumerate_pairs(system)
    rates = analysis.analyze_groups(groups, query, jobs=args.jobs)
    out = _open_out(args.out)
    out.write(f"# search system={system.name} gamma={args.gamma} mu={args.mu} "
              f"L={args.L} convex={args.convex}\n")
    writer = csv.writer(out)
    writer.writerow(["group_id", "ops", "k_max", "params", "t_validity", "n_minors", "status"])
    for rate, group in zip(rates, groups):
        if rate.result is None:
            writer.writerow([rate.group_id, group.label(), "", "", "", "", "infeasible-at-0"])
            continue
        r = rate.result
        params = " ".join(f"{k}={v:g}" for k, v in sorted(r.params.items()))
        validity = f"{r.validity[0]:g}..{r.validity[1]:g}"
        writer.writerow([rate.group_id, group.label(), f"{r.k_max:.8g}",
                         params, validity, r.n_minors, r.status])
    if args.out:
        out.close()
        best = analysis.best_rate(rates)
        summary = f"best k={best.k_max:.6g}" if best else "no feasible group"
        print(f"wrote {args.out}; {len(groups)} groups, {summary}")
    return 0


def _cmd_verify_catalog(args) -> int:
    rows = args.rows.split(",") if args.rows is not None else None
    report = analysis.verify_catalog(mu=args.mu, L=args.L, jobs=args.jobs, rows=rows)
    lines = [f"{'row':24s} {'expected':>22s} {'observed':>22s}  result"]
    for row in report.rows:
        lines.append(f"{row.label:24s} {row.expected:>22s} {row.observed:>22s}  "
                     f"{'ok' if row.passed else 'MISMATCH'}")
    text = "\n".join(lines)
    print(text)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(f"# verify-catalog mu={args.mu} L={args.L}\n")
            writer = csv.writer(fh)
            writer.writerow(["row", "expected", "observed", "passed", "groups", "infeasible_at_0"])
            for row in report.rows:
                writer.writerow([row.label, row.expected, row.observed, row.passed,
                                 row.n_groups, row.n_infeasible])
    return 0 if report.passed else 2


def _cmd_simulate(args) -> int:
    system = resolve_system(args.spec)
    gamma = GAMMA_FORMS[args.gamma]
    _check_params([name for name, _ in args.param], system, gamma)
    params = dict(args.param)
    missing = sorted(gamma.params - params.keys())
    if missing:
        raise ValueError(f"the {gamma.name} gamma form needs parameter {missing[0]!r}; "
                         f"give it with --param {missing[0]}=VALUE")
    obj = sim.QuadraticObjective.log_spaced(args.dim, args.mu, args.L)
    traj = sim.integrate(system, obj, np.ones(args.dim), np.zeros(args.dim),
                         t0=args.t0, t1=args.t1, dt=args.dt, params=params)
    fit = sim.measure_rate(traj, gamma, {**params, "k": 1.0})
    print(f"fitted k = {fit.k:.6g} (residual {fit.residual:.3g}, "
          f"window {fit.window[0]:.3g}..{fit.window[1]:.3g})")
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            fh.write(f"# simulate system={system.name} gamma={args.gamma} mu={args.mu} "
                     f"L={args.L} dt={args.dt} params={params}\n")
            writer = csv.writer(fh)
            writer.writerow(["t", "gap"])
            for t, gap in zip(traj.times, traj.gaps):
                writer.writerow([f"{t:.10g}", f"{gap:.10g}"])
    return 0


def _cmd_restart(args) -> int:
    spec = restart_mod.RestartSpec(l=args.l, c=args.c, mu=args.mu, rounds=args.rounds,
                                   dim=args.dim, L=args.L, dt=args.dt)
    report = restart_mod.run_restart(spec)
    print(f"h = {report.h:.9g}, C = {report.C:.9g}, per-round bound = {report.factor_bound:.6g}")
    print(f"max observed factor = {max(report.factors):.6g}, "
          f"chained bound {'holds' if report.chained_bound_ok else 'VIOLATED'}")
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            fh.write(f"# restart l={args.l} c={args.c} mu={args.mu} rounds={args.rounds} "
                     f"T={spec.T:.10g} h={report.h:.10g} C={report.C:.10g}\n")
            writer = csv.writer(fh)
            writer.writerow(["round", "g", "factor"])
            writer.writerow([0, f"{report.g_values[0]:.10g}", ""])
            for i, (g, f) in enumerate(zip(report.g_values[1:], report.factors), start=1):
                writer.writerow([i, f"{g:.10g}", f"{f:.10g}"])
    return 0 if report.chained_bound_ok else 2


def _cmd_dump_groups(args) -> int:
    system = resolve_system(args.spec)
    groups = enumerate_pairs(system)
    dump_groups_csv(groups, args.out, system.name)
    print(f"wrote {args.out}: {len(groups)} groups from {sum(g.member_count for g in groups)} sequences")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    handlers = {
        "search": _cmd_search,
        "verify-catalog": _cmd_verify_catalog,
        "simulate": _cmd_simulate,
        "restart": _cmd_restart,
        "dump-groups": _cmd_dump_groups,
    }
    try:
        return handlers[args.command](args)
    except (KeyError, ValueError, OSError, ExprError, sim.SimulationError,
            analysis.AnalysisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
