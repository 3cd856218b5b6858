import argparse
import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lyapsearch
from lyapsearch.cli import _parse_param_grid, main

FIXTURES = Path(__file__).resolve().parent / "fixtures"

def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#"), "reports carry a self-describing header"
    return lines[0], list(csv.DictReader(lines[1:]))


def test_search_damped_newton_convex(tmp_path):
    out = tmp_path / "report.csv"
    code = main(["--jobs", "1", "search", "--spec", "damped-newton", "--gamma", "linear",
                 "--convex", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert "gamma=linear" in header and "convex=True" in header
    assert len(rows) == 21
    winners = [r for r in rows if r["k_max"] and abs(float(r["k_max"]) - 1.0) < 1e-4]
    assert len(winners) == 1


def test_search_deterministic_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["--jobs", "1", "search", "--spec", "nag", "--gamma", "log",
            "--convex", "--param", "r=3"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_search_param_is_a_one_value_param_grid(tmp_path):
    single, grid = tmp_path / "param.csv", tmp_path / "grid.csv"
    argv = ["search", "--spec", "nag", "--gamma", "log", "--mu", "1"]
    assert main(argv + ["--param", "r=3", "--out", str(single)]) == 0
    assert main(argv + ["--param-grid", "r=3", "--out", str(grid)]) == 0
    assert single.read_bytes() == grid.read_bytes()


def test_jobs_defaults_to_one(tmp_path, monkeypatch):
    seen = []
    analyze = lyapsearch.analysis.analyze_groups

    def recording(groups, query, jobs):
        seen.append(jobs)
        return analyze(groups, query, jobs)

    monkeypatch.setattr(lyapsearch.analysis, "analyze_groups", recording)
    assert main(["search", "--spec", "damped-newton", "--convex",
                 "--out", str(tmp_path / "out.csv")]) == 0
    assert seen == [1]


def test_search_param_grid_parsing(tmp_path):
    out = tmp_path / "grid.csv"
    code = main(["--jobs", "1", "search", "--spec", "first-order-hessian",
                 "--mu", "1", "--L", "4", "--param-grid", "b=-0.25:0.25:0.0",
                 "--out", str(out)])
    assert code == 0
    _header, rows = read_csv(out)
    best = max(float(r["k_max"]) for r in rows if r["k_max"])
    assert best == pytest.approx(2.0, rel=1e-3)  # plain flow at b = 0 wins the grid
    smoothness_assisted = [r for r in rows if r["k_max"]
                           and abs(float(r["k_max"]) - 4.0 / 3.0) < 1e-3]
    assert smoothness_assisted and all("b=-0.25" in r["params"] for r in smoothness_assisted)


# Searches whose every run must reproduce them byte for byte, serially and
# with a pool.  The first three were recorded before the rate search was
# batched, the fourth when AllPositive gained its trailing-coefficient check,
# the last three before the minor tables were built over one entry list.
GOLDEN_SEARCHES = [
    pytest.param("search-second-order-hessian-mu1-ab-grid.csv",
                 ["--spec", "second-order-hessian", "--mu", "1",
                  "--param-grid", "a=0.5,1,2", "--param-grid", "b=0,0.5,1"],
                 id="second-order-hessian-ab-grid"),
    pytest.param("search-generalized-nag-power-r1-alpha-grid.csv",
                 ["--spec", "generalized-nag", "--gamma", "power", "--param", "r=1",
                  "--param-grid", "alpha=0.25,0.5", "--t-domain", "eventually:10000"],
                 id="generalized-nag-power-alpha-grid"),
    # Four corners, and t-free (r = 0) and t-dependent points in one batch.
    pytest.param("search-hessian-nag-mu0.5-L9-rb-grid.csv",
                 ["--spec", "hessian-nag", "--gamma", "linear", "--mu", "0.5", "--L", "9",
                  "--param-grid", "r=0,0.5", "--param-grid", "b=0.5,1,1.5"],
                 id="hessian-nag-rb-grid"),
    # t-dependent minors on AllPositive, whose rates rest on the trailing check.
    pytest.param("search-nag-log-r-grid.csv",
                 ["--spec", "nag", "--gamma", "log", "--mu", "1",
                  "--param-grid", "r=2,3,4,5,7"],
                 id="nag-log-r-grid"),
    # The convex corner at LAMBDA_CAP.
    pytest.param("search-damped-newton-linear-convex.csv",
                 ["--spec", "damped-newton", "--gamma", "linear", "--convex"],
                 id="damped-newton-convex"),
    # The README's range grid, with L.
    pytest.param("search-first-order-hessian-mu1-L4-b-range.csv",
                 ["--spec", "first-order-hessian", "--gamma", "linear", "--mu", "1", "--L", "4",
                  "--param-grid", "b=-0.25:0.25:0.0"],
                 id="first-order-hessian-b-range"),
    # A Window validity range.
    pytest.param("search-nag-log-r-grid-window.csv",
                 ["--spec", "nag", "--gamma", "log", "--mu", "1",
                  "--param-grid", "r=2,3,4,5,7", "--t-domain", "window:1:100"],
                 id="nag-log-r-grid-window"),
]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("fixture, argv", GOLDEN_SEARCHES)
def test_search_reproduces_golden_csv(tmp_path, fixture, argv, jobs):
    out = tmp_path / "search.csv"
    assert main(["--jobs", jobs, "search"] + argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (FIXTURES / fixture).read_bytes()


# verify-catalog reports recorded before the minor kernel moved to integers;
# a serial run must reproduce both the CSV and the table it prints.
@pytest.mark.parametrize("mu, L, stem", [("1", "4", "catalog-mu1-L4"),
                                         ("0.5", "9", "catalog-mu0.5-L9")])
def test_verify_catalog_reproduces_golden_report(tmp_path, capsys, mu, L, stem):
    out = tmp_path / "catalog.csv"
    assert main(["--jobs", "1", "verify-catalog", "--mu", mu, "--L", L, "--out", str(out)]) == 0
    assert out.read_bytes() == (FIXTURES / f"{stem}.csv").read_bytes()
    assert capsys.readouterr().out == (FIXTURES / f"{stem}.out").read_text()


@pytest.mark.parametrize("command, argv, message", [
    ("search", ["--spec", "second-order-hessian", "--param-grid", "zz=1", "--param", "b=0"],
     "parameter 'zz' is neither a free parameter of system second-order-hessian (a, b) "
     "nor of the linear gamma form (none)"),
    ("search", ["--spec", "second-order-hessian", "--param", "k=1"], "parameter 'k' is neither"),
    ("search", ["--spec", "nag", "--param", "r=3", "--param", "alpha=0.5"],
     "parameter 'alpha' is neither a free parameter of system nag (r)"),
    ("search", ["--spec", "nag", "--param", "r=3", "--param-grid", "r=3,4"],
     "parameter 'r' is given more than once"),
    ("search", ["--spec", "second-order-hessian", "--param-grid", "a=1", "--param-grid", "a=2",
                "--param", "b=0"], "parameter 'a' is given more than once"),
    ("search", ["--spec", "nag", "--param", "r=3", "--param", "r=4"],
     "parameter 'r' is given more than once"),
    ("simulate", ["--spec", "nag", "--param", "r=3", "--param", "q=5"],
     "parameter 'q' is neither a free parameter of system nag (r)"),
    ("simulate", ["--spec", "damped-newton", "--param", "r=3"],
     "parameter 'r' is neither a free parameter of system damped-newton (none)"),
    ("simulate", ["--spec", "nag", "--param", "r=3", "--param", "r=7"],
     "parameter 'r' is given more than once"),
], ids=["unknown-grid", "reserved-k", "alpha-without-power", "param-and-grid",
        "grid-twice", "param-twice", "simulate-unknown", "simulate-not-of-the-system",
        "simulate-param-twice"])
def test_search_rejects_unknown_and_repeated_parameters(tmp_path, capsys, command, argv,
                                                        message):
    out = tmp_path / "out.csv"
    flag = "--out" if command == "search" else "--csv"
    assert main(["--jobs", "1", command] + argv + [flag, str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("argv, missing", [
    (["--param", "r=1"], "alpha"), (["--param", "alpha=0.5"], "r")], ids=["alpha", "r"])
def test_simulate_needs_every_gamma_form_parameter(tmp_path, capsys, monkeypatch, argv,
                                                   missing):
    # Refused before any integration, naming the parameter.
    def no_run(*args, **kwargs):
        raise AssertionError("integrated before checking the parameters")

    monkeypatch.setattr(lyapsearch.simulate, "integrate", no_run)
    out = tmp_path / "out.csv"
    assert main(["simulate", "--spec", "nag", "--gamma", "power", "--t1", "3"] + argv
                + ["--csv", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: the power gamma form needs parameter {missing!r}; "
        f"give it with --param {missing}=VALUE\n")
    assert not out.exists()


def test_search_takes_the_power_form_parameters(tmp_path):
    # nag's coefficients hold only r; alpha is a parameter of the power gamma form.
    out = tmp_path / "out.csv"
    assert main(["--jobs", "1", "search", "--spec", "nag", "--gamma", "power", "--param", "r=1",
                 "--param", "alpha=0.5", "--t-domain", "eventually:10000",
                 "--out", str(out)]) == 0
    _header, rows = read_csv(out)
    assert rows and all(r["params"] == "alpha=0.5 r=1" for r in rows if r["k_max"])


@pytest.mark.parametrize("spec, message", [
    ("a=0:0:1", "grid step of 'a=0:0:1' must be nonzero"),
    ("a=1:-0.5:3", "grid step of 'a=1:-0.5:3' must be nonzero"),
    ("a=0:1:inf", "grid range 'a=0:1:inf' must be finite"),
    ("a=1,,2", "expected NAME=V1,V2,... or NAME=START:STEP:STOP, got 'a=1,,2'"),
    ("a=1:x:3", "expected NAME=V1,V2,... or NAME=START:STEP:STOP, got 'a=1:x:3'"),
], ids=["a=0:0:1", "a=1:-0.5:3", "a=0:1:inf", "a=1,,2", "a=1:x:3"])
def test_bad_param_grid_range_is_a_usage_error(tmp_path, capsys, spec, message):
    argv = ["--jobs", "1", "search", "--spec", "damped-newton", "--convex",
            "--param-grid", spec, "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 1
    assert f"argument --param-grid: {message}" in capsys.readouterr().err


def test_param_grid_range_is_capped():
    # A range is counted before any value is made: one value past the cap of
    # 10 000, a billion values or an infinite count is refused at once.
    assert len(_parse_param_grid("r=1:1:10000")[1]) == 10_000
    for spec, count in (("r=1:1:10001", "10001"), ("r=1:1:1e9", "1e+09"),
                        ("r=0:1e-320:1", "inf")):
        with pytest.raises(argparse.ArgumentTypeError,
                           match=f"has {re.escape(count)} values, more than the 10000 "
                                 "a range may have"):
            _parse_param_grid(spec)


def test_param_grid_forms():
    assert _parse_param_grid("a=3:-1:1") == ("a", (3.0, 2.0, 1.0))
    assert _parse_param_grid("a=1:1:1") == ("a", (1.0,))
    assert _parse_param_grid("b=0.5,0,2") == ("b", (0.5, 0.0, 2.0))


@pytest.mark.parametrize("domain, bound", [
    ("window:0:10", "t_lo"), ("window:5:1", "t_hi"), ("eventually:-1", "t_search"),
    ("window:1", "expected window:LO:HI, got 'window:1'"),
    ("window:1:2:3", "expected window:LO:HI, got 'window:1:2:3'")],
    ids=["window:0:10-t_lo", "window:5:1-t_hi", "eventually:-1-t_search", "window:1",
         "window:1:2:3"])
def test_bad_t_domain_is_a_usage_error(tmp_path, capsys, domain, bound):
    argv = ["--jobs", "1", "search", "--spec", "damped-newton", "--convex",
            "--t-domain", domain, "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 1
    assert bound in capsys.readouterr().err


@pytest.mark.parametrize("mu, L", [("0", "4"), ("2", "1"), ("-1", "4"), ("1", "1")])
def test_verify_catalog_needs_mu_below_L(capsys, mu, L):
    assert main(["--jobs", "1", "verify-catalog", "--mu", mu, "--L", L]) == 1
    assert "error: catalog rows need 0 < mu < L" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["search", "--spec", "damped-newton", "--mu", "2", "--L", "1"], "got [2.0, 1.0]"),
    (["search", "--spec", "damped-newton", "--mu", "-1"], "needs mu > 0 unless convex"),
    (["search", "--spec", "damped-newton", "--mu", "-1e-3"],
     "needs mu > 0 unless convex, got mu=-0.001"),
    (["search", "--spec", "damped-newton", "--mu", "2e6"], "got [2000000.0, 1048576.0]"),
    (["search", "--spec", "damped-newton", "--L", "inf"], "L must be finite, got inf"),
    (["simulate", "--spec", "nag", "--param", "r=3", "--mu", "4", "--L", "1", "--t1", "3"],
     "need 0 < mu <= L"),
    (["simulate", "--spec", "nag", "--param", "r=3", "--mu", "-1", "--t1", "3"],
     "need 0 < mu <= L"),
], ids=["search-L-below-mu", "search-negative-mu", "search-negative-mu-exponent-form",
        "search-mu-above-lambda-cap", "search-L-inf", "simulate-L-below-mu",
        "simulate-negative-mu"])
def test_curvature_interval_must_be_ordered_and_positive(tmp_path, capsys, argv, message):
    if argv[0] == "search":
        argv = argv + ["--out", str(tmp_path / "out.csv")]
    assert main(["--jobs", "1"] + argv) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["restart", "--l", "0.7", "--c", "2", "--dim", "0"], "dim must be at least 1"),
    (["restart", "--l", "0.7", "--c", "2", "--rounds", "0"], "rounds must be at least 1"),
    (["restart", "--l", "0.7", "--c", "2", "--dt", "0"], "dt must be positive, got 0.0"),
    (["restart", "--l", "0.7", "--c", "2", "--mu", "4", "--L", "1"],
     "restart needs 0 < mu <= L, got mu=4.0, L=1.0"),
    (["simulate", "--spec", "nag", "--param", "r=3", "--dim", "0", "--t1", "3"],
     "need dim >= 1"),
    (["simulate", "--spec", "nag", "--param", "r=3", "--t0", "5", "--t1", "1"],
     "needs t1 > t0"),
    (["simulate", "--spec", "nag", "--param", "r=3", "--t0", "2", "--t1", "2"],
     "needs t1 > t0"),
    (["simulate", "--spec", "nag", "--param", "r=3", "--t0", "-1e-3", "--t1", "3"],
     "t0 must be positive"),
], ids=["restart-dim-0", "restart-rounds-0", "restart-dt-0", "restart-L-below-mu",
        "simulate-dim-0", "simulate-t1-before-t0", "simulate-t1-at-t0",
        "simulate-negative-t0-exponent-form"])
def test_bad_sizes_are_errors(capsys, argv, message):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert message in err


@pytest.mark.parametrize("argv, message", [
    (["search", "--spec", "second-order-hessian", "--param", "a=nan", "--param", "b=0"],
     "parameter a must be finite, got nan"),
    (["search", "--spec", "second-order-hessian", "--param-grid", "a=1,inf", "--param", "b=0"],
     "parameter a must be finite, got inf"),
    (["verify-catalog", "--rows", "bogus"],
     "unknown catalog rows 'bogus'; valid rows are damped-newton, gradient-flow,"),
    (["verify-catalog", "--rows", ""],
     "unknown catalog rows ''; valid rows are damped-newton, gradient-flow,"),
    (["verify-catalog", "--rows", "foo,damped-newton"], "unknown catalog rows 'foo';"),
    (["verify-catalog", "--rows", " sc-nag"], "unknown catalog rows ' sc-nag';"),
], ids=["search-param-nan", "search-param-grid-inf", "verify-catalog-unknown-row",
        "verify-catalog-empty-row", "verify-catalog-unknown-among-known",
        "verify-catalog-row-with-a-space"])
def test_bad_values_are_errors_not_results(capsys, argv, message):
    assert main(["--jobs", "1"] + argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert message in captured.err
    assert not captured.out


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--spec", "nag", "--param", "r=nan"],
     "argument --param: parameter r must be finite, got 'r=nan'"),
    (["simulate", "--spec", "nag", "--param", "r=3", "--dt", "nan"],
     "argument --dt: expected a finite number, got 'nan'"),
    (["simulate", "--spec", "nag", "--param", "r=3", "--t1", "inf"],
     "argument --t1: expected a finite number, got 'inf'"),
    (["restart", "--l", "nan", "--c", "2"], "argument --l: expected a finite number, got 'nan'"),
    (["restart", "--l", "0.7", "--c", "2", "--mu=-inf"],
     "argument --mu: expected a finite number, got '-inf'"),
    (["simulate", "--spec", "nag", "--param", "r=abc"],
     "argument --param: expected NAME=NUMBER, got 'r=abc'"),
    (["search", "--spec", "nag", "--param", "r=abc"],
     "argument --param: expected NAME=NUMBER, got 'r=abc'"),
], ids=["simulate-param-nan", "simulate-dt-nan", "simulate-t1-inf", "restart-l-nan",
        "restart-mu-minus-inf", "simulate-param-not-a-number", "search-param-not-a-number"])
def test_non_finite_simulate_and_restart_inputs_are_usage_errors(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert not captured.out


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_a_usage_error(capsys, jobs):
    assert main(["--jobs", jobs, "verify-catalog", "--rows", "damped-newton"]) == 1
    assert "argument --jobs: expected a whole number of workers >= 1" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli():
    src = str(Path(lyapsearch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "lyapsearch", "verify-catalog",
                           "--rows", "damped-newton"], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "damped-newton" in done.stdout


def test_verify_catalog_subset(tmp_path, capsys):
    out = tmp_path / "catalog.csv"
    code = main(["--jobs", "1", "verify-catalog", "--mu", "1", "--L", "4",
                 "--rows", "damped-newton,nag-convex,nag-strong-exp", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "MISMATCH" not in text
    _header, rows = read_csv(out)
    assert [r["row"] for r in rows] == ["damped-newton", "nag-convex", "nag-strong-exp"]
    assert all(r["passed"] == "True" for r in rows)


def test_simulate_writes_trajectory_csv(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(["simulate", "--spec", "first-order-hessian", "--param", "b=0",
                 "--t0", "0", "--t1", "5", "--dt", "0.001", "--csv", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert "dt=0.001" in header
    assert len(rows) == 5001
    assert float(rows[-1]["gap"]) < float(rows[0]["gap"])


def test_simulate_rejects_bad_dt():
    assert main(["simulate", "--spec", "nag", "--param", "r=3", "--dt", "-1"]) == 1


def test_verify_catalog_mismatch_exit_code(monkeypatch):
    from lyapsearch import analysis

    report = analysis.CatalogReport([analysis.RowOutcome(
        "demo", "k=1", "k=2", False, 1, 0)])
    monkeypatch.setattr(analysis, "verify_catalog", lambda **kw: report)
    assert main(["verify-catalog"]) == 2


def test_unknown_catalog_name_is_usage_error():
    assert main(["simulate", "--spec", "no-such-system"]) == 1


@pytest.mark.parametrize("command", ["search", "simulate", "dump-groups"])
def test_unknown_system_error_is_plain_text(tmp_path, capsys, command):
    argv = [command, "--spec", "nosuch"]
    if command != "simulate":
        argv += ["--out", str(tmp_path / "out.csv")]
    assert main(["--jobs", "1"] + argv) == 1
    assert capsys.readouterr().err == (
        "error: unknown system 'nosuch' (catalog: ['damped-newton', 'first-order-hessian', "
        "'generalized-nag', 'hessian-nag', 'nag', 'second-order-hessian'])\n")


SPEC_TEMPLATE = ("name = broken\ncoeff_v1 = 0\ncoeff_v2 = 1\ncoeff_v3 = {v3}\n"
                 "coeff_v4 = 0\ncoeff_v5 = 1\nparams = [a]\n")


@pytest.mark.parametrize("v3, command", [("1*zeta", "dump-groups"), ("1*a*", "search")])
def test_malformed_spec_file_is_an_error_not_a_traceback(tmp_path, capsys, v3, command):
    spec_file = tmp_path / "sys.txt"
    spec_file.write_text(SPEC_TEMPLATE.format(v3=v3))
    out = tmp_path / "out.csv"
    argv = ["--jobs", "1", command, "--spec", str(spec_file), "--out", str(out)]
    if command == "search":
        argv += ["--param", "a=2"]
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_unbound_parameter_from_the_pool_is_named_once(capsys):
    assert main(["--jobs", "2", "search", "--spec", "nag", "--gamma", "log", "--convex"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("'r'") == 1


def test_restart_csv(tmp_path):
    out = tmp_path / "restart.csv"
    code = main(["restart", "--l", "0.7071067811865476", "--c", "2", "--mu", "1",
                 "--rounds", "3", "--dt", "0.002", "--csv", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert "h=" in header and "C=" in header
    assert len(rows) == 4  # round 0 plus three rounds
    factors = [float(r["factor"]) for r in rows[1:]]
    assert max(factors) < 0.1


def test_restart_csv_matches_recorded_bytes(tmp_path):
    # The README run; the fixture was written by the round-by-round integrator
    # that the round map replaced.
    out = tmp_path / "restart.csv"
    assert main(["restart", "--l", "0.70710678", "--c", "2", "--mu", "1", "--rounds", "20",
                 "--csv", str(out)]) == 0
    fixture = FIXTURES / "restart-l0.70710678-c2-mu1-rounds20.csv"
    assert out.read_bytes() == fixture.read_bytes()


@pytest.mark.parametrize("argv, stem", [
    # Every coefficient is free of t: the RK4 maps are built once per chunk
    # and broadcast.  The fixture was written by the per-step build.
    (["--spec", "second-order-hessian", "--param", "a=2", "--param", "b=0"],
     "simulate-second-order-hessian-a2-b0"),
    # The damping r/t varies with t: the maps are built per step.
    (["--spec", "nag", "--param", "r=3", "--gamma", "log"], "simulate-nag-r3-log"),
    # A first-order system: scalar step factors and their cumulative product.
    (["--spec", "first-order-hessian", "--param", "b=0.1"], "simulate-first-order-hessian-b0.1"),
], ids=["second-order-t-free", "second-order-in-t", "first-order"])
def test_simulate_csv_matches_recorded_bytes(tmp_path, argv, stem):
    out = tmp_path / "simulate.csv"
    assert main(["simulate"] + argv + ["--mu", "1", "--L", "4", "--t1", "20", "--dt", "0.01",
                                       "--csv", str(out)]) == 0
    assert out.read_bytes() == (FIXTURES / f"{stem}.csv").read_bytes()


def test_dump_groups(tmp_path):
    out = tmp_path / "groups.csv"
    assert main(["dump-groups", "--spec", "generalized-nag", "--out", str(out)]) == 0
    _header, rows = read_csv(out)
    assert len(rows) == 10


# Group lists recorded for every catalog system; each run must reproduce them
# byte for byte.
@pytest.mark.parametrize("spec", ["damped-newton", "first-order-hessian", "second-order-hessian",
                                  "nag", "generalized-nag", "hessian-nag"])
def test_dump_groups_reproduces_golden_csv(tmp_path, spec):
    out = tmp_path / "groups.csv"
    assert main(["dump-groups", "--spec", spec, "--out", str(out)]) == 0
    assert out.read_bytes() == (FIXTURES / f"dump-groups-{spec}.csv").read_bytes()


def test_system_spec_file_round_trip(tmp_path):
    spec_file = tmp_path / "sys.txt"
    spec_file.write_text(
        "# a second-order test system\n"
        "name = demo\n"
        "coeff_v1 = 0\n"
        "coeff_v2 = 1\n"
        "coeff_v3 = 1*a\n"
        "coeff_v4 = 0\n"
        "coeff_v5 = 1\n"
        "params = [a]\n")
    out = tmp_path / "demo.csv"
    code = main(["--jobs", "1", "search", "--spec", str(spec_file), "--mu", "1",
                 "--param", "a=2", "--out", str(out)])
    assert code == 0
    _header, rows = read_csv(out)
    best = max(float(r["k_max"]) for r in rows if r["k_max"])
    assert best == pytest.approx(1.0, rel=1e-3)  # same dynamics as sc-nag at a=2
