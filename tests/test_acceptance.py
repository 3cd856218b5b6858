"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math
import random
import time

import numpy as np

from lyapsearch.analysis import (RateQuery, Window, analyze_groups, catalog_rows, certified_time,
                                 grid_step_factor, verify_catalog)
from lyapsearch.expr import LINEAR, LOG
from lyapsearch.lyapunov import bootstrap_rate_check, monotonicity_check
from lyapsearch.pq import apply_sequence, initial_pair
from lyapsearch.sequences import generate_sequences
from lyapsearch.simulate import QuadraticObjective, conservation_check, integrate, measure_rate
from lyapsearch.systems import CATALOG

from conftest import pooled
from test_analysis import nag_bootstrap_pair, numeric_matrices
from test_pq import IDENTITIES, check_identity


def report(number: int, label: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d} {label}: {'PASS' if passed else 'FAIL'} ({detail})")


GROUP_COUNTS = {
    "damped-newton": 21,
    "first-order-hessian": 42,
    "second-order-hessian": 210,
    "nag": 10,
    "generalized-nag": 10,
}


def test_c01_sequence_count():
    start = time.perf_counter()
    count = len(generate_sequences())
    elapsed = time.perf_counter() - start
    passed = count == 23660 and elapsed < 1.0
    report(1, "sequence enumeration", passed, f"count={count}, {elapsed:.3f}s")
    assert count == 23660
    assert elapsed < 1.0


def test_c02_group_counts(enumerations):
    start = time.perf_counter()
    observed = {name: len(enumerations(name)) for name in GROUP_COUNTS}
    elapsed = time.perf_counter() - start
    passed = observed == GROUP_COUNTS and elapsed < 60.0
    report(2, "group counts", passed, f"{observed}, {elapsed:.1f}s")
    assert observed == GROUP_COUNTS
    assert elapsed < 60.0


def test_c03_rate_catalog(enumerations):
    cache = {name: enumerations(name) for name in
             ("damped-newton", "first-order-hessian", "second-order-hessian",
              "nag", "generalized-nag", "hessian-nag")}
    rows = ["damped-newton", "gradient-flow", "first-order-hessian", "sc-nag",
            "second-order-hessian", "nag-convex", "nag-strong-log",
            "generalized-nag", "hessian-nag"]
    result = verify_catalog(mu=1.0, L=4.0, rows=rows, enumerations=cache)
    detail = "; ".join(f"{r.label}: {r.observed} vs {r.expected}" for r in result.rows)
    report(3, "rate catalog", result.passed, detail)
    for row in result.rows:
        assert row.passed, f"{row.label}: observed {row.observed}, expected {row.expected}"


def test_c04_first_order_subclassification(enumerations):
    groups = enumerations("first-order-hessian")
    query = RateQuery(LINEAR, mu=1.0, L=4.0, grid={"b": (-0.25, 0.0)})
    rates = analyze_groups(groups, query)
    buckets = {"smoothness": 0, "double": 0, "plain": 0, "other": 0}
    for rate in rates:
        k = rate.result.k_max if rate.result else -1.0
        if abs(k - 4.0 / 3.0) < 1e-3:
            buckets["smoothness"] += 1
        elif abs(k - 2.0) < 1e-3:
            buckets["double"] += 1
        elif abs(k - 1.0) < 1e-3:
            buckets["plain"] += 1
        else:
            buckets["other"] += 1
    passed = buckets == {"smoothness": 1, "double": 21, "plain": 20, "other": 0}
    report(4, "first-order split", passed, str(buckets))
    assert buckets["smoothness"] == 1
    assert buckets["double"] == 21 >= 20
    assert buckets["plain"] == 20
    assert buckets["other"] == 0


def test_c05_exponential_window(enumerations):
    query = RateQuery(LINEAR, mu=1.0, grid={"r": (8.0,)}, t_domain=Window(1e-2, 64.0))
    observed = certified_time(*pooled(g.representative for g in enumerations("nag")), query, 1.0)
    step = grid_step_factor()
    passed = 4.0 / step ** 2 <= observed <= 4.0 * step ** 2
    report(5, "exponential-rate window", passed, f"T={observed:.5f} vs 4 +- one grid step")
    assert passed


def test_c06_identity_suite():
    start = time.perf_counter()
    rng = random.Random(123)
    for lhs, rhs in IDENTITIES:
        check_identity(lhs, rhs, rng, samples=100)
    elapsed = time.perf_counter() - start
    passed = elapsed < 10.0
    report(6, "composition identities", passed,
           f"{len(IDENTITIES)} identities x 100 pairs, {elapsed:.1f}s")
    assert elapsed < 10.0


CONSERVATION_RUNS = [
    ("first-order-hessian", LINEAR, {"k": 0.5, "b": 0.5}, (1.0, 5.0)),
    ("damped-newton", LINEAR, {"k": 1.0}, (1.0, 5.0)),
    ("nag", LOG, {"k": 2.0, "r": 3.0}, (1.0, 6.0)),
]


def _conservation_worst(dt: float) -> float:
    rng = random.Random(7)
    seqs = generate_sequences()
    obj = QuadraticObjective.log_spaced(10, 1.0, 4.0)
    worst = 0.0
    for name, gamma, params, (t0, t1) in CONSERVATION_RUNS:
        system = CATALOG[name]
        sim_params = {p: params[p] for p in system.free_params}
        traj = integrate(system, obj, np.ones(10), np.zeros(10),
                         t0=t0, t1=t1, dt=dt, params=sim_params)
        for seq in rng.sample(seqs, 10):
            pair = apply_sequence(initial_pair(system), seq.ops())
            worst = max(worst, conservation_check(pair, gamma, traj, params))
    return worst


def test_c07_conservation_oracle():
    worst = _conservation_worst(1e-3)
    worst_halved = _conservation_worst(5e-4)
    passed = worst < 1e-4 and worst_halved < 2.5e-5
    report(7, "conservation identity", passed,
           f"max residual {worst:.2e}, halved dt {worst_halved:.2e}")
    assert worst < 1e-4
    assert worst_halved < 2.5e-5


def test_c08_lyapunov_monotonicity(lyapunov_increases):
    worst = max(lyapunov_increases.values())
    passed = worst <= 1e-8
    report(8, "certificate monotonicity", passed,
           f"max increase {worst:+.2e} over {len(lyapunov_increases)} certificates")
    assert passed


def test_c08_negative_control():
    # The certificate run 20% above its certified rate must show an increase,
    # which needs a certificate whose rate is sharp for its own E.  Gradient
    # flow is one: E = e^{kt} (f - f*) gives dE/dt = e^{kt} sum_i (k l_i/2 - l_i^2) u_i^2
    # over the modes u_i of the quadratic, and log_spaced puts an eigenvalue
    # at l = mu.  At k = 2.4 mu that mode's term is +0.2 mu^2 u^2 > 0, and it
    # outlives the faster modes, so late in the run dE/dt ~ 0.4 E; with
    # E(12) ~ 0.5 e^{4.8} the normalised step increase is ~ 4e-4 at dt = 1e-3.
    # (sc-nag would not do: its E stays non-increasing on quadratics for every
    # k <= (4/3) sqrt(mu), see test_lyapunov.)
    mu, L = 1.0, 4.0
    k = 1.2 * next(row.expected_k for row in catalog_rows(mu, L) if row.label == "gradient-flow")
    increase = monotonicity_check("gradient-flow", mu=mu, L=L, k=k)
    passed = increase > 1e-4
    report(8, f"negative control (gradient-flow, k = {k / mu:g} mu)", passed,
           f"increase {increase:+.2e}")
    assert increase > 1e-4, (
        f"no increase for gradient-flow at k = {k:g}: observed {increase:+.3e}; the "
        "slowest mode's term (k mu/2 - mu^2) u^2 is positive there, so E must grow")


def test_c09_empirical_rates(enumerations):
    obj = QuadraticObjective.log_spaced(10, 1.0, 4.0)
    results = {}

    traj = integrate(CATALOG["first-order-hessian"], obj, np.ones(10), np.zeros(10),
                     t0=0.0, t1=10.0, dt=1e-3, params={"b": 0.0})
    results["gradient-flow"] = (measure_rate(traj, LINEAR, {"k": 1.0}).k, 2.0)

    traj = integrate(CATALOG["second-order-hessian"], obj, np.ones(10), np.zeros(10),
                     t0=0.0, t1=20.0, dt=1e-3, params={"a": 2.0, "b": 0.0})
    results["sc-nag"] = (measure_rate(traj, LINEAR, {"k": 1.0}).k, 1.0)

    flat = QuadraticObjective(np.concatenate([[1e-6], np.geomspace(0.5, 4.0, 9)]))
    traj = integrate(CATALOG["nag"], flat, np.ones(10), np.zeros(10),
                     t0=1.0, t1=60.0, dt=2e-3, params={"r": 3.0})
    results["nag-convex"] = (measure_rate(traj, LOG, {"k": 1.0}, window=(20.0, 60.0)).k, 2.0)

    boot_ok = bootstrap_rate_check(
        CATALOG["nag"], nag_bootstrap_pair(), 2.0,
        RateQuery(LOG, mu=1.0, grid={"r": (4.5,)}))

    passed = boot_ok and all(k >= 0.9 * theory for k, theory in results.values())
    detail = ", ".join(f"{n}: {k:.3f} vs {t:.3f}" for n, (k, t) in results.items())
    report(9, "empirical rates", passed, detail + f", bootstrap r=4.5: {boot_ok}")
    for name, (k, theory) in results.items():
        assert k >= 0.9 * theory, f"{name}: fitted {k:.4f} below 90% of {theory}"
    assert boot_ok


def test_c10_restart_scheme(restart_report_20):
    rep = restart_report_20
    h_ok = abs(rep.h - 0.580578) <= 1e-6
    c_ok = abs(rep.C - math.exp(3.0) / 2.0) <= 1e-9
    factors_ok = max(rep.factors) <= rep.h + 1e-3
    passed = h_ok and c_ok and factors_ok and rep.chained_bound_ok
    report(10, "restart scheme", passed,
           f"h={rep.h:.9f}, C={rep.C:.9f}, max factor={max(rep.factors):.4f}")
    assert h_ok and c_ok
    assert factors_ok
    assert rep.chained_bound_ok


def test_c11_corner_reduction(enumerations):
    rng = random.Random(2024)
    pool = enumerations("second-order-hessian") + enumerations("nag")
    mu, L = 1.0, 4.0
    checked = counterexamples = 0
    while checked < 20:
        pair = rng.choice(pool).representative
        t = 10 ** rng.uniform(-1, 2)
        bindings = {"k": rng.uniform(0.0, 2.0), "a": rng.uniform(0.0, 3.0),
                    "b": rng.uniform(-0.5, 1.0), "r": rng.uniform(0.0, 6.0)}
        corner_mats = [numeric_matrices(pair, LINEAR, t, {**bindings, "lambda": lam, "theta": th})
                       for lam in (mu, L) for th in (mu, L)]
        tol = 1e-9 * max(1.0, max(np.abs(m).max() for pm in corner_mats for m in pm))
        if not all(np.linalg.eigvalsh(m).min() >= -tol for pm in corner_mats for m in pm):
            continue
        for _ in range(20):
            lam, th = rng.uniform(mu, L), rng.uniform(mu, L)
            pm, qm = numeric_matrices(pair, LINEAR, t, {**bindings, "lambda": lam, "theta": th})
            if min(np.linalg.eigvalsh(pm).min(), np.linalg.eigvalsh(qm).min()) < -tol:
                counterexamples += 1
        checked += 1
    passed = counterexamples == 0
    report(11, "corner reduction", passed,
           f"{checked} corner-PSD pairs x 20 interior points, {counterexamples} counterexamples")
    assert counterexamples == 0
