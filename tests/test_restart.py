import math

import numpy as np
import pytest

from lyapsearch.restart import (RestartSpec, merit, rate_base, rate_constant,
                                round_factor_bound, run_restart)
from lyapsearch.simulate import QuadraticObjective, integrate
from lyapsearch.systems import CATALOG


L_REF = 1.0 / math.sqrt(2.0)


def test_reference_constants():
    assert rate_base(2.0, L_REF) == pytest.approx(0.580578, abs=1e-6)
    assert rate_base(2.0, L_REF) == pytest.approx(2 ** (1 / (3 * math.sqrt(2))) * math.exp(-math.sqrt(2) / 2), abs=1e-12)
    assert rate_constant(2.0, L_REF) == pytest.approx(math.exp(3.0) / 2.0, abs=1e-9)
    assert round_factor_bound(2.0, L_REF) == pytest.approx(2.0 * math.exp(-3.0), abs=1e-12)


def test_spec_geometry():
    spec = RestartSpec(l=L_REF, c=2.0, mu=1.0)
    assert spec.T == pytest.approx(6.0 * math.sqrt(2.0), rel=1e-12)
    assert spec.damping == pytest.approx(12.0, rel=1e-12)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        RestartSpec(l=0.0, c=2.0)
    with pytest.raises(ValueError):
        RestartSpec(l=L_REF, c=1.0)


@pytest.mark.parametrize("fields, message", [
    ({"dt": 0.0}, "dt must be positive, got 0.0"),
    ({"dt": -1e-3}, "dt must be positive, got -0.001"),
    ({"dt": math.nan}, "dt must be finite, got nan"),
    ({"dt": math.inf}, "dt must be finite, got inf"),
    ({"mu": math.nan}, "mu must be finite, got nan"),
    ({"L": math.inf}, "L must be finite, got inf"),
    ({"l": math.nan}, "l must be finite, got nan"),
    ({"c": math.inf}, "c must be finite, got inf"),
    ({"mu": 4.0, "L": 1.0}, r"restart needs 0 < mu <= L, got mu=4.0, L=1.0"),
    ({"mu": 0.0}, r"restart needs 0 < mu <= L, got mu=0.0, L=4.0"),
    ({"x0": np.ones(3)}, r"x0 must have shape \(4,\), got \(3,\)"),
    ({"x0": np.ones(1)}, r"x0 must have shape \(4,\), got \(1,\)"),
    ({"v0": 0.5}, r"v0 must have shape \(4,\), got \(\)"),
], ids=["dt-zero", "dt-negative", "dt-nan", "dt-inf", "mu-nan", "L-inf", "l-nan", "c-inf",
        "L-below-mu", "mu-zero", "x0-short", "x0-length-1", "v0-scalar"])
def test_spec_rejects_bad_values_when_made(fields, message):
    with pytest.raises(ValueError, match=message):
        RestartSpec(**{"l": L_REF, "c": 2.0, "dim": 4, **fields})


def test_unsafe_pair_warns():
    spec = RestartSpec(l=2.0, c=1.1, mu=1.0, rounds=1, dim=2, dt=1e-2)
    assert round_factor_bound(spec.c, spec.l) > 1.0
    with pytest.warns(UserWarning):
        run_restart(spec)


def test_single_round_equals_plain_integration():
    spec = RestartSpec(l=L_REF, c=2.0, mu=1.0, rounds=1, dim=6, dt=1e-3)
    report = run_restart(spec)
    obj = QuadraticObjective.log_spaced(6, spec.mu, spec.L)
    traj = integrate(CATALOG["nag"], obj, np.ones(6), np.zeros(6),
                     t0=spec.T / spec.c, t1=spec.T, dt=spec.dt,
                     params={"r": spec.damping})
    direct = merit(spec, obj, traj.xs[-1], traj.vs[-1])
    assert report.g_values[1] == pytest.approx(direct, rel=1e-12)


def test_twenty_round_contraction(restart_report_20):
    report = restart_report_20
    assert len(report.factors) == 20
    assert max(report.factors) <= report.h + 1e-3
    assert max(report.factors) <= report.factor_bound * (1.0 + 1e-6)
    assert report.chained_bound_ok


def test_state_continuity_across_rounds():
    # Two rounds run jointly must match running them with an explicit handoff.
    spec = RestartSpec(l=L_REF, c=2.0, mu=1.0, rounds=2, dim=4, dt=1e-3)
    report = run_restart(spec)
    obj = QuadraticObjective.log_spaced(4, spec.mu, spec.L)
    x, v = np.ones(4), np.zeros(4)
    for _ in range(2):
        traj = integrate(CATALOG["nag"], obj, x, v, t0=spec.T / spec.c, t1=spec.T,
                         dt=spec.dt, params={"r": spec.damping})
        x, v = traj.xs[-1], traj.vs[-1]
    assert report.g_values[2] == pytest.approx(merit(spec, obj, x, v), rel=1e-12)


def test_round_map_matches_round_by_round_integration():
    # A start away from the unit states, with every mode moving, on a
    # non-default (mu, L) and step.
    rng = np.random.default_rng(11)
    x0, v0 = rng.normal(size=5), rng.normal(size=5)
    spec = RestartSpec(l=0.9, c=2.5, mu=0.5, L=9.0, rounds=6, dim=5, dt=2e-3, x0=x0, v0=v0)
    report = run_restart(spec)
    obj = QuadraticObjective.log_spaced(5, spec.mu, spec.L)
    x, v = x0, v0
    expected = [merit(spec, obj, x, v)]
    for _ in range(spec.rounds):
        traj = integrate(CATALOG["nag"], obj, x, v, t0=spec.T / spec.c, t1=spec.T,
                         dt=spec.dt, params={"r": spec.damping})
        x, v = traj.xs[-1], traj.vs[-1]
        expected.append(merit(spec, obj, x, v))
    assert report.g_values[0] == expected[0]
    np.testing.assert_allclose(report.g_values, expected, rtol=1e-12, atol=0)
