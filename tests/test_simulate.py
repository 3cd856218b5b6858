import random

import numpy as np
import pytest

from lyapsearch.expr import LINEAR, LOG, POWER, Expr
from lyapsearch.pq import PQPair, _sym_matrix, apply_sequence, initial_pair
from lyapsearch.sequences import generate_sequences
from lyapsearch.simulate import (STEP_CHUNK, QuadraticObjective, SimulationError,
                                 SingularMassMatrixError, Trajectory, _companion_step_maps,
                                 _prefix_products, _scalar_step_maps, _stage_major,
                                 conservation_check, integrate, measure_rate, pair_energy)
from lyapsearch.systems import CATALOG, load_system

from conftest import naive_eval, random_expr, random_pair

GF_PARAMS = {"b": 0.0}


# -- reference stepper ------------------------------------------------------------
# Classical RK4 stage by stage, one derivative call per stage, with the
# coefficients evaluated term by term (naive_eval): the differential reference
# for the step-map integrator.


def _rk4_step(deriv, t, state, dt):
    k1 = deriv(t, state)
    k2 = deriv(t + dt / 2, tuple(s + dt / 2 * k for s, k in zip(state, k1)))
    k3 = deriv(t + dt / 2, tuple(s + dt / 2 * k for s, k in zip(state, k2)))
    k4 = deriv(t + dt, tuple(s + dt * k for s, k in zip(state, k3)))
    return tuple(s + dt / 6 * (a + 2 * b + 2 * c + d)
                 for s, a, b, c, d in zip(state, k1, k2, k3, k4))


def _reference_integrate(system, obj, x0, v0, t0, t1, dt, params):
    c = [lambda t, e=e: naive_eval(e, t, params) for e in system.coeffs]
    eigs = obj.eigenvalues
    n_steps = max(int(round((t1 - t0) / dt)), 1)
    times = t0 + dt * np.arange(n_steps + 1)

    if system.second_order:
        def deriv(t, state):
            x, v = state
            acc = -(c[0](t) * x + c[1](t) * (eigs * x) + (c[2](t) + c[3](t) * eigs) * v)
            return (v, acc / c[4](t))

        state = (x0.copy(), v0.copy())
        xs, vs = [x0.copy()], [v0.copy()]
        for t in times[:-1]:
            state = _rk4_step(deriv, t, state, dt)
            xs.append(state[0].copy())
            vs.append(state[1].copy())
        return times, np.array(xs), np.array(vs)

    def velocity(t, x):
        return -(c[0](t) * x + c[1](t) * (eigs * x)) / (c[2](t) + c[3](t) * eigs)

    def deriv(t, state):
        (x,) = state
        return (velocity(t, x),)

    state = (x0.copy(),)
    xs, vs = [x0.copy()], [velocity(t0, x0)]
    for t in times[:-1]:
        state = _rk4_step(deriv, t, state, dt)
        xs.append(state[0].copy())
        vs.append(velocity(t + dt, state[0]))
    return times, np.array(xs), np.array(vs)


def _kinetic_energy_decay(traj: Trajectory) -> float:
    """Max increase of ||dx/dt||^2/2 + gap; friction should dissipate it."""
    e = 0.5 * np.einsum("ij,ij->i", traj.vs, traj.vs) + traj.gaps
    return float(np.max(np.diff(e) / (1.0 + np.abs(e[:-1]))))


def _assert_matches_reference(system, obj, x0, v0, t0, t1, dt, params):
    traj = integrate(system, obj, x0, v0, t0=t0, t1=t1, dt=dt, params=params)
    times, xs, vs = _reference_integrate(system, obj, x0, v0, t0, t1, dt, params)
    assert np.array_equal(traj.times, times)
    scale = np.abs(xs).max() + np.abs(vs).max()
    assert np.abs(traj.xs - xs).max() <= 1e-12 * scale
    assert np.abs(traj.vs - vs).max() <= 1e-12 * scale


# Enough steps to cross two chunk boundaries of the step maps.
_REFERENCE_SPAN = 2.5 * STEP_CHUNK * 1e-3


@pytest.mark.parametrize("name, params", [
    ("damped-newton", {}),
    ("first-order-hessian", {"b": 0.3}),
    ("second-order-hessian", {"a": 2.0, "b": 0.1}),
    ("nag", {"r": 3.0}),
    ("generalized-nag", {"r": 1.0, "alpha": 0.5}),
    ("hessian-nag", {"r": 2.0, "b": 0.3}),
])
def test_integrate_matches_reference_stepper(name, params):
    obj = QuadraticObjective.log_spaced(10, 1.0, 4.0)
    _assert_matches_reference(CATALOG[name], obj, np.ones(10), np.zeros(10),
                              1.0, 1.0 + _REFERENCE_SPAN, 1e-3, params)


def test_integrate_matches_reference_across_a_one_step_chunk():
    # 2 * STEP_CHUNK + 1 steps: the last chunk holds a single step.
    obj = QuadraticObjective.log_spaced(10, 1.0, 4.0)
    _assert_matches_reference(CATALOG["nag"], obj, np.ones(10), np.zeros(10),
                              1.0, 1.0 + (2 * STEP_CHUNK + 1) * 1e-3, 1e-3, {"r": 3.0})


@pytest.mark.parametrize("steps", [1, 2, 3, 5, 1023, 1025, 2047, 2048])
def test_prefix_products_match_sequential_products(steps):
    # Lengths on both sides of powers of two reach the odd tails of both sweeps.
    rng = np.random.default_rng(steps)
    m = np.eye(2)[:, :, None, None] + 1e-2 * rng.standard_normal((2, 2, steps, 3))
    maps = np.moveaxis(m, (0, 1), (2, 3))  # (steps, modes, 2, 2)
    expected = [maps[0]]
    for step_map in maps[1:]:
        expected.append(step_map @ expected[-1])
    expected = np.moveaxis(np.array(expected), (2, 3), (0, 1))
    got = _prefix_products(m)
    assert got.shape == m.shape
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def _generic_step_maps(a, h):
    """RK4 step maps of du/dt = A(t) u by full k x k products; a is (k, k, 3, steps, modes)."""
    def matmul(x, y):
        return np.einsum("ij...,jk...->ik...", x, y)

    a0, ah, a1 = a[:, :, 0], a[:, :, 1], a[:, :, 2]
    eye = np.eye(len(a))[:, :, None, None]
    k2 = matmul(ah, eye + h / 2 * a0)
    k3 = matmul(ah, eye + h / 2 * k2)
    k4 = matmul(a1, eye + h * k3)
    return eye + h / 6 * (a0 + 2 * k2 + 2 * k3 + k4)


def test_step_maps_match_the_generic_rk4_expansion():
    # The specialised maps only drop products with A's exact 0 and 1 entries.
    # Stage-major coefficients: (3 stages, 64 steps, 5 modes).
    rng = np.random.default_rng(7)
    p, q = -rng.uniform(0.5, 4.0, (2, 3, 64, 5))
    h = 1e-2
    zero = np.zeros_like(p)
    companion = _generic_step_maps(np.array([[zero, zero + 1.0], [p, q]]), h)
    np.testing.assert_allclose(_companion_step_maps(p, q, h), companion, rtol=1e-15, atol=0)
    np.testing.assert_allclose(_scalar_step_maps(q, h), _generic_step_maps(q[None, None], h)[0, 0],
                               rtol=1e-15, atol=0)


def test_maps_built_once_equal_maps_built_per_step():
    # Coefficients without t keep the shape of a row of modes; their maps are
    # built at a steps-length of 1 and broadcast over the chunk.
    rng = np.random.default_rng(11)
    p, q = -rng.uniform(0.5, 4.0, (2, 5))
    h, chunk = 1e-2, (2, 2, 64, 5)
    once = _stage_major(p, q)
    assert [c.shape for c in once] == [(3, 1, 5)] * 2
    # One coefficient with t gives both the full steps axis.
    assert [c.shape for c in _stage_major(p, q / np.ones((3, 64, 1)))] == [(3, 64, 5)] * 2
    per_step = [np.broadcast_to(c, (3, 64, 5)).copy() for c in (p, q)]
    assert np.array_equal(np.broadcast_to(_companion_step_maps(*once, h), chunk),
                          _companion_step_maps(*per_step, h))
    assert np.array_equal(np.broadcast_to(_scalar_step_maps(once[1], h), chunk[2:]),
                          _scalar_step_maps(per_step[1], h))
    # A prefix scan over the broadcast maps reads them like stored ones.
    assert np.array_equal(_prefix_products(np.broadcast_to(_companion_step_maps(*once, h), chunk)),
                          _prefix_products(_companion_step_maps(*per_step, h)))


def test_integrate_matches_reference_on_spec_system(tmp_path):
    # A mass c5 that varies with t, a restoring c1 term and a moving start.
    path = tmp_path / "varying-mass.txt"
    path.write_text("name = varying-mass\n"
                    "coeff_v1 = 1/2\n"
                    "coeff_v2 = 1\n"
                    "coeff_v3 = 1*r*t^-1\n"
                    "coeff_v4 = 1*b\n"
                    "coeff_v5 = 1 + 1/4*t^1\n")
    system = load_system(path)
    obj = QuadraticObjective.log_spaced(6, 0.5, 8.0)
    _assert_matches_reference(system, obj, np.ones(6), np.linspace(1.0, -1.0, 6),
                              1.0, 1.0 + _REFERENCE_SPAN, 1e-3, {"r": 3.0, "b": 0.2})


def gradient_flow(obj, x0, **kw):
    return integrate(CATALOG["first-order-hessian"], obj, x0, np.zeros_like(x0),
                     params=GF_PARAMS, **kw)


def test_gradient_flow_matches_closed_form():
    obj = QuadraticObjective([1.0])
    traj = gradient_flow(obj, np.array([2.0]), t0=0.0, t1=5.0, dt=1e-3)
    exact = 2.0 * np.exp(-traj.times)
    assert np.max(np.abs(traj.xs[:, 0] - exact)) < 1e-9
    fit = measure_rate(traj, LINEAR, {"k": 1.0})
    assert fit.k == pytest.approx(2.0, rel=1e-6)  # gap decays at twice the state rate


def test_damped_newton_closed_form_oracle():
    # hess f dx/dt = -grad f collapses to dx/dt = -x for any quadratic
    # minimised at the origin, giving x(t) = e^(t0 - t) x0 exactly.
    obj = QuadraticObjective.log_spaced(6, 1.0, 4.0)
    x0 = np.linspace(1.0, 2.0, 6)
    traj = integrate(CATALOG["damped-newton"], obj, x0, np.zeros(6),
                     t0=0.0, t1=4.0, dt=1e-3)
    exact = np.exp(-traj.times)[:, None] * x0
    assert np.max(np.abs(traj.xs - exact)) < 1e-8
    fit = measure_rate(traj, LINEAR, {"k": 1.0})
    assert fit.k == pytest.approx(2.0, rel=1e-4)


def test_sc_nag_rate_within_five_percent():
    obj = QuadraticObjective.log_spaced(10, 1.0, 4.0)
    traj = integrate(CATALOG["second-order-hessian"], obj, np.ones(10), np.zeros(10),
                     t0=0.0, t1=20.0, dt=1e-3, params={"a": 2.0, "b": 0.0})
    fit = measure_rate(traj, LINEAR, {"k": 1.0})
    assert fit.k >= 0.95  # certified exponent sqrt(mu) = 1 is a lower bound


def test_measure_rate_on_exact_exponential():
    # x(t) = e^-t on a single eigenvalue 2 gives gap = e^(-2t) exactly.
    obj = QuadraticObjective([2.0])
    times = np.linspace(0.0, 10.0, 2001)
    xs = np.exp(-times)[:, None]
    traj = Trajectory(CATALOG["first-order-hessian"], obj, GF_PARAMS, times, xs, -xs)
    fit = measure_rate(traj, LINEAR, {"k": 1.0})
    assert fit.k == pytest.approx(2.0, abs=1e-9)
    assert fit.residual < 1e-9


def test_fit_window_truncates_on_underflow():
    obj = QuadraticObjective([2.0])
    times = np.linspace(0.0, 10.0, 101)
    xs = np.exp(-times)[:, None]
    xs[-3:] = 0.0  # exact minimum reached: gap underflows
    traj = Trajectory(CATALOG["first-order-hessian"], obj, GF_PARAMS, times, xs, -xs)
    fit = measure_rate(traj, LINEAR, {"k": 1.0}, window=(5.0, 10.0))
    assert fit.truncated
    assert fit.window[1] < 10.0


def test_integrate_input_validation():
    obj = QuadraticObjective.log_spaced(4, 1.0, 4.0)
    with pytest.raises(SimulationError):
        integrate(CATALOG["damped-newton"], obj, np.ones(4), np.zeros(4),
                  t0=0.0, t1=1.0, dt=-1e-3)
    with pytest.raises(SimulationError):
        integrate(CATALOG["nag"], obj, np.ones(4), np.zeros(4),
                  t0=0.0, t1=1.0, dt=1e-3, params={"r": 3.0})
    with pytest.raises(SimulationError):
        integrate(CATALOG["nag"], obj, np.ones(4), np.zeros(4), t0=1.0, t1=2.0, dt=1e-3)


@pytest.mark.parametrize("times, message", [
    ({"dt": np.inf}, "dt must be finite, got inf"),
    ({"dt": np.nan}, "dt must be finite, got nan"),
    ({"t1": np.inf}, "t1 must be finite, got inf"),
    ({"t0": -np.inf}, "t0 must be finite, got -inf"),
    ({"t0": -1e308, "t1": 1e308}, r"the step count \(t1 - t0\) / dt overflows"),
], ids=["dt-inf", "dt-nan", "t1-inf", "t0-minus-inf", "span-overflows"])
def test_integrate_rejects_non_finite_times(times, message):
    obj = QuadraticObjective.log_spaced(4, 1.0, 4.0)
    span = {"t0": 1.0, "t1": 2.0, "dt": 1e-3, **times}
    with pytest.raises(SimulationError, match=message):
        integrate(CATALOG["nag"], obj, np.ones(4), np.zeros(4), params={"r": 3.0}, **span)


@pytest.mark.parametrize("x0, v0, message", [
    (np.ones(1), np.zeros(4), r"x0 must have shape \(4,\) to match the objective, got \(1,\)"),
    (np.ones(3), np.zeros(4), r"x0 must have shape \(4,\) to match the objective, got \(3,\)"),
    (np.ones(4), 0.0, r"v0 must have shape \(4,\) to match the objective, got \(\)"),
    (np.ones((4, 1)), np.zeros(4), r"x0 must have shape \(4,\) .* got \(4, 1\)"),
], ids=["x0-length-1", "x0-length-3", "v0-scalar", "x0-column"])
def test_integrate_requires_one_state_entry_per_mode(x0, v0, message):
    obj = QuadraticObjective.log_spaced(4, 1.0, 4.0)
    with pytest.raises(SimulationError, match=message):
        integrate(CATALOG["damped-newton"], obj, x0, v0, t0=1.0, t1=2.0, dt=1e-2)


@pytest.mark.parametrize("eigenvalues, message", [
    ([np.nan, 1.0], "eigenvalues must be finite and nonnegative, got nan"),
    ([1.0, np.inf], "eigenvalues must be finite and nonnegative, got inf"),
    ([-1.0, 1.0], r"eigenvalues must be finite and nonnegative, got -1\.0"),
    ([[1.0, 2.0]], r"eigenvalues must be a nonempty 1-D array, got shape \(1, 2\)"),
    ([], r"eigenvalues must be a nonempty 1-D array, got shape \(0,\)"),
], ids=["nan", "inf", "negative", "2-d", "empty"])
def test_objective_requires_finite_nonnegative_eigenvalues(eigenvalues, message):
    # A NaN or infinite eigenvalue integrates to NaN gaps, and a negative one
    # makes f negative, breaking the convexity the pointwise multipliers assume.
    with pytest.raises(SimulationError, match=message):
        QuadraticObjective(eigenvalues)


@pytest.mark.parametrize("mu, L", [(1.0, np.inf), (1.0, np.nan), (np.nan, 4.0), (-np.inf, 4.0)])
def test_log_spaced_rejects_non_finite_curvature(mu, L):
    with pytest.raises(ValueError, match="need 0 < mu <= L, L finite"):
        QuadraticObjective.log_spaced(3, mu, L)


def test_singular_mass_matrix_detected():
    obj = QuadraticObjective.log_spaced(4, 1.0, 4.0)
    with pytest.raises(SingularMassMatrixError):
        integrate(CATALOG["first-order-hessian"], obj, np.ones(4), np.zeros(4),
                  t0=0.0, t1=1.0, dt=1e-3, params={"b": -0.25})


def test_singular_mass_at_half_step_detected(tmp_path):
    # On the eigenvalue 2 the mass is 1 + 2*b*t = 1 - 4t, which vanishes at
    # t = 0.25 = t0 + h/2 and at no grid time (0, 0.5, 1): only the check at
    # every stage time catches it.
    path = tmp_path / "shrinking-mass.txt"
    path.write_text("name = shrinking-mass\n"
                    "coeff_v1 = 0\n"
                    "coeff_v2 = 1\n"
                    "coeff_v3 = 1\n"
                    "coeff_v4 = 1*b*t^1\n"
                    "coeff_v5 = 0\n")
    obj = QuadraticObjective([2.0])
    with pytest.raises(SingularMassMatrixError, match=r"t=0\.25$"):
        integrate(load_system(path), obj, np.ones(1), np.zeros(1),
                  t0=0.0, t1=1.0, dt=0.5, params={"b": -2.0})


def test_singular_mass_names_the_earliest_stage_in_visiting_order(tmp_path):
    # The mass (1 - 2t)(1 - 4t) vanishes at t = 0.25, the midpoint of the
    # first step, and at t = 0.5, where the second step starts.  RK4 visits
    # 0.25 first, though the stage-major layout stores every step's start
    # before any midpoint.
    path = tmp_path / "two-zeros.txt"
    path.write_text("name = two-zeros\n"
                    "coeff_v1 = 0\n"
                    "coeff_v2 = 1\n"
                    "coeff_v3 = 1\n"
                    "coeff_v4 = -6*t^1 + 8*t^2\n"
                    "coeff_v5 = 0\n")
    obj = QuadraticObjective([1.0])
    with pytest.raises(SingularMassMatrixError, match=r"t=0\.25$"):
        integrate(load_system(path), obj, np.ones(1), np.zeros(1), t0=0.0, t1=1.0, dt=0.5)


def test_vanishing_second_order_mass_detected(tmp_path):
    # c5 = t vanishes at the first stage time t0 = 0; dividing by it would
    # fill the trajectory with NaN.
    path = tmp_path / "vanishing-c5.txt"
    path.write_text("name = vanishing-c5\n"
                    "coeff_v1 = 0\n"
                    "coeff_v2 = 1\n"
                    "coeff_v3 = 1\n"
                    "coeff_v4 = 0\n"
                    "coeff_v5 = 1*t^1\n")
    obj = QuadraticObjective([1.0, 2.0])
    with pytest.raises(SingularMassMatrixError, match=r"c5 is singular at t=0$") as err:
        integrate(load_system(path), obj, np.ones(2), np.zeros(2),
                  t0=0.0, t1=1.0, dt=0.5)
    assert "c3 + c4" not in str(err.value)


def test_gap_positivity_and_energy_sanity():
    obj = QuadraticObjective.log_spaced(10, 1.0, 4.0)
    runs = [
        integrate(CATALOG["second-order-hessian"], obj, np.ones(10), np.zeros(10),
                  t0=0.0, t1=10.0, dt=1e-3, params={"a": 2.0, "b": 0.0}),
        integrate(CATALOG["nag"], obj, np.ones(10), np.zeros(10),
                  t0=1.0, t1=20.0, dt=1e-3, params={"r": 3.0}),
    ]
    for traj in runs:
        assert traj.gaps.min() >= -1e-12
        assert _kinetic_energy_decay(traj) <= 1e-12


def test_dt_refinement_changes_fit_little():
    obj = QuadraticObjective.log_spaced(10, 1.0, 4.0)
    fits = []
    for dt in (2e-3, 1e-3):
        traj = integrate(CATALOG["second-order-hessian"], obj, np.ones(10), np.zeros(10),
                         t0=0.0, t1=15.0, dt=dt, params={"a": 2.0, "b": 0.0})
        fits.append(measure_rate(traj, LINEAR, {"k": 1.0}).k)
    assert abs(fits[0] - fits[1]) < 1e-3


def test_halving_dt_changes_final_gap_little():
    obj = QuadraticObjective.log_spaced(10, 1.0, 4.0)
    finals = []
    for dt in (2e-3, 1e-3):
        traj = integrate(CATALOG["nag"], obj, np.ones(10), np.zeros(10),
                         t0=1.0, t1=10.0, dt=dt, params={"r": 3.0})
        finals.append(traj.gaps[-1])
    assert abs(finals[0] - finals[1]) <= 1e-6 * abs(finals[1])


def _reference_energy(pair, gamma, traj, params):
    """e^gamma (p-form + gap) point by point from v1..v4 and the multipliers'
    definitions, with every entry evaluated term by term."""
    obj = traj.objective
    v = traj.basis_vectors()
    entries = {(i, j): gamma.substitute(pair.p_entry(i, j))
               for i in range(1, 4) for j in range(i, 4)}
    out = np.empty_like(traj.times)
    for n, t in enumerate(traj.times):
        x, dx = traj.xs[n], traj.vs[n]
        gap = obj.value(x)
        lam = 2 * (obj.grad(x) @ x - obj.value(x)) / (x @ x)
        theta = (obj.eigenvalues * dx) @ dx / (dx @ dx)
        bindings = {**params, "lambda": lam, "theta": theta}
        form = sum((1 if i == j else 2) * naive_eval(e, t, bindings) * (v[i - 1][n] @ v[j - 1][n])
                   for (i, j), e in entries.items())
        out[n] = np.exp(gamma.value(t, params)) * (form + gap)
    return out


@pytest.mark.parametrize("gamma", [LINEAR, LOG, POWER], ids=lambda g: g.name)
def test_pair_energy_matches_explicit_basis_reference(rng, gamma):
    # lambda and theta in every P entry, (1,2), (2,2) and (2,3) included, which
    # no certificate uses; the random velocity keeps theta defined at t0.
    lam, theta, one = Expr.symbol("lambda"), Expr.symbol("theta"), Expr.number(1)
    obj = QuadraticObjective.log_spaced(6, 0.5, 9.0)
    nprng = np.random.default_rng(5)
    params = {"k": 0.7, "a": 1.3, "b": -0.4, "r": 2.5, "alpha": 0.5}
    traj = integrate(CATALOG["hessian-nag"], obj, nprng.normal(size=6), nprng.normal(size=6),
                     t0=1.0, t1=1.2, dt=1e-3, params={"r": 2.5, "b": -0.4})
    for _ in range(4):
        base = random_pair(rng)
        p_entries = {(i, j): base.p_entry(i, j) + lam * (one + random_expr(rng))
                     + theta * (one + random_expr(rng))
                     for i in range(1, 4) for j in range(i, 4)}
        pair = PQPair(_sym_matrix(3, p_entries), base.Q, has_gap=True)
        ours = pair_energy(pair, gamma, traj, params)
        ref = _reference_energy(pair, gamma, traj, params)
        np.testing.assert_allclose(ours, ref, rtol=1e-12)


def test_conservation_identity_basic_sequences():
    obj = QuadraticObjective.log_spaced(10, 1.0, 4.0)
    traj = gradient_flow(obj, np.ones(10), t0=1.0, t1=5.0, dt=1e-3)
    system = CATALOG["first-order-hessian"]
    bindings = {"k": 1.0, "b": 0.0}
    bare = apply_sequence(initial_pair(system), ("A1",))
    assert conservation_check(bare, LINEAR, traj, bindings) < 1e-5
    worked = apply_sequence(initial_pair(system), ("A1", "B3"))
    assert conservation_check(worked, LINEAR, traj, bindings) < 1e-5


def test_conservation_identity_random_sequences_quick():
    rng = random.Random(99)
    seqs = generate_sequences()
    obj = QuadraticObjective.log_spaced(10, 1.0, 4.0)
    system = CATALOG["nag"]
    traj = integrate(system, obj, np.ones(10), np.zeros(10), t0=1.0, t1=6.0, dt=1e-3,
                     params={"r": 3.0})
    for seq in rng.sample(seqs, 5):
        pair = apply_sequence(initial_pair(system), seq.ops())
        assert conservation_check(pair, LOG, traj, {"k": 2.0, "r": 3.0}) < 1e-4


def test_conservation_with_zero_initial_velocity_and_lambda_boundary():
    # Second-order runs start with dx/dt = 0, so theta is undefined at t0 while
    # lambda is not; the first energy sample must still be exact or the central
    # difference at the first interior point blows up.
    obj = QuadraticObjective.log_spaced(10, 1.0, 4.0)
    system = CATALOG["hessian-nag"]
    params = {"k": 0.7, "r": 2.0, "b": 0.3}
    traj = integrate(system, obj, np.ones(10), np.zeros(10), t0=1.0, t1=5.0, dt=1e-3,
                     params={"r": 2.0, "b": 0.3})
    pair = apply_sequence(initial_pair(system), ("A1", "E1"))  # puts lambda into P11
    assert conservation_check(pair, LINEAR, traj, params) < 1e-4


def test_conservation_power_form():
    from lyapsearch.expr import POWER

    obj = QuadraticObjective.log_spaced(10, 1.0, 4.0)
    system = CATALOG["generalized-nag"]
    traj = integrate(system, obj, np.ones(10), np.zeros(10), t0=1.0, t1=5.0, dt=1e-3,
                     params={"r": 1.0, "alpha": 0.5})
    rng = random.Random(3)
    for seq in rng.sample(generate_sequences(), 4):
        pair = apply_sequence(initial_pair(system), seq.ops())
        assert conservation_check(pair, POWER, traj,
                                  {"k": 0.6, "r": 1.0, "alpha": 0.5}) < 1e-4


def test_conservation_residual_is_discretization_error():
    obj = QuadraticObjective.log_spaced(10, 1.0, 4.0)
    system = CATALOG["first-order-hessian"]
    pair = apply_sequence(initial_pair(system), ("A1", "B3"))
    bindings = {"k": 1.0, "b": 0.0}
    coarse = conservation_check(pair, LINEAR,
                                gradient_flow(obj, np.ones(10), t0=1.0, t1=5.0, dt=2e-3),
                                bindings)
    fine = conservation_check(pair, LINEAR,
                              gradient_flow(obj, np.ones(10), t0=1.0, t1=5.0, dt=1e-3),
                              bindings)
    assert fine < coarse / 3.0  # central differences: fourfold up to noise


def test_generalized_nag_power_rate():
    from lyapsearch.expr import POWER

    obj = QuadraticObjective.log_spaced(10, 1.0, 4.0)
    traj = integrate(CATALOG["generalized-nag"], obj, np.ones(10), np.zeros(10),
                     t0=1.0, t1=1500.0, dt=2e-2, params={"r": 1.0, "alpha": 0.5})
    fit = measure_rate(traj, POWER, {"r": 1.0, "alpha": 0.5}, window=(10.0, 1500.0))
    assert fit.k >= 2.0 / 3.0 - 0.1  # certified supremum 2/3 is a lower envelope


def test_nag_convex_polynomial_rate():
    # One nearly flat direction plus curved ones; the fit window ends before the
    # flat mode's plateau dominates the gap.
    eigs = np.concatenate([[1e-6], np.geomspace(0.5, 4.0, 9)])
    obj = QuadraticObjective(eigs)
    traj = integrate(CATALOG["nag"], obj, np.ones(10), np.zeros(10),
                     t0=1.0, t1=60.0, dt=2e-3, params={"r": 3.0})
    fit = measure_rate(traj, LOG, {"k": 1.0}, window=(20.0, 60.0))
    assert fit.k >= 2.0 - 0.1


# -- oracle arrays once per trajectory ---------------------------------------------

# The conservation runs of the crosscheck benchmark workload at L = 4.
_CONSERVATION_RUNS = {
    "first-order-hessian": (LINEAR, {"k": 0.5, "b": 0.5}, (1.0, 5.0)),
    "damped-newton": (LINEAR, {"k": 1.0}, (1.0, 5.0)),
    "nag": (LOG, {"k": 2.0, "r": 3.0}, (1.0, 6.0)),
}


def _conservation_run(name, dt=1e-3):
    system = CATALOG[name]
    _gamma, params, (t0, t1) = _CONSERVATION_RUNS[name]
    return integrate(system, QuadraticObjective.log_spaced(10, 1.0, 4.0), np.ones(10),
                     np.zeros(10), t0=t0, t1=t1, dt=dt,
                     params={p: params[p] for p in system.free_params})


def test_conservation_values_match_recorded_bits(oracle_golden):
    assert list(oracle_golden["conservation"]) == list(_CONSERVATION_RUNS)
    for name, recorded in oracle_golden["conservation"].items():
        gamma, params, _span = _CONSERVATION_RUNS[name]
        traj = _conservation_run(name, oracle_golden["dt"])
        for ops, expected in zip(oracle_golden["sequences"], recorded, strict=True):
            pair = apply_sequence(initial_pair(CATALOG[name]), tuple(ops))
            assert conservation_check(pair, gamma, traj, params).hex() == expected, (name, ops)


def test_inner_serves_every_product_up_to_v5():
    traj = _conservation_run("nag")
    v = traj.basis_vectors()
    for i in range(1, 6):
        for j in range(1, 6):
            expected = np.einsum("ij,ij->i", v[i - 1], v[j - 1])
            np.testing.assert_allclose(traj.inner(i, j), expected, rtol=0,
                                       atol=1e-12 * np.abs(expected).max())
    # <v1, v5> is its own product, not <v1, v3>.
    assert not np.allclose(traj.inner(1, 5), traj.inner(1, 3))
    assert traj.inner(5, 1) is traj.inner(1, 5)


@pytest.mark.parametrize("i, j", [(0, 0), (0, 1), (1, 6), (6, 6), (-1, 2)])
def test_inner_rejects_indices_outside_one_to_five(i, j):
    traj = _conservation_run("damped-newton")
    with pytest.raises(ValueError, match="1 <= i, j <= 5"):
        traj.inner(i, j)


def test_conservation_checks_build_the_basis_once(monkeypatch):
    rng = random.Random(16)
    sequences = [seq.ops() for seq in rng.sample(generate_sequences(), 10)]
    gamma, params, _span = _CONSERVATION_RUNS["nag"]
    builds = []
    build = Trajectory._build_basis
    monkeypatch.setattr(Trajectory, "_build_basis",
                        lambda traj: builds.append(traj) or build(traj))
    shared = _conservation_run("nag")
    pairs = [apply_sequence(initial_pair(CATALOG["nag"]), ops) for ops in sequences]
    values = [conservation_check(pair, gamma, shared, params) for pair in pairs]
    assert builds == [shared]
    for pair, value in zip(pairs, values):
        assert conservation_check(pair, gamma, _conservation_run("nag"), params) == value


def test_pair_energy_alone_never_builds_the_basis(monkeypatch):
    def refuse(traj):
        raise AssertionError("basis built")

    monkeypatch.setattr(Trajectory, "_build_basis", refuse)
    gamma, params, _span = _CONSERVATION_RUNS["nag"]
    traj = _conservation_run("nag")
    pair = apply_sequence(initial_pair(CATALOG["nag"]), ("A1", "B1", "B2", "B3"))
    assert np.isfinite(pair_energy(pair, gamma, traj, params)).all()
    assert set(traj._inner) <= {(i, j) for i in range(1, 4) for j in range(i, 5)}
