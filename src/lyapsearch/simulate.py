"""Numerical trajectories of the catalog systems and the certificate oracles.

Fixed-step classical RK4 on quadratic benchmark objectives; accuracy is judged
by step halving rather than adaptivity, which keeps runs reproducible.
Second-order systems integrate the state (x, dx/dt); first-order systems carry
x alone and solve the (possibly Hessian-weighted) mass matrix for dx/dt.
The objective's Hessian is diagonal, so each eigenmode obeys a linear ODE
whose coefficients depend on t alone, and one RK4 step on a mode is a fixed
linear map.  The flows are translation-invariant, so the minimiser sits at
the origin and x is each mode's offset from it.  On a first-order mode,
dx/dt = a(t) x, the map is the scalar RK4 factor of a at the three stage
times.  On a second-order mode the state is (x, dx/dt) and the ODE matrix is
the companion A = [[0, 1], [p, q]], with p = -stiffness/c5 and
q = -damping/c5; the 2x2 step map is built from p and q directly, so each
product with A costs 4 multiplies.  The stage coefficients
are laid out stage-major, (3, steps, modes), so each stage is one contiguous
block, and every coefficient keeps its natural broadcast shape: one without t
stays a scalar or a row of modes.  When no coefficient depends on t, the maps
are built once, at a steps-length of 1, and broadcast over the chunk; the
same code builds them per step otherwise.  Each state is the prefix product
of the maps before it applied to the start: np.cumprod for the scalar
factors, an associative scan for the 2x2 maps.  The scheme is the classical
one, without a Python call per stage or per step.

The oracles here close the loop on the symbolic pipeline: along a trajectory
the pair identity d/dt[e^gamma (p + f)] + e^gamma q = 0 must hold exactly,
with lambda and theta recovered pointwise from their defining identities, so
any residual beyond discretization error indicates a wrong operation rule.
What depends on the trajectory alone (the inner products <v_i, v_j>, the
basis v1..v5 and the pointwise multipliers) is computed once per Trajectory,
however many pairs are checked along it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .expr import GammaForm, bind_terms, evaluate, float_terms
from .pq import PQPair
from .systems import OdeSystemSpec


class SimulationError(Exception):
    pass


class SingularMassMatrixError(SimulationError):
    pass


@dataclass(frozen=True)
class QuadraticObjective:
    """f(x) = sum_i e_i x_i^2 / 2 on eigenvalues e_i in [mu, L], minimised at 0 with f* = 0.

    The flows are translation-invariant, so the minimiser sits at the origin.
    The eigenvalues form a nonempty 1-D array of finite, nonnegative values:
    f is convex, as every pointwise multiplier assumes.
    """

    eigenvalues: np.ndarray

    @staticmethod
    def log_spaced(dim: int, mu: float, L: float):
        if dim < 1:
            raise ValueError(f"log-spaced eigenvalues need dim >= 1, got dim={dim!r}")
        if dim > MAX_STATE_VALUES:
            raise ValueError(f"dim={dim!r} modes exceed the {MAX_STATE_VALUES} values a run "
                             f"may hold per state array (MAX_STATE_VALUES)")
        if not 0 < mu <= L < math.inf:
            raise ValueError(f"log-spaced eigenvalues need 0 < mu <= L, L finite, "
                             f"got mu={mu!r}, L={L!r}")
        return QuadraticObjective(np.geomspace(mu, L, dim) if mu < L else np.full(dim, mu))

    def __post_init__(self):
        eigs = np.asarray(self.eigenvalues, dtype=float)
        object.__setattr__(self, "eigenvalues", eigs)
        if eigs.ndim != 1 or not eigs.size:
            raise SimulationError(f"eigenvalues must be a nonempty 1-D array, "
                                  f"got shape {eigs.shape}")
        bad = eigs[~(np.isfinite(eigs) & (eigs >= 0))]
        if bad.size:
            raise SimulationError(f"eigenvalues must be finite and nonnegative, "
                                  f"got {float(bad[0])!r}")

    def value(self, x: np.ndarray) -> float:
        return 0.5 * float(np.dot(self.eigenvalues * x, x))

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.eigenvalues * x


@dataclass
class Trajectory:
    """A discretized solution with everything the oracles need recomputable."""

    system: OdeSystemSpec
    objective: QuadraticObjective
    params: dict[str, float]
    times: np.ndarray
    xs: np.ndarray  # (n, dim)
    vs: np.ndarray  # (n, dim), dx/dt
    gaps: np.ndarray = field(init=False)
    _inner: dict[tuple[int, int], np.ndarray] = field(init=False, repr=False,
                                                      default_factory=dict)
    _basis: tuple[np.ndarray, ...] | None = field(init=False, repr=False, default=None)
    _multipliers: tuple[np.ndarray, ...] | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self.gaps = 0.5 * self.inner(1, 2)

    def inner(self, i: int, j: int) -> np.ndarray:
        """<v_i, v_j> along the trajectory for 1 <= i, j <= 5, computed once per (i, j).

        v1 = x, v2 = E v1, v3 = dx/dt and v4 = E v3 for the diagonal Hessian
        E, so each product of v1..v4 is one einsum "j,ij,ij->i" over xs and
        vs, weighted by the eigenvalues to the power of how many of i, j are
        even; neither v2 nor v4 is built as an array.  A product with v5
        reads basis_vectors().
        """
        if not (1 <= i <= 5 and 1 <= j <= 5):
            raise ValueError(f"inner products need 1 <= i, j <= 5, got i={i!r}, j={j!r}")
        key = (min(i, j), max(i, j))
        if key in self._inner:
            return self._inner[key]
        if key[1] == 5:
            vs = self.basis_vectors()
            out = np.einsum("ij,ij->i", vs[key[0] - 1], vs[4])
        else:
            weights = self.objective.eigenvalues ** ((i - 1) % 2 + (j - 1) % 2)
            states = [self.xs if k <= 2 else self.vs for k in key]
            out = np.einsum("j,ij,ij->i", weights, *states)
        self._inner[key] = out
        return out

    def pointwise_multipliers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """lambda(t), theta(t) from their defining identities, plus a validity mask.

        lambda: <grad f, x> - f = lambda/2 ||x||^2, the minimiser at 0 with f* = 0
        theta:  <hess f dx/dt, dx/dt> = theta ||dx/dt||^2
        Each multiplier is defined wherever its own denominator is nonzero; the
        mask marks points where both are.  An undefined multiplier only ever
        scales a vanishing quadratic term (lambda sits on the (1,1) diagonal,
        theta on (3,3)), so the zero fill keeps evaluated forms exact.  Built
        once per trajectory.
        """
        if self._multipliers is None:
            n1, n3 = self.inner(1, 1), self.inner(3, 3)
            bregman = -self.gaps + self.inner(1, 2)
            ok1 = np.sqrt(n1) > 1e-12
            ok3 = np.sqrt(n3) > 1e-12
            lam = np.where(ok1, 2.0 * bregman / np.where(ok1, n1, 1.0), 0.0)
            theta = np.where(ok3, self.inner(3, 4) / np.where(ok3, n3, 1.0), 0.0)
            self._multipliers = lam, theta, ok1 & ok3
        return self._multipliers

    def basis_vectors(self) -> tuple[np.ndarray, ...]:
        """(v1..v5) arrays of shape (n, dim), built once; v5 is recovered from the ODE."""
        if self._basis is None:
            self._basis = self._build_basis()
        return self._basis

    def _build_basis(self) -> tuple[np.ndarray, ...]:
        eigs = self.objective.eigenvalues
        v1 = self.xs
        v2 = eigs * v1
        v3 = self.vs
        v4 = eigs * v3
        t = self.times[:, None]
        c = [evaluate(b, t) for b in _bound(self.system.coeffs, self.params)]
        if self.system.second_order:
            v5 = -(c[0] * v1 + c[1] * v2 + c[2] * v3 + c[3] * v4) / c[4]
        else:
            dc = [evaluate(b, t) for b in _bound([e.diff() for e in self.system.coeffs],
                                                 self.params)]
            rhs = dc[0] * v1 + dc[1] * v2 + (c[0] + dc[2]) * v3 + (c[1] + dc[3]) * v4
            v5 = -rhs / (c[2] + c[3] * eigs)
        return v1, v2, v3, v4, v5


def _bound(exprs, params: Mapping[str, float]):
    """Each expression's terms with the parameters bound, ready for evaluate."""
    return [bind_terms(float_terms(e), params) for e in exprs]


# Steps whose RK4 maps are built at once; bounds the memory of long runs.
STEP_CHUNK = 2048
# Bound on (steps + 1) * modes, the values of one state array of a run: 0.8 GB
# of floats, checked before anything of that size is allocated.
MAX_STATE_VALUES = 10 ** 8


def integrate(system: OdeSystemSpec, obj: QuadraticObjective, x0, v0,
              t0: float, t1: float, dt: float,
              params: Mapping[str, float] | None = None) -> Trajectory:
    """Classical RK4 with fixed step dt from t0 to t1.

    Systems whose coefficients carry negative powers of t need t0 > 0.  For
    first-order systems the state is x alone; dx/dt solves
    (c3 I + c4 hess f) dx/dt = -(c1 x + c2 grad f), and the mass matrix
    must be nonsingular at every stage time; for second-order systems the mass
    is c5, which must not vanish at any stage time.

    x0 and v0 have one entry per eigenmode of obj; t0, t1, dt and the step
    count (t1 - t0) / dt must be finite, and (steps + 1) * modes at most
    MAX_STATE_VALUES.  The minimiser sits at the origin, so each mode's
    state is x itself, in and out.

    Each eigenmode advances by its own RK4 step maps, built STEP_CHUNK steps
    at a time: 2x2 companion-form maps for second-order systems
    (_companion_step_maps), scalar factors for first-order ones
    (_scalar_step_maps).  The coefficients are evaluated at the stage times,
    shape (3, steps, 1), and keep their natural broadcast shapes; the map
    builders take them stage-major, (3, steps, modes), with steps 1 when no
    coefficient depends on t, and the maps are then broadcast over the chunk.
    Within a chunk, the state after step i is the prefix product M_i ... M_0
    of the maps applied to the chunk's first state; second-order chunks get
    those products from _prefix_products.
    """
    for name, value in (("t0", t0), ("t1", t1), ("dt", dt)):
        if not math.isfinite(value):
            raise SimulationError(f"{name} must be finite, got {value!r}")
    if dt <= 0:
        raise SimulationError("dt must be positive")
    if not t1 > t0:
        raise SimulationError(f"integration needs t1 > t0, got t0={t0!r}, t1={t1!r}")
    if not math.isfinite((t1 - t0) / dt):
        raise SimulationError(f"the step count (t1 - t0) / dt overflows, got t0={t0!r}, "
                              f"t1={t1!r}, dt={dt!r}")
    params = dict(params or {})
    unbound = set().union(*(c.free_symbols() for c in system.coeffs)) - set(params)
    if unbound:
        raise SimulationError(f"unbound system parameters: {sorted(unbound)}")
    singular_at_zero = any(exp[0] < 0 or exp[1] < 0
                           for c in system.coeffs for exp, _m, _c in c.terms())
    if t0 <= 0 and singular_at_zero:
        raise SimulationError("t0 must be positive for coefficients singular at t = 0")

    coeffs = _bound(system.coeffs, params)
    eigs = obj.eigenvalues
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    for name, state in (("x0", x0), ("v0", v0)):
        if state.shape != eigs.shape:
            raise SimulationError(f"{name} must have shape {eigs.shape} to match the objective, "
                                  f"got {state.shape}")

    n_steps = max(int(round((t1 - t0) / dt)), 1)
    if (n_steps + 1) * len(eigs) > MAX_STATE_VALUES:
        raise SimulationError(f"{n_steps} steps over {len(eigs)} modes need "
                              f"{(n_steps + 1) * len(eigs)} values per state array, above "
                              f"MAX_STATE_VALUES = {MAX_STATE_VALUES}")
    times = t0 + dt * np.arange(n_steps + 1)

    xs = np.empty((n_steps + 1, len(eigs)))
    vs = np.empty_like(xs)
    xs[0] = x0
    vs[0] = v0
    stage_offsets = np.array([0.0, dt / 2, dt])[:, None]
    for start in range(0, n_steps, STEP_CHUNK):
        stop = min(start + STEP_CHUNK, n_steps)
        chunk = (stop - start, len(eigs))
        # The stage times t, t + h/2, t + h of each step, stage-major: (3, steps).
        stage = times[start:stop] + stage_offsets
        t = stage[..., None]  # against the modes
        c = [evaluate(b, t) for b in coeffs]
        stiffness = c[0] + c[1] * eigs
        damping = c[2] + c[3] * eigs
        if system.second_order:
            inertia = c[4]
            _check_mass(stage, inertia, "coefficient c5")
            p, q = _stage_major(-stiffness / inertia, -damping / inertia)
            maps = _companion_step_maps(p, q, dt)
            prefix = _prefix_products(np.broadcast_to(maps, (2, 2) + chunk))
            xs[start + 1:stop + 1] = prefix[0, 0] * xs[start] + prefix[0, 1] * vs[start]
            vs[start + 1:stop + 1] = prefix[1, 0] * xs[start] + prefix[1, 1] * vs[start]
        else:
            _check_mass(stage, damping, "matrix c3 + c4*e")
            (a,) = _stage_major(-stiffness / damping)  # dx/dt = a x
            factors = np.broadcast_to(_scalar_step_maps(a, dt), chunk)
            xs[start + 1:stop + 1] = xs[start] * np.cumprod(factors, axis=0)
            vs[start:stop] = a[0] * xs[start:stop]
            vs[stop] = a[2, -1] * xs[stop]
    return Trajectory(system, obj, params, times, xs, vs)


def _stage_major(*coeffs) -> list[np.ndarray]:
    """The stage coefficients broadcast to one (3, steps, modes) shape.

    steps is 1 when none of them depends on t: a coefficient without t has
    the shape of a scalar or of a row of modes, and is not repeated.
    """
    shape = np.broadcast_shapes((3, 1, 1), *(np.shape(c) for c in coeffs))
    return [np.broadcast_to(c, shape) for c in coeffs]


def _check_mass(stage: np.ndarray, mass, name: str) -> None:
    """Raise at the first stage time where some mode's mass vanishes.

    First means in the order RK4 visits them: step by step, and stage by
    stage within a step.  stage holds the stage times, shape (3, steps); mass
    broadcasts against (3, steps, modes).
    """
    singular = np.abs(mass) < 1e-12
    if singular.any():
        shape = np.broadcast_shapes(np.shape(singular), stage.shape + (1,))
        at = np.broadcast_to(singular, shape).any(axis=-1)
        t = stage.T[at.T][0]
        raise SingularMassMatrixError(f"mass {name} is singular at t={t:.6g}")


def _companion_step_maps(p: np.ndarray, q: np.ndarray, h: float) -> np.ndarray:
    """Classical RK4 step maps of du/dt = A(t) u for the companion A = [[0, 1], [p, q]].

    p and q hold A's second row at the stage times t, t + h/2, t + h of each
    step, stage-major with shape (3, steps, modes), so each stage p[s] is one
    contiguous block; steps is 1 for maps that do not depend on t.  The step
    u -> M u has M = I + h/6 (K1 + 2 K2 + 2 K3 + K4), where K1 = A(t),
    K2 = A(t + h/2)(I + h/2 K1), K3 = A(t + h/2)(I + h/2 K2) and
    K4 = A(t + h)(I + h K3).  A product A B with a companion A is row 1 of B
    over p * (row 0 of B) + q * (row 1 of B): 4 multiplies, not 8.  The
    dropped terms are products with the exact 0 and 1 of A's first row, which
    round to nothing, so M equals the generic 2x2 expansion bit for bit.  M is
    returned entry-first, with shape (2, 2, steps, modes).
    """
    def eye_plus(c, k):  # I + c K, entries in row-major order
        return 1 + c * k[0], c * k[1], c * k[2], 1 + c * k[3]

    def times_a(stage, b):  # A B, with A taken at the given stage time
        ps, qs = p[stage], q[stage]
        return b[2], b[3], ps * b[0] + qs * b[2], ps * b[1] + qs * b[3]

    k1 = (0.0, 1.0, p[0], q[0])
    k2 = times_a(1, eye_plus(h / 2, k1))
    k3 = times_a(1, eye_plus(h / 2, k2))
    k4 = times_a(2, eye_plus(h, k3))
    m = eye_plus(h / 6, [a + 2 * b + 2 * c + d for a, b, c, d in zip(k1, k2, k3, k4)])
    return np.array(m).reshape((2, 2) + p.shape[1:])


def _scalar_step_maps(a: np.ndarray, h: float) -> np.ndarray:
    """Classical RK4 step factors of du/dt = a(t) u, shape (steps, modes).

    a holds the stage values at t, t + h/2, t + h of each step, stage-major
    with shape (3, steps, modes); the stages are those of _companion_step_maps,
    1x1.
    """
    k1 = a[0]
    k2 = a[1] * (1 + h / 2 * k1)
    k3 = a[1] * (1 + h / 2 * k2)
    k4 = a[2] * (1 + h * k3)
    return 1 + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def _prefix_products(m: np.ndarray) -> np.ndarray:
    """Inclusive prefix products P_i = M_i ... M_0 along axis 2 of entry-first m.

    A work-efficient scan (Blelloch 1990) with about 2 * steps products.  The
    up-sweep multiplies neighbours, M_{2j+1} M_{2j}, and scans that sequence
    of half the length recursively, which gives P at every odd index; the
    down-sweep sets P_{2j} = M_{2j} P_{2j-1} at every even index.  m has shape
    (k, k, steps, ...).
    """
    n = m.shape[2]
    if n == 1:
        return m
    odd = _prefix_products(_matmul(m[:, :, 1::2], m[:, :, 0:n - 1:2]))
    p = np.empty_like(m)
    p[:, :, 0] = m[:, :, 0]
    p[:, :, 1::2] = odd
    p[:, :, 2::2] = _matmul(m[:, :, 2::2], odd[:, :, :(n - 1) // 2])
    return p


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of k x k matrices stored entry-first, shape (k, k, ...)."""
    return np.einsum("ij...,jk...->ik...", a, b)


# -- rate fitting ----------------------------------------------------------------


@dataclass
class RateFit:
    k: float
    residual: float
    window: tuple[float, float]
    truncated: bool  # gap underflow shortened the fit window


GAP_FLOOR = 1e-290


def measure_rate(traj: Trajectory, gamma: GammaForm, params: Mapping[str, float],
                 window: tuple[float, float] | None = None) -> RateFit:
    """Least-squares slope of log(gap) against the gamma shape.

    By default the trailing half of the trajectory is used; the fitted k is
    the decay coefficient in gap ~ exp(-k * shape(t)).
    """
    t, gap = traj.times, traj.gaps
    if window is None:
        window = (t[len(t) // 2], t[-1])
    mask = (t >= window[0]) & (t <= window[1])
    truncated = bool(np.any(gap[mask] <= GAP_FLOOR))
    mask &= gap > GAP_FLOOR
    if mask.sum() < 2:
        raise SimulationError("not enough positive-gap points in the fit window")
    x = np.asarray(gamma.shape(t[mask], dict(params)), dtype=float)
    y = np.log(gap[mask])
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return RateFit(k=-float(slope), residual=residual,
                   window=(float(t[mask][0]), float(t[mask][-1])), truncated=truncated)


# -- conservation oracle -----------------------------------------------------------


def _quadratic_form(matrix_entry, dim: int, gamma: GammaForm, params: Mapping[str, float],
                    t: np.ndarray, lam: np.ndarray, theta: np.ndarray, inner) -> np.ndarray:
    """sum over i <= j <= dim of (2 - [i = j]) * entry(i, j)(t) * inner(i, j)."""
    total = np.zeros_like(t)
    for i in range(1, dim + 1):
        for j in range(i, dim + 1):
            entry = matrix_entry(i, j)
            if not entry:
                continue
            weight = 1.0 if i == j else 2.0
            terms = float_terms(gamma.substitute(entry), ("lambda", "theta"))
            coeff = evaluate(bind_terms(terms, params), t, lam, theta)
            total += weight * coeff * inner(i, j)
    return total


def _egamma(gamma: GammaForm, traj: Trajectory, params: Mapping[str, float]) -> np.ndarray:
    return np.exp(np.asarray(gamma.value(traj.times, dict(params)), dtype=float))


def _p_form_plus_gap(pair: PQPair, gamma: GammaForm, traj: Trajectory,
                     params: Mapping[str, float]) -> np.ndarray:
    lam, theta, _mask = traj.pointwise_multipliers()
    return _quadratic_form(pair.p_entry, 3, gamma, params, traj.times, lam, theta,
                           traj.inner) + traj.gaps


def pair_energy(pair: PQPair, gamma: GammaForm, traj: Trajectory,
                params: Mapping[str, float]) -> np.ndarray:
    """E(t) = e^gamma (p-form + gap) along a trajectory, lambda and theta pointwise.

    Every inner product it reads is Trajectory.inner of v1..v4, so the basis
    is never built.
    """
    return _egamma(gamma, traj, params) * _p_form_plus_gap(pair, gamma, traj, params)


def conservation_check(pair: PQPair, gamma: GammaForm, traj: Trajectory,
                       params: Mapping[str, float]) -> float:
    """Maximum normalized residual of dE/dt + e^gamma q = 0 along the trajectory.

    The derivative is taken by central differences, so the residual measures
    discretization error only; halving dt should shrink it about fourfold.
    Only the products with v5 read Trajectory.basis_vectors(); e^gamma is
    evaluated once for E and the q-form.
    """
    lam, theta, mask = traj.pointwise_multipliers()
    egamma = _egamma(gamma, traj, params)
    energy = egamma * _p_form_plus_gap(pair, gamma, traj, params)
    q_form = egamma * _quadratic_form(pair.q_entry, 5, gamma, params, traj.times, lam, theta,
                                      traj.inner)
    t = traj.times
    d_energy = (energy[2:] - energy[:-2]) / (t[2:] - t[:-2])
    residual = np.abs(d_energy + q_form[1:-1]) / (1.0 + np.abs(q_form[1:-1]))
    inner_mask = mask[1:-1]
    if not inner_mask.any():
        raise SimulationError("no valid points for the conservation residual")
    return float(residual[inner_mask].max())
