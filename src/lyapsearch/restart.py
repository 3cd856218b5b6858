"""Clock-restarted integration of the heavily damped NAG-type flow.

The flow d2x/dt2 + (4(l^2+1)/(l^2 t)) dx/dt + grad f = 0 contracts the merit

    g = f - f* + ||dx/dt + l sqrt(mu) (x - x*)||^2 / 2

by a fixed factor over each clock window [T/c, T] with T = 2(l^2+1)/(l^3 sqrt(mu)).
Restarting the clock at T/c while carrying (x, dx/dt) across rounds therefore
yields global linear convergence whenever the per-round factor is below one.

On a quadratic objective every round integrates the same linear ODE over the
same window, one decoupled mode per eigenvalue, so a round is a fixed 2x2 map
per mode on (x, dx/dt): the objective's minimiser sits at the origin, with
f* = 0, so x is the offset x - x*.  run_restart integrates that map's two
columns once and applies it round after round.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .simulate import QuadraticObjective, integrate
from .systems import CATALOG


def round_factor_bound(c: float, l: float) -> float:
    """Per-round contraction factor guaranteed for g."""
    return (2.0 * (c - 1.0) * l * l + 1.0) * math.exp((-1.0 + 1.0 / c) * 2.0 * (l * l + 1.0) / (l * l))


def rate_base(c: float, l: float) -> float:
    """h(c, l): the per-unit-sqrt(mu)-time contraction base."""
    exponent = c * l ** 3 / (2.0 * (c - 1.0) * (l * l + 1.0))
    return round_factor_bound(c, l) ** exponent


def rate_constant(c: float, l: float) -> float:
    """C(c, l), the constant in g(t) <= C h^(sqrt(mu) t) g(0).

    Equal to the reciprocal of the per-round factor bound: the floor in the
    round count costs at most one factor.
    """
    return 1.0 / round_factor_bound(c, l)


@dataclass
class RestartSpec:
    l: float
    c: float
    mu: float = 1.0
    rounds: int = 20
    dim: int = 10
    L: float = 4.0
    dt: float = 1e-3
    x0: np.ndarray | None = None
    v0: np.ndarray | None = None

    def __post_init__(self):
        for name in ("l", "c", "mu", "L", "dt"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.l <= 0:
            raise ValueError("l must be positive")
        if self.c <= 1:
            raise ValueError("c must exceed 1")
        if not 0 < self.mu <= self.L:
            raise ValueError(f"restart needs 0 < mu <= L, got mu={self.mu!r}, L={self.L!r}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be at least 1, got {self.rounds!r}")
        if self.dim < 1:
            raise ValueError(f"dim must be at least 1, got {self.dim!r}")
        for name in ("x0", "v0"):
            state = getattr(self, name)
            if state is not None and np.shape(state) != (self.dim,):
                raise ValueError(f"{name} must have shape ({self.dim},), got {np.shape(state)}")

    @property
    def T(self) -> float:
        return 2.0 * (self.l ** 2 + 1.0) / (self.l ** 3 * math.sqrt(self.mu))

    @property
    def damping(self) -> float:
        return 4.0 * (self.l ** 2 + 1.0) / self.l ** 2


@dataclass
class RestartReport:
    spec: RestartSpec
    g_values: list[float]
    factors: list[float] = field(init=False)
    h: float = field(init=False)
    C: float = field(init=False)
    factor_bound: float = field(init=False)
    chained_bound_ok: bool = field(init=False)

    def __post_init__(self):
        self.factors = [b / a for a, b in zip(self.g_values, self.g_values[1:])]
        self.h = rate_base(self.spec.c, self.spec.l)
        self.C = rate_constant(self.spec.c, self.spec.l)
        self.factor_bound = round_factor_bound(self.spec.c, self.spec.l)
        g0 = self.g_values[0]
        self.chained_bound_ok = all(
            g <= self.factor_bound ** i * g0 * (1.0 + 1e-9) + 1e-300
            for i, g in enumerate(self.g_values))


def merit(spec: RestartSpec, obj: QuadraticObjective, x: np.ndarray, v: np.ndarray) -> float:
    shift = v + spec.l * math.sqrt(spec.mu) * x
    return obj.value(x) + 0.5 * float(np.dot(shift, shift))


def run_restart(spec: RestartSpec) -> RestartReport:
    """Apply each mode's round map spec.rounds times, resetting only the clock.

    A round takes (x, dx/dt) at clock T/c to its value at clock T, the same
    linear map every round.  Its columns are the ends of two integrations over
    [T/c, T], started from the unit states (x = 1, dx/dt = 0) and
    (x = 0, dx/dt = 1) in every mode at once.
    """
    if round_factor_bound(spec.c, spec.l) > 1.0:
        warnings.warn("the (c, l) pair does not guarantee contraction", stacklevel=2)
    obj = QuadraticObjective.log_spaced(spec.dim, spec.mu, spec.L)
    system = CATALOG["nag"]
    params = {"r": spec.damping}
    x = np.ones(spec.dim) if spec.x0 is None else np.asarray(spec.x0, dtype=float)
    v = np.zeros(spec.dim) if spec.v0 is None else np.asarray(spec.v0, dtype=float)

    # Column j of each mode's round map is where the unit state e_j ends up.
    ones, zeros = np.ones(spec.dim), np.zeros(spec.dim)
    window = {"t0": spec.T / spec.c, "t1": spec.T, "dt": spec.dt, "params": params}
    from_x = integrate(system, obj, ones, zeros, **window)
    from_v = integrate(system, obj, zeros, ones, **window)
    xx, vx = from_x.xs[-1], from_x.vs[-1]
    xv, vv = from_v.xs[-1], from_v.vs[-1]

    g_values = [merit(spec, obj, x, v)]
    for _ in range(spec.rounds):
        x, v = xx * x + xv * v, vx * x + vv * v
        g_values.append(merit(spec, obj, x, v))
    return RestartReport(spec, g_values)
