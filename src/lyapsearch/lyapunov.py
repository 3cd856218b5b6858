"""The certified Lyapunov functions, one per catalog result, read from its pair.

Each entry fixes a system configuration, the winning operation sequence and
gamma form of its catalog row, and the certified rate coefficient.  Its E(t)
is that pair's energy e^gamma (p-form + f - f*), evaluated by
simulate.pair_energy with lambda and theta taken pointwise; the check below
confirms E is non-increasing along a numerical trajectory over the entry's
validity range.  A rate above the certified one breaks monotonicity only where
the certified rate is sharp for that E, as for gradient-flow
(E = e^{kt}(f - f*) grows on the slowest mode once k > 2 mu).  Elsewhere it
need not: sc-nag's E stays non-increasing on quadratics for every
k <= (4/3) sqrt(mu), since its dissipation is
-(k/2)((k - sqrt(mu))^2 + l - mu) u^2 + (3k/2 - 2 sqrt(mu)) u'^2 per mode of
curvature l >= mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .expr import GammaForm, LINEAR, LOG, POWER
from .pq import apply_sequence, initial_pair
from .simulate import QuadraticObjective, Trajectory, integrate, pair_energy


@dataclass(frozen=True)
class LyapunovSpec:
    name: str
    system: str
    ops: tuple[str, ...]                            # the winning operation sequence
    gamma: GammaForm
    params: Callable[[float, float], dict]          # (mu, L) -> ODE parameters
    k_opt: Callable[[float, float], float]          # certified rate coefficient
    t_range: Callable[[float, float, float], tuple[float, float]]  # (k, mu, L)
    needs_smoothness: bool = False


def _nag_log_root(r: float, mu: float) -> float:
    # T with r = 1 + 2 sqrt(1 + mu T^2); the certified k is (r + 1)/2.
    return math.sqrt(((r - 1.0) / 2.0) ** 2 - 1.0) / math.sqrt(mu)


_NAG_OPS = ("A1", "B1", "B2", "B3")

CATALOG: dict[str, LyapunovSpec] = {
    spec.name: spec
    for spec in (
        LyapunovSpec("damped-newton", "damped-newton", ("A1", "E1", "F1"), LINEAR,
                     lambda mu, L: {}, lambda mu, L: 1.0,
                     lambda k, mu, L: (0.0, 12.0)),
        LyapunovSpec("first-order-hessian", "first-order-hessian", ("A1", "B3", "E1", "F1"),
                     LINEAR, lambda mu, L: {"b": -1.0 / L},
                     lambda mu, L: mu / (1.0 - mu / L),
                     lambda k, mu, L: (0.0, 12.0), needs_smoothness=True),
        LyapunovSpec("gradient-flow", "first-order-hessian", ("A1",), LINEAR,
                     lambda mu, L: {"b": 0.0}, lambda mu, L: 2.0 * mu,
                     lambda k, mu, L: (0.0, 12.0)),
        LyapunovSpec("sc-nag", "second-order-hessian", _NAG_OPS, LINEAR,
                     lambda mu, L: {"a": 2.0 * math.sqrt(mu), "b": 0.0},
                     lambda mu, L: math.sqrt(mu),
                     lambda k, mu, L: (0.0, 16.0)),
        LyapunovSpec("second-order-hessian", "second-order-hessian",
                     ("A1", "B1", "B2", "E1", "F1"), LINEAR,
                     lambda mu, L: {"a": math.sqrt(mu), "b": 1.0 / math.sqrt(mu)},
                     lambda mu, L: math.sqrt(mu),
                     lambda k, mu, L: (0.0, 16.0)),
        LyapunovSpec("nag-convex", "nag", _NAG_OPS, LOG,
                     lambda mu, L: {"r": 3.0}, lambda mu, L: 2.0,
                     lambda k, mu, L: (1.0, 30.0)),
        LyapunovSpec("nag-strong-log", "nag", _NAG_OPS, LOG,
                     lambda mu, L: {"r": 5.0}, lambda mu, L: 3.0,
                     lambda k, mu, L: (_nag_log_root(5.0, mu), 30.0)),
        LyapunovSpec("nag-strong-exp", "nag", _NAG_OPS, LINEAR,
                     lambda mu, L: {"r": 4.0 * (1.0 + mu)}, lambda mu, L: 1.0,
                     lambda k, mu, L: (0.5, 2.0 * (k * k + mu) / k ** 3)),
        # Any k below the 2/3 supremum is certified.
        LyapunovSpec("generalized-nag", "generalized-nag", ("A1", "B1", "B3", "B2"), POWER,
                     lambda mu, L: {"r": 1.0, "alpha": 0.5}, lambda mu, L: 0.6,
                     lambda k, mu, L: (1.0, 60.0)),
    )
}


def run_certificate(name: str, mu: float = 1.0, L: float = 4.0, dim: int = 10,
                    dt: float = 1e-3, k: float | None = None) -> tuple[Trajectory, np.ndarray]:
    """Integrate the entry's system and evaluate its pair's E(t) along the run."""
    from .systems import CATALOG as SYSTEMS

    spec = CATALOG[name]
    system = SYSTEMS[spec.system]
    # The smoothness-backed certificate pins b = -1/L; keep the top eigenvalue
    # strictly inside [mu, L] so the mass matrix stays nonsingular.
    top = 0.975 * L if spec.needs_smoothness else L
    obj = QuadraticObjective.log_spaced(dim, mu, top)
    k = spec.k_opt(mu, L) if k is None else k
    t0, t1 = spec.t_range(k, mu, L)
    params = spec.params(mu, L)
    traj = integrate(system, obj, np.ones(dim), np.zeros(dim),
                     t0=t0, t1=t1, dt=dt, params=params)
    pair = apply_sequence(initial_pair(system), spec.ops)
    return traj, pair_energy(pair, spec.gamma, traj, {**params, "k": k})


def monotonicity_check(name: str, mu: float = 1.0, L: float = 4.0, dim: int = 10,
                       dt: float = 1e-3, k: float | None = None) -> float:
    """Largest normalized forward increase of E; <= ~1e-8 certifies monotone."""
    _traj, energy = run_certificate(name, mu, L, dim, dt, k=k)
    increase = np.diff(energy) / (1.0 + np.abs(energy[:-1]))
    return float(np.max(increase))
