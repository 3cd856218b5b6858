"""The certified Lyapunov functions, one per catalog result, read from its row.

Each entry names a row of analysis.catalog_rows and adds only what the row
lacks: the winning operation sequence, the integration window and whether the
run needs the smoothness bound L.  The row gives the system, the gamma form,
its single parameter point and the certified rate (expected_k, else k_probe);
generalized-nag, whose row certifies only a supremum, runs at a rate of its
own below it.  Like the row, a certificate needs 0 < mu < L.  Its E(t) is the
pair's energy e^gamma (p-form + f - f*), evaluated by simulate.pair_energy
with lambda and theta taken pointwise; the check below confirms E is
non-increasing along a numerical trajectory over the entry's window.  A rate
above the certified one breaks monotonicity only where the certified rate is
sharp for that E, as for gradient-flow (E = e^{kt}(f - f*) grows on the
slowest mode once k > 2 mu).  Elsewhere it need not: sc-nag's E stays
non-increasing on quadratics for every k <= (4/3) sqrt(mu), since its
dissipation is -(k/2)((k - sqrt(mu))^2 + l - mu) u^2 + (3k/2 - 2 sqrt(mu)) u'^2
per mode of curvature l >= mu.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analysis import CatalogRow, catalog_rows
from .pq import apply_sequence, initial_pair
from .simulate import QuadraticObjective, Trajectory, integrate, pair_energy
from .systems import CATALOG as SYSTEMS


@dataclass(frozen=True)
class LyapunovSpec:
    name: str                                       # the label of its catalog row
    ops: tuple[str, ...]                            # the winning operation sequence
    t_range: Callable[[float, CatalogRow], tuple[float, float]]  # (k, row) -> (t0, t1)
    needs_smoothness: bool = False
    k: float | None = None                          # run rate where the row has none


_NAG_OPS = ("A1", "B1", "B2", "B3")

CATALOG: dict[str, LyapunovSpec] = {
    spec.name: spec
    for spec in (
        LyapunovSpec("damped-newton", ("A1", "E1", "F1"), lambda k, row: (0.0, 12.0)),
        LyapunovSpec("first-order-hessian", ("A1", "B3", "E1", "F1"),
                     lambda k, row: (0.0, 12.0), needs_smoothness=True),
        LyapunovSpec("gradient-flow", ("A1",), lambda k, row: (0.0, 12.0)),
        LyapunovSpec("sc-nag", _NAG_OPS, lambda k, row: (0.0, 16.0)),
        LyapunovSpec("second-order-hessian", ("A1", "B1", "B2", "E1", "F1"),
                     lambda k, row: (0.0, 16.0)),
        LyapunovSpec("nag-convex", _NAG_OPS, lambda k, row: (1.0, 30.0)),
        LyapunovSpec("nag-strong-log", _NAG_OPS,
                     lambda k, row: (row.query.t_domain.t_search, 30.0)),
        LyapunovSpec("nag-strong-exp", _NAG_OPS,
                     lambda k, row: (0.5, 2.0 * (k * k + row.query.mu) / k ** 3)),
        # Any k below the row's 2/3 supremum is certified.
        LyapunovSpec("generalized-nag", ("A1", "B1", "B3", "B2"), lambda k, row: (1.0, 60.0),
                     k=0.6),
    )
}


def _certificate(name: str, mu: float, L: float) -> tuple[LyapunovSpec, CatalogRow, float]:
    """The entry, its catalog row at (mu, L), and the rate it runs at."""
    spec = CATALOG[name]
    row = next(row for row in catalog_rows(mu, L) if row.label == name)
    return spec, row, next(k for k in (row.expected_k, row.k_probe, spec.k) if k is not None)


def certified_rate(name: str, mu: float = 1.0, L: float = 4.0) -> float:
    """The rate a certificate runs at: its row's expected_k, else k_probe, else its own k."""
    return _certificate(name, mu, L)[2]


def run_certificate(name: str, mu: float = 1.0, L: float = 4.0, dim: int = 10,
                    dt: float = 1e-3, k: float | None = None) -> tuple[Trajectory, np.ndarray]:
    """Integrate the row's system at its parameter point and evaluate E(t) along the run."""
    spec, row, certified = _certificate(name, mu, L)
    system = SYSTEMS[row.system]
    # The smoothness-backed certificate pins b = -1/L; keep the top eigenvalue
    # strictly inside [mu, L] so the mass matrix stays nonsingular.
    top = 0.975 * L if spec.needs_smoothness else L
    obj = QuadraticObjective.log_spaced(dim, mu, top)
    k = certified if k is None else k
    t0, t1 = spec.t_range(k, row)
    (params,) = row.query.grid_points()
    traj = integrate(system, obj, np.ones(dim), np.zeros(dim),
                     t0=t0, t1=t1, dt=dt, params=params)
    pair = apply_sequence(initial_pair(system), spec.ops)
    return traj, pair_energy(pair, row.query.gamma, traj, {**params, "k": k})


def monotonicity_check(name: str, mu: float = 1.0, L: float = 4.0, dim: int = 10,
                       dt: float = 1e-3, k: float | None = None) -> float:
    """Largest normalized forward increase of E; <= ~1e-8 certifies monotone."""
    _traj, energy = run_certificate(name, mu, L, dim, dt, k=k)
    increase = np.diff(energy) / (1.0 + np.abs(energy[:-1]))
    return float(np.max(increase))
