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

The single-step bootstrap extends a NAG certificate past its PSD rate.  It
takes a pair whose Q fails PSD only through its (1,3) coupling, checks P with
the same PSD check that certifies every rate, and confirms numerically the
growth bound that integrating that coupling by parts gives.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .analysis import (AnalysisError, CatalogRow, Eventually, RateQuery, catalog_rows, feasible,
                       psd_conditions)
from .expr import LOG, ZERO, bind_terms, float_terms
from .pq import PQPair, apply_sequence, initial_pair
from .simulate import QuadraticObjective, Trajectory, integrate, measure_rate, pair_energy
from .systems import CATALOG as SYSTEMS, OdeSystemSpec


@dataclass(frozen=True)
class LyapunovSpec:
    name: str                                       # the label of its catalog row
    ops: tuple[str, ...]                            # the winning operation sequence
    t_range: Callable[[float, CatalogRow], tuple[float, float]]  # (k, row) -> (t0, t1)
    needs_smoothness: bool = False
    k: float | None = None                          # run rate where the row has none


_NAG_OPS = ("A1", "B1", "B2", "B3")
DIM = 10  # modes of the quadratic objective of every run here
CERTIFICATE_DT = 1e-3  # RK4 step of the certificate runs

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


def run_certificate(name: str, mu: float = 1.0, L: float = 4.0,
                    k: float | None = None) -> tuple[Trajectory, np.ndarray]:
    """Integrate the row's system at its parameter point and evaluate E(t) along the run.

    k defaults to the rate of the row: its expected_k, else k_probe, else the
    entry's own k.
    """
    spec = CATALOG[name]
    row = next(row for row in catalog_rows(mu, L) if row.label == name)
    if k is None:
        k = next(rate for rate in (row.expected_k, row.k_probe, spec.k) if rate is not None)
    system = SYSTEMS[row.system]
    # The smoothness-backed certificate pins b = -1/L; keep the top eigenvalue
    # strictly inside [mu, L] so the mass matrix stays nonsingular.
    top = 0.975 * L if spec.needs_smoothness else L
    obj = QuadraticObjective.log_spaced(DIM, mu, top)
    t0, t1 = spec.t_range(k, row)
    params = row.query.point()
    traj = integrate(system, obj, np.ones(DIM), np.zeros(DIM),
                     t0=t0, t1=t1, dt=CERTIFICATE_DT, params=params)
    pair = apply_sequence(initial_pair(system), spec.ops)
    return traj, pair_energy(pair, row.query.gamma, traj, {**params, "k": k})


def monotonicity_check(name: str, mu: float = 1.0, L: float = 4.0,
                       k: float | None = None) -> float:
    """Largest normalized forward increase of E; <= ~1e-8 certifies monotone."""
    _traj, energy = run_certificate(name, mu, L, k=k)
    increase = np.diff(energy) / (1.0 + np.abs(energy[:-1]))
    return float(np.max(increase))


# -- single-step bootstrap ------------------------------------------------------------------


BOOTSTRAP_T_FIT = (10.0, 1000.0)  # the run ends at the fit window's end
BOOTSTRAP_DT = 1e-2


class BootstrapPreconditionError(AnalysisError):
    """The pair does not have the shape the single-step bootstrap needs."""


def _check_bootstrap_shape(pair: PQPair, query: RateQuery) -> float:
    """The damping parameter r of the query's single grid point, once the
    pair has the shape the bootstrap needs at the target rate 2r/3: Q couples
    only through (1,3), P passes the rate check for t >= 10 at lambda = theta
    = mu, and Q11 is eventually nonnegative."""
    point = query.point()
    r = point.get("r")
    if r is None:
        raise BootstrapPreconditionError("the damping parameter r is not bound")
    k_target = 2.0 * r / 3.0
    q_sub = [[query.gamma.substitute(e) for e in row] for row in pair.Q]
    off_diag = [(i, j) for i in range(5) for j in range(i + 1, 5) if (i, j) != (0, 2)]
    if any(q_sub[i][j] for i, j in off_diag):
        raise BootstrapPreconditionError("Q couples entries beyond (1,3)")
    if not q_sub[0][2]:
        raise BootstrapPreconditionError("Q has no (1,3) coupling to bootstrap away")
    p_query = RateQuery(query.gamma, mu=query.mu, L=query.mu, grid=query.grid,
                        t_domain=Eventually(10.0))
    p_only = replace(pair, Q=((ZERO,) * 5,) * 5)
    if not feasible(psd_conditions(p_only, query.gamma, p_query.corners()), k_target, p_query):
        raise BootstrapPreconditionError("P is not PSD at the target rate")
    q11 = q_sub[0][0]
    if not q11:
        raise BootstrapPreconditionError("Q11 vanishes")
    bound = bind_terms(float_terms(q11), {**point, "k": k_target,
                                          "lambda": query.mu, "theta": query.mu})
    top = max(e for _base, e, _powers in bound)
    if sum(base for base, e, _powers in bound if e == top) < 0:
        raise BootstrapPreconditionError("Q11 is not eventually nonnegative")
    return r


def bootstrap_rate_check(system: OdeSystemSpec, pair: PQPair, known_rate_exponent: float,
                         query: RateQuery) -> bool:
    """Single bootstrap step: bounded growth of the candidate certificate.

    The pair's Q fails PSD only through the (1,3) coupling; integrating that
    term by parts bounds E(t) - E(t0) by a multiple of t^(k-2) * gap, which the
    already-known decay keeps bounded for 2r/3 <= known + 2.  Verified here
    numerically along a trajectory, together with the implied decay exponent
    of the objective gap.
    """
    if query.gamma is not LOG:
        raise BootstrapPreconditionError("the bootstrap step targets the log gamma form")
    r = _check_bootstrap_shape(pair, query)
    if not (3.0 < r <= 1.5 * (known_rate_exponent + 2.0)):
        raise BootstrapPreconditionError(
            f"r={r} outside the single-step range (3, {1.5 * (known_rate_exponent + 2.0)}]")
    mu = query.mu
    k_target = 2.0 * r / 3.0
    L = query.L if query.L is not None else 4.0 * mu

    obj = QuadraticObjective.log_spaced(DIM, mu, L)
    traj = integrate(system, obj, np.ones(DIM), np.zeros(DIM), t0=1.0, t1=BOOTSTRAP_T_FIT[1],
                     dt=BOOTSTRAP_DT, params={"r": r})

    energy = pair_energy(pair, LOG, traj, {"k": k_target, "r": r})
    t = traj.times
    mask = t >= BOOTSTRAP_T_FIT[0]
    e0 = energy[mask][0]
    growth = energy[mask] - e0
    envelope = (4 * r * r - 6 * r) / (9 * mu) * t[mask] ** (k_target - 2.0) * traj.gaps[mask]
    bound_ok = bool(np.all(growth <= envelope * (1 + 1e-6) + 1e-9 * (1 + abs(e0))))

    fit = measure_rate(traj, LOG, {"k": 1.0}, window=BOOTSTRAP_T_FIT)
    rate_ok = fit.k >= k_target - 0.15
    return bound_ok and rate_ok
