"""The single-step bootstrap, a NAG certificate extended past its PSD rate.

It takes a pair whose Q fails PSD only through its (1,3) coupling, checks P
with the same PSD check that certifies every rate, and confirms numerically
the growth bound that integrating that coupling by parts gives.  No command
reports it; acceptance criterion 9 and the bootstrap tests run it.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from lyapsearch.analysis import AnalysisError, Eventually, RateQuery, feasible, psd_conditions
from lyapsearch.expr import LOG, ZERO, bind_terms, float_terms
from lyapsearch.lyapunov import DIM
from lyapsearch.pq import PQPair
from lyapsearch.simulate import QuadraticObjective, integrate, measure_rate, pair_energy
from lyapsearch.systems import OdeSystemSpec

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
    of the objective gap.  The run takes the query's single grid point and
    integrates DIM modes from t = 1 to 1000 at dt = BOOTSTRAP_DT, fitting the
    rate from t = 10.
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
