"""The (P, Q) matrix pair and the update operations acting on it.

A candidate certificate is carried as a symmetric 3x3 matrix P and a
symmetric 5x5 matrix Q of exact expressions over the vector basis

    v1 = x - x*,  v2 = grad f,  v3 = dx/dt,  v4 = hess f dx/dt,  v5 = d2x/dt2.

P generates the boundary quadratic form, Q the integrand.  Eleven named
operations rewrite the pair: A1 extracts the objective-gap term and is applied
exactly once first; B1-B3, C1, D1-D4 are integration-by-parts rewrites; E1 and
F1 trade mixed terms against the convexity parameters lambda and theta, which
only ever enter diagonal entries.  Every operation reads a single source entry
and updates the pair symmetrically, so symmetry is preserved by construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .expr import Expr, GammaForm, GAMMA1, ZERO

OPERATIONS = ("A1", "B1", "B2", "B3", "C1", "D1", "D2", "D3", "D4", "E1", "F1")

_HALF = Fraction(1, 2)
_LAMBDA = Expr.symbol("lambda")
_THETA = Expr.symbol("theta")

PMatrix = tuple[tuple[Expr, ...], ...]
QMatrix = tuple[tuple[Expr, ...], ...]


class OperationError(Exception):
    """Raised on an inadmissible operation application."""


# Bounded so that a process searching many systems does not grow it without
# limit; the six catalog systems use 19 entries.
@functools.lru_cache(maxsize=256)
def g_shift(entry: Expr) -> Expr:
    """gamma' * entry + d(entry)/dt, the correction an eliminated entry leaves behind."""
    return GAMMA1 * entry + entry.diff()


def _sym_matrix(dim: int, entries: Mapping[tuple[int, int], Expr]) -> PMatrix:
    rows = [[ZERO] * dim for _ in range(dim)]
    for (i, j), value in entries.items():
        rows[i - 1][j - 1] = value
        rows[j - 1][i - 1] = value
    return tuple(tuple(row) for row in rows)


def _updated(matrix, updates: Mapping[tuple[int, int], Expr]):
    rows = [list(row) for row in matrix]
    for (i, j), value in updates.items():
        rows[i - 1][j - 1] = value
        rows[j - 1][i - 1] = value
    return tuple(tuple(row) for row in rows)


@dataclass(frozen=True)
class PQPair:
    """Immutable symmetric matrix pair with the operation history that built it."""

    P: PMatrix
    Q: QMatrix
    provenance: tuple[str, ...] = ()
    has_gap: bool = False  # True once A1 has extracted the objective-gap term

    def p_entry(self, i: int, j: int) -> Expr:
        return self.P[i - 1][j - 1]

    def q_entry(self, i: int, j: int) -> Expr:
        return self.Q[i - 1][j - 1]

    def matrix_key(self) -> tuple[PMatrix, QMatrix]:
        """Hashable identity of the pair, ignoring provenance."""
        return (self.P, self.Q)

    def max_gamma_order(self) -> int:
        orders = [e.max_gamma_order() for row in self.P for e in row]
        orders += [e.max_gamma_order() for row in self.Q for e in row]
        return max(orders)

    def check_symmetry(self) -> bool:
        p_ok = all(self.P[i][j] == self.P[j][i] for i in range(3) for j in range(3))
        q_ok = all(self.Q[i][j] == self.Q[j][i] for i in range(5) for j in range(5))
        return p_ok and q_ok


def initial_pair(system) -> PQPair:
    """Build the starting pair for an ODE system.

    P starts at zero.  Q is the symmetrized outer product of the system's
    coefficient vector c with w = (gamma', 0, 1, 0, 0), the coefficient vector
    of the dilated velocity over (v1..v5): Q0 = (c w^T + w c^T) / 2.
    """
    c = system.coeffs
    w = (GAMMA1, ZERO, Expr.number(1), ZERO, ZERO)
    entries = {}
    for i in range(5):
        for j in range(i, 5):
            value = _HALF * (c[i] * w[j] + w[i] * c[j])
            if value:
                entries[(i + 1, j + 1)] = value
    return PQPair(P=_sym_matrix(3, {}), Q=_sym_matrix(5, entries))


def apply_operation(pair: PQPair, op: str) -> PQPair:
    """Apply one named operation, returning a new pair.

    A1 is only legal on a pair that does not yet carry the objective-gap term;
    every other operation requires A1 to have been applied.  Operations whose
    source entry is zero are the identity, so fixed sequences are always
    admissible.
    """
    if op not in OPERATIONS:
        raise OperationError(f"unknown operation {op!r}")
    if op == "A1":
        if pair.has_gap:
            raise OperationError("A1 applied twice")
    elif not pair.has_gap:
        raise OperationError(f"{op} applied before A1")

    P, Q = pair.P, pair.Q
    e = pair.q_entry

    if op == "A1":
        new_q = _updated(Q, {
            (2, 3): e(2, 3) - _HALF,
            (1, 2): e(1, 2) - _HALF * GAMMA1,
            (1, 1): e(1, 1) + _HALF * _LAMBDA * GAMMA1,
        })
        return PQPair(P, new_q, pair.provenance + (op,), has_gap=True)

    if op == "B1":
        s = e(3, 5)
        new_p = _updated(P, {(3, 3): pair.p_entry(3, 3) + s})
        new_q = _updated(Q, {(3, 3): e(3, 3) - g_shift(s), (3, 5): ZERO})
    elif op == "B2":
        s = e(1, 5)
        new_p = _updated(P, {(1, 3): pair.p_entry(1, 3) + s})
        new_q = _updated(Q, {
            (1, 3): e(1, 3) - g_shift(s),
            (3, 3): e(3, 3) - 2 * s,
            (1, 5): ZERO,
        })
    elif op == "B3":
        s = e(1, 3)
        new_p = _updated(P, {(1, 1): pair.p_entry(1, 1) + s})
        new_q = _updated(Q, {(1, 1): e(1, 1) - g_shift(s), (1, 3): ZERO})
    elif op == "C1":
        s = e(2, 4)
        new_p = _updated(P, {(2, 2): pair.p_entry(2, 2) + s})
        new_q = _updated(Q, {(2, 2): e(2, 2) - g_shift(s), (2, 4): ZERO})
    elif op == "D1":
        s = e(3, 4)
        new_p = _updated(P, {(2, 3): pair.p_entry(2, 3) + s})
        new_q = _updated(Q, {
            (2, 3): e(2, 3) - g_shift(s),
            (2, 5): e(2, 5) - s,
            (3, 4): ZERO,
        })
    elif op == "D2":
        s = e(2, 5)
        new_p = _updated(P, {(2, 3): pair.p_entry(2, 3) + s})
        new_q = _updated(Q, {
            (2, 3): e(2, 3) - g_shift(s),
            (3, 4): e(3, 4) - s,
            (2, 5): ZERO,
        })
    elif op == "D3":
        s = e(2, 3)
        new_p = _updated(P, {(1, 2): pair.p_entry(1, 2) + s})
        new_q = _updated(Q, {
            (1, 2): e(1, 2) - g_shift(s),
            (1, 4): e(1, 4) - s,
            (2, 3): ZERO,
        })
    elif op == "D4":
        s = e(1, 4)
        new_p = _updated(P, {(1, 2): pair.p_entry(1, 2) + s})
        new_q = _updated(Q, {
            (1, 2): e(1, 2) - g_shift(s),
            (2, 3): e(2, 3) - s,
            (1, 4): ZERO,
        })
    elif op == "E1":
        s = e(1, 4)
        new_p = _updated(P, {(1, 1): pair.p_entry(1, 1) + _LAMBDA * s})
        new_q = _updated(Q, {(1, 1): e(1, 1) - _LAMBDA * g_shift(s), (1, 4): ZERO})
    elif op == "F1":
        s = e(3, 4)
        new_p = P
        new_q = _updated(Q, {(3, 3): e(3, 3) + 2 * _THETA * s, (3, 4): ZERO})
    else:  # pragma: no cover
        raise OperationError(op)

    return PQPair(new_p, new_q, pair.provenance + (op,), has_gap=True)


def apply_sequence(pair: PQPair, ops: Iterable[str]) -> PQPair:
    """Left-to-right fold of apply_operation."""
    for op in ops:
        pair = apply_operation(pair, op)
    return pair


# -- numeric access -----------------------------------------------------------


def entry_fn(entry: Expr, gamma: GammaForm, params: Mapping[str, float]) -> Callable:
    """Compile an entry to a vectorizable function of (t, lam, theta).

    Gamma derivatives are substituted per the given form; every parameter
    except lambda and theta must be bound in params.
    """
    import numpy as np

    concrete = entry.subs_gamma(gamma)
    compiled = []
    for exp, mono, coeff in concrete.terms():
        e = float(exp[0])
        if exp[1]:
            e += float(exp[1]) * params["alpha"]
        base = float(coeff)
        lam_pow = theta_pow = 0
        for sym, power in mono:
            if sym == "lambda":
                lam_pow = power
            elif sym == "theta":
                theta_pow = power
            else:
                base *= params[sym] ** power
        compiled.append((base, e, lam_pow, theta_pow))

    def value(t, lam=0.0, theta=0.0):
        total = np.zeros_like(np.asarray(t, dtype=float))
        for base, e, lp, tp in compiled:
            term = base * np.asarray(t, dtype=float) ** e
            if lp:
                term = term * np.asarray(lam) ** lp
            if tp:
                term = term * np.asarray(theta) ** tp
            total = total + term
        return total

    return value


def lyapunov_scalar_forms(pair: PQPair, gamma: GammaForm, params: Mapping[str, float]):
    """Evaluators for the boundary form p and the integrand form q.

    Returns (p, q): p(t, v1, v2, v3, lam=..) and q(t, v1..v5, lam=.., theta=..)
    where each vi is a numeric vector.  Both include the exp(gamma) factor.
    """
    import numpy as np

    if not pair.has_gap:
        raise OperationError("pair lacks the objective-gap term; apply A1 first")

    p_fns = {(i, j): entry_fn(pair.p_entry(i, j), gamma, params)
             for i in range(1, 4) for j in range(i, 4) if pair.p_entry(i, j)}
    q_fns = {(i, j): entry_fn(pair.q_entry(i, j), gamma, params)
             for i in range(1, 6) for j in range(i, 6) if pair.q_entry(i, j)}

    def quad(fns, t, vs, lam, theta):
        total = 0.0
        for (i, j), fn in fns.items():
            weight = 1.0 if i == j else 2.0
            total += weight * fn(t, lam, theta) * float(np.dot(vs[i - 1], vs[j - 1]))
        return total

    def p_value(t, v1, v2, v3, lam=0.0):
        scale = float(np.exp(gamma.value(t, params)))
        return scale * quad(p_fns, t, (v1, v2, v3), lam, 0.0)

    def q_value(t, v1, v2, v3, v4, v5, lam=0.0, theta=0.0):
        scale = float(np.exp(gamma.value(t, params)))
        return scale * quad(q_fns, t, (v1, v2, v3, v4, v5), lam, theta)

    return p_value, q_value


def pair_to_json(pair: PQPair) -> dict:
    """JSON-ready view: arrays of expression strings plus the history."""
    return {
        "P": [[str(e) for e in row] for row in pair.P],
        "Q": [[str(e) for e in row] for row in pair.Q],
        "operations": list(pair.provenance),
    }
