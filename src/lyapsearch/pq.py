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
A1 is written out; the other ten are rows of one table, each naming its source
Q entry, the P entry it feeds and the Q entries it corrects.

One function, apply_to_cells, applies A1 and the table rows to a pair's 34
cells (P's entries, then Q's, row-major), as the int ids of an EntryPool,
which interns the entries it meets and runs each distinct entry update
through Expr arithmetic once.  An enumeration keeps one pool for all its
states; apply_sequence makes one per sequence.

The module is purely symbolic; numbers are read from the entries through the
numeric path of lyapsearch.expr.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .expr import Expr, GAMMA1, ONE, ZERO

OPERATIONS = ("A1", "B1", "B2", "B3", "C1", "D1", "D2", "D3", "D4", "E1", "F1")

_HALF = Fraction(1, 2)
_LAMBDA = Expr.symbol("lambda")
_THETA = Expr.symbol("theta")

PMatrix = tuple[tuple[Expr, ...], ...]
QMatrix = tuple[tuple[Expr, ...], ...]


class OperationError(Exception):
    """Raised on an inadmissible operation application."""


# Bounded so that a process searching many systems does not grow it without
# limit; the six catalog systems use 18 entries.
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


class _Rule(NamedTuple):
    """One integration-by-parts rewrite: the source Q entry s is zeroed, the P
    target gains p_weight * s, and each correction (entry, factor, shifted)
    subtracts factor * g_shift(s) (shifted) or factor * s from a Q entry."""

    source: tuple[int, int]
    p_target: tuple[int, int] | None
    p_weight: int | Expr
    corrections: tuple[tuple[tuple[int, int], int | Expr, bool], ...]


_RULES = {
    "B1": _Rule((3, 5), (3, 3), 1, (((3, 3), 1, True),)),
    "B2": _Rule((1, 5), (1, 3), 1, (((1, 3), 1, True), ((3, 3), 2, False))),
    "B3": _Rule((1, 3), (1, 1), 1, (((1, 1), 1, True),)),
    "C1": _Rule((2, 4), (2, 2), 1, (((2, 2), 1, True),)),
    "D1": _Rule((3, 4), (2, 3), 1, (((2, 3), 1, True), ((2, 5), 1, False))),
    "D2": _Rule((2, 5), (2, 3), 1, (((2, 3), 1, True), ((3, 4), 1, False))),
    "D3": _Rule((2, 3), (1, 2), 1, (((1, 2), 1, True), ((1, 4), 1, False))),
    "D4": _Rule((1, 4), (1, 2), 1, (((1, 2), 1, True), ((2, 3), 1, False))),
    "E1": _Rule((1, 4), (1, 1), _LAMBDA, (((1, 1), _LAMBDA, True),)),
    "F1": _Rule((3, 4), None, 1, (((3, 3), -2 * _THETA, False),)),
}

# A1's Q updates: (entry, factor, term), each entry += factor * term.
_A1_UPDATES = (((2, 3), -_HALF, ONE),
               ((1, 2), -_HALF, GAMMA1),
               ((1, 1), _HALF * _LAMBDA, GAMMA1))


def _p_cells(i: int, j: int) -> tuple[int, int]:
    return (i - 1) * 3 + j - 1, (j - 1) * 3 + i - 1


def _q_cells(i: int, j: int) -> tuple[int, int]:
    return 9 + (i - 1) * 5 + j - 1, 9 + (j - 1) * 5 + i - 1


def _scaled(factor: int | Expr, value: Expr) -> Expr:
    return value if factor == 1 else factor * value


def apply_to_cells(cells: tuple[int, ...], op: str, pool: EntryPool) -> tuple[int, ...]:
    """The cells of a pair after the legal operation op.

    cells holds the ids in pool of the pair's 34 entries, in the order P,
    then Q, each row-major.  Each changed entry is computed once from the
    old cells and written to both of its symmetric places.  A rule whose
    source entry is zero leaves the cells as they are.
    """
    new = list(cells)
    if op == "A1":
        for entry, factor, term in _A1_UPDATES:
            value = pool.add(cells[_q_cells(*entry)[0]], factor, pool.of(term))
            for cell in _q_cells(*entry):
                new[cell] = value
        return tuple(new)
    rule = _RULES[op]
    s = cells[_q_cells(*rule.source)[0]]
    if not s:
        return cells
    if rule.p_target is not None:
        cell_pair = _p_cells(*rule.p_target)
        value = pool.add(cells[cell_pair[0]], rule.p_weight, s)
        for cell in cell_pair:
            new[cell] = value
    for entry, factor, shifted in rule.corrections:
        cell_pair = _q_cells(*entry)
        value = pool.sub(cells[cell_pair[0]], factor, s, shifted)
        for cell in cell_pair:
            new[cell] = value
    for cell in _q_cells(*rule.source):
        new[cell] = 0
    return tuple(new)


def _pair_cells(pair: PQPair) -> tuple[Expr, ...]:
    """The pair's entries in the order of apply_to_cells."""
    return tuple(e for matrix in (pair.P, pair.Q) for row in matrix for e in row)


def _matrices(cells: tuple[Expr, ...]) -> tuple[PMatrix, QMatrix]:
    return (tuple(cells[i:i + 3] for i in range(0, 9, 3)),
            tuple(cells[i:i + 5] for i in range(9, len(cells), 5)))


class EntryPool:
    """Distinct entries, interned as ints; 0 is ZERO.

    As the entry arithmetic of apply_to_cells, it works on ids, and runs
    each distinct update (old + factor * s, or old - factor * s or
    old - factor * g_shift(s)) through Exprs once, remembering its result.
    """

    def __init__(self):
        self.entries: list[Expr] = [ZERO]
        self._ids = {ZERO: 0}
        self._updates: dict[tuple, int] = {}

    def of(self, entry: Expr) -> int:
        """The id of entry, interned on first sight."""
        eid = self._ids.get(entry)
        if eid is None:
            eid = self._ids[entry] = len(self.entries)
            self.entries.append(entry)
        return eid

    def add(self, old: int, factor, s: int) -> int:
        key = (old, factor, s)
        new = self._updates.get(key)
        if new is None:
            new = self._updates[key] = self.of(
                self.entries[old] + _scaled(factor, self.entries[s]))
        return new

    def sub(self, old: int, factor, s: int, shifted: bool) -> int:
        key = (old, factor, s, shifted)
        new = self._updates.get(key)
        if new is None:
            value = self.entries[s]
            new = self._updates[key] = self.of(
                self.entries[old] - _scaled(factor, g_shift(value) if shifted else value))
        return new

    def cells(self, pair: PQPair) -> tuple[int, ...]:
        """The ids of the pair's entries, in the order of apply_to_cells."""
        return tuple(map(self.of, _pair_cells(pair)))

    def pair(self, cells: tuple[int, ...], provenance: tuple[str, ...]) -> PQPair:
        """The pair, past A1, whose entry ids are cells."""
        return PQPair(*_matrices(tuple(map(self.entries.__getitem__, cells))), provenance, True)


def apply_operation(pair: PQPair, op: str) -> PQPair:
    """Apply one named operation, returning a new pair."""
    return apply_sequence(pair, (op,))


def apply_sequence(pair: PQPair, ops: Iterable[str]) -> PQPair:
    """Apply the named operations left to right, returning a new pair.

    A1 is only legal on a pair that does not yet carry the objective-gap
    term; every other operation requires A1 to have been applied.
    Operations whose source entry is zero are the identity, so fixed
    sequences are always admissible.  Every operation is checked before
    any runs; then the pair's cells go through one EntryPool.
    """
    ops = tuple(ops)
    has_gap = pair.has_gap
    for op in ops:
        if op not in OPERATIONS:
            raise OperationError(f"unknown operation {op!r}")
        if op == "A1":
            if has_gap:
                raise OperationError("A1 applied twice")
        elif not has_gap:
            raise OperationError(f"{op} applied before A1")
        has_gap = True
    pool = EntryPool()
    cells = pool.cells(pair)
    for op in ops:
        cells = apply_to_cells(cells, op, pool)
    P, Q = _matrices(tuple(map(pool.entries.__getitem__, cells)))
    return PQPair(P, Q, pair.provenance + ops, has_gap)
