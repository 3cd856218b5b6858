"""Rate certification: PSD conditions per pair and maximization of the rate k.

For a pair under a concrete gamma form, positive semidefiniteness of P and Q
for the relevant time range and for every value of the convexity parameters
certifies the rate.  Because lambda and theta enter diagonal entries affinely,
it is enough to check the corner values of their interval, and PSD itself is
checked through all principal minors of the nonzero-support submatrices.

Feasibility of a given k is decided numerically: every minor must be
nonnegative on a log-spaced t grid of the query domain, and at each end of
the domain past the grid, the coefficient of its dominant power of t must be
nonnegative.  Eventually and AllPositive check the leading coefficient, of
the largest power, as t grows; AllPositive also checks the trailing one, of
the lowest power, as t -> 0; a Window checks only its grid.  These checks
allow a floor of 1e-12 times the summed magnitudes of the terms involved,
taken before they merge, so a minor that vanishes identically in exact
arithmetic is not failed by the rounding of its float coefficients.  A block
of pairs is compiled once per batch of parameter points into tables of the
coefficient of k^p * t^e per minor, with one row per pair and point; at each
k these settle every minor whose coefficients all clear the floor, and only
the rest are evaluated on the grid.  One compile gathers the pairs' terms by
minor index from their MinorTable's flat arrays, finds each term's slot in
the tables, then binds every point of the batch, which must share one
alpha, with array multiplies and one summation per table.  The rows share
one shape, each pair's tables padded with zeros to the block's most minors,
powers of k and exponents of t; a zero minor is never below the floor, so
the padding changes no flag.

The largest feasible k is searched in stages, each checked for every live
row of a block in one pass over arrays: k = 0; the doubling 1, 2, 4, ...,
K_CAP; a coarse pre-scan up to each row's first infeasible doubling k,
which guards against non-monotone feasibility; and bisection, which checks
one midpoint per pass for every row still bisecting, each row to its own
interval and tolerance.  A batch holds every grid point of one alpha of the
queries that share a pair's condition set and t domain, which in the
catalog are the sc-nag and second-order-hessian rows, and a block as many
groups of a run as keep those points within BLOCK_POINTS.  A pass splits
its rows so that no product it builds exceeds SUSPECT_BUDGET elements.
Each pass holds, for each row, the same ks as a one-point, one-k-at-a-time
search of that pair would check, and more, and the search reads the same
flags off it, so k_max and the status are the same.  _compiled_blocks
makes the blocks and their compiles for both drivers: _analyze_run, the one
driver of the search, of which max_rate is a run of one pair, and
certified_time, which makes one violations pass per compiled block at its k.
Every k the search reports was flagged feasible on the whole grid, so a
result's validity range is the grid's ends, unbounded above unless the
domain is a Window.

The exact work is shared across pairs through a MinorTable, made for one
gamma form, the corners of the queries it serves and one list of raw
entries, an enumeration's EntryPool entries, whose ids the pairs' cells
are: gamma is substituted once per entry when the table is made, each
distinct principal submatrix's determinant is built once, from
sub-determinants also built once, each distinct determinant is bound once
per corner, and each distinct bound minor gets its float terms once.  A run
over groups threads one table through them and drops it at the end:
analyze_groups, which takes the groups of one enumeration, and
verify_catalog for the rows that share a system and a gamma form; only one
block's condition sets are held at a time.  With a pool, each worker gets
one contiguous run of groups and makes its own table for it; its task
carries only the entry list and the groups' cells.  psd_conditions and
max_rate intern their one pair into an EntryPool of its own.  Queries with
the same corners share a pair's whole condition set.  A run makes one t
grid per t domain of its batches, and each compile takes the powers of that
grid for its own exponents of t.

That exact work is integer arithmetic.  The table keeps each substituted
entry also as integers over one common denominator s, the lcm of the
denominators of all its entries' coefficients, so the cofactor expansion of
an n x n block adds and multiplies plain ints and yields s^n times its
determinant.  Each corner binds lambda = Lam / D and theta = Theta / D in
integers too: a term with lambda^a * theta^b gets the factor
Lam^a * Theta^b * D^(n - a - b), a whole number because lambda and theta
enter only diagonal entries, and affinely, so no product of n entries holds
more than n of them.  A bound minor, over (D * s)^n and reduced by the gcd of
that denominator and its numerators, has one form, on which it is interned.
A new minor's float terms come from that form, numerator / den per term,
which rounds as float(Fraction) does; an Expr of it is made only when
MinorTable.minor_expr asks for one.
"""

from __future__ import annotations

import functools
import itertools
import math
import multiprocessing
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .expr import (Exponent, Expr, GammaForm, LINEAR, LOG, Monomial, POWER, ZERO,
                   UnboundSymbolError, _exp_part, _mono_mul)
from .pq import EntryPool, PQPair
from .sequences import PairGroup, enumerate_pairs
from .systems import CATALOG

LAMBDA_CAP = float(2 ** 20)  # stands in for an unbounded upper corner
GRID_POINTS_PER_DECADE = 200
T_GRID_LO = 1e-2
T_GRID_HI = 1e6
REL_FLOOR = 1e-12
K_CAP = float(2 ** 16)
GRID_BLOCK = 8  # suspect (k, minor) pairs per step of the t-grid check; bounds its temporaries
SUSPECT_BUDGET = 2 ** 15  # elements of c, and of a, that one pass of the suspect search builds
BLOCK_POINTS = 32  # grid points of a block of groups, compiled and searched together


class AnalysisError(Exception):
    pass


class DiagonalParameterError(AnalysisError):
    """lambda or theta found off the diagonal or not affine on it, breaking the
    corner reduction."""


class InfeasiblePairError(AnalysisError):
    """The pair is not PSD even at k = 0."""


# -- time domains -------------------------------------------------------------


@dataclass(frozen=True)
class AllPositive:
    """t > 0, checked on the grid from T_GRID_LO to T_GRID_HI and by leading and
    trailing coefficients."""


@dataclass(frozen=True)
class Eventually:
    """t >= t_search, checked on the grid up to T_GRID_HI and by leading coefficients."""

    t_search: float = 1e4

    def __post_init__(self):
        if not 0 < self.t_search < T_GRID_HI:
            raise ValueError(f"t_search must lie in (0, {T_GRID_HI:g}), got {self.t_search!r}")


@dataclass(frozen=True)
class Window:
    t_lo: float = T_GRID_LO
    t_hi: float = T_GRID_HI

    def __post_init__(self):
        if not 0 < self.t_lo < math.inf:
            raise ValueError(f"window bound t_lo must be finite and > 0, got {self.t_lo!r}")
        if not self.t_lo < self.t_hi < math.inf:
            raise ValueError(
                f"window bound t_hi must be finite and > t_lo={self.t_lo!r}, got {self.t_hi!r}")


TDomain = AllPositive | Eventually | Window


def _grid_ends(domain: TDomain) -> tuple[float, float]:
    """The first and the last t of the time_grid of domain."""
    if isinstance(domain, AllPositive):
        return T_GRID_LO, T_GRID_HI
    if isinstance(domain, Eventually):
        return float(domain.t_search), T_GRID_HI
    return float(domain.t_lo), float(domain.t_hi)


def time_grid(domain: TDomain) -> np.ndarray:
    lo, hi = _grid_ends(domain)
    n = max(int(math.ceil(GRID_POINTS_PER_DECADE * math.log10(hi / lo))) + 1, 2)
    return np.geomspace(lo, hi, n)


def grid_step_factor() -> float:
    return 10.0 ** (1.0 / GRID_POINTS_PER_DECADE)


# -- queries -------------------------------------------------------------------


@dataclass
class RateQuery:
    """What to certify: gamma form, function class, parameter values, t range.

    Every parameter value comes through grid, one axis of values per name; a
    fixed value is an axis of one value.
    """

    gamma: GammaForm
    mu: float = 1.0
    L: float | None = None
    convex: bool = False  # convex-only mode: lambda, theta >= 0 with no given upper bound
    grid: dict[str, Sequence[float]] = field(default_factory=dict)
    t_domain: TDomain = field(default_factory=AllPositive)

    def __post_init__(self):
        for name, values in self.grid.items():
            if not len(values):
                raise ValueError(f"parameter {name} needs at least one value, got none")
        named = [("mu", self.mu)] + ([("L", self.L)] if self.L is not None else [])
        named += [(f"parameter {n}", v) for n, values in self.grid.items() for v in values]
        for name, value in named:
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not (self.convex or self.mu > 0):
            raise ValueError(f"a rate query needs mu > 0 unless convex, got mu={self.mu!r}")
        lo, hi = self._interval()
        if not lo <= hi:
            raise ValueError(f"a rate query needs a nonempty curvature interval, got "
                             f"[{lo!r}, {hi!r}] from mu={self.mu!r}, L={self.L!r}")

    def _interval(self) -> tuple[float, float]:
        """The range of lambda and theta: from 0 (convex) or mu, to L or LAMBDA_CAP."""
        return (0.0 if self.convex else self.mu), (self.L if self.L is not None else LAMBDA_CAP)

    def corners(self) -> tuple[tuple[float, float], ...]:
        values = sorted(set(self._interval()))
        return tuple(itertools.product(values, values))

    def grid_points(self) -> list[dict[str, float]]:
        names = sorted(self.grid)
        return [dict(zip(names, combo))
                for combo in itertools.product(*(self.grid[n] for n in names))]

    def point(self) -> dict[str, float]:
        """The query's one grid point; a query of several points has none."""
        points = self.grid_points()
        if len(points) != 1:
            raise AnalysisError(f"the query needs a single parameter point, got {len(points)} "
                                f"from the grid {self.grid!r}")
        return points[0]


# -- PSD conditions --------------------------------------------------------------


@dataclass
class PsdConditionSet:
    """The nonzero minors of every corner, deduplicated, as indices into the
    MinorTable that built them; table.minor_expr(i) is minor i as an Expr."""

    corners: tuple[tuple[float, float], ...]
    minors: tuple[int, ...]
    table: MinorTable = field(repr=False, compare=False)


_CURVATURE = frozenset({"lambda", "theta"})
_AFFINE_PARTS = ((), (("lambda", 1),), (("theta", 1),))


@functools.lru_cache(maxsize=None)
def _cofactor_keys(n: int) -> tuple[operator.itemgetter, ...]:
    """Per column j, the getter of the entry ids of the minor of (0, j) of an n x n key."""
    return tuple(operator.itemgetter(*(r * n + c for r in range(1, n) for c in range(n) if c != j))
                 for j in range(n))


def _det(key: tuple[int, ...], entries: Sequence[dict[int, int]],
         memo: dict[tuple[int, ...], dict[int, int]], products: _Terms) -> dict[int, int]:
    """s^n times the determinant of the n x n block whose entry ids, row-major, are key.

    Entries and determinants are polynomials {term id: int}, each entry
    scaled by the table's common denominator s.  Cofactor expansion along the
    first row; entries[0] is zero and is skipped.  Each sub-block is keyed by
    its own entry ids, so a sub-block shared by several blocks is expanded
    once per memo.
    """
    n = math.isqrt(len(key))
    if n == 1:
        return entries[key[0]]
    det = memo.get(key)
    if det is None:
        acc: dict[int, int] = {}
        for j, minor_of in enumerate(_cofactor_keys(n)):
            if not key[j]:
                continue
            sub_key = minor_of(key)
            if n == 2:
                sub = entries[sub_key]  # a single entry id
            else:
                sub = memo.get(sub_key)
                if sub is None:
                    sub = _det(sub_key, entries, memo, products)
            for ta, ca in entries[key[j]].items():
                if j % 2:
                    ca = -ca
                for tb, cb in sub.items():
                    t = products[ta, tb]
                    acc[t] = acc.get(t, 0) + ca * cb
        det = memo[key] = {t: c for t, c in acc.items() if c}
    return det


class _Terms(dict):
    """The (exponent, monomial) keys of a MinorTable's polynomials, as int ids.

    As a dict it maps a pair of term ids to the id of their product, made on
    first use.  parts[id] holds the powers (a, b) of lambda and theta in the
    term's monomial and the id of the term without them.
    """

    def __init__(self):
        super().__init__()
        self.terms: list[tuple[Exponent, Monomial]] = []
        self.ids: dict[tuple[Exponent, Monomial], int] = {}
        self.parts: list[tuple[tuple[int, int], int]] = []

    def id(self, term: tuple[Exponent, Monomial]) -> int:
        tid = self.ids.get(term)
        if tid is None:
            exp, mono = term
            kept = tuple(item for item in mono if item[0] not in _CURVATURE)
            rest = self.id((exp, kept)) if len(kept) < len(mono) else None
            tid = self.ids[term] = len(self.terms)
            self.terms.append(term)
            powers = dict(mono)
            self.parts.append(((powers.get("lambda", 0), powers.get("theta", 0)),
                               tid if rest is None else rest))
        return tid

    def __missing__(self, pair: tuple[int, int]) -> int:
        (ea, ma), (eb, mb) = self.terms[pair[0]], self.terms[pair[1]]
        tid = self[pair] = self.id(
            ((_exp_part(ea[0] + eb[0]), _exp_part(ea[1] + eb[1])), _mono_mul(ma, mb)))
        return tid


def _curvature_part(entry: Expr) -> tuple | None:
    """None for an entry free of lambda and theta; else () when it is affine in
    them, or the (symbol, power) part in them of its first term that is not."""
    if not _CURVATURE & entry.free_symbols():
        return None
    for _exp, mono, _coeff in entry.terms():
        part = tuple((sym, power) for sym, power in mono if sym in _CURVATURE)
        if part not in _AFFINE_PARTS:
            return part
    return ()


def _check_diagonal_parameters(matrices: Sequence[Sequence[tuple[int, tuple | None]]]) -> None:
    """lambda and theta may enter only diagonal entries, and only affinely.

    matrices holds P's and Q's (entry id, _curvature_part) row-major.
    """
    for cells in matrices:
        dim = math.isqrt(len(cells))
        for cell, (_eid, part) in enumerate(cells):
            if part is None:
                continue
            i, j = divmod(cell, dim)
            if i != j:
                raise DiagonalParameterError(
                    f"lambda/theta in off-diagonal entry ({i + 1},{j + 1})")
            if part:
                raise DiagonalParameterError(
                    f"diagonal entry ({i + 1},{i + 1}) is not affine in lambda and "
                    f"theta: it has a term in {'*'.join(f'{s}^{p}' for s, p in part)}")


class MinorTable:
    """The exact minor work of many pairs under one gamma form and set of corners.

    Pairs of one system share most of their entries, and so most of their
    principal submatrices and minors.  The table is made over one list of
    raw entries, whose ids the cells given to conditions are; it holds each
    entry's gamma substitution, interned, and a list from raw id to
    substituted id; for each distinct principal submatrix, keyed by its
    interned entries, the index of its minor bound at each corner, or None
    where that minor vanishes; and each distinct bound minor once, as its
    float terms.  So gamma is substituted once per
    distinct entry, a determinant is built once per distinct nonzero
    submatrix, each distinct determinant is bound once per corner, and a
    minor's terms are made once.  The determinants come from a cofactor
    expansion memoised on the entry ids of every sub-block it meets,
    principal or not, so a sub-determinant shared by several subsets or
    pairs is built once; that memo lives and dies with the table.  Binding
    commutes with the determinant, and a row that vanishes at a corner only
    adds minors that vanish there, so the bound minors are the nonzero minors
    of the corner-substituted matrices.

    The exact work runs on integers.  Each substituted entry is kept a second
    time as {term id: int}, times the common denominator s of every entry
    coefficient, fixed when the table is made.  The expansion of an n x n
    block then gives s^n times its determinant.  A corner binds lambda =
    Lam / D and theta = Theta / D, over one denominator D, by multiplying a
    term's coefficient by Lam^a * Theta^b * D^(n - a - b): lambda and theta
    enter only diagonal entries, and affinely, so a product of n entries
    carries a + b <= n of them, and the bound minor is the result over
    (D * s)^n.  Divided by the gcd of that denominator and its
    numerators, a minor has one form, on which minors are interned.

    A new minor's terms go, in Expr.terms() order, into flat lists that every
    minor shares: coefficient numerator / den, as float_terms(minor, ("k",))
    rounds it, p, q, power of k and the id of the monomial left without k;
    minor i holds the terms from _starts[i], _counts[i] of them.  An Expr of
    a minor is made only when minor_expr asks for it.

    A table lives for one run over a list of pairs; the corners of every
    query it serves, and the entries, are fixed when it is made.
    """

    def __init__(self, gamma: GammaForm, corner_sets: Iterable[Iterable[tuple[float, float]]],
                 entries: Sequence[Expr]):
        self.gamma = gamma
        corners = dict.fromkeys(c for cs in corner_sets for c in cs)
        self._corner_index = {c: i for i, c in enumerate(corners)}
        self._corners = [_over_common_denominator(lam, theta) for lam, theta in corners]
        self._entries: list[Expr] = [ZERO]     # substituted entries by id
        self._entry_index: dict[Expr, int] = {ZERO: 0}
        # by raw entry id: (id of its substitution, its _curvature_part)
        self._ids = [self._entry_id(entry) for entry in entries]
        # s, the common denominator of the entries, and s times each of them
        self._scale = math.lcm(*(coeff.denominator for entry in self._entries
                                 for _exp, _mono, coeff in entry.terms()))
        self._terms = _Terms()
        self._scaled: list[dict[int, int]] = [
            {self._terms.id((exp, mono)): coeff.numerator * (self._scale // coeff.denominator)
             for exp, mono, coeff in entry.terms()} for entry in self._entries]
        self._submatrices: dict[tuple[int, ...], tuple[int | None, ...]] = {}
        self._dets: dict[tuple[int, ...], dict[int, int]] = {}  # sub-block entry ids -> s^n det
        self._bound: dict[tuple, tuple[int | None, ...]] = {}  # (n, s^n det) -> _bound_minors
        self._weights: dict[int, list[dict[tuple[int, int], int]]] = {}  # n -> per corner
        self._minor_ids: dict[tuple[int, frozenset], int] = {}  # reduced form -> index
        self._forms: list[tuple[int, frozenset]] = []  # (den, numerators) by index
        self._starts: list[int] = []
        self._counts: list[int] = []
        # The terms of every minor: coefficient, p, q, power of k, monomial id.
        self._columns: tuple[list, ...] = ([], [], [], [], [])
        self._arrays: tuple[np.ndarray, ...] = ()  # _columns, _starts, _counts as arrays
        self._term_rows: list[tuple[float, float, int, int]] = []  # by term id: p, q, k, mono
        self._monos: dict[Monomial, int] = {}
        self._mono_factors: list[tuple[int, ...]] = []  # by monomial id: its factors' ids
        self._factors: dict[tuple[str, int], int] = {}  # (symbol, power) -> id

    def _entry_id(self, entry: Expr) -> tuple[int, tuple | None]:
        """The id of entry's substitution, and entry's _curvature_part."""
        substituted = self.gamma.substitute(entry)
        eid = self._entry_index.get(substituted)
        if eid is None:
            eid = self._entry_index[substituted] = len(self._entries)
            self._entries.append(substituted)
        return eid, _curvature_part(entry)

    def _bound_minors(self, key: tuple[int, ...]) -> tuple[int | None, ...]:
        """Per corner, the index of the bound minor of the submatrix key, or None."""
        indices = self._submatrices.get(key)
        if indices is None:
            n = math.isqrt(len(key))
            det = _det(key, self._scaled, self._dets, self._terms)
            det_key = (n, frozenset(det.items()))
            indices = self._bound.get(det_key)
            if indices is None:
                weights = self._weights.get(n)
                if weights is None:
                    weights = self._weights[n] = [_corner_weights(corner, n)
                                                  for corner in self._corners]
                indices = self._bound[det_key] = tuple(
                    self._minor_index(det, (d * self._scale) ** n, w)
                    for (_lam, _theta, d), w in zip(self._corners, weights))
            self._submatrices[key] = indices
        return indices

    def _minor_index(self, det: dict[int, int], den: int,
                     weights: dict[tuple[int, int], int]) -> int | None:
        """The index of the minor of s^n det bound at a corner, or None where it vanishes.

        weights holds the corner's _corner_weights, and den is (D * s)^n.
        """
        parts = self._terms.parts
        bound: dict[int, int] = {}
        for t, c in det.items():
            powers, rest = parts[t]
            bound[rest] = bound.get(rest, 0) + c * weights[powers]
        numerators = [(t, c) for t, c in bound.items() if c]
        if not numerators:
            return None
        g = math.gcd(den, *(c for _t, c in numerators))
        form = (den // g, frozenset((t, c // g) for t, c in numerators))
        index = self._minor_ids.get(form)
        if index is None:
            index = self._minor_ids[form] = self._add_minor(form)
        return index

    def _add_minor(self, form: tuple[int, frozenset]) -> int:
        """Append the terms of the minor of form (den, numerators), whose
        coefficient of each term id is its numerator / den, and return its index."""
        den, numerators = form
        terms = self._terms.terms
        rows = self._term_rows
        for t in range(len(rows), len(terms)):
            rows.append(self._term_row(*terms[t]))
        coefs, ps, qs, kpows, monos = self._columns
        ordered = sorted(numerators, key=lambda item: terms[item[0]])
        if any(rows[t][2] < 0 for t, _c in ordered):
            raise AnalysisError("a minor has a negative power of k")
        self._starts.append(len(coefs))
        self._counts.append(len(ordered))
        self._forms.append(form)
        for t, c in ordered:
            p, q, kpow, mono = rows[t]
            coefs.append(c / den)  # correctly rounded, as float(Fraction(c, den)) is
            ps.append(p)
            qs.append(q)
            kpows.append(kpow)
            monos.append(mono)
        return len(self._forms) - 1

    def _term_row(self, exp: Exponent, mono: Monomial) -> tuple[float, float, int, int]:
        """p and q as floats, the power of k and the id of the monomial without k."""
        kept = tuple(item for item in mono if item[0] != "k")
        mono_id = self._monos.get(kept)
        if mono_id is None:
            mono_id = self._monos[kept] = len(self._mono_factors)
            self._mono_factors.append(tuple(self._factors.setdefault(item, len(self._factors))
                                            for item in kept))
        return float(exp[0]), float(exp[1]), dict(mono).get("k", 0), mono_id

    def _expr(self, numerators: Iterable[tuple[int, int]], den: int) -> Expr:
        """The Expr whose coefficient of each term id is its numerator / den."""
        terms = self._terms.terms
        return Expr({terms[t]: Fraction(c, den) for t, c in numerators})

    def minor_expr(self, index: int) -> Expr:
        """Minor index as an Expr."""
        den, numerators = self._forms[index]
        return self._expr(numerators, den)

    def _term_arrays(self) -> tuple[np.ndarray, ...]:
        """The terms of every minor so far as arrays: coefficient, p, q, power
        of k and monomial id; then each minor's first term and count; then,
        per monomial id, its factors' ids, padded with -1 to the longest."""
        if self._arrays and len(self._arrays[5]) == len(self._counts):
            return self._arrays
        columns = self._columns + (self._starts, self._counts)
        dtypes = (float, float, float, np.intp, np.intp, np.intp, np.intp)
        old = self._arrays[:7] or tuple(np.empty(0, dtype=dtype) for dtype in dtypes)
        arrays = [np.concatenate([a, np.array(c[len(a):], dtype=dtype)])
                  for a, c, dtype in zip(old, columns, dtypes)]
        factors = self._arrays[7] if self._arrays else np.empty((0, 0), dtype=np.intp)
        if len(factors) < len(self._mono_factors):
            width = max(map(len, self._mono_factors))
            factors = np.full((len(self._mono_factors), width), -1, dtype=np.intp)
            for mono, row in enumerate(self._mono_factors):
                factors[mono, :len(row)] = row
        self._arrays = (*arrays, factors)
        return self._arrays

    def _first_unbound(self, terms: np.ndarray, bindings: Mapping[str, float]) -> str | None:
        """The symbol that bind_terms would name as unbound over the terms,
        indices into _term_arrays, at bindings; None when all are bound."""
        _coefs, _ps, qs, _kpows, monos = self._columns
        names = [sym for sym, _power in self._factors]
        for t in terms.tolist():
            if qs[t] and "alpha" not in bindings:
                return "alpha"
            for f in self._mono_factors[monos[t]]:
                if names[f] not in bindings:
                    return names[f]
        return None

    def conditions(self, cells: Sequence[int],
                   corner_sets: Sequence[tuple[tuple[float, float], ...]]
                   ) -> list[PsdConditionSet]:
        """psd_conditions, for each of the corner sets, of the pair past A1
        whose entries are the raw entries numbered cells.

        The minors come corner-major, then in subset order, P before Q, and
        deduplicated by equality; equal corner sets share one condition set.
        """
        ids = list(map(self._ids.__getitem__, cells))
        matrices = [ids[:9], ids[9:]]  # row-major
        _check_diagonal_parameters(matrices)
        subset_minors = []
        for cells, dim in zip(matrices, (3, 5)):
            ids = [eid for eid, _part in cells]
            support = tuple(i for i in range(dim) if any(ids[i * dim:(i + 1) * dim]))
            for cells in _principal_cells(dim, support):
                key = tuple(map(ids.__getitem__, cells))
                if any(key):
                    subset_minors.append(self._bound_minors(key))
        by_corners: dict[tuple[tuple[float, float], ...], PsdConditionSet] = {}
        for corners in corner_sets:
            if corners not in by_corners:
                positions = [self._corner_index[c] for c in corners]
                union = dict.fromkeys(
                    index for pos in positions for indices in subset_minors
                    if (index := indices[pos]) is not None)
                by_corners[corners] = PsdConditionSet(corners, tuple(union), self)
        return [by_corners[corners] for corners in corner_sets]


@functools.lru_cache(maxsize=None)
def _principal_cells(dim: int, support: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The row-major cells of a dim x dim matrix in each principal submatrix over
    the rows in support, in subset order."""
    return tuple(tuple(i * dim + j for i in subset for j in subset)
                 for size in range(1, len(support) + 1)
                 for subset in itertools.combinations(support, size))


def _corner_weights(corner: tuple[int, int, int], n: int) -> dict[tuple[int, int], int]:
    """Lam^a * Theta^b * D^(n - a - b) for each (a, b) with a + b <= n, at (Lam, Theta, D)."""
    lam, theta, d = corner
    return {(a, b): lam ** a * theta ** b * d ** (n - a - b)
            for a in range(n + 1) for b in range(n + 1 - a)}


def _over_common_denominator(lam: float, theta: float) -> tuple[int, int, int]:
    """(Lam, Theta, D) with lambda = Lam / D and theta = Theta / D exactly."""
    lam, theta = Fraction(lam), Fraction(theta)
    d = math.lcm(lam.denominator, theta.denominator)
    return lam.numerator * (d // lam.denominator), theta.numerator * (d // theta.denominator), d


# -- numeric feasibility ----------------------------------------------------------


class CompiledConditions:
    """The minors of a block of condition sets at a batch of parameter points,
    with everything bound except k, evaluable over a fixed t grid.

    A row is one condition set at one point.  coef[i, p, m * n_exps + e] is
    the coefficient of k^p * t^e in minor m of row i, and size the sum of the
    magnitudes of the terms merged into it; e runs over the exponents of t at
    the points' alpha, in descending order.  For each k of a row, c = sum_p
    k^p coef holds each minor's coefficient per exponent and a = sum_p |k|^p
    size its scale.  A minor with every c >= -REL_FLOOR * a is nonnegative
    for every t > 0 up to the floor, so only the other (row, k, minor)
    triples, the suspects, are checked further.  A minor, power of k or
    exponent that a row lacks is all zeros there, and a zero minor is never
    a suspect.  One set at one point is the block of one.  feasible and
    violations split their rows, and their grid checks, the same way.
    """

    __slots__ = ("coef", "size", "kexps", "tpowers", "shape")

    def __init__(self, coef: np.ndarray, size: np.ndarray, tpowers: np.ndarray):
        n_points, n_kpows, n_minors, n_exps = coef.shape
        self.coef = coef.reshape(n_points, n_kpows, -1)
        self.size = size.reshape(n_points, n_kpows, -1)
        self.kexps = np.arange(n_kpows, dtype=float)
        self.tpowers = tpowers
        self.shape = (n_minors, n_exps)

    def _suspect_pairs(self, ks: np.ndarray, rows: slice | Sequence[int]):
        """For each (row of rows, k, minor) with a coefficient below the floor:
        the flat index of its k in ks, its c and a, and which of its c are
        below the floor."""
        coef, size = self.coef[rows], self.size[rows]
        kp = np.power(ks[..., None], self.kexps)
        shape = (ks.size,) + self.shape
        c = (kp @ coef).reshape(shape)
        a = (np.abs(kp) @ size).reshape(shape)
        neg = c < -REL_FLOOR * a
        ki, mi = np.nonzero(neg.any(axis=2))
        return ki, c[ki, mi], a[ki, mi], neg[ki, mi]

    def _grid_blocks(self, c: np.ndarray, a: np.ndarray, pending: np.ndarray, keep=None):
        """The suspects pending, GRID_BLOCK at a time, so that temporaries
        stay at GRID_BLOCK rows of the grid: each block, and per suspect the
        grid points where its minor is below the floor.  keep, when given,
        filters the rest of pending after each block."""
        while len(pending):
            block, pending = pending[:GRID_BLOCK], pending[GRID_BLOCK:]
            yield block, c[block] @ self.tpowers < -REL_FLOOR * (a[block] @ self.tpowers)
            if keep is not None:
                pending = pending[keep(pending)]

    def _in_passes(self, one_pass, ks: np.ndarray, rows: Sequence[int] | None,
                   out: np.ndarray) -> np.ndarray:
        """out, filled by one_pass(ks, rows) over as many rows of the 2-D ks at
        a time as keep c within SUSPECT_BUDGET elements, and at least one; row
        i of ks belongs to the i-th of rows, some row indices (all of them
        when None)."""
        step = max(1, SUSPECT_BUDGET // max(1, ks.shape[1] * self.coef.shape[2]))
        for start in range(0, len(ks), step):
            stop = start + step
            out[start:stop] = one_pass(
                ks[start:stop], slice(start, stop) if rows is None else rows[start:stop])
        return out

    def violations(self, ks: np.ndarray, rows: Sequence[int] | None = None) -> np.ndarray:
        """Per row of rows (all of them when None), the boolean mask over the
        grid where some minor goes negative at that row's k in ks."""
        masks = np.empty((len(ks), self.tpowers.shape[1]), dtype=bool)
        return self._in_passes(self._violation_rows, np.asarray(ks, dtype=float)[:, None],
                               rows, masks)

    def _violation_rows(self, ks: np.ndarray, rows: slice | Sequence[int]) -> np.ndarray:
        """violations for the row indices rows, one k each in ks, in one pass."""
        ki, c, a, _neg = self._suspect_pairs(ks, rows)
        masks = np.zeros((len(ks), self.tpowers.shape[1]), dtype=bool)
        for block, bad in self._grid_blocks(c, a, np.arange(len(ki))):
            np.logical_or.at(masks, ki[block], bad)
        return masks

    def feasible(self, ks: np.ndarray, domain: TDomain,
                 rows: Sequence[int] | None = None) -> np.ndarray:
        """One flag per k: every minor is nonnegative on the grid, the
        time_grid of domain, and, unless domain is a Window, leads with a
        nonnegative coefficient as t grows; on AllPositive, its lowest power
        of t, which dominates as t -> 0, has a nonnegative coefficient too.

        Row i of the 2-D ks holds ks of the i-th of rows, some row indices
        (all of them when None).  A nan k is padding: no minor is a suspect
        at it, so it costs no check, and its flag means nothing.  The rows go
        in passes, as _in_passes splits them.
        """
        return self._in_passes(lambda ks, rows: self._feasible_rows(ks, domain, rows),
                               ks, rows, np.empty(ks.shape, dtype=bool))

    def _feasible_rows(self, ks: np.ndarray, domain: TDomain,
                       rows: slice | Sequence[int]) -> np.ndarray:
        """feasible for the row indices rows, in one pass."""
        ki, c, a, neg = self._suspect_pairs(ks, rows)
        ok = np.ones(ks.size, dtype=bool)
        if not isinstance(domain, Window) and len(ki):
            # The end exponents at k are the first and the last whose |c| exceeds
            # the floor; a minor with no coefficient below the floor has positive ones.
            clears = neg | (c > REL_FLOOR * a)
            rows = np.arange(len(ki))
            bad = neg[rows, clears.argmax(axis=1)]
            if isinstance(domain, AllPositive):
                bad |= neg[rows, clears.shape[1] - 1 - clears[:, ::-1].argmax(axis=1)]
            ok[ki[bad]] = False
        # The grid skips the ks already settled.
        for block, bad in self._grid_blocks(c, a, np.flatnonzero(ok[ki]),
                                            lambda rest: ok[ki[rest]]):
            ok[ki[block[bad.any(axis=1)]]] = False
        return ok.reshape(ks.shape)


def compile_conditions(sets: Sequence[PsdConditionSet], points: Sequence[Mapping[str, float]],
                       tgrid: np.ndarray) -> CompiledConditions:
    """Bind each of the points into the terms of each of the sets' minors and
    tabulate them by k^p * t^e; row g * len(points) + i of the result is
    sets[g] at points[i].  The sets must come from one MinorTable.

    The terms are gathered by index from the table's flat arrays, set by set
    and minor by minor, each minor's in Expr.terms() order.  Each term lands
    in a slot of a table indexed (power of k, minor, column), with the sets'
    largest count of minors and of powers of k, and one column per distinct
    exponent of t among all their terms at the points' alpha, in descending
    order; so where some exponent of t involves alpha, the points must bind
    the same alpha.  A slot that no term of a set reaches is 0 in that set's
    rows.  Binding a point computes each (symbol, power) factor of the terms'
    monomials once, as a Python float, and multiplies the j-th factor of
    each monomial into its term's float coefficient for j = 0, 1, ..., so
    each term gets its factors in monomial order, as bind_terms multiplies
    them (past a monomial's end the factor is 1.0, which changes nothing).
    The products are then summed into their slots in term order, row r's
    slots offset by r tables, so one summation per table gives every row
    tables bit-identical to merging bind_terms' output for its set key by
    key.  Raises UnboundSymbolError for the first point that lacks a symbol,
    naming the first such symbol in the sets' term order.
    """
    table = sets[0].table
    if any(conds.table is not table for conds in sets):
        raise AnalysisError("condition sets compiled together must come from one MinorTable")
    coef_all, p_all, q_all, kpow_all, mono_all, starts, counts, factors = table._term_arrays()
    minors = np.fromiter(itertools.chain.from_iterable(conds.minors for conds in sets),
                         dtype=np.intp)
    per_minor = counts[minors]
    # Gathered minor j's terms are starts[minors[j]] + 0, 1, ..., placed from offsets[j] on.
    offsets = np.concatenate([np.zeros(1, dtype=np.intp), np.cumsum(per_minor)])
    terms = np.repeat(starts[minors] - offsets[:-1], per_minor) + np.arange(offsets[-1])
    alpha = None
    q = q_all[terms]
    if q.any():
        for bindings in points:
            if "alpha" not in bindings:
                raise UnboundSymbolError(table._first_unbound(terms, bindings))
        alphas = {float(bindings["alpha"]) for bindings in points}
        if len(alphas) != 1:
            raise AnalysisError(f"points compiled together must bind one alpha, "
                                f"got {sorted(alphas)}")
        (alpha,) = alphas
    t_exps = p_all[terms]
    if alpha is not None:
        t_exps = np.where(q != 0, t_exps + q * alpha, t_exps)
    exps = np.array(sorted(set(t_exps.tolist())))
    set_sizes = np.array([len(conds.minors) for conds in sets], dtype=np.intp)
    n_minors, n_exps = int(set_sizes.max()), len(exps)
    kpow = kpow_all[terms]
    shape = (int(kpow.max(initial=0)) + 1, n_minors, n_exps)
    # Each gathered minor's set, and its number within that set.
    minor_sets = np.repeat(np.arange(len(sets)), set_sizes)
    term_minors = np.repeat(np.arange(len(minors)) - (np.cumsum(set_sizes) - set_sizes)[minor_sets],
                            per_minor)
    # Plain integer arithmetic: the flat index of (kpow, minor, column).
    slots = ((kpow * n_minors + term_minors) * n_exps
             + (n_exps - 1 - np.searchsorted(exps, t_exps)))
    # Each term's factor ids, in monomial order, -1 past its monomial's end.
    rows = factors[mono_all[terms]]
    rows = rows[:, :int((rows >= 0).sum(axis=1).max(initial=0))]
    items = list(table._factors)
    used = np.zeros(len(items) + 1, dtype=bool)
    used[rows] = True
    used = np.flatnonzero(used[:-1]).tolist()
    symbols = {items[f][0] for f in used}
    for bindings in points:
        if not symbols.issubset(bindings):
            raise UnboundSymbolError(table._first_unbound(terms, bindings))
    tpowers = tgrid[None, :] ** exps[::-1, None]
    # The last column, 1.0, is what factor -1 picks.
    values = np.ones((len(points), len(items) + 1))
    values[:, used] = [[float(bindings[items[f][0]] ** items[f][1]) for f in used]
                       for bindings in points]
    base = coef_all[terms][None]
    for j in range(rows.shape[1]):
        base = base * values.take(rows[:, j], axis=1)
    if len(base) < len(points):  # no term has a factor
        base = base.repeat(len(points), axis=0)
    # Row g * len(points) + i: set g's terms at point i.
    term_rows = np.repeat(minor_sets * len(points), per_minor)
    n_slots, n_rows = math.prod(shape), len(sets) * len(points)
    slots = (slots + n_slots * (term_rows + np.arange(len(points))[:, None])).ravel()
    shape = (n_rows,) + shape
    coef = np.bincount(slots, weights=base.ravel(), minlength=n_slots * n_rows)
    size = np.bincount(slots, weights=np.abs(base).ravel(), minlength=n_slots * n_rows)
    # Over no terms at all, bincount counts in ints.
    return CompiledConditions(coef.astype(float, copy=False).reshape(shape),
                              size.astype(float, copy=False).reshape(shape), tpowers)


# -- rate maximization --------------------------------------------------------------


@dataclass
class RateResult:
    k_max: float
    params: dict[str, float]
    validity: tuple[float, float]
    status: str
    n_minors: int


PRESCAN_POINTS = 65
BISECT_REL_TOL = 1e-6
DOUBLING_KS = np.array([2.0 ** i for i in range(int(math.log2(K_CAP)) + 1)])  # 1, 2, ..., K_CAP


def _bisect_max_k(check, ks: np.ndarray, flags: np.ndarray) -> tuple[list[float], list[str]]:
    """Per row of ks, the largest k with a feasible check on [0, ks[row, -1]],
    from that row's pre-scan flags at its ks, and the row's status.

    check takes a list of row indices and a 2-D array holding one k for each
    of those rows, and returns its flags.  Each row bisects between the last
    pre-scan k before its first infeasible one and that one, to its own
    tolerance, one midpoint per call of check for every row still bisecting;
    a feasible pre-scan k after it makes the result nonmonotone.
    """
    lo, hi, tol, statuses = [], [], [], []
    for row_ks, row in zip(ks.tolist(), flags.tolist()):
        if not row[0] or all(row):
            raise AnalysisError(f"the pre-scan up to k={row_ks[-1]:g} needs a feasible first k "
                                f"and an infeasible one, got {sum(row)} of {len(row)} feasible")
        first_bad = row.index(False)
        statuses.append("nonmonotone" if any(row[first_bad:]) else "ok")
        lo.append(row_ks[first_bad - 1])
        hi.append(row_ks[first_bad])
        tol.append(BISECT_REL_TOL * row_ks[-1])
    active = [r for r in range(len(lo)) if hi[r] - lo[r] > tol[r]]
    while active:
        mids = [0.5 * (lo[r] + hi[r]) for r in active]
        for r, mid, ok in zip(active, mids, check(active, np.array(mids)[:, None])[:, 0].tolist()):
            if ok:
                lo[r] = mid
            else:
                hi[r] = mid
        active = [r for r in active if hi[r] - lo[r] > tol[r]]
    return lo, statuses


def _max_ks(compiled: CompiledConditions, domain: TDomain) -> list[tuple[float, str] | None]:
    """Per row of compiled, its largest feasible k and status, or None where
    k = 0 is infeasible; each stage is one check of every row still live.

    k = 0 comes first; then the doubling 1, 2, 4, ..., K_CAP, whose first
    infeasible k bounds the pre-scan, or which makes the rate the cap when
    all are feasible; then the pre-scan and the bisection.
    """
    n_rows = len(compiled.coef)
    found: list[tuple[float, str] | None] = [None] * n_rows
    at_zero = compiled.feasible(np.zeros((n_rows, 1)), domain)[:, 0].tolist()
    live = [i for i in range(n_rows) if at_zero[i]]
    if not live:
        return found
    doubling = compiled.feasible(np.repeat(DOUBLING_KS[None], len(live), axis=0), domain, live)
    rest, k_hi = [], []
    for i, row in zip(live, doubling.tolist()):
        if all(row):
            found[i] = (K_CAP, "cap")
        else:
            rest.append(i)
            k_hi.append(DOUBLING_KS[row.index(False)])
    if rest:
        # np.linspace(0, k_hi, PRESCAN_POINTS) per row, as numpy computes it.
        ks = np.array(k_hi)[:, None] / (PRESCAN_POINTS - 1) * np.arange(PRESCAN_POINTS)
        ks[:, -1] = k_hi
        bisected = _bisect_max_k(
            lambda rows, batch: compiled.feasible(batch, domain, [rest[r] for r in rows]),
            ks, compiled.feasible(ks, domain, rest))
        for i, k, status in zip(rest, *bisected):
            found[i] = (k, status)
    return found


def _compiled_blocks(entries: Sequence[Expr], cells: Sequence[tuple[int, ...]],
                     queries: Sequence[RateQuery]):
    """The pairs of a run, given by their cells, ids of entries, compiled in
    blocks at the grid points of the queries, which share one gamma form.

    The grid points go in batches keyed by (corners, t domain, alpha), each
    sharing a condition set per pair, a t grid and an alpha.  The pairs go in
    blocks, through one MinorTable, of as many as keep the points of every
    (corners, t domain) within BLOCK_POINTS, and at least one.  Per block and
    batch this yields the index of the block's first pair, the block's
    condition sets per pair and query, the batch's t domain, its members
    (query index, point index, point), and the block compiled at the
    members' points, whose row g * len(members) + j is pair g at member j.
    """
    corner_sets = [query.corners() for query in queries]
    batches: dict[tuple, list[tuple[int, int, dict[str, float]]]] = {}
    n_points: dict[tuple, int] = {}  # per (corners, t domain)
    for q, (corners, query) in enumerate(zip(corner_sets, queries)):
        points, domain = query.grid_points(), query.t_domain
        n_points[corners, domain] = n_points.get((corners, domain), 0) + len(points)
        for i, point in enumerate(points):
            batches.setdefault((corners, domain, point.get("alpha")), []).append((q, i, point))
    block = max(1, BLOCK_POINTS // max(n_points.values()))
    tgrids = {domain: time_grid(domain) for _corners, domain, _alpha in batches}
    table = MinorTable(queries[0].gamma, corner_sets, entries)
    for start in range(0, len(cells), block):
        conds = [table.conditions(pair, corner_sets) for pair in cells[start:start + block]]
        for (_corners, domain, _alpha), members in batches.items():
            yield start, conds, domain, members, compile_conditions(
                [sets[members[0][0]] for sets in conds], [point for _q, _i, point in members],
                tgrids[domain])


def _analyze_run(entries: Sequence[Expr], cells: Sequence[tuple[int, ...]],
                 queries: Sequence[RateQuery]) -> list[list[RateResult | None]]:
    """Per pair of a run, given by its cells, ids of entries, max_rate on it
    for each of the queries, which share one gamma form; None for a query
    with no grid point PSD at k = 0.

    Each stage of the search checks every live row of a block of
    _compiled_blocks in one pass.  A query's result is its first point with
    the largest k, and its validity range the ends of its t grid, unbounded
    above unless the domain is a Window.
    """
    results: list[list[RateResult | None]] = [[None] * len(queries) for _ in cells]
    best: dict[tuple[int, int], tuple[float, int]] = {}  # (pair, query) -> (k, -point index)
    for start, conds, domain, members, compiled in _compiled_blocks(entries, cells, queries):
        lo, hi = _grid_ends(domain)
        validity = (lo, hi if isinstance(domain, Window) else math.inf)
        for row, rate in enumerate(_max_ks(compiled, domain)):
            if rate is not None:
                g, j = divmod(row, len(members))
                q, i, point = members[j]
                pair = start + g
                if (pair, q) not in best or (rate[0], -i) > best[pair, q]:
                    best[pair, q] = (rate[0], -i)
                    results[pair][q] = RateResult(rate[0], dict(point), validity, rate[1],
                                                  len(conds[g][q].minors))
    return results


def certified_time(entries: Sequence[Expr], cells: Sequence[tuple[int, ...]],
                   query: RateQuery, k: float) -> float:
    """Largest t up to which, for some pair and grid point, every minor stays
    nonnegative at the given k: the end of the longest certified prefix of
    the query's Window, or 0 where none holds at its start.  The pairs are
    past A1 and given by their cells, ids of entries.

    The pairs go through _compiled_blocks, with one violations pass per
    compiled block.  Raises AnalysisError for a t domain that is not a Window.
    """
    domain = query.t_domain
    if not isinstance(domain, Window):
        raise AnalysisError(f"a certified time needs a Window t domain, got {domain!r}")
    tgrid = time_grid(domain)
    best = 0.0
    for *_block, compiled in _compiled_blocks(entries, cells, [query]):
        for mask in compiled.violations(np.full(len(compiled.coef), k)):
            if not mask[0]:  # certified at the left end of the grid
                # The grid point before the first violation, or the last one.
                best = max(best, float(tgrid[mask.argmax() - 1 if mask.any() else -1]))
    return best


# -- one-pair entry points -----------------------------------------------------------

# No command reaches these four: the search and the catalog run many pairs
# through one MinorTable and _analyze_run.  They stay because
# perfbench/tracing.py wraps psd_conditions and max_rate and counts feasible
# by name; once the benchmark reads counters instead, they can go.


def psd_conditions(pair: PQPair, gamma: GammaForm,
                   corners: Iterable[tuple[float, float]]) -> PsdConditionSet:
    """All principal minors of the support submatrices, at every (lambda, theta) corner.

    The minors are those of the gamma-substituted matrices with each corner's
    lambda and theta bound: the nonzero ones, in corner order and, within a
    corner, in subset order, deduplicated.  They keep k, t and any free
    system parameters symbolic.  This is a MinorTable of one pair; a run over
    many pairs shares one table instead.
    """
    corners = tuple(corners)
    entries, (cells,) = _pooled(pair)
    return MinorTable(gamma, (corners,), entries).conditions(cells, (corners,))[0]


def _pooled(pair: PQPair) -> tuple[list[Expr], list[tuple[int, ...]]]:
    """The entries of a fresh EntryPool holding pair, past A1, and its cells there."""
    if not pair.has_gap:
        raise AnalysisError("pair lacks the objective-gap term; apply A1 first")
    pool = EntryPool()
    return pool.entries, [pool.cells(pair)]


def feasible(conds: PsdConditionSet, k: float, query: RateQuery) -> bool:
    """True when every minor is nonnegative over the query's time domain at k,
    at the query's single grid point."""
    compiled = compile_conditions([conds], [query.point()], time_grid(query.t_domain))
    return bool(compiled.feasible(np.array([[k]], dtype=float), query.t_domain)[0, 0])


def max_rate(pair: PQPair, query: RateQuery) -> RateResult:
    """Maximize k over the query's parameter grid, certifying PSD feasibility.

    This is a run of one pair.  Raises InfeasiblePairError when no grid point
    is PSD even at k = 0.
    """
    result = _analyze_run(*_pooled(pair), [query])[0][0]
    if result is None:
        raise InfeasiblePairError("pair is not PSD at k = 0 for any grid point")
    return result


# -- per-group driver -----------------------------------------------------------------


@dataclass
class GroupRate:
    group_id: int
    result: RateResult | None  # None when infeasible at k = 0


def _analyze_queries(groups: Sequence[PairGroup], queries: Sequence[RateQuery],
                     jobs: int) -> list[list[GroupRate]]:
    """analyze_groups for each of the queries, which share one gamma form.

    The groups must come from one enumeration: their cells are ids of its
    pool's entries.  The work runs block by block of groups through one
    MinorTable, so only one block's condition sets are held at a time.  With
    a pool, each worker takes one contiguous run of groups and makes a table
    of its own; a task carries only the pool's entries and the groups'
    cells, not their ids, representatives or members, and the runs come
    back in order.
    """
    if len({id(group.pool) for group in groups}) > 1:
        raise AnalysisError("groups analysed together must come from one enumeration")
    entries = groups[0].pool.entries if groups else []
    cells = [group.cells for group in groups]
    if jobs > 1:
        n_runs = min(jobs, len(cells)) or 1
        bounds = [len(cells) * i // n_runs for i in range(n_runs + 1)]
        runs = [(entries, cells[lo:hi], queries) for lo, hi in zip(bounds, bounds[1:])]
        with multiprocessing.Pool(jobs) as pool:
            per_pair = list(itertools.chain.from_iterable(pool.starmap(_analyze_run, runs)))
    else:
        per_pair = _analyze_run(entries, cells, queries)
    return [[GroupRate(group.group_id, results[i]) for group, results in zip(groups, per_pair)]
            for i in range(len(queries))]


def analyze_groups(groups: Sequence[PairGroup], query: RateQuery,
                   jobs: int = 1) -> list[GroupRate]:
    """max_rate over every group; deterministic order by group_id."""
    return _analyze_queries(groups, (query,), jobs)[0]


def best_rate(rates: Sequence[GroupRate]) -> RateResult | None:
    feasible_rates = [r.result for r in rates if r.result is not None]
    if not feasible_rates:
        return None
    return max(feasible_rates, key=lambda r: r.k_max)


# -- catalog verification -----------------------------------------------------------------


CATALOG_REL_TOL = 1e-4  # relative tolerance of a row's expected_k

@dataclass
class CatalogRow:
    label: str
    system: str
    query: RateQuery
    expected_k: float | None = None  # matched to within CATALOG_REL_TOL
    expected_window: float | None = None     # certified-time check at k = k_probe
    k_probe: float | None = None
    k_range: tuple[float, float] | None = None  # half-open [lo, hi)


@dataclass
class RowOutcome:
    label: str
    expected: str
    observed: str
    passed: bool
    n_groups: int
    n_infeasible: int


@dataclass
class CatalogReport:
    rows: list[RowOutcome]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


def catalog_rows(mu: float, L: float) -> list[CatalogRow]:
    """The verification table: one row per certified system configuration."""
    if not 0 < mu < L < math.inf:
        raise ValueError(f"catalog rows need 0 < mu < L, got mu={mu!r}, L={L!r}")
    sqrt_mu = math.sqrt(mu)
    r_log = 5.0
    t_search_log = math.sqrt(((r_log - 1.0) / 2.0) ** 2 - 1.0) / sqrt_mu
    k_exp = 1.0
    r_exp = 4.0 * (k_exp ** 2 + mu) / k_exp ** 2
    window_exp = 2.0 * (k_exp ** 2 + mu) / k_exp ** 3
    b_hnag = 2.0 * math.sqrt(L / (mu * (2 * L - mu)))
    k_hnag = math.sqrt(mu * L / (2 * L - mu))
    return [
        CatalogRow("damped-newton", "damped-newton",
                   RateQuery(LINEAR, mu=mu, convex=True), expected_k=1.0),
        CatalogRow("gradient-flow", "first-order-hessian",
                   RateQuery(LINEAR, mu=mu, grid={"b": (0.0,)}), expected_k=2.0 * mu),
        CatalogRow("first-order-hessian", "first-order-hessian",
                   RateQuery(LINEAR, mu=mu, L=L, grid={"b": (-1.0 / L,)}),
                   expected_k=mu / (1.0 - mu / L)),
        CatalogRow("sc-nag", "second-order-hessian",
                   RateQuery(LINEAR, mu=mu, grid={"a": (2.0 * sqrt_mu,), "b": (0.0,)}),
                   expected_k=sqrt_mu),
        CatalogRow("second-order-hessian", "second-order-hessian",
                   RateQuery(LINEAR, mu=mu, grid={"a": (sqrt_mu,), "b": (1.0 / sqrt_mu,)}),
                   expected_k=sqrt_mu),
        CatalogRow("nag-convex", "nag",
                   RateQuery(LOG, mu=mu, convex=True, grid={"r": (3.0,)}), expected_k=2.0),
        CatalogRow("nag-strong-log", "nag",
                   RateQuery(LOG, mu=mu, grid={"r": (r_log,)},
                             t_domain=Eventually(t_search_log)),
                   expected_k=(r_log + 1.0) / 2.0),
        CatalogRow("nag-strong-exp", "nag",
                   RateQuery(LINEAR, mu=mu, grid={"r": (r_exp,)},
                             t_domain=Window(T_GRID_LO, 64.0)),
                   expected_window=window_exp, k_probe=k_exp),
        CatalogRow("generalized-nag", "generalized-nag",
                   RateQuery(POWER, mu=mu, grid={"alpha": (0.5,), "r": (1.0,)},
                             t_domain=Eventually(1e4)),
                   k_range=(2.0 / 3.0 - 1e-3, 2.0 / 3.0)),
        CatalogRow("hessian-nag", "hessian-nag",
                   RateQuery(LINEAR, mu=mu, L=L, grid={"r": (0.0,), "b": (b_hnag,)}),
                   expected_k=k_hnag),
    ]


def verify_catalog(mu: float = 1.0, L: float = 4.0, jobs: int = 1,
                   rows: Sequence[str] | None = None,
                   enumerations: dict[str, list[PairGroup]] | None = None) -> CatalogReport:
    """Re-derive every catalog rate and compare against its expected value.

    The rows run system by system, and each system's groups are released
    once its rows are done.  The rate rows that share a system and a gamma
    form run together, group by group through one MinorTable, so each
    distinct minor is built once for all of them.
    """
    table = catalog_rows(mu, L)
    if rows is not None:
        labels = [row.label for row in table]
        unknown = [label for label in rows if label not in labels]
        if unknown:
            raise ValueError(f"unknown catalog rows {', '.join(map(repr, unknown))}; "
                             f"valid rows are {', '.join(labels)}")
        table = [row for row in table if row.label in rows]
        if not table:
            raise ValueError(f"no catalog row selected; valid rows are {', '.join(labels)}")
    enumerated: dict[str, list[PairGroup]] = dict(enumerations or {})
    by_system: dict[str, list[CatalogRow]] = {}
    for row in table:
        by_system.setdefault(row.system, []).append(row)
    outcomes: dict[str, RowOutcome] = {}
    for system, system_rows in by_system.items():
        # Popped, so that nothing here holds a system's groups past its rows.
        groups = (enumerated.pop(system) if system in enumerated
                  else enumerate_pairs(CATALOG[system]))
        bundles: dict[GammaForm, list[CatalogRow]] = {}
        for row in system_rows:
            if row.expected_window is None:
                bundles.setdefault(row.query.gamma, []).append(row)
                continue
            observed = certified_time(groups[0].pool.entries, [g.cells for g in groups],
                                      row.query, row.k_probe)
            step = grid_step_factor()
            passed = row.expected_window / step ** 2 <= observed <= row.expected_window * step ** 2
            outcomes[row.label] = RowOutcome(
                row.label, f"T={row.expected_window:.6g}", f"T={observed:.6g}",
                passed, len(groups), 0)
        for bundle in bundles.values():
            per_row = _analyze_queries(groups, [row.query for row in bundle], jobs)
            for row, rates in zip(bundle, per_row):
                outcomes[row.label] = _rate_outcome(row, rates, len(groups))
        del groups
    return CatalogReport([outcomes[row.label] for row in table])


def _rate_outcome(row: CatalogRow, rates: list[GroupRate], n_groups: int) -> RowOutcome:
    n_bad = sum(1 for r in rates if r.result is None)
    best = best_rate(rates)
    if best is None:
        return RowOutcome(row.label, "feasible", "all pairs infeasible", False, n_groups, n_bad)
    if row.k_range is not None:
        lo, hi = row.k_range
        passed = lo <= best.k_max < hi
        expected = f"k in [{lo:.6g}, {hi:.6g})"
    else:
        passed = abs(best.k_max - row.expected_k) <= CATALOG_REL_TOL * abs(row.expected_k)
        expected = f"k={row.expected_k:.6g}"
    return RowOutcome(row.label, expected, f"k={best.k_max:.6g}", passed, n_groups, n_bad)
