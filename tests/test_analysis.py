import ast
import dataclasses
import gc
import itertools
import math
import random
import threading
from fractions import Fraction

import numpy as np
import pytest

from lyapsearch import analysis
from lyapsearch.analysis import (BISECT_REL_TOL, DOUBLING_KS, K_CAP,
                                 PRESCAN_POINTS, REL_FLOOR, T_GRID_HI, T_GRID_LO,
                                 AllPositive, AnalysisError, DiagonalParameterError, Eventually,
                                 InfeasiblePairError, MinorTable, RateQuery,
                                 RateResult, Window, analyze_groups,
                                 _analyze_queries, _bisect_max_k, _certified_range, _det,
                                 catalog_rows, certified_time,
                                 compile_conditions, feasible, max_rate, psd_conditions,
                                 time_grid, verify_catalog)
from lyapsearch.expr import (Expr, GAMMA1, LINEAR, LOG, POWER, ZERO, UnboundSymbolError,
                             bind_terms, float_terms, parse_expr)
from lyapsearch.lyapunov import (CATALOG as CERTIFICATES, BootstrapPreconditionError,
                                 _check_bootstrap_shape, bootstrap_rate_check)
from lyapsearch.pq import PQPair, _sym_matrix, apply_sequence, initial_pair
from lyapsearch.sequences import PairGroup, enumerate_pairs
from lyapsearch.systems import CATALOG, OdeSystemSpec

from conftest import naive_eval, pooled, random_expr, random_pair

HALF = Fraction(1, 2)
LAM = Expr.symbol("lambda")
THETA = Expr.symbol("theta")
G2, G3 = Expr.gamma(2), Expr.gamma(3)
A, B, R = Expr.symbol("a"), Expr.symbol("b"), Expr.symbol("r")
T_INV = Expr.t_power(-1)


def build(system, ops, bindings=None):
    pair = apply_sequence(initial_pair(CATALOG[system]), ops)
    if not bindings:
        return pair
    sub = lambda e: e.subs_params(bindings)
    return PQPair(tuple(tuple(sub(e) for e in row) for row in pair.P),
                  tuple(tuple(sub(e) for e in row) for row in pair.Q),
                  pair.provenance, pair.has_gap)


# Certified winners: the operation sequences of the certificate table in
# lyapunov.CATALOG.  The entries below are the published closed forms; matching
# them entry-wise pins down the whole operation pipeline and anchors the
# certificates to the published matrices.
def certificate(name, bindings=None):
    row = next(row for row in catalog_rows(1.0, 4.0) if row.label == name)
    return build(row.system, CERTIFICATES[name].ops, bindings)


def damped_newton_winner():
    return certificate("damped-newton")


def gradient_flow_winner():
    return certificate("gradient-flow", {"b": 0})


def first_order_winner():
    return certificate("first-order-hessian")


def sc_nag_winner():
    return certificate("sc-nag", {"b": 0})


def second_order_winner():
    return certificate("second-order-hessian")


def nag_winner():
    return certificate("nag-convex")


def nag_bootstrap_pair():
    return build("nag", ("A1", "B1", "B3", "B2"))


def generalized_nag_winner():
    return certificate("generalized-nag")


def test_winning_pairs_match_published_matrices():
    g = GAMMA1
    cases = [
        (damped_newton_winner(),
         {(1, 1): HALF * LAM * g},
         {(1, 1): HALF * LAM * (g - g ** 2 - G2), (3, 3): THETA}),
        (gradient_flow_winner(),
         {},
         {(1, 1): HALF * LAM * g, (1, 3): HALF * g, (3, 3): Expr.number(1)}),
        (first_order_winner(),
         {(1, 1): HALF * (1 + B * LAM) * g},
         {(1, 1): HALF * (LAM * g - (1 + B * LAM) * (g ** 2 + G2)),
          (3, 3): 1 + B * THETA}),
        (sc_nag_winner(),
         {(1, 1): HALF * (A * g - g ** 2 - G2), (1, 3): HALF * g, (3, 3): HALF},
         {(1, 1): HALF * (-A * g ** 2 + g ** 3 - A * G2 + LAM * g + 3 * g * G2 + G3),
          (3, 3): A - Fraction(3, 2) * g}),
        (second_order_winner(),
         {(1, 1): HALF * B * LAM * g, (1, 3): HALF * g, (3, 3): HALF},
         {(1, 1): HALF * LAM * (g - B * g ** 2 - B * G2),
          (1, 3): HALF * (A * g - g ** 2 - G2),
          (3, 3): A + B * THETA - Fraction(3, 2) * g}),
        *((certificate(name),
           {(1, 1): HALF * (R * g * T_INV - g ** 2 - G2), (1, 3): HALF * g, (3, 3): HALF},
           {(3, 3): R * T_INV - Fraction(3, 2) * g})
          for name in ("nag-convex", "nag-strong-log", "nag-strong-exp")),
        (nag_bootstrap_pair(),
         {(1, 1): HALF * R * g * T_INV, (1, 3): HALF * g, (3, 3): HALF},
         {(1, 3): HALF * (-1 * g ** 2 - G2), (3, 3): R * T_INV - Fraction(3, 2) * g}),
        (generalized_nag_winner(),
         {(1, 1): HALF * R * g * Expr.t_power(0, -1), (1, 3): HALF * g, (3, 3): HALF},
         {(1, 3): HALF * (-1 * g ** 2 - G2),
          (3, 3): R * Expr.t_power(0, -1) - Fraction(3, 2) * g}),
    ]
    for pair, p_expect, q_expect in cases:
        label = ">".join(pair.provenance)
        for (i, j), value in p_expect.items():
            assert pair.p_entry(i, j) == value, f"P{i}{j} of {label}"
        for (i, j), value in q_expect.items():
            assert pair.q_entry(i, j) == value, f"Q{i}{j} of {label}"


def _exprs(conds):
    """The set's minors as Exprs, in its order."""
    return tuple(conds.table.minor_expr(i) for i in conds.minors)


def _table_terms(table, index):
    """Minor index's terms as the table keeps them, laid out as float_terms(minor, ("k",))."""
    coefs, ps, qs, kpows, monos = table._columns
    by_id = list(table._monos)
    start = table._starts[index]
    return tuple((coefs[i], ps[i], qs[i], by_id[monos[i]], (kpows[i],))
                 for i in range(start, start + table._counts[index]))


def _minor_set(*minors, corner=(1.0, 1.0)):
    """The condition set of a pair whose P11, and Q11 when a second minor is
    given, are the minors; at a corner with neither lambda nor theta in
    them, they are its only minors, in this order."""
    q = {(1, 1): minors[1]} if len(minors) > 1 else {}
    pair = PQPair(_sym_matrix(3, {(1, 1): minors[0]}), _sym_matrix(5, q), has_gap=True)
    conds = psd_conditions(pair, LINEAR, [corner])
    assert _exprs(conds) == minors
    return conds


def test_psd_conditions_damped_newton_minors():
    conds = psd_conditions(damped_newton_winner(), LINEAR, corners=[(1.0, 1.0)])
    minors = set(_exprs(conds))
    k = Expr.symbol("k")
    assert HALF * k in minors                 # P11 with lambda at the corner
    assert HALF * (k - k ** 2) in minors      # Q11
    assert Expr.number(1) in minors           # Q33 = theta at the corner


def test_psd_conditions_sc_nag_cross_minor():
    pair = build("second-order-hessian", ("A1", "B1", "B2", "B3"), {"b": 0, "a": 2})
    conds = psd_conditions(pair, LINEAR, corners=[(1.0, 1.0)])
    minors = set(_exprs(conds))
    # The 2x2 determinant of P at a = 2 sqrt(mu), mu = 1: (2k - k^2)/4 - k^2/4.
    assert parse_expr("1/2*k - 1/2*k^2") in minors


def test_psd_conditions_zero_p_gives_no_p_minors():
    pair = gradient_flow_winner()
    conds = psd_conditions(pair, LINEAR, corners=[(1.0, 1.0)])
    # P is the zero matrix; every minor comes from Q.
    assert all(not e for row in pair.P for e in row)
    assert all(m.free_symbols() <= {"k"} for m in _exprs(conds))


def test_psd_conditions_reject_offdiagonal_lambda():
    bad = PQPair(P=_sym_matrix(3, {}),
                 Q=_sym_matrix(5, {(1, 2): LAM}), has_gap=True)
    with pytest.raises(DiagonalParameterError):
        psd_conditions(bad, LINEAR, corners=[(1.0, 1.0)])


@pytest.mark.parametrize("entry", [LAM * THETA, LAM * LAM, HALF + THETA * THETA * T_INV],
                         ids=["lambda-theta", "lambda-squared", "theta-squared-with-constant"])
def test_psd_conditions_reject_diagonal_lambda_theta_of_degree_two(entry):
    """Only M0 + lambda D_lambda + theta D_theta keeps the corner reduction exact."""
    for p, q in (({(1, 1): entry}, {}), ({}, {(3, 3): LAM + entry})):
        bad = PQPair(P=_sym_matrix(3, p), Q=_sym_matrix(5, q), has_gap=True)
        with pytest.raises(DiagonalParameterError, match="not affine in lambda and theta"):
            psd_conditions(bad, LINEAR, corners=[(1.0, 1.0)])


def test_minor_table_checks_each_entry_at_its_place():
    """The table keeps each raw entry's curvature part, not a verdict: an
    entry allowed on a diagonal is refused off it, and the first offender,
    P before Q and row-major, names the error."""
    corners = [((1.0, 1.0),)]
    cases = [
        ({}, {(1, 2): LAM}, r"off-diagonal entry \(1,2\)"),
        ({(2, 2): LAM * LAM}, {(1, 2): LAM}, r"diagonal entry \(2,2\) is not affine .* lambda\^2"),
        ({(1, 3): THETA, (2, 2): LAM * LAM}, {}, r"off-diagonal entry \(1,3\)"),
        ({(2, 2): LAM * THETA, (3, 3): LAM * LAM}, {}, r"\(2,2\) .* lambda\^1\*theta\^1$"),
    ]
    entries, (good, *bad) = pooled(
        [PQPair(_sym_matrix(3, {}), _sym_matrix(5, {(3, 3): LAM}), has_gap=True)]
        + [PQPair(_sym_matrix(3, p), _sym_matrix(5, q), has_gap=True) for p, q, _m in cases])
    table = MinorTable(LINEAR, corners, entries)
    table.conditions(good, corners)
    for cells, (_p, _q, message) in zip(bad, cases):
        with pytest.raises(DiagonalParameterError, match=message):
            table.conditions(cells, corners)


def test_psd_conditions_require_gap_term():
    fresh = initial_pair(CATALOG["damped-newton"])
    with pytest.raises(AnalysisError):
        psd_conditions(fresh, LINEAR, corners=[(1.0, 1.0)])
    with pytest.raises(AnalysisError, match="apply A1 first"):
        max_rate(fresh, RateQuery(LINEAR, mu=1.0, convex=True))


def _principal_submatrices(matrix, dim):
    """The principal submatrices over the rows with a nonzero entry, in subset order."""
    support = [i for i in range(dim) if any(matrix[i][j] for j in range(dim))]
    return [[[matrix[i][j] for j in subset] for i in subset]
            for size in range(1, len(support) + 1)
            for subset in itertools.combinations(support, size)]


def _cofactor_det(matrix):
    """Plain cofactor expansion along the first row, with no memo."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = ZERO
    for j in range(n):
        if not matrix[0][j]:
            continue
        term = matrix[0][j] * _cofactor_det([row[:j] + row[j + 1:] for row in matrix[1:]])
        total = total + term if j % 2 == 0 else total - term
    return total


def _reference_psd_minors(pair, gamma, corners):
    """Minors built per pair and corner, on matrices with lambda and theta already bound.

    This is how psd_conditions worked before minors were built once per pair;
    it returns the deduplicated nonzero minors in corner order.
    """
    p_sub = [[gamma.substitute(e) for e in row] for row in pair.P]
    q_sub = [[gamma.substitute(e) for e in row] for row in pair.Q]
    union = {}
    for lam, theta in corners:
        binding = {"lambda": Fraction(lam), "theta": Fraction(theta)}
        p_c = [[e.subs_params(binding) for e in row] for row in p_sub]
        q_c = [[e.subs_params(binding) for e in row] for row in q_sub]
        for sub in _principal_submatrices(p_c, 3) + _principal_submatrices(q_c, 5):
            m = _cofactor_det(sub)
            if m:
                union[m] = None
    return tuple(union)


@pytest.mark.parametrize("system, query", [
    ("second-order-hessian", RateQuery(LINEAR, mu=1.0)),
    ("hessian-nag", RateQuery(LINEAR, mu=1.0, L=4.0)),
    ("nag", RateQuery(LOG, mu=1.0, convex=True)),
], ids=["second-order-hessian", "hessian-nag", "nag-convex"])
def test_psd_conditions_match_per_corner_reference(system, query, enumerations):
    corners = query.corners()
    for group in enumerations(system):
        conds = psd_conditions(group.representative, query.gamma, corners)
        assert _exprs(conds) == _reference_psd_minors(group.representative, query.gamma,
                                                      corners), f"group {group.group_id}"


@pytest.mark.parametrize("labels, n_groups", [
    (("gradient-flow", "first-order-hessian"), None),
    (("nag-convex", "nag-strong-log"), None),
    (("sc-nag", "second-order-hessian"), 20),
], ids=["first-order-hessian", "nag-log", "second-order-hessian-first-20"])
def test_shared_conditions_match_psd_conditions_row_by_row(labels, n_groups, enumerations):
    """One MinorTable shared by the rows and by every group gives each pair, for
    each row, the condition set that psd_conditions builds for it alone."""
    rows = {row.label: row for row in catalog_rows(1.0, 4.0)}
    queries = [rows[label].query for label in labels]
    corner_sets = [query.corners() for query in queries]
    same_corners = corner_sets[0] == corner_sets[1]
    groups = enumerations(rows[labels[0]].system)[:n_groups]
    entries, cells = pooled(group.representative for group in groups)
    table = MinorTable(queries[0].gamma, corner_sets, entries)
    for group, pair_cells in zip(groups, cells):
        pair = group.representative
        shared = table.conditions(pair_cells, corner_sets)
        for query, conds in zip(queries, shared):
            reference = psd_conditions(pair, query.gamma, query.corners())
            assert conds.corners == reference.corners
            assert _exprs(conds) == _exprs(reference), f"group {group.group_id}"
            assert ([_table_terms(table, i) for i in conds.minors]
                    == [_table_terms(reference.table, i) for i in reference.minors])
        assert (shared[0] is shared[1]) == same_corners


def test_minor_table_builds_each_distinct_submatrix_once(enumerations, monkeypatch):
    """Second-order-hessian under LINEAR: one determinant per distinct principal
    submatrix with a nonzero entry, over all 210 gamma-substituted pairs.  Of
    the 1 300 such submatrices, 971 have a nonzero determinant."""
    groups = enumerations("second-order-hessian")
    corners = RateQuery(LINEAR, mu=1.0).corners()
    distinct = set()
    for group in groups:
        pair = group.representative
        for matrix, dim in ((pair.P, 3), (pair.Q, 5)):
            sub = [[LINEAR.substitute(e) for e in row] for row in matrix]
            for m in _principal_submatrices(sub, dim):
                if any(e for row in m for e in row):
                    distinct.add(tuple(map(tuple, m)))
    assert sum(1 for m in distinct if _cofactor_det([list(row) for row in m])) == 971
    built = []
    depth = [0]

    def counting_det(*args):
        if not depth[0]:
            built.append(args[0])
        depth[0] += 1
        try:
            return _det(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(analysis, "_det", counting_det)
    entries, cells = pooled(group.representative for group in groups)
    table = MinorTable(LINEAR, [corners], entries)
    for pair_cells in cells:
        table.conditions(pair_cells, [corners])
    assert len(built) == len(distinct) == 1300
    for pair_cells in cells[:5]:  # a second pass builds nothing
        table.conditions(pair_cells, [corners])
    assert len(built) == 1300


def test_memoised_det_matches_plain_cofactor(enumerations):
    """Every block a second-order-hessian table expanded, principal or not, has
    the determinant a plain cofactor expansion of its entries gives, and one
    shared memo serves the principal submatrices of all 210 pairs.  The memo
    holds an n x n block's determinant in integers, times s^n for the table's
    common denominator s."""
    corners = RateQuery(LINEAR, mu=1.0).corners()
    entries, cells = pooled(group.representative for group in enumerations("second-order-hessian"))
    table = MinorTable(LINEAR, [corners], entries)
    for pair_cells in cells:
        table.conditions(pair_cells, [corners])
    memo = table._dets
    assert all(key in memo for key in table._submatrices if len(key) > 1)
    assert len(memo) == 2409  # 2x2 to 5x5 blocks; a 1x1 block is its entry
    for key, det in memo.items():
        n = math.isqrt(len(key))
        matrix = [[table._entries[eid] for eid in key[r * n:(r + 1) * n]] for r in range(n)]
        assert table._expr(det.items(), table._scale ** n) == _cofactor_det(matrix), key


def _curved_entry(rng, entry):
    """entry plus lambda and theta, each times a random term free of them."""
    return (entry + LAM * random_expr(rng, max_terms=1, allow_gamma=False)
            + THETA * random_expr(rng, max_terms=1, allow_gamma=False))


def _with_curvature(pair, rng):
    """The pair with lambda and theta added affinely to every diagonal entry."""
    def curved(matrix):
        return tuple(tuple(_curved_entry(rng, e) if i == j else e for j, e in enumerate(row))
                     for i, row in enumerate(matrix))
    return PQPair(curved(pair.P), curved(pair.Q), has_gap=True)


def _with_new_first_row(pair, rng, extra=ZERO):
    """The pair with the first row and column of P and Q drawn afresh, extra
    added to their (1, 1) entries.  Every other entry is kept, so the
    cofactor expansion along the first row meets the sub-blocks of pair."""
    def redrawn(matrix):
        rows = [list(row) for row in matrix]
        for j in range(len(rows)):
            rows[0][j] = rows[j][0] = random_expr(rng)
        rows[0][0] = _curved_entry(rng, rows[0][0]) + extra
        return tuple(map(tuple, rows))
    return PQPair(redrawn(pair.P), redrawn(pair.Q), has_gap=True)


def _check_table_against_reference(table, cells, pair, gamma, corners, where):
    """The table's minors of pair, whose cells in it are cells, are the
    Fraction reference's, with their term tables."""
    conds, = table.conditions(cells, [corners])
    assert _exprs(conds) == _reference_psd_minors(pair, gamma, corners), where
    assert ([_table_terms(table, i) for i in conds.minors]
            == [float_terms(m, ("k",)) for m in _exprs(conds)]), where


@pytest.mark.parametrize("mu, L", [(1.0, 4.0), (0.5, 9.0), (0.3, 7.1)])
def test_integer_kernel_matches_fraction_reference(mu, L):
    """One MinorTable over a run of random pairs gives each the minors of the
    Fraction reference, and their float term tables.  The run is dyadic
    pairs, then a pair whose 1/3 coefficient puts a 3 into the table's
    common denominator, then dyadic pairs that reuse the sub-determinants
    the table built before.  At (0.3, 7.1) the corners' denominator is 2^54,
    so the binding works on large integers."""
    rng = random.Random(20251019)
    gamma = LOG
    corners = RateQuery(gamma, mu=mu, L=L).corners()
    first = [_with_curvature(random_pair(rng), rng) for _ in range(4)]
    with_third = _with_new_first_row(first[0], rng, extra=Expr.number(Fraction(1, 3)))
    later = [_with_new_first_row(pair, rng) for pair in first]
    pairs = first + [with_third] + later
    wheres = ([f"dyadic pair {i}" for i in range(len(first))] + ["pair with 1/3"]
              + [f"later dyadic pair {i}" for i in range(len(later))])
    entries, cells = pooled(pairs)
    table = MinorTable(gamma, [corners], entries)
    for pair, pair_cells, where in zip(pairs, cells, wheres):
        _check_table_against_reference(table, pair_cells, pair, gamma, corners, where)


def test_minor_table_growing_its_denominator_keeps_equal_ints_apart():
    """Over a common denominator of 6, a / 3 scales to the integers that a
    does over 2; each of a / 2, a, a / 3 and a / 6 must come out as its own
    minor."""
    p11s = (HALF * A, A, A * Fraction(1, 3), A * Fraction(1, 6))
    entries, cells = pooled(PQPair(_sym_matrix(3, {(1, 1): p11}), _sym_matrix(5, {}), has_gap=True)
                            for p11 in p11s)
    table = MinorTable(LINEAR, [[(1.0, 1.0)]], entries)
    assert table._scale == 6
    for p11, pair_cells in zip(p11s, cells):
        assert _exprs(table.conditions(pair_cells, [((1.0, 1.0),)])[0]) == (p11,)


@pytest.mark.parametrize("system", sorted(CATALOG))
def test_integer_kernel_matches_fraction_reference_on_catalog(system, enumerations):
    """Every catalog system at (0.3, 7.1), under each gamma form its catalog
    rows use, through one table per system and gamma form."""
    gammas = {row.query.gamma for row in catalog_rows(0.3, 7.1) if row.system == system}
    for gamma in sorted(gammas, key=lambda g: g.name):
        corners = RateQuery(gamma, mu=0.3, L=7.1).corners()
        groups = enumerations(system)
        entries, cells = pooled(group.representative for group in groups)
        table = MinorTable(gamma, [corners], entries)
        for group, pair_cells in zip(groups, cells):
            _check_table_against_reference(table, pair_cells, group.representative, gamma,
                                           corners, f"{gamma.name}, group {group.group_id}")


def _hexed(terms):
    return tuple((c.hex(), p.hex(), q.hex(), mono, powers) for c, p, q, mono, powers in terms)


@pytest.mark.parametrize("mu, L", [(1.0, 4.0), (0.5, 9.0)])
def test_catalog_float_terms_match_float_terms_of_each_minor(mu, L, enumerations, monkeypatch):
    """Every minor of every table that verify_catalog makes has, as the table
    keeps it from its integer form, the float terms that float_terms gives
    its Expr, bit for bit."""
    tables = []

    class Recorded(MinorTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(analysis, "MinorTable", Recorded)
    report = verify_catalog(mu, L, jobs=1,
                            enumerations={name: enumerations(name) for name in CATALOG})
    monkeypatch.undo()
    assert report.passed
    checked = 0
    for table in tables:
        for i in range(len(table._counts)):
            expected = float_terms(table.minor_expr(i), ("k",))
            assert _hexed(_table_terms(table, i)) == _hexed(expected), (table.gamma, i)
            checked += 1
    assert checked > 1000


def test_no_minor_table_outlives_its_call(enumerations):
    def tables():
        gc.collect()
        return [obj for obj in gc.get_objects() if isinstance(obj, MinorTable)]

    assert not tables()
    report = verify_catalog(1.0, 4.0, jobs=1, rows=["damped-newton", "nag-convex"],
                            enumerations={name: enumerations(name)
                                          for name in ("damped-newton", "nag")})
    assert report.passed
    assert not tables()
    analyze_groups(enumerations("nag"), RateQuery(LOG, mu=1.0, convex=True, grid={"r": (3.0,)}))
    assert not tables()


def test_bundled_rows_match_rows_run_alone(enumerations):
    rows = {row.label: row for row in catalog_rows(1.0, 4.0)}
    queries = [rows[label].query for label in ("nag-convex", "nag-strong-log")]
    groups = enumerations("nag")
    bundled = _analyze_queries(groups, queries, jobs=1)
    for query, rates in zip(queries, bundled):
        assert rates == analyze_groups(groups, query)


def test_feasible_damped_newton_boundary():
    query = RateQuery(LINEAR, mu=1.0, convex=True)
    conds = psd_conditions(damped_newton_winner(), LINEAR, query.corners())
    assert feasible(conds, 1.0, query)
    assert not feasible(conds, 1.01, query)


def test_feasible_gradient_flow_boundary():
    query = RateQuery(LINEAR, mu=1.0, grid={"b": (0.0,)})
    conds = psd_conditions(gradient_flow_winner(), LINEAR, query.corners())
    assert feasible(conds, 2.0, query)
    assert not feasible(conds, 2.01, query)


def test_feasible_at_zero_rate_for_ranked_pairs():
    # gamma constant: certified pairs must accept k = 0.
    cases = [
        (damped_newton_winner(), RateQuery(LINEAR, mu=1.0, convex=True)),
        (gradient_flow_winner(), RateQuery(LINEAR, mu=1.0, grid={"b": (0.0,)})),
        (build("second-order-hessian", ("A1", "B1", "B2", "B3"), {"b": 0, "a": 2}),
         RateQuery(LINEAR, mu=1.0)),
        (nag_winner(), RateQuery(LOG, mu=1.0, convex=True, grid={"r": (3.0,)})),
    ]
    for pair, query in cases:
        conds = psd_conditions(pair, query.gamma, query.corners())
        assert feasible(conds, 0.0, query)


def test_feasible_agrees_with_max_rate_on_a_grid_query():
    # feasible binds the query's grid point, as max_rate does.
    query = RateQuery(LOG, mu=1.0, convex=True, grid={"r": (3.0,)})
    k = max_rate(nag_winner(), query).k_max
    conds = psd_conditions(nag_winner(), LOG, query.corners())
    assert feasible(conds, k, query)
    assert not feasible(conds, k + 1e-3, query)


def test_feasible_needs_a_single_grid_point():
    query = RateQuery(LOG, mu=1.0, convex=True, grid={"r": (3.0, 4.0)})
    conds = psd_conditions(nag_winner(), LOG, query.corners())
    with pytest.raises(AnalysisError, match="single parameter point, got 2"):
        feasible(conds, 1.0, query)


def test_empty_grid_axis_is_rejected():
    with pytest.raises(ValueError, match="parameter r needs at least one value"):
        RateQuery(LOG, mu=1.0, convex=True, grid={"r": ()})


def test_max_rate_first_order_smoothness_assisted():
    result = max_rate(first_order_winner(),
                      RateQuery(LINEAR, mu=1.0, L=4.0, grid={"b": (-0.25,)}))
    assert result.k_max == pytest.approx(4.0 / 3.0, rel=1e-4)


def test_max_rate_sc_nag():
    query = RateQuery(LINEAR, mu=1.0, grid={"a": (2.0,), "b": (0.0,)})
    result = max_rate(sc_nag_winner(), query)
    assert result.k_max == pytest.approx(1.0, rel=1e-4)
    # The returned rate is itself certified: re-checking feasibility passes.
    conds = psd_conditions(sc_nag_winner(), LINEAR, query.corners())
    assert feasible(conds, result.k_max, query)


def test_max_rate_nag_log_convex():
    result = max_rate(nag_winner(), RateQuery(LOG, mu=1.0, convex=True, grid={"r": (3.0,)}))
    assert result.k_max == pytest.approx(2.0, rel=1e-4)


def test_max_rate_picks_best_grid_point():
    query = RateQuery(LINEAR, mu=1.0, L=4.0, grid={"b": (-0.25, 0.0)})
    result = max_rate(first_order_winner(), query)
    assert result.k_max == pytest.approx(4.0 / 3.0, rel=1e-4)
    assert result.params["b"] == -0.25


def test_max_rate_rejects_pair_infeasible_at_zero():
    pair = build("damped-newton", ("A1",))  # keeps Q34 = 1/2 with zero diagonal
    with pytest.raises(InfeasiblePairError):
        max_rate(pair, RateQuery(LINEAR, mu=1.0, convex=True))


def test_max_rate_flags_unbounded_rate():
    # A pair with no constraints at all is feasible for every k; the search
    # stops at the cap and says so instead of reporting a certified rate.
    trivial = PQPair(P=_sym_matrix(3, {}), Q=_sym_matrix(5, {}), has_gap=True)
    result = max_rate(trivial, RateQuery(LINEAR, mu=1.0))
    assert result.status == "cap"
    assert result.k_max >= 2 ** 16


def test_monotone_feasibility_prefix():
    query = RateQuery(LINEAR, mu=1.0, convex=True)
    conds = psd_conditions(damped_newton_winner(), LINEAR, query.corners())
    flags = [feasible(conds, k, query) for k in np.linspace(0.0, 2.0, 41)]
    first_bad = flags.index(False)
    assert all(flags[:first_bad]) and not any(flags[first_bad:])


def _bisect_one(check, ks, flags):
    """_bisect_max_k on the one row of ks and flags."""
    (k_max,), (status,) = _bisect_max_k(check, ks[None], flags[None])
    return k_max, status


def _flags(compiled, ks, domain):
    """compiled.feasible at ks for its one point."""
    return compiled.feasible(np.asarray(ks, dtype=float)[None], domain)[0]


def test_bisect_max_k_on_synthetic_prescans():
    ks = np.linspace(0.0, 1.0, PRESCAN_POINTS)
    edge = 0.3  # between ks[19] and ks[20]

    def check(rows, batch):
        return batch <= edge

    # Bisection halves [19/64, 20/64] until it is at most 1e-6 wide, i.e. 2^-20.
    exact = math.floor(edge * 2 ** 20) / 2 ** 20
    assert _bisect_one(check, ks, ks <= edge) == (exact, "ok")
    late = ks <= edge
    late[40] = True
    assert _bisect_one(check, ks, late) == (exact, "nonmonotone")
    for flags in (np.ones(PRESCAN_POINTS, dtype=bool), ks > edge):
        with pytest.raises(AnalysisError, match="needs a feasible first k and an infeasible"):
            _bisect_one(check, ks, flags)


def test_bisection_checks_one_midpoint_per_call():
    ks = np.linspace(0.0, 1.0, PRESCAN_POINTS)
    edge = 0.3
    shapes = []

    def check(rows, batch):
        shapes.append(batch.shape)
        return batch <= edge

    assert _bisect_one(check, ks, ks <= edge) == (math.floor(edge * 2 ** 20) / 2 ** 20, "ok")
    # [19/64, 20/64] halves 14 times, down to 2^-20, one midpoint per call.
    assert shapes == [(1, 1)] * 14


def test_bisection_rows_keep_their_own_interval_and_tolerance():
    # Rows of other scales and spacings need 14, 15 and 17 levels: each pass
    # holds one midpoint of every row still bisecting, and the last row ends alone.
    ks = np.stack([np.linspace(0.0, 1.0, PRESCAN_POINTS),
                   4.0 * np.linspace(0.0, 1.0, PRESCAN_POINTS) ** 2,
                   np.concatenate([[0.0], np.geomspace(1e-3, 2.0, PRESCAN_POINTS - 1)])])
    edges = np.array([0.3, 2.9, 1.234567])
    flags = ks <= edges[:, None]
    passes = []

    def check(rows, batch):
        assert batch.shape == (len(rows), 1)
        passes.append(len(rows))
        return batch <= edges[rows, None]

    k_max, statuses = _bisect_max_k(check, ks, flags)
    for r, edge in enumerate(edges):
        alone = _bisect_one(lambda rows, batch: batch <= edge, ks[r], flags[r])
        assert (k_max[r], statuses[r]) == alone, r
    assert passes == [3] * 14 + [2] + [1, 1]


class _ReferenceMinor:
    """One minor compiled and checked on its own, term row by term row.

    This is how feasibility was decided before the per-pair tables, with the
    floor's scale taken from the term magnitudes before they merge.
    """

    def __init__(self, minor, bindings, tgrid):
        terms = {}
        for exp, mono, coeff in minor.terms():
            e = float(exp[0])
            if exp[1]:
                e += float(exp[1]) * bindings["alpha"]
            base = float(coeff)
            kpow = 0
            for sym, power in mono:
                if sym == "k":
                    kpow = power
                else:
                    base *= bindings[sym] ** power
            value, size = terms.get((kpow, e), (0.0, 0.0))
            terms[(kpow, e)] = (value + base, size + abs(base))
        items = sorted(terms.items())
        self.kpows = np.array([kp for (kp, _e), _v in items], dtype=float)
        self.exps = np.array([e for (_kp, e), _v in items], dtype=float)
        self.bases = np.array([v for _key, (v, _s) in items])
        self.sizes = np.array([s for _key, (_v, s) in items])
        self.tpowers = tgrid[None, :] ** self.exps[:, None]
        self.exp_masks = [self.exps == e for e in sorted(set(self.exps), reverse=True)]

    def coeffs(self, k):
        if k == 0:
            keep = self.kpows == 0
            return self.bases * keep, self.sizes * keep
        return self.bases * np.power(k, self.kpows), self.sizes * np.power(abs(k), self.kpows)

    def violations(self, k):
        c, a = self.coeffs(k)
        return c @ self.tpowers < -REL_FLOOR * (a @ self.tpowers)

    def end_ok(self, k, masks):
        """The first exponent of masks whose coefficient clears the floor has a
        positive one."""
        c, a = self.coeffs(k)
        for mask in masks:
            coeff, scale = float(np.sum(c[mask])), float(np.sum(a[mask]))
            if abs(coeff) <= REL_FLOOR * scale:
                continue
            return coeff > 0
        return True


def _reference_feasible(minors, k, domain):
    """Every minor is nonnegative on the grid, leads with a positive
    coefficient unless domain is a Window and, on AllPositive, trails with one."""
    return all(not m.violations(k).any()
               and (isinstance(domain, Window) or m.end_ok(k, m.exp_masks))
               and (not isinstance(domain, AllPositive) or m.end_ok(k, m.exp_masks[::-1]))
               for m in minors)


_DIFFERENTIAL_CASES = [pytest.param(row.system, row.query, id=row.label)
                       for row in catalog_rows(1.0, 4.0)] + [
    pytest.param("second-order-hessian",
                 RateQuery(LINEAR, mu=1.0, grid={"a": (0.5, 1.0, 1.5), "b": (0.0, 0.5, 1.0)}),
                 id="second-order-hessian-3x3")]


@pytest.mark.parametrize("system, query", _DIFFERENTIAL_CASES)
def test_feasible_matches_per_minor_reference(system, query, enumerations):
    """Per-pair tables against the per-minor evaluator, at the ks max_rate settles on.

    Flags are compared at k = 0, the doubling, the 65-point pre-scan (one k at
    a time and all of them in one batch) and k_max; violation masks at k = 0,
    the first infeasible pre-scan k and k_max.
    The merged coefficients and magnitudes must be bit-identical.
    """
    tgrid = time_grid(query.t_domain)
    domain = query.t_domain
    for group in enumerations(system):
        conds = psd_conditions(group.representative, query.gamma, query.corners())
        for point in query.grid_points():
            compiled = compile_conditions([conds], [point], tgrid)
            reference = [_ReferenceMinor(m, point, tgrid) for m in _exprs(conds)]
            where = f"group {group.group_id} at {point}"
            for table, column in ((compiled.coef[0], "bases"), (compiled.size[0], "sizes")):
                expected = np.concatenate([getattr(m, column) for m in reference] + [[]])
                assert np.array_equal(np.sort(table[table != 0]),
                                      np.sort(expected[expected != 0])), where

            def check(k):
                return bool(_flags(compiled, [k], domain)[0])

            def same(k, mask=False):
                flag = check(k)
                assert flag == _reference_feasible(reference, k, domain), f"{where}, k={k}"
                if mask:
                    expected = np.zeros(len(tgrid), dtype=bool)
                    for minor in reference:
                        expected |= minor.violations(k)
                    assert np.array_equal(compiled.violations([k])[0], expected), f"{where}, k={k}"
                return flag

            if not same(0.0, mask=True):
                continue
            k_hi = 1.0
            while same(k_hi) and k_hi < K_CAP:
                k_hi *= 2.0
            ks = np.linspace(0.0, k_hi, PRESCAN_POINTS)
            flags = [same(k) for k in ks]
            batched = _flags(compiled, ks, domain)
            assert batched.tolist() == flags, f"{where}, pre-scan up to k={k_hi}"
            if all(flags):
                k_max = k_hi
            else:
                same(ks[flags.index(False)], mask=True)
                k_max = _bisect_one(lambda rows, batch: compiled.feasible(batch, domain),
                                    ks, batched)[0]
            same(k_max, mask=True)


def _one_midpoint_bisection(check, ks, flags):
    """_bisect_max_k checking one midpoint at a time."""
    first_bad = int(np.argmin(flags))
    status = "nonmonotone" if flags[first_bad:].any() else "ok"
    lo, hi = ks[first_bad - 1], ks[first_bad]
    while hi - lo > BISECT_REL_TOL * ks[-1]:
        mid = 0.5 * (lo + hi)
        if check(mid):
            lo = mid
        else:
            hi = mid
    return lo, status


@pytest.mark.parametrize("system, query", _DIFFERENTIAL_CASES)
def test_batched_bisection_walks_the_one_midpoint_path(system, query, enumerations):
    tgrid = time_grid(query.t_domain)
    domain = query.t_domain
    bisected = 0
    for group in enumerations(system):
        conds = psd_conditions(group.representative, query.gamma, query.corners())
        for point in query.grid_points():
            compiled = compile_conditions([conds], [point], tgrid)
            if not _flags(compiled, [0.0], domain)[0]:
                continue
            doubling = _flags(compiled, DOUBLING_KS, domain)
            if doubling.all():
                continue
            ks = np.linspace(0.0, DOUBLING_KS[np.argmin(doubling)], PRESCAN_POINTS)
            flags = _flags(compiled, ks, domain)
            batched = _bisect_one(lambda rows, batch: compiled.feasible(batch, domain),
                                  ks, flags)
            single = _one_midpoint_bisection(lambda k: _flags(compiled, [k], domain)[0],
                                             ks, flags)
            assert batched == single, f"group {group.group_id} at {point}"
            bisected += 1
    assert bisected


def _dict_merge_compile(conds, bindings):
    """coef, size and exponents of compile_conditions, by merging the output of
    bind_terms over float_terms of each minor's Expr key by key."""
    merged = {}
    tables = [float_terms(m, ("k",)) for m in _exprs(conds)]
    term_minors = [i for i, table in enumerate(tables) for _term in table]
    terms = [term for table in tables for term in table]
    for minor, (base, e, (kpow,)) in zip(term_minors, bind_terms(terms, bindings)):
        key = (kpow, minor, e)
        entry = merged.get(key)
        if entry is None:
            merged[key] = [base, abs(base)]
        else:
            entry[0] += base
            entry[1] += abs(base)
    exps = sorted({e for _kpow, _minor, e in merged}, reverse=True)
    column = {e: i for i, e in enumerate(exps)}
    shape = (max((kpow for kpow, _minor, _e in merged), default=0) + 1,
             len(conds.minors), len(exps))
    coef, size = np.zeros(shape), np.zeros(shape)
    for (kpow, minor, e), (value, magnitude) in merged.items():
        coef[kpow, minor, column[e]] = value
        size[kpow, minor, column[e]] = magnitude
    return coef, size, np.array(exps, dtype=float)


_COMPILE_CASES = _DIFFERENTIAL_CASES + [
    pytest.param("second-order-hessian",
                 RateQuery(LINEAR, mu=0.7, grid={"a": (0.3, 1.7), "b": (0.7, 2.9)}),
                 id="second-order-hessian-inexact-products"),
    pytest.param("generalized-nag",
                 RateQuery(POWER, mu=1.0, grid={"alpha": (0.25, 0.5, 0.75), "r": (1.0,)},
                           t_domain=Eventually(1e4)),
                 id="generalized-nag-power-alpha-grid")]


@pytest.mark.parametrize("system, query", _COMPILE_CASES)
def test_compile_conditions_matches_dict_merge(system, query, enumerations):
    tgrid = time_grid(query.t_domain)
    for group in enumerations(system):
        conds = psd_conditions(group.representative, query.gamma, query.corners())
        for point in query.grid_points():
            compiled = compile_conditions([conds], [point], tgrid)
            coef, size, exps = _dict_merge_compile(conds, point)
            where = f"group {group.group_id} at {point}"
            assert compiled.shape == coef.shape[1:], where
            assert np.array_equal(compiled.coef, coef.reshape(1, len(coef), -1)), where
            assert np.array_equal(compiled.size, size.reshape(1, len(size), -1)), where
            assert np.array_equal(compiled.kexps, np.arange(len(coef))), where
            assert np.array_equal(compiled.tpowers, tgrid[None, :] ** exps[:, None]), where


def _unbound_name(compile_, conds, bindings):
    try:
        compile_(conds, bindings)
    except UnboundSymbolError as exc:
        return exc.name
    return None


@pytest.mark.parametrize("system, gamma, full, partials", [
    ("second-order-hessian", LINEAR, {"a": 1.0, "b": 0.5}, ({}, {"a": 1.0}, {"b": 0.5})),
    ("generalized-nag", POWER, {"r": 1.0, "alpha": 0.5},
     ({}, {"r": 1.0}, {"alpha": 0.5}, {"alpha": 0.25})),
])
def test_compile_conditions_names_the_same_unbound_symbol(system, gamma, full, partials,
                                                          enumerations):
    tgrid = time_grid(AllPositive())
    query = RateQuery(gamma, mu=1.0)
    raised = set()
    for group in enumerations(system)[:40]:
        conds = psd_conditions(group.representative, gamma, query.corners())
        for bindings in partials + (full,) + partials:
            name = _unbound_name(_dict_merge_compile, conds, bindings)
            assert _unbound_name(lambda c, b: compile_conditions([c], [b], tgrid),
                                 conds, bindings) == name, f"group {group.group_id}, {bindings}"
            raised.add(name)
    assert len(raised - {None}) >= 2


def _point_by_point_rate(conds, query):
    """max_rate as it ran before grid points were batched: per point, one
    compile, k = 0, the doubling, the pre-scan, bisection one midpoint at a
    time and the validity range; the first point with the largest k wins."""
    tgrid = time_grid(query.t_domain)
    domain = query.t_domain
    best = None
    for point in query.grid_points():
        compiled = compile_conditions([conds], [point], tgrid)
        if not _flags(compiled, [0.0], domain)[0]:
            continue
        doubling = _flags(compiled, DOUBLING_KS, domain)
        if doubling.all():
            k_best, status = K_CAP, "cap"
        else:
            ks = np.linspace(0.0, DOUBLING_KS[np.argmin(doubling)], PRESCAN_POINTS)
            k_best, status = _one_midpoint_bisection(
                lambda k: _flags(compiled, [k], domain)[0], ks, _flags(compiled, ks, domain))
        result = RateResult(k_best, dict(point),
                            _certified_range(compiled.violations([k_best])[0], tgrid,
                                             query.t_domain),
                            status, len(conds.minors))
        if best is None or result.k_max > best.k_max:
            best = result
    return best


def _assert_matches_point_by_point(groups, query, rates):
    assert [rate.group_id for rate in rates] == [group.group_id for group in groups]
    for group, rate in zip(groups, rates):
        conds = psd_conditions(group.representative, query.gamma, query.corners())
        expected = _point_by_point_rate(conds, query)
        where = f"group {group.group_id}"
        if expected is None:
            assert rate.result is None, where
            continue
        result = rate.result
        assert result is not None, where
        assert result.k_max == expected.k_max, where
        assert (result.status, result.validity, result.params, result.n_minors) == (
            expected.status, expected.validity, expected.params, expected.n_minors), where
        assert result == expected, where


@pytest.mark.parametrize("system, query", _DIFFERENTIAL_CASES)
def test_batched_search_matches_point_by_point(system, query, enumerations):
    groups = enumerations(system)
    _assert_matches_point_by_point(groups, query, analyze_groups(groups, query, jobs=1))


def test_stacked_kernel_flags_match_each_point_alone(enumerations):
    query = RateQuery(LINEAR, mu=1.0, grid={"a": (0.5, 1.0, 1.5), "b": (0.0, 0.5, 1.0)})
    points = query.grid_points()
    tgrid = time_grid(query.t_domain)
    rng = np.random.default_rng(7)
    checked = 0
    for group in enumerations("second-order-hessian")[::7]:
        conds = psd_conditions(group.representative, query.gamma, query.corners())
        stacked = compile_conditions([conds], points, tgrid)
        alone = [compile_conditions([conds], [point], tgrid) for point in points]
        for i, one in enumerate(alone):
            assert np.array_equal(stacked.coef[i], one.coef[0])
            assert np.array_equal(stacked.size[i], one.size[0])
        # Different ks per point, some past the rate, and nan padding at the end.
        ks = rng.uniform(0.0, 3.0, size=(len(points), 12))
        ks[::2, -3:] = np.nan
        # Three domains over one grid: both ends, the leading end, no end.
        for domain in (AllPositive(), Eventually(T_GRID_LO), Window(T_GRID_LO, T_GRID_HI)):
            flags = stacked.feasible(ks, domain)
            for i, one in enumerate(alone):
                real = ~np.isnan(ks[i])
                assert np.array_equal(flags[i][real],
                                      one.feasible(ks[i:i + 1, real], domain)[0]), i
                checked += int((~flags[i][real]).sum())
            subset = [7, 2, 5]
            assert np.array_equal(stacked.feasible(ks[subset], domain, subset), flags[subset])
        masks = stacked.violations(ks[:, 0])
        for i, one in enumerate(alone):
            assert np.array_equal(masks[i], one.violations(ks[i, :1])[0]), i
    assert checked  # some flags are False


_BLOCK_CASES = [
    ("second-order-hessian",
     RateQuery(LINEAR, mu=1.0, grid={"a": (0.5, 1.0, 1.5), "b": (0.0, 0.5, 1.0)})),
    ("hessian-nag", RateQuery(LINEAR, mu=0.5, L=9.0, grid={"r": (0.0, 0.5), "b": (0.5, 1.5)})),
    ("nag", RateQuery(LOG, mu=1.0, grid={"r": (2.0, 3.0, 5.0)})),
    ("generalized-nag",
     RateQuery(POWER, mu=1.0, grid={"alpha": (0.5,), "r": (1.0, 2.0)}, t_domain=Eventually(1e4))),
]


@pytest.mark.parametrize("system, query", _BLOCK_CASES, ids=[case[0] for case in _BLOCK_CASES])
def test_block_compile_rows_match_each_set_alone(system, query, enumerations):
    """Row g * len(points) + i of a block is set g compiled alone at point i,
    bit for bit, placed at its powers of k, minors and exponents of t in the
    block's tables; every other entry of the row is 0."""
    points = query.grid_points()
    tgrid = time_grid(query.t_domain)
    entries, cells = pooled(group.representative for group in enumerations(system)[:40])
    table = MinorTable(query.gamma, [query.corners()], entries)
    sets = [table.conditions(pair_cells, [query.corners()])[0] for pair_cells in cells]
    block = compile_conditions(sets, points, tgrid)
    exps = [_dict_merge_compile(conds, point)[2] for conds in sets for point in points]
    union = sorted(set(np.concatenate(exps).tolist()), reverse=True)
    assert block.coef.shape[0] == len(sets) * len(points)
    assert block.shape == (max(len(conds.minors) for conds in sets), len(union))
    padded = False
    for g, conds in enumerate(sets):
        alone = compile_conditions([conds], points, tgrid)
        columns = [union.index(e) for e in exps[g * len(points)].tolist()]
        n_kpows, (n_minors, n_exps) = len(alone.kexps), alone.shape
        padded |= (n_kpows, n_minors, n_exps) != (len(block.kexps),) + block.shape
        assert np.array_equal(block.tpowers[columns], alone.tpowers)
        assert block.tpowers[columns].tobytes() == alone.tpowers.tobytes()
        for i in range(len(points)):
            row = g * len(points) + i
            for name in ("coef", "size"):
                mine = getattr(block, name)[row].reshape(len(block.kexps), *block.shape)
                inner = mine[:n_kpows, :n_minors][:, :, columns]
                expected = getattr(alone, name)[i].reshape(n_kpows, n_minors, n_exps)
                assert inner.tobytes() == expected.tobytes(), (g, i, name)
                rest = mine.copy()
                rest[np.ix_(range(n_kpows), range(n_minors), columns)] = 0.0
                assert not rest.any(), (g, i, name)
    assert padded  # some set is narrower than the block


_RUN_CASES = _DIFFERENTIAL_CASES + [
    pytest.param("second-order-hessian",
                 [row.query for row in catalog_rows(1.0, 4.0)
                  if row.label in ("sc-nag", "second-order-hessian")],
                 id="sc-nag+second-order-hessian")]


@pytest.mark.parametrize("system, queries", _RUN_CASES)
def test_block_run_matches_each_group_alone(system, queries, enumerations):
    queries = queries if isinstance(queries, list) else [queries]
    entries, cells = pooled(group.representative for group in enumerations(system))
    run = analysis._analyze_run(entries, cells, queries)
    assert len(run) == len(cells)
    for g, (pair_cells, rates) in enumerate(zip(cells, run)):
        assert rates == analysis._analyze_run(entries, [pair_cells], queries)[0], g


def test_suspect_search_stays_within_its_budget(enumerations, monkeypatch):
    """A grid of 400 points is one block of 400 rows, every one feasible at
    k = 0 for these groups.  Its checks ask for more than SUSPECT_BUDGET
    elements of c at once, but no pass of the search builds more."""
    query = RateQuery(LINEAR, mu=1.0, grid={"a": tuple(np.linspace(0.25, 3.0, 20)),
                                            "b": tuple(np.linspace(0.0, 1.5, 20))})
    asked, built = [], []
    feasible_ = analysis.CompiledConditions.feasible
    suspects = analysis.CompiledConditions._suspect_pairs

    def asking(self, ks, *args):
        asked.append(ks.size * self.coef.shape[2])
        return feasible_(self, ks, *args)

    def building(self, ks, rows):
        built.append(ks.size * self.coef.shape[2])
        return suspects(self, ks, rows)

    monkeypatch.setattr(analysis.CompiledConditions, "feasible", asking)
    monkeypatch.setattr(analysis.CompiledConditions, "_suspect_pairs", building)
    groups = [group for group in enumerations("second-order-hessian")
              if group.group_id in (125, 165, 209)]
    rates = analyze_groups(groups, query)
    monkeypatch.undo()
    assert all(rate.result is not None for rate in rates)
    assert max(asked) > 4 * analysis.SUSPECT_BUDGET
    assert max(built) <= analysis.SUSPECT_BUDGET


def test_block_violations_match_each_row_alone(enumerations, monkeypatch):
    """Masks over a block's rows, each at its own k, equal each row's one-row
    pass bit for bit, also when a small SUSPECT_BUDGET splits the rows into
    passes of three."""
    query = RateQuery(LINEAR, mu=1.0, grid={"a": (0.5, 1.0, 1.5), "b": (0.0, 0.5, 1.0)})
    entries, cells = pooled(group.representative
                            for group in enumerations("second-order-hessian")[::10])
    table = MinorTable(query.gamma, [query.corners()], entries)
    sets = [table.conditions(pair_cells, [query.corners()])[0] for pair_cells in cells]
    block = compile_conditions(sets, query.grid_points(), time_grid(query.t_domain))
    n_rows = len(block.coef)
    ks = np.random.default_rng(11).uniform(0.0, 3.0, size=n_rows)
    alone = np.array([block.violations(ks[r:r + 1], [r])[0] for r in range(n_rows)])
    assert alone.any() and not alone.all()
    passes = []
    suspects = analysis.CompiledConditions._suspect_pairs

    def counting(self, ks, rows):
        passes.append(len(ks))
        return suspects(self, ks, rows)

    monkeypatch.setattr(analysis.CompiledConditions, "_suspect_pairs", counting)
    monkeypatch.setattr(analysis, "SUSPECT_BUDGET", 3 * block.coef.shape[2])
    assert block.violations(ks).tobytes() == alone.tobytes()
    assert passes == [3] * (n_rows // 3) + [n_rows % 3] * bool(n_rows % 3)
    subset = [40, 2, 17, 5]
    assert block.violations(ks[subset], subset).tobytes() == alone[subset].tobytes()


def test_certified_time_over_groups_is_the_max_over_each_alone(enumerations, monkeypatch):
    """Over every nag group in blocks of two, at two grid points, the certified
    time is the largest of the groups' own."""
    query = RateQuery(LINEAR, mu=1.0, grid={"r": (6.0, 8.0)}, t_domain=Window(1e-2, 64.0))
    entries, cells = pooled(group.representative for group in enumerations("nag"))
    alone = [certified_time(entries, [pair_cells], query, 1.0) for pair_cells in cells]
    assert 0.0 < max(alone) < 64.0 and min(alone) == 0.0
    monkeypatch.setattr(analysis, "BLOCK_POINTS", 4)
    assert certified_time(entries, cells, query, 1.0) == max(alone)


@pytest.mark.parametrize("domain", [AllPositive(), Eventually(1e4)], ids=["all", "eventually"])
def test_certified_time_needs_a_window(domain):
    query = RateQuery(LINEAR, mu=1.0, grid={"r": (8.0,)}, t_domain=domain)
    with pytest.raises(AnalysisError, match="needs a Window"):
        certified_time(*pooled([nag_winner()]), query, 1.0)


def test_verify_catalog_refuses_an_empty_row_selection():
    with pytest.raises(ValueError, match="no catalog row selected"):
        verify_catalog(1.0, 4.0, rows=[])


def test_alpha_grid_binds_one_layout_per_alpha(enumerations, monkeypatch):
    query = RateQuery(POWER, mu=1.0, grid={"alpha": (0.25, 0.5), "r": (1.0,)},
                      t_domain=Eventually(1e4))
    bound = []
    compile_ = analysis.compile_conditions

    def recording(sets, points, tgrid):
        bound.append((len(sets), any(conds.alpha_exponents for conds in sets),
                      [point["alpha"] for point in points]))
        return compile_(sets, points, tgrid)

    monkeypatch.setattr(analysis, "compile_conditions", recording)
    groups = enumerations("generalized-nag")
    rates = analyze_groups(groups, query, jobs=1)
    monkeypatch.undo()
    # One compile per block and alpha, each alpha once per block, and every
    # group's set in some block.
    block = max(1, analysis.BLOCK_POINTS // 2)
    sizes = [min(block, len(groups) - start) for start in range(0, len(groups), block)]
    assert [n_sets for n_sets, _by_alpha, _alphas in bound] == [n for n in sizes for _ in "ab"]
    assert [alphas for _n, _by_alpha, alphas in bound] == [[0.25], [0.5]] * len(sizes)
    assert all(by_alpha for _n, by_alpha, _alphas in bound)
    _assert_matches_point_by_point(groups, query, rates)
    assert any(rate.result is not None for rate in rates)


def test_compiling_two_alphas_together_is_refused(enumerations):
    query = RateQuery(POWER, mu=1.0)
    conds = next(conds for group in enumerations("generalized-nag")
                 if (conds := psd_conditions(group.representative, POWER,
                                             query.corners())).alpha_exponents)
    with pytest.raises(AnalysisError, match="must bind one alpha"):
        compile_conditions([conds], [{"r": 1.0, "alpha": 0.25}, {"r": 1.0, "alpha": 0.5}],
                           time_grid(AllPositive()))


def test_compiling_an_alpha_again_gives_the_same_tables(enumerations):
    """Each compile builds its slots and columns afresh: a condition set
    compiled at another alpha in between compiles as it did the first time."""
    query = RateQuery(POWER, mu=1.0, grid={"r": (1.0,)}, t_domain=Eventually(1e4))
    conds = next(conds for group in enumerations("generalized-nag")
                 if (conds := psd_conditions(group.representative, POWER,
                                             query.corners())).alpha_exponents)
    tgrid = time_grid(query.t_domain)
    first, other, again = (compile_conditions([conds], [{"r": 1.0, "alpha": alpha}], tgrid)
                           for alpha in (0.25, 0.5, 0.25))
    assert not np.array_equal(other.tpowers, first.tpowers)
    for name in ("coef", "size", "tpowers"):
        assert getattr(again, name).tobytes() == getattr(first, name).tobytes(), name
        assert getattr(again, name).shape == getattr(first, name).shape, name


def test_rows_sharing_a_condition_set_run_as_one_batch(enumerations, monkeypatch):
    rows = {row.label: row for row in catalog_rows(1.0, 4.0)}
    queries = [rows[label].query for label in ("sc-nag", "second-order-hessian")]
    groups = enumerations("second-order-hessian")
    compiles = []
    compile_ = analysis.compile_conditions

    def recording(sets, points, tgrid):
        compiles.append((len(sets), len(points)))
        return compile_(sets, points, tgrid)

    monkeypatch.setattr(analysis, "compile_conditions", recording)
    bundled = _analyze_queries(groups, queries, jobs=1)
    monkeypatch.undo()
    # Both rows' points in every compile, over the groups in blocks of
    # BLOCK_POINTS grid points.
    block = max(1, analysis.BLOCK_POINTS // 2)
    assert compiles == [(min(block, len(groups) - start), 2)
                        for start in range(0, len(groups), block)]
    for query, rates in zip(queries, bundled):
        assert rates == analyze_groups(groups, query)
    enumerated = {"second-order-hessian": groups}
    together = verify_catalog(1.0, 4.0, jobs=1, rows=["sc-nag", "second-order-hessian"],
                              enumerations=enumerated)
    alone = [verify_catalog(1.0, 4.0, jobs=1, rows=[label], enumerations=enumerated).rows[0]
             for label in ("sc-nag", "second-order-hessian")]
    assert together.rows == alone
    assert together.passed


def test_pool_tasks_carry_no_member_sequences(enumerations):
    # A lock cannot be pickled: the pool must ship only the entries of the
    # groups' pool and their cells, not a representative or the stage moves
    # the members are decoded from.
    groups = enumerations("nag")
    query = RateQuery(LOG, mu=1.0, convex=True, grid={"r": (3.0,)})
    enumeration = dataclasses.replace(groups[0].enumeration, moves=threading.Lock())
    locked = [PairGroup(g.group_id, threading.Lock(), g.member_count, g.state, enumeration)
              for g in groups]
    assert analyze_groups(locked, query, jobs=2) == analyze_groups(groups, query, jobs=1)


def test_batched_flags_keep_each_k_and_check():
    # t^2 - k t + 1 dips below 0 on the grid only for k > 2, with a positive
    # leading coefficient; 1 - k t / 10^7 fails only the leading check for
    # 0 < k < 10, since it stays above 0.9 up to the grid's end at t = 10^6.
    minors = (parse_expr("1*t^2 - 1*k*t + 1"), parse_expr("1 - 1/10000000*k*t"))
    conds = _minor_set(*minors)
    ks = np.array([0.0, 1.0, 3.0])
    for domain, expected in ((AllPositive(), [True, False, False]),
                             (Window(T_GRID_LO, T_GRID_HI), [True, True, False])):
        query = RateQuery(LINEAR, mu=1.0, t_domain=domain)
        compiled = compile_conditions([conds], [{}], time_grid(domain))
        assert _flags(compiled, ks, domain).tolist() == expected
        assert [_flags(compiled, [k], domain)[0] for k in ks] == expected
        assert [feasible(conds, k, query) for k in ks] == expected


def test_all_positive_checks_the_trailing_coefficient():
    # A minor of NAG's A1>B1>B2>B3 under the log form at r = 4.  Past k = 2 its
    # t^-3 coefficient turns negative, so it fails below t ~ sqrt(3 (k - 2)),
    # which at k = 2 + 1e-6 lies far below the grid's first point.
    K = Expr.symbol("k")
    minor = HALF * K * (K - 2) * (K - R - 1) * Expr.t_power(-3) + HALF * K * T_INV
    conds = _minor_set(minor)
    for domain, expected in ((AllPositive(), [True, False]), (Eventually(1.0), [True, True])):
        query = RateQuery(LINEAR, mu=1.0, grid={"r": (4.0,)}, t_domain=domain)
        assert [feasible(conds, k, query) for k in (2.0, 2.0 + 1e-6)] == expected


def test_analysis_imports_neither_simulate_nor_lyapunov():
    # Certification sits below the numeric layer: no import in analysis, at
    # module or function level, may name either module.
    with open(analysis.__file__) as source:
        tree = ast.parse(source.read())
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            named.update((node.module or "").split("."))
            named.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            named.update(part for alias in node.names for part in alias.name.split("."))
    assert not named & {"simulate", "lyapunov"}


def test_identically_zero_minor_survives_float_rounding():
    # A minor of the first-order-hessian row that vanishes identically at
    # b = -1/L.  In floats at L = 5 its k^2 terms merge to -1.1e-16, which must
    # be measured against the terms' own magnitudes, not against itself.
    minor = parse_expr("25/2*b*k - 5*b*k^2 - 25/2*b^2*k^2 + 5/2*k - 1/2*k^2")
    assert minor.subs_params({"b": Fraction(-1, 5)}) == ZERO
    conds = _minor_set(minor, corner=(0.5, 5.0))
    query = RateQuery(LINEAR, mu=0.5, L=5.0, grid={"b": (-1 / 5,)})
    compiled = compile_conditions([conds], [query.point()], time_grid(query.t_domain))
    assert compiled.coef.min() < 0  # the rounding this test is about
    for k in (0.0, 0.25, 0.5, 1.0, 4.0, K_CAP):
        assert _flags(compiled, [k], query.t_domain)[0]
        assert not compiled.violations([k]).any()


@pytest.mark.parametrize("mu, L", [(0.5, 5.0), (2.0, 20.0)])
def test_first_order_hessian_row_where_a_minor_rounds_negative(mu, L, enumerations):
    # These (mu, L) make an identically zero minor merge to a tiny negative
    # float; the row used to return k = 0 there.
    groups = {"first-order-hessian": enumerations("first-order-hessian")}
    row, = verify_catalog(mu, L, jobs=1, rows=["first-order-hessian"],
                          enumerations=groups).rows
    assert row.passed, f"{row.observed}, expected {row.expected}"


def test_scaling_invariance():
    # Scaling the ODE scales the starting matrices; scaling a pair scales every
    # minor by a positive power of the factor, so the certified rate is unchanged.
    base = CATALOG["first-order-hessian"]
    scaled = OdeSystemSpec("first-order-hessian-scaled", tuple(3 * c for c in base.coeffs))
    q0 = initial_pair(base).Q
    q0_scaled = initial_pair(scaled).Q
    assert all(3 * q0[i][j] == q0_scaled[i][j] for i in range(5) for j in range(5))

    query = RateQuery(LINEAR, mu=1.0, L=4.0, grid={"b": (-0.25,)})
    winner = first_order_winner()
    k_base = max_rate(winner, query).k_max
    tripled = PQPair(tuple(tuple(3 * e for e in row) for row in winner.P),
                     tuple(tuple(3 * e for e in row) for row in winner.Q),
                     winner.provenance, winner.has_gap)
    k_scaled = max_rate(tripled, query).k_max
    assert abs(k_base - k_scaled) <= 1e-6 * max(k_base, 1.0)


def test_eventually_domain_validity_starts_at_search_tail():
    result = max_rate(generalized_nag_winner(),
                      RateQuery(LINEAR, mu=1.0, grid={"alpha": (0.5,), "r": (1.0,)},
                                t_domain=Eventually(1e4)))
    # The certified range at the returned rate starts at the searched tail.
    assert result.validity[0] == pytest.approx(1e4, rel=1e-9)
    assert result.validity[1] == math.inf


@pytest.mark.parametrize("make, bound", [
    (lambda: Window(0.0, 10.0), "t_lo"),
    (lambda: Window(-1.0, 10.0), "t_lo"),
    (lambda: Window(5.0, 1.0), "t_hi"),
    (lambda: Window(1.0, math.inf), "t_hi"),
    (lambda: Eventually(-1.0), "t_search"),
    (lambda: Eventually(math.nan), "t_search"),
    (lambda: Eventually(2e6), "t_search"),
], ids=["window-zero", "window-negative", "window-descending", "window-infinite",
        "eventually-negative", "eventually-nan", "eventually-past-grid"])
def test_bad_time_domains_are_rejected(make, bound):
    with pytest.raises(ValueError, match=bound):
        make()


def test_catalog_rows_need_mu_below_L():
    for mu, L in ((0.0, 4.0), (2.0, 1.0), (-1.0, 4.0), (1.0, 1.0), (1.0, math.inf)):
        with pytest.raises(ValueError, match="0 < mu < L"):
            catalog_rows(mu, L)


def test_nag_window_certified_time():
    # r tuned for unit rate: PSD holds exactly up to T = 2(k^2 + mu)/k^3 = 4.
    query = RateQuery(LINEAR, mu=1.0, grid={"r": (8.0,)}, t_domain=Window(1e-2, 64.0))
    observed = certified_time(*pooled([nag_winner()]), query, 1.0)
    assert observed == pytest.approx(4.0, rel=0.025)


def test_positive_rate_group_counts(enumerations):
    """How many groups certify a strictly positive rate, per published result."""

    def positive(groups, query):
        rates = analyze_groups(groups, query)
        return sum(1 for r in rates if r.result is not None and r.result.k_max > 1e-5)

    assert positive(enumerations("damped-newton"),
                    RateQuery(LINEAR, mu=1.0, convex=True)) == 1
    assert positive(enumerations("nag"),
                    RateQuery(LOG, mu=1.0, convex=True, grid={"r": (3.0,)})) == 2
    assert positive(enumerations("generalized-nag"),
                    RateQuery(POWER, mu=1.0, grid={"alpha": (0.5,), "r": (1.0,)},
                              t_domain=Eventually(1e4))) == 2


def test_second_order_rate_breakdown(enumerations):
    groups = enumerations("second-order-hessian")
    query = RateQuery(LINEAR, mu=1.0, grid={"a": (2.0, 1.0), "b": (0.0, 1.0)})
    rates = analyze_groups(groups, query)
    ks = [r.result.k_max for r in rates if r.result is not None and r.result.k_max > 1e-5]
    assert len(ks) == 43
    top = [k for k in ks if abs(k - 1.0) < 1e-3]
    assert len(top) == 22
    # The remaining 21 peak at (2 - sqrt(2)) sqrt(mu) once the damping is tuned.
    third = [r.group_id for r in rates
             if r.result is not None and 1e-5 < r.result.k_max < 0.9]
    assert len(third) == 21
    fine = RateQuery(LINEAR, mu=1.0,
                     grid={"a": tuple(np.linspace(0.2, 4.0, 77)), "b": (0.0,)})
    best = max_rate(groups[third[0]].representative, fine)
    assert best.k_max == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-3)


def numeric_matrices(pair, gamma, t, bindings):
    def mat(entries, dim):
        return np.array([[naive_eval(entries[i][j].subs_gamma(gamma), t, bindings)
                          for j in range(dim)] for i in range(dim)])

    return mat(pair.P, 3), mat(pair.Q, 5)


def test_corner_psd_implies_interior_psd(enumerations):
    rng = random.Random(77)
    pool = enumerations("second-order-hessian") + enumerations("nag")
    mu, L = 1.0, 4.0
    checked = 0
    while checked < 20:
        group = rng.choice(pool)
        pair = group.representative
        t = 10 ** rng.uniform(-1, 2)
        bindings = {"k": rng.uniform(0.0, 2.0), "a": rng.uniform(0.0, 3.0),
                    "b": rng.uniform(-0.5, 1.0), "r": rng.uniform(0.0, 6.0)}
        corner_mats = [numeric_matrices(pair, LINEAR, t, {**bindings, "lambda": lam, "theta": th})
                       for lam in (mu, L) for th in (mu, L)]
        tol = 1e-9 * max(1.0, max(np.abs(m).max() for pm in corner_mats for m in pm))
        if not all(np.linalg.eigvalsh(m).min() >= -tol for pm in corner_mats for m in pm):
            continue
        for _ in range(20):
            lam, th = rng.uniform(mu, L), rng.uniform(mu, L)
            pm, qm = numeric_matrices(pair, LINEAR, t, {**bindings, "lambda": lam, "theta": th})
            assert np.linalg.eigvalsh(pm).min() >= -tol
            assert np.linalg.eigvalsh(qm).min() >= -tol
        checked += 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_analyze_groups_takes_the_groups_of_one_enumeration(jobs, enumerations):
    # Cells are ids of one enumeration's entries: groups of two enumerations,
    # even of one system, cannot share one table.
    query = RateQuery(LOG, mu=1.0, convex=True, grid={"r": (3.0,)})
    assert analyze_groups([], query, jobs=jobs) == []
    mixed = enumerations("nag")[:2] + enumerate_pairs(CATALOG["nag"])[2:4]
    with pytest.raises(AnalysisError, match="from one enumeration"):
        analyze_groups(mixed, query, jobs=jobs)


def test_analyze_groups_matches_serial(enumerations):
    groups = enumerations("nag")[:4]
    query = RateQuery(LOG, mu=1.0, convex=True, grid={"r": (3.0,)})
    serial = analyze_groups(groups, query, jobs=1)
    parallel = analyze_groups(groups, query, jobs=2)
    for a, b in zip(serial, parallel, strict=True):
        assert a.group_id == b.group_id
        assert (a.result is None) == (b.result is None)
        if a.result:
            assert a.result.k_max == pytest.approx(b.result.k_max, abs=1e-12)


def test_analyze_groups_pool_matches_serial_across_runs(enumerations):
    """Runs of groups split differently at 2 and 3 workers; every result is equal."""
    groups = enumerations("second-order-hessian")[:40]
    query = RateQuery(LINEAR, mu=1.0, grid={"a": (1.0, 2.0), "b": (0.0, 1.0)})
    serial = analyze_groups(groups, query, jobs=1)
    assert [rate.group_id for rate in serial] == [group.group_id for group in groups]
    assert analyze_groups(groups, query, jobs=2) == serial
    assert analyze_groups(groups, query, jobs=3) == serial


@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
def test_bootstrap_candidates_and_preconditions(mu, enumerations):
    query = RateQuery(LOG, mu=mu, grid={"r": (4.5,)})
    picks = []
    for group in enumerations("nag"):
        try:
            _check_bootstrap_shape(group.representative, query)
        except BootstrapPreconditionError:
            continue
        picks.append(group)
    assert [group.group_id for group in picks] == [9]
    assert picks[0].representative.matrix_key() == nag_bootstrap_pair().matrix_key()

    # The fully reduced winner does not qualify: its Q has no (1,3) coupling.
    with pytest.raises(BootstrapPreconditionError, match=r"no \(1,3\) coupling"):
        bootstrap_rate_check(CATALOG["nag"], nag_winner(), 2.0, query)
    # At r = 3 the claimed rate collapses onto the certified log rate.
    with pytest.raises(BootstrapPreconditionError, match="single-step range"):
        bootstrap_rate_check(CATALOG["nag"], nag_bootstrap_pair(), 2.0,
                             RateQuery(LOG, mu=mu, grid={"r": (3.0,)}))
    # ... and past the single-step range the known decay no longer bounds E.
    with pytest.raises(BootstrapPreconditionError, match="single-step range"):
        bootstrap_rate_check(CATALOG["nag"], nag_bootstrap_pair(), 2.0,
                             RateQuery(LOG, mu=mu, grid={"r": (6.5,)}))


def test_bootstrap_bounded_at_range_edge():
    # r = 6 is the edge of the single-step range for a known quadratic decay.
    ok = bootstrap_rate_check(CATALOG["nag"], nag_bootstrap_pair(), 2.0,
                              RateQuery(LOG, mu=1.0, grid={"r": (6.0,)}))
    assert ok
