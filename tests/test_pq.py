import random
from fractions import Fraction

import pytest

from lyapsearch.expr import Expr, GAMMA1, LINEAR, ZERO
from lyapsearch.pq import OperationError, apply_operation, apply_sequence, initial_pair
from lyapsearch.systems import CATALOG

from conftest import random_pair

HALF = Fraction(1, 2)
LAM = Expr.symbol("lambda")
B = Expr.symbol("b")
R = Expr.symbol("r")
MU = Expr.symbol("mu")


# The left-behind entry each operation zeroes out (1-based Q indices).
ZERO_TARGETS = {
    "B1": (3, 5), "B2": (1, 5), "B3": (1, 3), "C1": (2, 4),
    "D1": (3, 4), "D2": (2, 5), "D3": (2, 3), "D4": (1, 4),
    "E1": (1, 4), "F1": (3, 4),
}

# Composition is left to right: "E1D4" applies E1 first, then D4.
IDENTITIES = [
    ("E1 D1", "D1 E1"),
    ("E1 D2", "D2 E1"),
    ("E1 D4", "E1"),
    ("D4 E1", "D4"),
    ("F1 D3", "D3 F1"),
    ("F1 D4", "D4 F1"),
    ("F1 D1", "F1"),
    ("D1 F1", "D1"),
    ("E1 F1", "F1 E1"),
    ("E1 D3 E1", "D3 E1"),
    ("F1 D2 F1", "D2 F1"),
    ("D2 D3 D2", "D2 D3"),
    ("D2 F1 D2", "D2 F1"),
    ("D3 E1 D3", "D3 E1"),
    ("D1 D2", "D2"),
    ("D2 D1", "D1"),
    ("D3 D4", "D4"),
    ("D4 D3", "D3"),
]


def check_identity(lhs: str, rhs: str, rng: random.Random, samples: int) -> None:
    for _ in range(samples):
        pair = random_pair(rng)
        left = apply_sequence(pair, lhs.split())
        right = apply_sequence(pair, rhs.split())
        assert left.matrix_key() == right.matrix_key(), f"{lhs} != {rhs}"


def test_initial_pair_first_order():
    pair = initial_pair(CATALOG["first-order-hessian"])
    assert pair.P == tuple((ZERO,) * 3 for _ in range(3))
    assert pair.q_entry(1, 2) == HALF * GAMMA1
    assert pair.q_entry(1, 3) == HALF * GAMMA1
    assert pair.q_entry(1, 4) == HALF * B * GAMMA1
    assert pair.q_entry(2, 3) == HALF
    assert pair.q_entry(3, 3) == Expr.number(1)
    assert pair.q_entry(3, 4) == HALF * B
    for idx in ((1, 1), (1, 5), (2, 2), (2, 4), (2, 5), (3, 5), (4, 4), (4, 5), (5, 5)):
        assert not pair.q_entry(*idx)


def test_initial_pair_damped_newton():
    pair = initial_pair(CATALOG["damped-newton"])
    assert pair.q_entry(1, 2) == HALF * GAMMA1
    assert pair.q_entry(1, 4) == HALF * GAMMA1
    assert pair.q_entry(2, 3) == HALF
    assert pair.q_entry(3, 4) == HALF
    assert not pair.q_entry(3, 3) and not pair.q_entry(1, 3)


def test_initial_pair_nag():
    pair = initial_pair(CATALOG["nag"])
    assert pair.q_entry(3, 3) == R * Expr.t_power(-1)
    assert pair.q_entry(1, 5) == HALF * GAMMA1
    assert pair.q_entry(3, 5) == HALF
    assert pair.q_entry(1, 3) == HALF * R * Expr.t_power(-1) * GAMMA1


def test_a1_update():
    pair = apply_operation(initial_pair(CATALOG["damped-newton"]), "A1")
    assert pair.q_entry(2, 3) == ZERO
    assert pair.q_entry(1, 2) == ZERO
    assert pair.q_entry(1, 1) == HALF * LAM * GAMMA1
    assert pair.has_gap


def test_a1_ordering_errors():
    fresh = initial_pair(CATALOG["damped-newton"])
    with pytest.raises(OperationError):
        apply_operation(fresh, "B1")
    once = apply_operation(fresh, "A1")
    with pytest.raises(OperationError):
        apply_operation(once, "A1")
    with pytest.raises(OperationError):
        apply_operation(fresh, "Z9")
    for ops, message in ((("B1",), "B1 applied before A1"),
                         (("A1", "A1"), "A1 applied twice"),
                         (("A1", "Z9"), "unknown operation 'Z9'")):
        with pytest.raises(OperationError, match=message):
            apply_sequence(fresh, ops)


def test_b1_moves_q35():
    # The second-order system starts with Q35 = 1/2.
    pair = apply_sequence(initial_pair(CATALOG["second-order-hessian"]), ("A1", "B1"))
    assert pair.p_entry(3, 3) == HALF
    assert pair.q_entry(3, 5) == ZERO
    assert pair.q_entry(3, 3) == Expr.symbol("a") - HALF * GAMMA1


def test_f1_identity_on_zero_entry():
    pair = apply_operation(initial_pair(CATALOG["nag"]), "A1")
    assert pair.q_entry(3, 4) == ZERO
    after = apply_operation(pair, "F1")
    assert after.matrix_key() == pair.matrix_key()


def test_gradient_flow_worked_example():
    # Gradient flow is the first-order system at b = 0; A1 then B3 builds the
    # certificate with boundary term (mu/2) e^(mu t) ||x - x*||^2.
    pair = apply_sequence(initial_pair(CATALOG["first-order-hessian"]), ("A1", "B3"))
    p11 = pair.p_entry(1, 1).subs_params({"b": 0}).subs_gamma(LINEAR).subs_params({"k": MU})
    assert p11 == HALF * MU
    q11 = pair.q_entry(1, 1).subs_params({"b": 0}).subs_gamma(LINEAR).subs_params({"k": MU})
    assert q11 == HALF * LAM * MU - HALF * MU ** 2
    q33 = pair.q_entry(3, 3).subs_params({"b": 0})
    assert q33 == Expr.number(1)


def test_apply_sequence_empty_tail():
    fresh = initial_pair(CATALOG["damped-newton"])
    base = apply_operation(fresh, "A1")
    assert apply_sequence(base, ()).matrix_key() == base.matrix_key()
    untouched = apply_sequence(fresh, ())
    assert untouched.matrix_key() == fresh.matrix_key()
    assert not untouched.has_gap and untouched.provenance == fresh.provenance == ()
    assert apply_sequence(base, ()).provenance == ("A1",)


def test_e1_then_d4_collapses_on_damped_newton():
    start = initial_pair(CATALOG["damped-newton"])
    via_d4 = apply_sequence(start, ("A1", "E1", "D4"))
    direct = apply_sequence(start, ("A1", "E1"))
    assert via_d4.matrix_key() == direct.matrix_key()


def test_symmetry_preserved_by_every_operation(rng):
    for op in ("B1", "B2", "B3", "C1", "D1", "D2", "D3", "D4", "E1", "F1"):
        for _ in range(5):
            out = apply_operation(random_pair(rng), op)
            assert all(out.P[i][j] == out.P[j][i] for i in range(3) for j in range(3)), op
            assert all(out.Q[i][j] == out.Q[j][i] for i in range(5) for j in range(5)), op


def test_zero_target_postconditions(rng):
    for op, (i, j) in ZERO_TARGETS.items():
        for _ in range(10):
            out = apply_operation(random_pair(rng), op)
            assert out.q_entry(i, j) == ZERO, op


def test_operations_idempotent(rng):
    for op in ("B1", "B2", "B3", "C1", "D1", "D2", "D3", "D4", "E1", "F1"):
        for _ in range(10):
            pair = random_pair(rng)
            once = apply_operation(pair, op)
            twice = apply_operation(once, op)
            assert once.matrix_key() == twice.matrix_key(), op


@pytest.mark.parametrize("lhs, rhs", IDENTITIES, ids=[f"{a}={b}" for a, b in IDENTITIES])
def test_composition_identities_quick(lhs, rhs, rng):
    check_identity(lhs, rhs, rng, samples=15)
