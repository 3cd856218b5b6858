import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapsearch.expr import (Expr, ExprSyntaxError, GAMMA1, GAMMA2, LINEAR, LOG, POWER,
                             UnboundSymbolError, ZERO, bind_terms, evaluate, float_terms,
                             parse_expr)

from conftest import naive_eval, random_expr

K = Expr.symbol("k")
MU = Expr.symbol("mu")
T = Expr.t_power(1)


def _eval(e, t, bindings=None):
    """e at t with every symbol bound, through the numeric path."""
    return evaluate(bind_terms(float_terms(e), bindings or {}), t)


def test_additive_inverse():
    assert T + (-T) == ZERO
    assert not (T - T)


def test_monomial_product():
    assert GAMMA1 * GAMMA1 == GAMMA1 ** 2


def test_alpha_exponent_product_against_numeric_oracle():
    lhs = K * Expr.t_power(0, -1)           # k * t^-alpha
    rhs = Expr.t_power(-1)                  # t^-1
    product = lhs * rhs
    assert product == K * Expr.t_power(-1, -1)
    rng = random.Random(42)
    for _ in range(10):
        t = rng.uniform(0.1, 10.0)
        bindings = {"k": rng.uniform(0.1, 3.0), "alpha": rng.uniform(0.05, 0.95)}
        direct = _eval(lhs, t, bindings) * _eval(rhs, t, bindings)
        assert _eval(product, t, bindings) == pytest.approx(direct, rel=1e-12)


def test_differentiate_gamma_chain():
    assert GAMMA1.diff() == GAMMA2


def test_differentiate_power_rule():
    assert (K * T ** 2).diff() == 2 * K * T


def test_differentiate_product_rule_with_finite_differences():
    e = GAMMA1 * Expr.t_power(-1)
    derivative = e.diff()
    assert derivative == GAMMA2 * Expr.t_power(-1) - GAMMA1 * Expr.t_power(-2)
    # Oracle: central differences of the log-form substitution.
    concrete = e.subs_gamma(LOG)
    concrete_d = derivative.subs_gamma(LOG)
    rng = random.Random(3)
    for _ in range(10):
        t = rng.uniform(0.5, 5.0)
        h = 1e-6 * t
        bindings = {"k": rng.uniform(0.2, 2.0)}
        fd = (_eval(concrete, t + h, bindings) - _eval(concrete, t - h, bindings)) / (2 * h)
        assert _eval(concrete_d, t, bindings) == pytest.approx(fd, rel=1e-7)


def test_substitute_gamma_linear_and_log():
    assert GAMMA1.subs_gamma(LINEAR) == K
    assert GAMMA2.subs_gamma(LINEAR) == ZERO
    assert GAMMA1.subs_gamma(LOG) == K * Expr.t_power(-1)
    assert GAMMA2.subs_gamma(LOG) == -1 * K * Expr.t_power(-2)


def test_substitute_gamma_power_second_derivative():
    expected = -1 * Expr.symbol("alpha") * K * Expr.symbol("r") * Expr.t_power(-1, -1)
    assert GAMMA2.subs_gamma(POWER) == expected
    # Consistency: the second derivative is the derivative of the first.
    assert POWER.deriv(1).diff() == GAMMA2.subs_gamma(POWER)


def _fraction_exponents(e: Expr) -> Expr:
    """The same expression with every exponent part stored as a Fraction."""
    return Expr({((Fraction(p), Fraction(q)), mono): coeff for (p, q), mono, coeff in e.terms()})


@pytest.mark.parametrize("e", [
    Expr.t_power(Fraction(4, 2)),
    Expr.t_power(Fraction(1, 2)) * Expr.t_power(Fraction(1, 2)),
    (K * Expr.t_power(3) + Expr.t_power(Fraction(2), Fraction(1))).diff(),
    parse_expr("1*t^4/2*k - 1/2*t^2+1*alpha + 3*t^-1/1-2*alpha"),
], ids=["t_power", "product", "diff", "parse_expr"])
def test_integral_exponents_are_stored_as_int(e):
    assert e
    for (p, q), _mono, _coeff in e.terms():
        assert type(p) is int and type(q) is int, (p, q)
    same = _fraction_exponents(e)
    assert e == same and hash(e) == hash(same)
    assert str(e) == str(same)


def test_non_integral_exponent_parts_stay_fractions():
    e = Expr.t_power(Fraction(1, 2), Fraction(-3, 2)) * Expr.t_power(1)
    (p, q), _mono, _coeff = next(e.terms())
    assert (p, q) == (Fraction(3, 2), Fraction(-3, 2))
    assert type(p) is Fraction and type(q) is Fraction


def test_eval_basic():
    assert _eval(T ** 2, 3.0) == pytest.approx(9.0)
    assert _eval(K - K ** 2, 1.0, {"k": 1.0}) == pytest.approx(0.0)


def test_eval_matches_naive_recomputation(rng):
    for _ in range(25):
        e = random_expr(rng, max_terms=4, allow_gamma=False, symbols=("k", "mu", "a", "b"))
        t = rng.uniform(0.2, 5.0)
        bindings = {s: rng.uniform(0.1, 3.0) for s in ("k", "mu", "a", "b")}
        assert _eval(e, t, bindings) == pytest.approx(naive_eval(e, t, bindings),
                                                      abs=1e-12, rel=1e-12)


def test_eval_unbound_symbol_is_named():
    with pytest.raises(UnboundSymbolError) as err:
        _eval(K * MU, 1.0, {"k": 1.0})
    assert err.value.name == "mu"
    with pytest.raises(UnboundSymbolError):
        _eval(GAMMA1, 1.0, {})


def test_unbound_symbol_error_survives_pickling():
    err = pickle.loads(pickle.dumps(UnboundSymbolError("r")))
    assert err.name == "r"
    assert str(err) == "unbound symbol 'r'"


def test_numeric_path_matches_naive_eval(rng):
    free = ("lambda", "theta")
    n = 4
    for _ in range(200):
        e = random_expr(rng, max_terms=4, allow_gamma=False, symbols=("a", "r") + free)
        e = e * Expr.t_power(0, rng.choice([0, 1, -2]))
        bindings = {"a": rng.uniform(0.5, 2.0), "r": rng.uniform(0.5, 2.0),
                    "alpha": rng.uniform(0.05, 0.95)}
        lam, theta, ts = (np.array([rng.uniform(lo, 3.0) for _ in range(n)])
                          for lo in (0.0, 0.0, 0.2))
        bound = bind_terms(float_terms(e, free), bindings)
        at_scalar_t = np.broadcast_to(evaluate(bound, ts[0], lam, theta), (n,))
        along_t = np.broadcast_to(evaluate(bound, ts, lam, theta), (n,))
        for i in range(n):
            point = {**bindings, "lambda": lam[i], "theta": theta[i]}
            assert at_scalar_t[i] == pytest.approx(naive_eval(e, ts[0], point),
                                                   rel=1e-12, abs=1e-10)
            assert along_t[i] == pytest.approx(naive_eval(e, ts[i], point), rel=1e-12, abs=1e-10)


def test_numeric_path_names_unbound_symbols_and_keeps_constants_scalar():
    e = parse_expr("2*r*t^1+-1*alpha + 3")
    with pytest.raises(UnboundSymbolError) as err:
        bind_terms(float_terms(e), {"alpha": 0.5})
    assert err.value.name == "r"
    with pytest.raises(UnboundSymbolError) as err:
        bind_terms(float_terms(e), {"r": 1.0})
    assert err.value.name == "alpha"
    constant = evaluate(bind_terms(float_terms(Expr.number(3) * MU), {"mu": 0.5}), np.ones(7))
    assert isinstance(constant, float) and constant == 1.5
    assert evaluate(bind_terms(float_terms(ZERO), {}), np.ones(7)) == 0.0


@given(st.lists(
    st.tuples(st.integers(-3, 3), st.sampled_from(["", "k", "mu", "gamma1"]),
              st.fractions(min_value=-3, max_value=3)),
    max_size=6),
    st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_canonical_form_is_order_independent(term_specs, hrandom):
    def build(specs):
        total = ZERO
        for power, sym, coeff in specs:
            term = Expr.number(coeff) * Expr.t_power(power)
            if sym:
                term = term * Expr.symbol(sym)
            total = total + term
        return total

    shuffled = list(term_specs)
    hrandom.shuffle(shuffled)
    assert build(term_specs) == build(shuffled)


def test_differentiation_is_linear(rng):
    for _ in range(30):
        a, b = random_expr(rng), random_expr(rng)
        assert (a + b).diff() == a.diff() + b.diff()


def test_substitution_commutes_with_differentiation(rng):
    # Holds for the linear and log forms with gamma orders up to 4.
    for form in (LINEAR, LOG):
        for _ in range(25):
            e = random_expr(rng)
            e = e * Expr.symbol(f"gamma{rng.randint(1, 4)}") if rng.random() < 0.5 else e
            assert e.diff().subs_gamma(form) == e.subs_gamma(form).diff()


def test_derivative_matches_finite_differences(rng):
    checked = 0
    while checked < 20:
        e = random_expr(rng, max_terms=3).subs_gamma(LOG)
        if not e:
            continue
        d = e.diff()
        t = rng.uniform(0.5, 4.0)
        bindings = {s: rng.uniform(0.2, 2.0) for s in ("k", "a", "b", "r")}
        h = 1e-5 * t
        fd = (_eval(e, t + h, bindings) - _eval(e, t - h, bindings)) / (2 * h)
        scale = max(1.0, abs(fd))
        assert abs(_eval(d, t, bindings) - fd) <= 1e-6 * scale
        checked += 1


def test_parse_round_trip(rng):
    for _ in range(40):
        e = random_expr(rng, max_terms=4)
        assert parse_expr(str(e)) == e


@pytest.mark.parametrize("text, expected", [
    ("1*r*t^-1", Expr.symbol("r") * Expr.t_power(-1)),
    ("1/2*t^-2*k", Fraction(1, 2) * Expr.t_power(-2) * K),
    ("-1/2*k + 3*t", Fraction(-1, 2) * K + 3 * T),
    ("1*t^0-1*alpha", Expr.t_power(0, -1)),
    ("2*k^2 - 1*k", 2 * K ** 2 - K),
    ("0", ZERO),
])
def test_parse_examples(text, expected):
    assert parse_expr(text) == expected


def test_parse_round_trip_with_alpha_exponents():
    e = K * Expr.t_power(Fraction(-1), Fraction(-2)) + Expr.t_power(0, 1) - MU
    assert parse_expr(str(e)) == e


def test_parse_rejects_unknown_identifier():
    with pytest.raises(ExprSyntaxError):
        parse_expr("1*zeta")
    with pytest.raises(ExprSyntaxError):
        parse_expr("1*k +")
