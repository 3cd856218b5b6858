import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from lyapsearch.expr import Expr, ZERO
from lyapsearch.pq import EntryPool, PQPair, _sym_matrix
from lyapsearch.sequences import enumerate_pairs
from lyapsearch.systems import CATALOG

_ENUM_CACHE = {}


@pytest.fixture(scope="session")
def enumerations():
    """Cached enumerate_pairs per catalog system; shared across test modules."""

    def get(name):
        if name not in _ENUM_CACHE:
            _ENUM_CACHE[name] = enumerate_pairs(CATALOG[name])
        return _ENUM_CACHE[name]

    return get


def random_expr(rng: random.Random, max_terms: int = 3, allow_gamma: bool = True,
                symbols=("a", "b", "r")) -> Expr:
    atoms = list(symbols)
    if allow_gamma:
        atoms += ["gamma1", "gamma2"]
    out = ZERO
    for _ in range(rng.randint(0, max_terms)):
        term = Expr.number(Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2])))
        term = term * Expr.t_power(rng.randint(-2, 2))
        for _ in range(rng.randint(0, 2)):
            term = term * Expr.symbol(rng.choice(atoms))
        out = out + term
    return out


def naive_eval(e: Expr, t: float, bindings) -> float:
    """Independent term-by-term evaluation using only the public term iterator."""
    total = 0.0
    for (p, q), mono, coeff in e.terms():
        exponent = float(p) + float(q) * bindings.get("alpha", 0.0)
        value = float(coeff) * math.pow(t, exponent)
        for sym, power in mono:
            value *= math.pow(bindings[sym], power)
        total += value
    return total


def random_pair(rng: random.Random, allow_gamma: bool = True) -> PQPair:
    """A random symmetric pair, marked as carrying the objective-gap term."""
    p_entries = {(i, j): random_expr(rng, allow_gamma=allow_gamma)
                 for i in range(1, 4) for j in range(i, 4)}
    q_entries = {(i, j): random_expr(rng, allow_gamma=allow_gamma)
                 for i in range(1, 6) for j in range(i, 6)}
    return PQPair(P=_sym_matrix(3, p_entries), Q=_sym_matrix(5, q_entries), has_gap=True)


def pooled(pairs):
    """The entries of one EntryPool holding every pair, and each pair's cells there."""
    pool = EntryPool()
    cells = [pool.cells(pair) for pair in pairs]
    return pool.entries, cells


@pytest.fixture
def rng():
    return random.Random(20240901)


@pytest.fixture(scope="session")
def lyapunov_increases():
    """Max normalized forward increase of each certified function, computed once."""
    from lyapsearch.lyapunov import CATALOG as LCAT, monotonicity_check

    return {name: monotonicity_check(name, mu=1.0, L=4.0) for name in LCAT}


@pytest.fixture(scope="session")
def oracle_golden():
    """Oracle values recorded as float.hex before the RK4 maps went stage-major.

    monotonicity: per certificate, monotonicity_check at each (mu, L) of
    points.  conservation: per system, conservation_check of each sequence on
    that system's crosscheck run at L = 4 and step dt.
    """
    return json.loads((Path(__file__).parent / "fixtures" / "oracle-golden.json").read_text())


@pytest.fixture(scope="session")
def restart_report_20():
    import math

    from lyapsearch.restart import RestartSpec, run_restart

    return run_restart(RestartSpec(l=1.0 / math.sqrt(2.0), c=2.0, mu=1.0, rounds=20))
