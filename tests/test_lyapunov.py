import re

import numpy as np
import pytest

from lyapsearch.analysis import (CATALOG_REL_TOL, catalog_rows, certified_time, grid_step_factor,
                                 max_rate)
from lyapsearch.lyapunov import CATALOG, monotonicity_check, run_certificate
from lyapsearch.pq import apply_sequence, initial_pair
from lyapsearch.systems import CATALOG as SYSTEMS

from conftest import pooled


def test_catalog_has_nine_entries():
    assert len(CATALOG) == 9


def test_monotonicity_values_match_recorded_bits(oracle_golden, lyapunov_increases):
    assert list(oracle_golden["monotonicity"]) == list(CATALOG)
    for name, recorded in oracle_golden["monotonicity"].items():
        for (mu, L), expected in zip(oracle_golden["points"], recorded, strict=True):
            value = (lyapunov_increases[name] if (mu, L) == (1.0, 4.0)
                     else monotonicity_check(name, mu=mu, L=L))
            assert value.hex() == expected, (name, mu, L)


def test_all_certificates_non_increasing(lyapunov_increases):
    for name, increase in lyapunov_increases.items():
        assert increase <= 1e-8, f"{name}: {increase:+.3e}"


@pytest.mark.parametrize("mu, L", [(1.0, 4.0), (0.5, 9.0)])
def test_certificates_are_the_catalog_pairs(mu, L):
    # Each certificate runs its row's system, gamma form and parameter point;
    # its winning sequence must reach the row's rate on its own.
    rows = {row.label: row for row in catalog_rows(mu, L)}
    for name, spec in CATALOG.items():
        row = rows[name]
        query = row.query
        assert all(len(values) == 1 for values in query.grid.values()), name
        pair = apply_sequence(initial_pair(SYSTEMS[row.system]), spec.ops)
        if row.expected_window is not None:
            step = grid_step_factor()
            window = certified_time(*pooled([pair]), query, row.k_probe)
            assert row.expected_window / step ** 2 <= window <= row.expected_window * step ** 2
        elif row.k_range is not None:
            assert row.k_range[0] <= max_rate(pair, query).k_max < row.k_range[1], name
        else:
            k = max_rate(pair, query).k_max
            assert k == pytest.approx(row.expected_k, rel=CATALOG_REL_TOL), name


def test_certificate_dominates_weighted_gap():
    # E was built to sit above e^gamma (f - f*); spot-check a couple of entries.
    rows = {row.label: row for row in catalog_rows(1.0, 4.0)}
    for name, weight in (("sc-nag", lambda t, k: np.exp(k * t)),
                         ("nag-convex", lambda t, k: t ** k)):
        traj, energy = run_certificate(name)
        k = rows[name].expected_k
        assert np.all(energy >= weight(traj.times, k) * traj.gaps - 1e-12)


def test_detector_flags_rate_beyond_monotone_range():
    # The certificate's integrand stays PSD up to k = (4/3) sqrt(mu), so the
    # first numerically visible increases need a rate well above that.
    increase = monotonicity_check("sc-nag", k=1.6)
    assert increase > 1e-4


def test_monotone_strictly_past_certified_rate():
    # Between sqrt(mu) and (4/3) sqrt(mu): PSD of the boundary form fails, yet
    # E still cannot increase; only the rate-domination property is lost.
    assert monotonicity_check("sc-nag", k=1.2) <= 1e-8


@pytest.mark.parametrize("mu, L", [(2.0, 2.0), (4.0, 1.0)], ids=["mu-equals-L", "mu-above-L"])
def test_certificates_need_mu_below_L(mu, L):
    # A certificate reads its catalog row, and the rows need 0 < mu < L.
    message = f"catalog rows need 0 < mu < L, got mu={mu!r}, L={L!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        monotonicity_check("damped-newton", mu=mu, L=L)
