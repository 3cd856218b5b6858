import pytest

from lyapsearch.expr import Expr, ZERO
from lyapsearch.systems import CATALOG, OdeSystemSpec, load_system, resolve_system


def test_catalog_inventory():
    assert set(CATALOG) == {"damped-newton", "first-order-hessian", "second-order-hessian",
                            "nag", "generalized-nag", "hessian-nag"}
    for spec in CATALOG.values():
        assert spec.coeffs[1]  # every system drives through the gradient
    assert CATALOG["damped-newton"].free_params == frozenset()
    assert CATALOG["second-order-hessian"].free_params == {"a", "b"}
    assert CATALOG["generalized-nag"].free_params == {"r", "alpha"}
    assert not CATALOG["damped-newton"].second_order
    assert CATALOG["nag"].second_order


def test_system_validation():
    one = Expr.number(1)
    with pytest.raises(ValueError):  # gradient coefficient must be nonzero
        OdeSystemSpec("bad", (ZERO, ZERO, one, ZERO, ZERO))
    with pytest.raises(ValueError):  # no gamma derivatives in coefficients
        OdeSystemSpec("bad", (ZERO, one, Expr.gamma(1), ZERO, ZERO))
    with pytest.raises(ValueError):  # k, lambda, theta are reserved
        OdeSystemSpec("bad", (ZERO, one, Expr.symbol("k"), ZERO, ZERO))


def test_load_system(tmp_path):
    path = tmp_path / "sys.txt"
    path.write_text(
        "name = custom  # trailing comment\n"
        "coeff_v1 = 0\n"
        "coeff_v2 = 1\n"
        "coeff_v3 = 1*r*t^-1\n"
        "coeff_v4 = 1*b\n"
        "coeff_v5 = 1\n"
        "params = [r, b]\n")
    spec = load_system(path)
    assert spec.name == "custom"
    assert spec.free_params == {"r", "b"}
    assert spec.coeffs == CATALOG["hessian-nag"].coeffs


def test_load_system_errors(tmp_path):
    missing = tmp_path / "missing.txt"
    missing.write_text("name = x\ncoeff_v1 = 0\n")
    with pytest.raises(ValueError, match="missing"):
        load_system(missing)

    malformed = tmp_path / "malformed.txt"
    malformed.write_text("name x\n")
    with pytest.raises(ValueError, match="malformed"):
        load_system(malformed)

    extra = tmp_path / "extra.txt"
    extra.write_text(
        "name = x\ncoeff_v1 = 0\ncoeff_v2 = 1\ncoeff_v3 = 1\n"
        "coeff_v4 = 0\ncoeff_v5 = 0\nparams = [a]\n")
    with pytest.raises(ValueError, match="declared"):
        load_system(extra)

    repeated = tmp_path / "repeated.txt"
    repeated.write_text(
        "name = x\ncoeff_v1 = 0\ncoeff_v2 = 1\ncoeff_v3 = 1*r*t^-1\n"
        "coeff_v4 = 0\ncoeff_v5 = 1\ncoeff_v3 = 5\n")
    with pytest.raises(ValueError, match="repeated key 'coeff_v3' on line 7"):
        load_system(repeated)

    misspelt = tmp_path / "misspelt.txt"
    misspelt.write_text(
        "name = x\ncoeff_v1 = 0\ncoeff_v2 = 1\ncoeff_v3 = 1\n"
        "coeff_v4 = 0\ncoeff_v5 = 0\n# a comment\ncoef_v6 = 7\n")
    with pytest.raises(ValueError, match="unknown key 'coef_v6' on line 8"):
        load_system(misspelt)


def test_resolve_system():
    assert resolve_system("nag") is CATALOG["nag"]
    with pytest.raises(KeyError):
        resolve_system("no-such-system")
