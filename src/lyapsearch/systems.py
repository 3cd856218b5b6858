"""ODE system descriptions and the built-in catalog.

A system is the coefficient vector (c1..c5) of

    c1*(x - x*) + c2*grad f + c3*dx/dt + c4*hess f dx/dt + c5*d2x/dt2 = 0

with exact expression coefficients that may involve t and free scalar
parameters, but never gamma derivatives or the convexity parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .expr import Expr, is_gamma_symbol, parse_expr

_FORBIDDEN = {"lambda", "theta", "k"}


@dataclass(frozen=True)
class OdeSystemSpec:
    name: str
    coeffs: tuple[Expr, Expr, Expr, Expr, Expr]
    free_params: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if len(self.coeffs) != 5:
            raise ValueError("a system needs exactly five coefficients")
        if not self.coeffs[1]:
            raise ValueError(f"system {self.name!r} has a zero grad-f coefficient")
        symbols = set()
        for c in self.coeffs:
            symbols |= c.free_symbols()
        if any(is_gamma_symbol(s) for s in symbols):
            raise ValueError(f"system {self.name!r} contains gamma derivatives")
        bad = symbols & _FORBIDDEN
        if bad:
            raise ValueError(f"system {self.name!r} uses reserved symbols {sorted(bad)}")
        object.__setattr__(self, "free_params", frozenset(symbols))

    @property
    def second_order(self) -> bool:
        return bool(self.coeffs[4])


def _system(name: str, c1, c2, c3, c4, c5) -> OdeSystemSpec:
    def conv(x):
        if isinstance(x, Expr):
            return x
        if isinstance(x, str):
            return parse_expr(x)
        return Expr.number(x)

    return OdeSystemSpec(name, tuple(conv(c) for c in (c1, c2, c3, c4, c5)))


# Catalog of the analyzed system classes.  Damping and Hessian coefficients
# use the free parameters a, b, r, alpha; all are bound at analysis time.
CATALOG: dict[str, OdeSystemSpec] = {
    spec.name: spec
    for spec in (
        _system("damped-newton", 0, 1, 0, 1, 0),
        _system("first-order-hessian", 0, 1, 1, "1*b", 0),
        _system("second-order-hessian", 0, 1, "1*a", "1*b", 1),
        _system("nag", 0, 1, "1*r*t^-1", 0, 1),
        _system("generalized-nag", 0, 1, "1*r*t^0-1*alpha", 0, 1),
        _system("hessian-nag", 0, 1, "1*r*t^-1", "1*b", 1),
    )
}


def load_system(path: str | Path) -> OdeSystemSpec:
    """Read a system-spec file.

    Format: 'key = value' lines with keys name, coeff_v1..coeff_v5 and an
    optional 'params = [a, b]' list (informational; free parameters are
    inferred from the coefficients).  Each key appears at most once, and no
    other key is allowed.  '#' starts a comment.
    """
    keys = ("name", *(f"coeff_v{i}" for i in range(1, 6)), "params")
    fields: dict[str, str] = {}
    for number, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed line in {path}: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise ValueError(f"unknown key {key!r} on line {number} of {path} "
                             f"(valid keys: {', '.join(keys)})")
        if key in fields:
            raise ValueError(f"repeated key {key!r} on line {number} of {path}")
        fields[key] = value
    missing = [k for k in keys[:-1] if k not in fields]
    if missing:
        raise ValueError(f"system file {path} is missing {missing}")
    coeffs = tuple(parse_expr(fields[f"coeff_v{i}"]) for i in range(1, 6))
    spec = OdeSystemSpec(fields["name"], coeffs)
    if "params" in fields:
        declared = {p.strip() for p in fields["params"].strip("[]").split(",") if p.strip()}
        if not declared <= set(spec.free_params):
            raise ValueError(
                f"declared params {sorted(declared)} do not all appear in the coefficients")
    return spec


class UnknownSystemError(KeyError):
    """A system that is neither a catalog name nor a spec file.

    A KeyError, whose str() would quote the message; this one prints it as is.
    """

    def __str__(self) -> str:
        return str(self.args[0])


def resolve_system(name_or_path: str) -> OdeSystemSpec:
    """Catalog name or path to a system-spec file."""
    if name_or_path in CATALOG:
        return CATALOG[name_or_path]
    path = Path(name_or_path)
    if path.exists():
        return load_system(path)
    raise UnknownSystemError(f"unknown system {name_or_path!r} (catalog: {sorted(CATALOG)})")
