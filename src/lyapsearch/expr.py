"""Exact symbolic expressions in the time variable t.

An expression is a finite sum of terms

    coefficient * t^(p + q*alpha) * product of symbol powers

with exact rational coefficients and exact rational (p, q); each exponent part
is stored as an int when it is integral and as a Fraction otherwise, which
hashes and compares alike but costs far less in the term keys.  Symbols are
either scalar parameters drawn from a fixed alphabet or abstract derivatives
of a time function gamma(t) (gamma', gamma'', ...).  The representation is a
canonical map from (exponent, monomial) to coefficient, so two expressions
that are equal as generalized polynomials compare structurally equal.

Only ring operations, differentiation in t, substitution and numeric
evaluation are provided; there is no division by non-monomial expressions
and no transcendental simplification.

Numeric evaluation has one path, shared by every module: float_terms turns an
expression's terms, in terms() order, into a table of floats once, leaving
chosen symbols (k, or lambda and theta) free; bind_terms multiplies the bound
parameter values into it; evaluate sums it at scalar or array t.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterator, Mapping, Union

PARAM_NAMES = ("k", "mu", "L", "lambda", "theta", "a", "b", "r", "alpha", "c", "l", "T")

_GAMMA_PREFIX = "gamma"

Rational = Union[int, Fraction]
Exponent = tuple[Rational, Rational]          # p + q*alpha; int when integral
Monomial = tuple[tuple[str, int], ...]        # sorted (symbol, power), power != 0

EXP_ZERO: Exponent = (0, 0)


class ExprError(Exception):
    """Base class for expression errors."""


class UnboundSymbolError(ExprError):
    def __init__(self, name: str):
        # The name is the only argument, so the error survives pickling.
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return f"unbound symbol {self.name!r}"


class ExprSyntaxError(ExprError):
    """Raised on malformed expression text."""


def gamma_symbol(order: int) -> str:
    """Name of the abstract n-th derivative of gamma (order >= 1)."""
    if order < 1:
        raise ValueError("gamma derivative order must be >= 1")
    return f"{_GAMMA_PREFIX}{order}"


def is_gamma_symbol(name: str) -> bool:
    return name.startswith(_GAMMA_PREFIX) and name[len(_GAMMA_PREFIX):].isdigit()


def gamma_order(name: str) -> int:
    return int(name[len(_GAMMA_PREFIX):])


def _check_symbol(name: str) -> str:
    if name in PARAM_NAMES or is_gamma_symbol(name):
        return name
    raise ValueError(f"unknown symbol {name!r}")


def _exp_part(value: Rational) -> Rational:
    """An exponent part in stored form: int when integral, else Fraction."""
    return value if type(value) is int or value.denominator != 1 else value.numerator


def _as_fraction(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class Expr:
    """Immutable canonical-form expression."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[tuple[Exponent, Monomial], Fraction] | None = None):
        items = {}
        if terms:
            for key, coeff in terms.items():
                if coeff:
                    items[key] = coeff
        self._terms = items
        self._hash = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def number(value: Rational) -> "Expr":
        value = _as_fraction(value)
        if not value:
            return ZERO
        return Expr({(EXP_ZERO, ()): value})

    @staticmethod
    def symbol(name: str) -> "Expr":
        _check_symbol(name)
        return Expr({(EXP_ZERO, ((name, 1),)): Fraction(1)})

    @staticmethod
    def gamma(order: int) -> "Expr":
        return Expr.symbol(gamma_symbol(order))

    @staticmethod
    def t_power(p: Rational, q: Rational = 0) -> "Expr":
        exp = (_exp_part(_as_fraction(p)), _exp_part(_as_fraction(q)))
        return Expr({(exp, ()): Fraction(1)})

    # -- basic protocol --------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Expr):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == Expr.number(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __repr__(self) -> str:
        return f"Expr({self})"

    def terms(self) -> Iterator[tuple[Exponent, Monomial, Fraction]]:
        """Iterate (exponent, monomial, coefficient) in a deterministic order."""
        for (exp, mono) in sorted(self._terms):
            yield exp, mono, self._terms[(exp, mono)]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "Expr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            new = out.get(key, _F0) + coeff
            if new:
                out[key] = new
            else:
                out.pop(key, None)
        return Expr(out)

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return Expr({key: -coeff for key, coeff in self._terms.items()})

    def __sub__(self, other) -> "Expr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Expr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Expr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict = {}
        for (exp1, mono1), c1 in self._terms.items():
            for (exp2, mono2), c2 in other._terms.items():
                key = ((_exp_part(exp1[0] + exp2[0]), _exp_part(exp1[1] + exp2[1])),
                       _mono_mul(mono1, mono2))
                new = out.get(key, _F0) + c1 * c2
                if new:
                    out[key] = new
                else:
                    out.pop(key, None)
        return Expr(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Expr":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self._invert() ** (-n)
        result = ONE
        for _ in range(n):
            result = result * self
        return result

    def _invert(self) -> "Expr":
        # Only single-term expressions are invertible in this representation.
        if len(self._terms) != 1:
            raise ZeroDivisionError("cannot invert a non-monomial expression")
        ((exp, mono), coeff), = self._terms.items()
        inv_mono = tuple((s, -p) for s, p in mono)
        return Expr({((-exp[0], -exp[1]), inv_mono): 1 / coeff})

    # -- calculus -----------------------------------------------------------

    def diff(self) -> "Expr":
        """Derivative with respect to t.

        Power rule on t^(p+q*alpha) (the affine exponent itself multiplies in,
        introducing the symbol alpha when q != 0), gamma^(n) maps to
        gamma^(n+1), parameters are constants.
        """
        out = ZERO
        for (exp, mono), coeff in self._terms.items():
            p, q = exp
            lower = (p - 1, q)
            if p:
                out = out + Expr({(lower, mono): coeff * p})
            if q:
                out = out + Expr({(lower, _mono_mul(mono, (("alpha", 1),))): coeff * q})
            for i, (sym, power) in enumerate(mono):
                if not is_gamma_symbol(sym):
                    continue
                rest = mono[:i] + mono[i + 1:]
                bumped = _mono_mul(
                    _mono_mul(rest, ((sym, power - 1),) if power != 1 else ()),
                    ((gamma_symbol(gamma_order(sym) + 1), 1),),
                )
                out = out + Expr({(exp, bumped): coeff * power})
        return out

    # -- substitution ---------------------------------------------------------

    def subs_gamma(self, form: "GammaForm") -> "Expr":
        """Replace every abstract gamma derivative using the given form."""
        out = ZERO
        for (exp, mono), coeff in self._terms.items():
            term = Expr({(exp, tuple((s, p) for s, p in mono if not is_gamma_symbol(s))): coeff})
            for sym, power in mono:
                if is_gamma_symbol(sym):
                    if power < 0:
                        raise ValueError("negative powers of gamma derivatives are not supported")
                    term = term * form.deriv(gamma_order(sym)) ** power
            out = out + term
        return out

    # -- numeric interface ----------------------------------------------------

    def free_symbols(self) -> frozenset[str]:
        syms = set()
        for (exp, mono) in self._terms:
            if exp[1]:
                syms.add("alpha")
            for sym, _ in mono:
                syms.add(sym)
        return frozenset(syms)

    def max_gamma_order(self) -> int:
        """Highest gamma-derivative order present (0 if none)."""
        orders = [gamma_order(s) for (_e, mono) in self._terms for s, _p in mono if is_gamma_symbol(s)]
        return max(orders, default=0)

    # -- text form -------------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exp, mono, coeff in self.terms():
            body = _term_text(exp, mono, abs(coeff))
            if not parts:
                parts.append(body if coeff > 0 else "-" + body)
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts)


def _coerce(value) -> "Expr":
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Expr.number(value)
    return NotImplemented


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    powers = dict(m1)
    for sym, p in m2:
        new = powers.get(sym, 0) + p
        if new:
            powers[sym] = new
        else:
            powers.pop(sym, None)
    return tuple(sorted(powers.items()))


def _term_text(exp: Exponent, mono: Monomial, coeff: Fraction) -> str:
    atoms = [str(coeff)]
    p, q = exp
    if q:
        atoms.append(f"t^{p}+{q}*alpha" if q > 0 else f"t^{p}{q}*alpha")
    elif p == 1:
        atoms.append("t")
    elif p:
        atoms.append(f"t^{p}")
    for sym, power in mono:
        atoms.append(sym if power == 1 else f"{sym}^{power}")
    return "*".join(atoms)


# -- numeric path -------------------------------------------------------------
# All three functions keep the order of Expr.terms(), so equal expressions give
# bit-identical floats whatever order their terms were built in.

FloatTerm = tuple[float, float, float, Monomial, tuple[int, ...]]
BoundTerm = tuple[float, float, tuple[int, ...]]


def float_terms(e: Expr, free: tuple[str, ...] = ()) -> tuple[FloatTerm, ...]:
    """One entry per term, in terms() order, with the exact values as floats.

    An entry is (coefficient, p, q, monomial, free powers) for
    coefficient * t^(p + q*alpha) * monomial * product of the free symbols
    raised to the free powers, which follow the order of free; the monomial
    omits the free symbols.
    """
    table = []
    for (p, q), mono, coeff in e.terms():
        kept, powers = [], [0] * len(free)
        for item in mono:
            sym, power = item
            if sym in free:
                powers[free.index(sym)] = power
            else:
                kept.append(item)
        table.append((float(coeff), float(p), float(q), tuple(kept), tuple(powers)))
    return tuple(table)


def bind_terms(terms: tuple[FloatTerm, ...], bindings: Mapping[str, float]) -> list[BoundTerm]:
    """(base, exponent of t, free powers) per term, with every other symbol bound.

    The bound values multiply into the coefficient in monomial order; alpha is
    applied to the exponent.  Raises UnboundSymbolError naming a missing symbol.
    """
    bound = []
    for coeff, p, q, mono, powers in terms:
        e = p
        if q:
            if "alpha" not in bindings:
                raise UnboundSymbolError("alpha")
            e += q * bindings["alpha"]
        base = coeff
        for sym, power in mono:
            if sym not in bindings:
                raise UnboundSymbolError(sym)
            base *= bindings[sym] ** power
        bound.append((base, e, powers))
    return bound


def evaluate(bound: list[BoundTerm], t, *free_values):
    """Sum of the bound terms at t, with the free symbols at free_values.

    t and the free values may be scalars or numpy arrays; a term with
    exponent 0 stays a scalar, so constants never broadcast to t's shape.
    """
    total = 0.0
    for base, e, powers in bound:
        term = base * t ** e if e else base
        for value, power in zip(free_values, powers, strict=True):
            if power:
                term = term * value ** power
        total = total + term
    return total


_F0 = Fraction(0)
ZERO = Expr()
ONE = Expr.number(1)

GAMMA1 = Expr.gamma(1)
GAMMA2 = Expr.gamma(2)


# -- gamma forms ------------------------------------------------------------


class GammaForm:
    """A concrete growth law for gamma(t), defining all its derivatives.

    The rate coefficient stays symbolic (the parameter k); the power-law form
    additionally uses the parameters r and alpha, listed in params.
    """

    name: str = ""
    params: frozenset[str] = frozenset()

    def deriv(self, order: int) -> Expr:
        raise NotImplementedError

    def substitute(self, e: Expr) -> Expr:
        return e.subs_gamma(self)

    def value(self, t, params: Mapping[str, float]):
        """Numeric gamma(t); accepts scalars or numpy arrays for t."""
        raise NotImplementedError

    def shape(self, t, params: Mapping[str, float]):
        """gamma(t) / k, the abscissa against which rates are fitted."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<gamma {self.name}>"


class _LinearGamma(GammaForm):
    """gamma(t) = k*t."""

    name = "linear"

    def deriv(self, order: int) -> Expr:
        return Expr.symbol("k") if order == 1 else ZERO

    def value(self, t, params):
        return params["k"] * t

    def shape(self, t, params):
        return t


class _LogGamma(GammaForm):
    """gamma(t) = k*log t."""

    name = "log"

    @functools.lru_cache(maxsize=None)
    def deriv(self, order: int) -> Expr:
        if order == 1:
            return Expr.symbol("k") * Expr.t_power(-1)
        return self.deriv(order - 1).diff()

    def value(self, t, params):
        import numpy as np

        return params["k"] * np.log(t)

    def shape(self, t, params):
        import numpy as np

        return np.log(t)


class _PowerGamma(GammaForm):
    """gamma(t) = k*(r/(1-alpha))*t^(1-alpha) for a fixed alpha in (0, 1)."""

    name = "power"
    params = frozenset({"r", "alpha"})

    @functools.lru_cache(maxsize=None)
    def deriv(self, order: int) -> Expr:
        if order == 1:
            return Expr.symbol("k") * Expr.symbol("r") * Expr.t_power(0, -1)
        return self.deriv(order - 1).diff()

    def value(self, t, params):
        alpha = params["alpha"]
        return params["k"] * params["r"] / (1.0 - alpha) * t ** (1.0 - alpha)

    def shape(self, t, params):
        alpha = params["alpha"]
        return params["r"] / (1.0 - alpha) * t ** (1.0 - alpha)


LINEAR = _LinearGamma()
LOG = _LogGamma()
POWER = _PowerGamma()

GAMMA_FORMS = {form.name: form for form in (LINEAR, LOG, POWER)}


# -- parser -------------------------------------------------------------------

# Grammar:
#   expr   := term (('+'|'-') term)*
#   term   := rational ('*' atom)*
#   atom   := 't^' affine | 't' | ident | atom '^' int
#   affine := rational ('+' rational '*' 'alpha')?


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, char: str) -> bool:
        if self.peek() == char:
            self.pos += 1
            return True
        return False

    def expect(self, char: str):
        if not self.take(char):
            raise ExprSyntaxError(f"expected {char!r} at position {self.pos} in {self.text!r}")

    def rational(self) -> Fraction:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits_start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits_start:
            raise ExprSyntaxError(f"expected a number at position {start} in {self.text!r}")
        num = int(self.text[start:self.pos])
        if self.pos < len(self.text) and self.text[self.pos] == "/":
            self.pos += 1
            den_start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == den_start:
                raise ExprSyntaxError(f"expected a denominator at position {den_start} in {self.text!r}")
            return Fraction(num, int(self.text[den_start:self.pos]))
        return Fraction(num)

    def ident(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        if self.pos == start:
            raise ExprSyntaxError(f"expected an identifier at position {start} in {self.text!r}")
        return self.text[start:self.pos]

    def int_value(self) -> int:
        value = self.rational()
        if value.denominator != 1:
            raise ExprSyntaxError(f"expected an integer power in {self.text!r}")
        return value.numerator

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def parse_expr(text: str) -> Expr:
    """Parse the expression grammar used in system-spec files and the CLI."""
    sc = _Scanner(text)
    result = _parse_term(sc)
    while True:
        ch = sc.peek()
        if ch == "+":
            sc.take("+")
            result = result + _parse_term(sc)
        elif ch == "-":
            sc.take("-")
            result = result - _parse_term(sc)
        else:
            break
    if not sc.done():
        raise ExprSyntaxError(f"trailing input at position {sc.pos} in {text!r}")
    return result


def _parse_term(sc: _Scanner) -> Expr:
    result = Expr.number(sc.rational())
    while sc.take("*"):
        result = result * _parse_atom(sc)
    return result


def _parse_atom(sc: _Scanner) -> Expr:
    name = sc.ident()
    if name == "t":
        if sc.take("^"):
            p = sc.rational()
            q = 0
            mark = sc.pos
            if sc.take("+") or (sc.peek() == "-"):
                try:
                    q_candidate = sc.rational()
                    sc.expect("*")
                    if sc.ident() != "alpha":
                        raise ExprSyntaxError("expected 'alpha'")
                    q = q_candidate
                except ExprSyntaxError:
                    sc.pos = mark
            atom = Expr.t_power(p, q)
        else:
            atom = Expr.t_power(1)
    else:
        if name not in PARAM_NAMES and not is_gamma_symbol(name):
            raise ExprSyntaxError(f"unknown identifier {name!r}")
        atom = Expr.symbol(name)
        if sc.take("^"):
            atom = atom ** sc.int_value()
    return atom
