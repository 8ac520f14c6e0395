"""Sparse multivariate polynomials with exact rational coefficients.

Coefficients are `fractions.Fraction`; exponent vectors are tuples of
nonnegative ints, one slot per named variable.  Arithmetic never rounds,
which is what the identity checks and the positivity certificates rely on.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be exact (int or Fraction), got {type(c).__name__}")


class RatPoly:
    """Exact polynomial in the variables named by `vars`."""

    __slots__ = ("vars", "coeffs")

    def __init__(self, variables: Iterable[str], coeffs: Mapping[tuple, Scalar] | None = None):
        self.vars = tuple(variables)
        clean: dict[tuple, Fraction] = {}
        if coeffs:
            n = len(self.vars)
            for expo, c in coeffs.items():
                expo = tuple(expo)
                if len(expo) != n or any(e < 0 for e in expo):
                    raise ValueError(f"bad exponent vector {expo} for vars {self.vars}")
                cf = _as_fraction(c)
                if cf != 0:
                    clean[expo] = clean.get(expo, Fraction(0)) + cf
                    if clean[expo] == 0:
                        del clean[expo]
        self.coeffs = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, variables, c) -> "RatPoly":
        variables = tuple(variables)
        zero = (0,) * len(variables)
        return cls(variables, {zero: _as_fraction(c)})

    @classmethod
    def var(cls, variables, name) -> "RatPoly":
        variables = tuple(variables)
        i = variables.index(name)
        expo = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, {expo: 1})

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self, name: str) -> int:
        if not self.coeffs:
            return 0
        i = self.vars.index(name)
        return max(e[i] for e in self.coeffs)

    def coeff(self, expo: tuple) -> Fraction:
        return self.coeffs.get(tuple(expo), Fraction(0))

    def min_coeff(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return min(self.coeffs.values())

    # -- ring operations ----------------------------------------------

    def _check(self, other: "RatPoly"):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatPoly.constant(self.vars, other)
        self._check(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, Fraction(0)) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        r = RatPoly(self.vars)
        r.coeffs = out
        return r

    __radd__ = __add__

    def __neg__(self):
        r = RatPoly(self.vars)
        r.coeffs = {e: -c for e, c in self.coeffs.items()}
        return r

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatPoly.constant(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            r = RatPoly(self.vars)
            if c != 0:
                r.coeffs = {e: cc * c for e, cc in self.coeffs.items()}
            return r
        self._check(other)
        out: dict[tuple, Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        r = RatPoly(self.vars)
        r.coeffs = out
        return r

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "RatPoly":
        """Division by an exact nonzero scalar."""
        return self * (1 / _as_fraction(other))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = RatPoly.constant(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatPoly.constant(self.vars, other)
        return isinstance(other, RatPoly) and self.vars == other.vars and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.vars, frozenset(self.coeffs.items())))

    # -- calculus and substitution ------------------------------------

    def diff(self, name: str) -> "RatPoly":
        i = self.vars.index(name)
        out: dict[tuple, Fraction] = {}
        for e, c in self.coeffs.items():
            if e[i] == 0:
                continue
            e2 = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[e2] = out.get(e2, Fraction(0)) + c * e[i]
        r = RatPoly(self.vars)
        r.coeffs = {e: c for e, c in out.items() if c != 0}
        return r

    def subs(self, name: str, value: "RatPoly | Scalar") -> "RatPoly":
        """Substitute a polynomial (or exact scalar) for one variable."""
        if isinstance(value, (int, Fraction)):
            value = RatPoly.constant(self.vars, value)
        self._check(value)
        i = self.vars.index(name)
        # group by power of the substituted variable, then Horner
        by_pow: dict[int, RatPoly] = {}
        for e, c in self.coeffs.items():
            k = e[i]
            e2 = e[:i] + (0,) + e[i + 1:]
            part = by_pow.setdefault(k, RatPoly(self.vars))
            part.coeffs[e2] = part.coeffs.get(e2, Fraction(0)) + c
        ks = sorted(by_pow, reverse=True)
        result = RatPoly(self.vars, by_pow[ks[0]].coeffs) if ks else RatPoly(self.vars)
        for k_prev, k in zip(ks, ks[1:]):
            for _ in range(k_prev - k):
                result = result * value
            result = result + RatPoly(self.vars, by_pow[k].coeffs)
        if ks:
            for _ in range(ks[-1]):
                result = result * value
        return result

    def shift(self, name: str, offset: Scalar) -> "RatPoly":
        """Substitute name -> name + offset."""
        repl = RatPoly.var(self.vars, name) + _as_fraction(offset)
        return self.subs(name, repl)

    def eval(self, **values):
        """Fully numeric evaluation; exact iff all values are int/Fraction."""
        missing = set(self.vars) - set(values)
        if missing:
            raise ValueError(f"missing values for {sorted(missing)}")
        total = 0
        for e, c in self.coeffs.items():
            acc = 1
            for name, k in zip(self.vars, e):
                if k:
                    acc = acc * values[name] ** k
            total = total + c * acc
        return total

    # -- presentation -------------------------------------------------

    def __repr__(self):
        return f"RatPoly({self.vars}, {len(self.coeffs)} terms)"

    def pretty(self) -> str:
        """Human-readable form, terms sorted by total degree then lexicographic."""
        if not self.coeffs:
            return "0"
        items = sorted(self.coeffs.items(), key=lambda ec: (sum(ec[0]), ec[0]))
        parts = []
        for e, c in items:
            factors = []
            for name, k in zip(self.vars, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        out = parts[0]
        for t in parts[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out

    def to_json_dict(self) -> dict:
        """Exact coefficient dump: exponent tuple -> [numerator, denominator] strings."""
        terms = {
            ",".join(map(str, e)): [str(c.numerator), str(c.denominator)]
            for e, c in sorted(self.coeffs.items())
        }
        return {"vars": list(self.vars), "terms": terms}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)
