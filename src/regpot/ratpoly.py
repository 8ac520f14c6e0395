"""Sparse multivariate polynomials with exact rational coefficients.

`terms` maps a packed exponent (a 32-bit field per variable, the first one
highest, so a monomial product is one int addition) to an int numerator over
one common denominator `den`, kept reduced so that == compares dicts.
Exponents stay below 2^31, and a product reaching 2^31 raises ValueError
rather than carry into the next field.  Arithmetic never rounds, which is
what the identity checks and the positivity certificates rely on.  `coeffs`
is a read-only exponent tuple -> Fraction view, built when asked for.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]

_BITS = 32
_FIELD = (1 << _BITS) - 1
_MAX_EXP = (1 << (_BITS - 1)) - 1


def _exact(c) -> Scalar:
    if isinstance(c, (int, Fraction)):
        return c
    raise TypeError(f"coefficient must be exact (int or Fraction), got {type(c).__name__}")


def _new(variables: tuple, terms: dict, den: int) -> "RatPoly":
    """terms / den, with no zero in terms, reduced."""
    g = math.gcd(den, *terms.values()) if den != 1 else 1
    r = object.__new__(RatPoly)
    r.vars, r.den = variables, den // g
    r.terms = terms if g == 1 else {k: c // g for k, c in terms.items()}
    return r


class RatPoly:
    """Exact polynomial in the variables named by `vars`."""

    __slots__ = ("vars", "terms", "den")

    def __init__(self, variables: Iterable[str], coeffs: Mapping[tuple, Scalar] | None = None):
        self.vars = tuple(variables)
        acc: dict[int, Scalar] = {}
        for expo, c in (coeffs or {}).items():
            key = self._key(expo)
            acc[key] = acc.get(key, 0) + _exact(c)
        # over the lcm of the reduced denominators no factor is common to all
        self.den = math.lcm(*(c.denominator for c in acc.values()))
        self.terms = {k: c.numerator * (self.den // c.denominator) for k, c in acc.items() if c}

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, variables, c) -> "RatPoly":
        c = _exact(c)
        return _new(tuple(variables), {0: c.numerator} if c else {}, c.denominator)

    @classmethod
    def var(cls, variables, name) -> "RatPoly":
        variables = tuple(variables)
        i = variables.index(name)
        return cls(variables, {tuple(int(j == i) for j in range(len(variables))): 1})

    # -- basic queries ------------------------------------------------

    def unpack(self, key: int) -> tuple:
        """The exponent tuple of a packed key of `terms`."""
        n = len(self.vars)
        return tuple((key >> (_BITS * (n - 1 - i))) & _FIELD for i in range(n))

    def _key(self, expo) -> int:
        expo = tuple(expo)
        if len(expo) != len(self.vars) or any(not 0 <= e <= _MAX_EXP for e in expo):
            raise ValueError(f"bad exponent vector {expo} for vars {self.vars}")
        return functools.reduce(lambda key, e: key << _BITS | e, expo, 0)

    def _offset(self, name: str) -> int:
        return _BITS * (len(self.vars) - 1 - self.vars.index(name))

    @property
    def coeffs(self) -> Mapping[tuple, Fraction]:
        """Read-only view: exponent tuple -> Fraction coefficient."""
        return MappingProxyType({self.unpack(k): Fraction(c, self.den) for k, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self, name: str) -> int:
        sh = self._offset(name)
        return max(((k >> sh) & _FIELD for k in self.terms), default=0)

    def coeff(self, expo: tuple) -> Fraction:
        return Fraction(self.terms.get(self._key(expo), 0), self.den)

    def min_coeff(self) -> Fraction:
        return Fraction(min(self.terms.values(), default=0), self.den)

    # -- ring operations ----------------------------------------------

    def _check(self, other: "RatPoly"):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def _plus(self, other, sign: int) -> "RatPoly":
        """self + sign * other, over the lcm of the denominators."""
        if isinstance(other, RatPoly):
            self._check(other)
            o_terms, d2 = other.terms, other.den
        elif isinstance(other, (int, Fraction)):
            o_terms, d2 = {0: other.numerator} if other else {}, other.denominator
        else:
            return NotImplemented
        den = self.den if self.den == d2 else math.lcm(self.den, d2)
        f1, f2 = den // self.den, sign * (den // d2)
        out = dict(self.terms) if f1 == 1 else {k: c * f1 for k, c in self.terms.items()}
        for k, c in o_terms.items():
            s = out.get(k, 0) + c * f2
            if s:
                out[k] = s
            else:
                del out[k]
        return _new(self.vars, out, den)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.vars, {k: -c for k, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            a = other.numerator
            terms = {k: c * a for k, c in self.terms.items()} if a else {}
            return _new(self.vars, terms, self.den * other.denominator)
        if not isinstance(other, RatPoly):
            return NotImplemented
        self._check(other)
        out: dict[int, int] = {}
        get = out.get
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        terms = {k: c for k, c in out.items() if c}
        top_bits = ((1 << (_BITS * len(self.vars))) - 1) // _FIELD << (_BITS - 1)
        if functools.reduce(int.__or__, terms, 0) & top_bits:
            raise ValueError(f"exponent past {_MAX_EXP} in a product")
        return _new(self.vars, terms, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "RatPoly":
        """Division by an exact nonzero scalar."""
        return self * (Fraction(1) / _exact(other))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = RatPoly.constant(self.vars, 1)
        for bit in bin(n)[2:]:  # square and multiply, high bit first
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatPoly.constant(self.vars, other)
        return (isinstance(other, RatPoly) and self.vars == other.vars
                and self.den == other.den and self.terms == other.terms)

    def __hash__(self):
        return hash((self.vars, self.den, frozenset(self.terms.items())))

    # -- calculus and substitution ------------------------------------

    def diff(self, name: str) -> "RatPoly":
        sh = self._offset(name)
        return _new(self.vars, {k - (1 << sh): c * ((k >> sh) & _FIELD)
                                for k, c in self.terms.items() if (k >> sh) & _FIELD}, self.den)

    def _translate(self, name: str, value: Scalar, keep: bool) -> "RatPoly":
        """name -> name + value when `keep`, else name -> value, for an exact
        scalar value = a/b: each term expands binomially, over den b^top."""
        v = _exact(value)
        a, b, sh, top = v.numerator, v.denominator, self._offset(name), self.degree(name)
        a_pow = [a ** j for j in range(top + 1)]
        b_pow = [b ** j for j in range(top + 1)]
        out: dict[int, int] = {}
        for k, c in self.terms.items():
            e = (k >> sh) & _FIELD
            for j in range(e + 1 if keep else 1):
                kk = k - ((e - j) << sh)
                out[kk] = out.get(kk, 0) + c * math.comb(e, j) * a_pow[e - j] * b_pow[top - e + j]
        return _new(self.vars, {k: c for k, c in out.items() if c}, self.den * b_pow[top])

    def subs(self, name: str, value: "RatPoly | Scalar") -> "RatPoly":
        """Substitute a polynomial (or exact scalar) for one variable."""
        if not isinstance(value, RatPoly):
            return self._translate(name, value, keep=False)
        self._check(value)
        sh, result = self._offset(name), RatPoly(self.vars)
        for e in range(self.degree(name), -1, -1):  # Horner in `name`
            part = {k - (e << sh): c for k, c in self.terms.items() if (k >> sh) & _FIELD == e}
            result = result * value + _new(self.vars, part, self.den)
        return result

    def shift(self, name: str, offset: Scalar) -> "RatPoly":
        """Substitute name -> name + offset."""
        return self._translate(name, offset, keep=True)

    def eval(self, **values):
        """Fully numeric evaluation by Horner in each variable, the last
        first; exact iff all values are int/Fraction, else each coefficient
        is rounded on its own."""
        missing = set(self.vars) - set(values)
        if missing:
            raise ValueError(f"missing values for {sorted(missing)}")
        exact = all(isinstance(values[name], (int, Fraction)) for name in self.vars)
        acc = self.terms if exact else {k: c / self.den for k, c in self.terms.items()}
        for name in reversed(self.vars):
            v, horner = values[name], {}
            for k in sorted(acc, reverse=True):  # exponents down within each group
                r, prev = horner.get(k >> _BITS, (0, k & _FIELD))
                horner[k >> _BITS] = (r * v ** (prev - (k & _FIELD)) + acc[k], k & _FIELD)
            acc = {hi: r * v ** e for hi, (r, e) in horner.items()}
        total = acc.get(0, 0)
        return Fraction(total, self.den) if exact else total

    # -- presentation -------------------------------------------------

    def __repr__(self):
        return f"RatPoly({self.vars}, {len(self.terms)} terms)"

    def pretty(self) -> str:
        """Human-readable form, terms sorted by total degree then lexicographic."""
        out = ""
        for e, c in sorted(self.coeffs.items(), key=lambda ec: (sum(ec[0]), ec[0])):
            body = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(self.vars, e) if k)
            t = {1: body, -1: f"-{body}"}.get(c, f"{c}*{body}") if body else str(c)
            out += t if not out else " - " + t[1:] if t.startswith("-") else " + " + t
        return out or "0"

    def to_json_dict(self) -> dict:
        """Exact coefficient dump: exponent tuple -> [numerator, denominator] strings."""
        terms = {",".join(map(str, e)): [str(c.numerator), str(c.denominator)]
                 for e, c in sorted(self.coeffs.items())}
        return {"vars": list(self.vars), "terms": terms}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)
