"""Exact polynomial families P_m, Q_m, tilde-P_m attached to V_m^p.

All three families are grown by the recursion runner `recursion.recur`
over exact rationals in two formal variables, with s standing for 1/p:
P_m = X_m and Q_m = X_(m+1) of the recursion in y, and tilde-P_m = X_m with
y = s - z.  So every identity check below is exact and valid for all p at
once.  Numeric p enters only at evaluation boundaries.

`eval_via_polynomials` evaluates V_m^p = P_m(y) V_0^p + y^s Q_(m-1)(y), with
y = x^p, s = 1/p and P, Q exact.  The anchor is taken from its closed form
(DLMF 8.2), at enough digits to absorb the cancellation between the terms:

    V_0^p(x) = p e^(x^p) int_x^inf e^(-t^p) dt = e^(x^p) Gamma(1/p, x^p),

which at p = 2 is sqrt(pi) e^(x^2) erfc(x).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .bounds import bisect
from .core import DEFAULT_TOL, EvalParams, _check_p, _check_tol, _x_pow, eval_vmp, gamma_ratio
from .errors import BracketError, ConvergenceError, DomainError, SeriesBudgetError
from .ratpoly import RatPoly
from .recursion import recur

_ANCHOR_DPS_STEP = 16
_KUMMER_TERMS = 200  # terms of the 1F1 series in `hypergeometric_check`
_PQ_VARS = ("y", "s")
_T_VARS = ("z", "s")


def _one(variables):
    return RatPoly.constant(variables, 1)


_Y, _S = RatPoly.var(_PQ_VARS, "y"), RatPoly.var(_PQ_VARS, "s")
_ST = RatPoly.var(_T_VARS, "s")

# family -> (cache, s, y, shift): entry k of the cache is X_(k + shift) of
# `recur` in (s, y) from X_(shift - 1) = 0 and X_shift = 1, so P_k = X_k,
# Q_k = X_(k+1), and tilde-P_k = X_k with y = s - z.  Caches grow on demand;
# entries are immutable RatPoly.
_FAMILIES = {
    "P": ([_one(_PQ_VARS)], _S, _Y, 0),
    "Q": ([_one(_PQ_VARS)], _S, _Y, 1),
    "tildeP": ([_one(_T_VARS)], _ST, _ST - RatPoly.var(_T_VARS, "z"), 0),
}


@dataclass(frozen=True)
class PolyFamilyEntry:
    m: int
    family: str  # P | Q | tildeP
    poly: RatPoly


def _build(family: str, m: int) -> PolyFamilyEntry:
    if m < 0:
        raise DomainError(f"m must be >= 0, got {m}")
    cache, s, y, shift = _FAMILIES[family]
    k = len(cache)
    if k <= m:
        cache.extend(recur(range(k + shift, m + 1 + shift), s, y,
                           cache[k - 2] if k > 1 else 0, cache[-1]))
    return PolyFamilyEntry(m, family, cache[m])


def build_P(m: int) -> PolyFamilyEntry:
    """P_m in (y, s): P_0 = 1, P_1 = s - y, degree m, Appell up to sign."""
    return _build("P", m)


def build_Q(m: int) -> PolyFamilyEntry:
    """Q_m in (y, s): Q_0 = 1, Q_1 = (1 + s - y)/2."""
    return _build("Q", m)


def build_tildeP(m: int) -> PolyFamilyEntry:
    """tilde-P_m in (z, s), with P_m(y) = tilde-P_m(s - y); all coefficients >= 0."""
    return _build("tildeP", m)


# ---------------------------------------------------------------- evaluation

def _exact_s(p: float) -> Fraction:
    """1/p as a Fraction: exact when p is an integer, else the double."""
    return Fraction(1, int(p)) if float(p).is_integer() else Fraction(1.0 / p)


def _exact_y_s(p: float, x: float) -> tuple[Fraction, Fraction]:
    """(x^p, 1/p) as Fractions: exact when p is an integer, else the doubles."""
    y = Fraction(x) ** int(p) if float(p).is_integer() else Fraction(x ** p)
    return y, _exact_s(p)


@functools.lru_cache(maxsize=512)
def _y_coeffs(family: str, m: int, s: Fraction) -> tuple[tuple[int, ...], int]:
    """P_m, Q_m or tilde-P_m (`family`) at the exact s as a polynomial in its
    first variable (y, or z for tilde-P): integer numerators of the
    coefficients of its powers 0..m over one common denominator."""
    poly = _build(family, m).poly
    at_s = poly.subs(poly.vars[1], s)
    nums = [0] * (m + 1)
    for key, c in at_s.terms.items():
        nums[at_s.unpack(key)[0]] = c
    return tuple(nums), at_s.den


def _eval_y(family: str, m: int, s: Fraction, y: Fraction) -> Fraction:
    """P_m(y; s) or Q_m(y; s), exactly, by Horner over integers: with
    y = a/b the sum of n_k a^k b^(m-k) is reduced once at the end."""
    nums, den = _y_coeffs(family, m, s)
    a, b = y.numerator, y.denominator
    acc, b_pow = nums[-1], 1
    for n in reversed(nums[:-1]):
        b_pow *= b
        acc = acc * a + n * b_pow
    return Fraction(acc, den * b_pow)


def _mpf(q: Fraction):
    """q at the working precision."""
    return mp.mpf(q.numerator) / q.denominator


def _log10_abs(q: Fraction) -> float:
    """log10 |q| for a Fraction of any size, -inf at 0."""
    if q == 0:
        return -math.inf
    return math.log10(abs(q.numerator)) - math.log10(q.denominator)


@functools.lru_cache(maxsize=8)
def _anchor_v0_hp(y: Fraction, s: Fraction, dps: int):
    """V_0 = e^y Gamma(s, y), with y = x^p and s = 1/p, at `dps` digits, for
    the polynomial combination; at s = 1/2 this is sqrt(pi) e^y erfc(sqrt(y)).
    The last few are kept: an m-family at one x asks for the same V_0 at a
    dps that grows with m, and `eval_via_polynomials` rounds dps up to a
    multiple of _ANCHOR_DPS_STEP so that one anchor serves several m."""
    with mp.workdps(dps):
        y = _mpf(y)
        if s == Fraction(1, 2):
            v = mp.sqrt(mp.pi) * mp.exp(y) * mp.erfc(mp.sqrt(y))
        else:
            v = mp.exp(y) * mp.gammainc(_mpf(s), y)
        return +v


def eval_via_polynomials(m: float, p: float, x: float, tol: float = DEFAULT_TOL) -> float:
    """V_m^p(x) through the polynomial representation.

    Integer m: V_m = P_m(y) V_0 + y^s Q_(m-1)(y) with y = x^p, s = 1/p,
    P and Q exact and V_0 = e^y Gamma(s, y) in closed form, all at the same
    Fractions (y, s).  At non-integer p these are the doubles x^p and 1/p,
    and a V_0 or x taken at the true x^p and 1/p would differ from them by
    a rounding error that the cancellation amplifies.  The combination is
    taken at 30 digits plus log10 of its condition number, so the value is
    rounded from at least 30 correct digits whatever tol asks; tol is still
    checked.

    Non-integer m, or x^p past the double range: V_m is evaluated directly
    at tol, since the polynomials exist only at integer m and the upward
    recursion from fractional anchors cancels once x^p passes about m.
    """
    if m < 1:
        raise DomainError(f"polynomial representation requires m >= 1, got {m}")
    if x <= 0:
        raise DomainError(f"x must be positive, got {x}")
    EvalParams(m, p, x)  # rejects non-finite m, p, x
    _check_tol(tol)
    if not float(m).is_integer() or math.isinf(_x_pow(x, p)):
        return eval_vmp(EvalParams(m, p, x), tol).value
    mi = int(m)
    yv, s = _exact_y_s(p, x)
    P = _eval_y("P", mi, s, yv)
    Q = _eval_y("Q", mi - 1, s, yv)
    # log10 of the condition |P V_0| / |V_m|, with the Jensen-scale
    # magnitudes (y + 1)^(s - 1) of V_0 and (y + m)^(s - 1) of V_m; in log
    # space, because P alone can pass the float range at large y.  The
    # estimate is loosest at small y, where the terms do not cancel and the
    # 30-digit floor absorbs its error.
    log_cond = _log10_abs(P) + (float(s) - 1.0) * (_log10_abs(yv + 1) - _log10_abs(yv + mi))
    dps = 30 + int(max(log_cond, 0.0))
    v0 = _anchor_v0_hp(yv, s, -(-dps // _ANCHOR_DPS_STEP) * _ANCHOR_DPS_STEP)
    with mp.workdps(dps):
        value = float(_mpf(P) * v0 + _mpf(yv) ** _mpf(s) * _mpf(Q))
    if math.isinf(value):
        raise ConvergenceError(f"V_{m}^{p}({x}) overflows a double")
    return value


# ---------------------------------------------------------------- identities

def derivative_identities_check(m: int) -> bool:
    """Exact checks of the derivative identities

        d/dy P_m = -P_(m-1)
        y d/dy Q_(m-1) = P_m - (m+1) Q_m + m Q_(m-1)
        d/dz tilde-P_m = tilde-P_(m-1)
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    y = RatPoly.var(_PQ_VARS, "y")
    P_m, P_m1 = build_P(m).poly, build_P(m - 1).poly
    if not (P_m.diff("y") + P_m1).is_zero():
        return False
    Q_m, Q_m1 = build_Q(m).poly, build_Q(m - 1).poly
    lhs = y * Q_m1.diff("y")
    rhs = P_m - (m + 1) * Q_m + m * Q_m1
    if not (lhs - rhs).is_zero():
        return False
    T_m, T_m1 = build_tildeP(m).poly, build_tildeP(m - 1).poly
    return (T_m.diff("z") - T_m1).is_zero()


def ode_residual_check(m: int) -> RatPoly:
    """y P_m'' - (m - 1 + s - y) P_m' - m P_m, identically zero for every m."""
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    y = RatPoly.var(_PQ_VARS, "y")
    s = RatPoly.var(_PQ_VARS, "s")
    P = build_P(m).poly
    return y * P.diff("y").diff("y") - (m - 1 + s - y) * P.diff("y") - m * P


def sum_identity_check(m: int) -> bool:
    """Exact check of the unrolled sum identities

        P_m = (1/m)   [ s * sum_{j<m}   P_j - y P_(m-1) ]
        Q_m = (1/(m+1)) [ s * sum_{j<m+1} Q_j - y Q_(m-1) + 1 ]  (Q analogue)
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    y = RatPoly.var(_PQ_VARS, "y")
    s = RatPoly.var(_PQ_VARS, "s")
    P = [build_P(j).poly for j in range(m + 1)]
    sum_P = RatPoly(_PQ_VARS)
    for j in range(m):
        sum_P = sum_P + P[j]
    lhs_P = m * P[m] - (s * sum_P - y * P[m - 1])
    if not lhs_P.is_zero():
        return False
    Q = [build_Q(j).poly for j in range(m + 1)]
    sum_Q = RatPoly(_PQ_VARS)
    for j in range(m):
        sum_Q = sum_Q + Q[j]
    lhs_Q = (m + 1) * Q[m] - (s * sum_Q - y * Q[m - 1] + 1)
    return lhs_Q.is_zero()


def hypergeometric_check(m: int, p: float, y: float) -> tuple[float, float]:
    """(P_m(y; 1/p), Kummer form) pair; they agree when p != 1/n.

    rhs = e^(-y) 1F1(1 - 1/p, 1 - 1/p - m, y) / (m B(m, 1/p)), with the 1F1
    summed by its raw term-ratio series.  DomainError where P_m(y) or the
    1F1 sum passes the double range.
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    _check_p(p, y=y)
    s = 1.0 / p
    if abs(s - round(s)) < 1e-12:
        raise DomainError("Kummer form requires p != 1/n (lower parameter pole)")
    c = 1.0 - s - m
    if c <= 0 and abs(c - round(c)) < 1e-12:
        raise DomainError("lower 1F1 parameter is a nonpositive integer")
    try:
        lhs = float(_eval_y("P", m, Fraction(s), Fraction(y)))
    except OverflowError:
        raise DomainError(f"P_{m}({y}) is past the double range") from None
    a = 1.0 - s
    total, term = 1.0, 1.0
    for j in range(_KUMMER_TERMS):
        term *= (a + j) / (c + j) * y / (j + 1)
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
    else:
        raise SeriesBudgetError(f"1F1 series did not converge in {_KUMMER_TERMS} terms")
    if not math.isfinite(total):
        raise DomainError(f"the 1F1 sum at y = {y} is past the double range")
    inv_beta = gamma_ratio(m + s, m, s)[0]
    rhs = inv_beta / m * math.exp(-y) * total
    return lhs, rhs


# ---------------------------------------------------------------- roots

def tildeP_roots(m: int, p: float) -> float | None:
    """For odd m, the unique real root z_m of tilde-P_m(.; 1/p) in [-m+1, 0],
    found by bisection to 1e-12 absolute.  For even m returns None after
    asserting positivity on a sample grid.  The polynomial in z is collapsed
    at s = 1/p exactly and its coefficients rounded once, then evaluated by
    Horner's rule.
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    _check_p(p)
    nums, den = _y_coeffs("tildeP", m, _exact_s(p))
    coeffs = [n / den for n in reversed(nums)]

    def f(z: float) -> float:
        acc = 0.0
        for c in coeffs:
            acc = acc * z + c
        return acc

    if m % 2 == 0:
        lo = -float(m)
        samples = [lo + i * (abs(lo) + 2.0) / 400 for i in range(401)]
        if min(f(z) for z in samples) < 0:
            raise BracketError(f"even tilde-P_{m} unexpectedly negative on sample grid")
        return None
    if m == 1:
        return 0.0
    return bisect(f, -(m - 1.0), 0.0)


def P_root_nonneg(m: int, p: float) -> float:
    """The unique nonnegative root of P_m(.; 1/p) for odd m: y_m = 1/p - z_m."""
    if m % 2 == 0:
        raise DomainError(f"P_m has no nonnegative root for even m, got {m}")
    z = tildeP_roots(m, p)
    return 1.0 / p - z
