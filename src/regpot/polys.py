"""Exact polynomial families P_m, Q_m, tilde-P_m attached to V_m^p.

All three families are built by their three-term recursions over exact
rationals in two formal variables, with s standing for 1/p, so every
identity check below is exact and valid for all p at once.  Numeric p
enters only at evaluation boundaries.

`eval_via_polynomials` evaluates V_m^p = P_m(x^p) V_0^p + x Q_(m-1)(x^p)
with P and Q exact.  When the two terms cancel, the anchor is taken from
its closed form (DLMF 8.2)

    V_0^p(x) = p e^(x^p) int_x^inf e^(-t^p) dt = e^(x^p) Gamma(1/p, x^p),

which at p = 2 is sqrt(pi) e^(x^2) erfc(x).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .core import DEFAULT_TOL, EvalParams, eval_vmp
from .errors import BracketError, DomainError, GammaPoleError, SeriesBudgetError
from .ratpoly import RatPoly

_PQ_VARS = ("y", "s")
_T_VARS = ("z", "s")


def _one(variables):
    return RatPoly.constant(variables, 1)


# family caches, grown on demand; entries are immutable RatPoly
_P: list[RatPoly] = []
_Q: list[RatPoly] = []
_T: list[RatPoly] = []


def _grow_P(m: int):
    y = RatPoly.var(_PQ_VARS, "y")
    s = RatPoly.var(_PQ_VARS, "s")
    if not _P:
        _P.append(_one(_PQ_VARS))
        _P.append(s - y)
    while len(_P) <= m:
        k = len(_P)
        _P.append(((k - 1 + s - y) * _P[k - 1] + y * _P[k - 2]) * Fraction(1, k))


def _grow_Q(m: int):
    y = RatPoly.var(_PQ_VARS, "y")
    s = RatPoly.var(_PQ_VARS, "s")
    if not _Q:
        _Q.append(_one(_PQ_VARS))
        _Q.append((1 + s - y) * Fraction(1, 2))
    while len(_Q) <= m:
        k = len(_Q)
        _Q.append(((k + s - y) * _Q[k - 1] + y * _Q[k - 2]) * Fraction(1, k + 1))


def _grow_T(m: int):
    z = RatPoly.var(_T_VARS, "z")
    s = RatPoly.var(_T_VARS, "s")
    if not _T:
        _T.append(_one(_T_VARS))
        _T.append(z)
    while len(_T) <= m:
        k = len(_T)
        _T.append(((k - 1 + z) * _T[k - 1] + (s - z) * _T[k - 2]) * Fraction(1, k))


@dataclass(frozen=True)
class PolyFamilyEntry:
    m: int
    family: str  # P | Q | tildeP
    poly: RatPoly


def build_P(m: int) -> PolyFamilyEntry:
    """P_m in (y, s): P_0 = 1, P_1 = s - y, degree m, Appell up to sign."""
    if m < 0:
        raise DomainError(f"m must be >= 0, got {m}")
    _grow_P(m)
    return PolyFamilyEntry(m, "P", _P[m])


def build_Q(m: int) -> PolyFamilyEntry:
    """Q_m in (y, s): Q_0 = 1, Q_1 = (1 + s - y)/2."""
    if m < 0:
        raise DomainError(f"m must be >= 0, got {m}")
    _grow_Q(m)
    return PolyFamilyEntry(m, "Q", _Q[m])


def build_tildeP(m: int) -> PolyFamilyEntry:
    """tilde-P_m in (z, s), with P_m(y) = tilde-P_m(s - y); all coefficients >= 0."""
    if m < 0:
        raise DomainError(f"m must be >= 0, got {m}")
    _grow_T(m)
    return PolyFamilyEntry(m, "tildeP", _T[m])


# ---------------------------------------------------------------- coefficients

def explicit_P_coeffs(m: int, p: float) -> list[float]:
    """Numeric coefficients b_0..b_m of P_m at s = 1/p from the closed form

        b_k = (-1)^k Gamma(m + 1/p - k) / (k! (m-k)! Gamma(1/p)).
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if p <= 0:
        raise DomainError(f"p must be positive, got {p}")
    s = 1.0 / p
    out = []
    for k in range(m + 1):
        a = m + s - k
        if a <= 0 and abs(a - round(a)) < 1e-12:
            raise GammaPoleError(f"Gamma pole at m + 1/p - k = {a}")
        val = math.exp(math.lgamma(a) - math.lgamma(k + 1) - math.lgamma(m - k + 1)
                       - math.lgamma(s))
        out.append(val if k % 2 == 0 else -val)
    return out


# ---------------------------------------------------------------- evaluation

def _exact_y_s(p: float, x: float) -> tuple[Fraction, Fraction]:
    """(x^p, 1/p) as Fractions: exact when p is an integer, else the doubles."""
    if float(p).is_integer():
        return Fraction(x) ** int(p), Fraction(1, int(p))
    return Fraction(x ** p), Fraction(1.0 / p)


@functools.lru_cache(maxsize=512)
def _y_coeffs(family: str, m: int, s: Fraction) -> tuple[tuple[int, ...], int]:
    """P_m or Q_m (`family`) at the exact s as a polynomial in y: integer
    numerators of the coefficients of y^0..y^m over one common denominator."""
    poly = (build_P if family == "P" else build_Q)(m).poly
    cs = [Fraction(0)] * (m + 1)
    for (k, j), c in poly.coeffs.items():
        cs[k] += c * s ** j
    den = math.lcm(*(c.denominator for c in cs))
    return tuple(c.numerator * (den // c.denominator) for c in cs), den


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


def _anchor_v0_hp(p: float, x: float, dps: int):
    """V_0^p(x) = e^(x^p) Gamma(1/p, x^p) at `dps` digits, for the cancelling
    polynomial combination; at p = 2 this is sqrt(pi) e^(x^2) erfc(x)."""
    with mp.workdps(dps):
        if p == 2:
            v = mp.sqrt(mp.pi) * mp.exp(mp.mpf(x) ** 2) * mp.erfc(mp.mpf(x))
        else:
            xp = mp.mpf(x) ** p
            v = mp.exp(xp) * mp.gammainc(1 / mp.mpf(p), xp)
        return +v


def eval_via_polynomials(m: float, p: float, x: float, tol: float = DEFAULT_TOL) -> float:
    """V_m^p(x) through the polynomial representation.

    Integer m: V_m = P_m(x^p) V_0 + x Q_(m-1)(x^p), with P, Q exact.  The two
    terms cancel catastrophically once x^p is large relative to m.  When the
    measured condition number exceeds 1e3, or the anchor's own error
    amplified by it would exceed tol/2, V_0 is recomputed from its closed
    form at enough working precision to absorb that condition number.

    Non-integer m: the anchor pair (V_a, V_(a-1)) at a = m - floor(m) is
    combined with numeric coefficient chains following the same recursion.
    """
    if m < 1:
        raise DomainError(f"polynomial representation requires m >= 1, got {m}")
    if x <= 0:
        raise DomainError(f"x must be positive, got {x}")
    EvalParams(m, p, x)  # rejects non-finite m, p, x
    if float(m).is_integer():
        mi = int(m)
        yv, s = _exact_y_s(p, x)
        P = _eval_y("P", mi, s, yv)
        Q = _eval_y("Q", mi - 1, s, yv)
        anchor = eval_vmp(EvalParams(0.0, p, x), tol)
        v0 = anchor.value
        value = float(P * Fraction(v0) + Fraction(x) * Q)
        big = abs(float(P)) * abs(v0)
        # Jensen-scale magnitude; the float `value` itself is unreliable when
        # the combination cancels, so it must not enter the condition estimate
        v_scale = (float(yv) + max(m, 0.0)) ** ((1.0 - p) / p)
        cond = big / v_scale
        if cond > 1e3 or cond * anchor.abs_err_estimate / abs(v0) > 0.5 * tol:
            dps = 30 + int(math.log10(max(cond, 1.0)))
            v0_hp = _anchor_v0_hp(p, x, dps)
            with mp.workdps(dps):
                value = float(mp.mpf(P.numerator) / P.denominator * v0_hp
                              + mp.mpf(x) * mp.mpf(Q.numerator) / Q.denominator)
        return value

    # fractional m: numeric coefficient pair (A_j, B_j) with
    # V_(a+j) = A_j V_a + B_j V_(a-1), same three-term recursion
    a = m - math.floor(m)
    j = int(math.floor(m))
    xp = x ** p
    inv_p = 1.0 / p
    A_prev2, A_prev1 = 0.0, 1.0
    B_prev2, B_prev1 = 1.0, 0.0
    for i in range(1, j + 1):
        mm = a + i
        A = ((mm - 1.0 + inv_p - xp) * A_prev1 + xp * A_prev2) / mm
        B = ((mm - 1.0 + inv_p - xp) * B_prev1 + xp * B_prev2) / mm
        A_prev2, A_prev1 = A_prev1, A
        B_prev2, B_prev1 = B_prev1, B
    va = eval_vmp(EvalParams(a, p, x), tol).value
    va1 = eval_vmp(EvalParams(a - 1.0, p, x), tol).value
    return A_prev1 * va + B_prev1 * va1


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
    _grow_P(m)
    _grow_Q(m)
    sum_P = RatPoly(_PQ_VARS)
    for j in range(m):
        sum_P = sum_P + _P[j]
    lhs_P = m * _P[m] - (s * sum_P - y * _P[m - 1])
    if not lhs_P.is_zero():
        return False
    sum_Q = RatPoly(_PQ_VARS)
    for j in range(m):
        sum_Q = sum_Q + _Q[j]
    lhs_Q = (m + 1) * _Q[m] - (s * sum_Q - y * _Q[m - 1] + 1)
    return lhs_Q.is_zero()


def hypergeometric_check(m: int, p: float, y: float,
                         budget: int = 200) -> tuple[float, float]:
    """(P_m(y; 1/p), Kummer form) pair; they agree when p != 1/n.

    rhs = e^(-y) 1F1(1 - 1/p, 1 - 1/p - m, y) / (m B(m, 1/p)), with the 1F1
    summed by its raw term-ratio series.
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    s = 1.0 / p
    if abs(s - round(s)) < 1e-12:
        raise DomainError("Kummer form requires p != 1/n (lower parameter pole)")
    c = 1.0 - s - m
    if c <= 0 and abs(c - round(c)) < 1e-12:
        raise DomainError("lower 1F1 parameter is a nonpositive integer")
    lhs = float(build_P(m).poly.eval(y=Fraction(y), s=Fraction(s)))
    a = 1.0 - s
    total, term = 1.0, 1.0
    for j in range(budget):
        term *= (a + j) / (c + j) * y / (j + 1)
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
    else:
        raise SeriesBudgetError(f"1F1 series did not converge in {budget} terms")
    inv_beta = math.exp(math.lgamma(m + s) - math.lgamma(m) - math.lgamma(s))
    rhs = inv_beta / m * math.exp(-y) * total
    return lhs, rhs


# ---------------------------------------------------------------- roots

def tildeP_roots(m: int, p: float) -> float | None:
    """For odd m, the unique real root z_m of tilde-P_m(.; 1/p) in [-m+1, 0],
    found by bisection to 1e-12 absolute.  For even m returns None after
    asserting positivity on a sample grid.
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    s = 1.0 / p
    poly = build_tildeP(m).poly

    def f(z: float) -> float:
        return float(sum(float(c) * z ** e[0] * s ** e[1] for e, c in poly.coeffs.items()))

    if m % 2 == 0:
        lo = -float(m)
        samples = [lo + i * (abs(lo) + 2.0) / 400 for i in range(401)]
        if min(f(z) for z in samples) < 0:
            raise BracketError(f"even tilde-P_{m} unexpectedly negative on sample grid")
        return None
    if m == 1:
        return 0.0
    lo, hi = -(m - 1.0), 0.0
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise BracketError(f"no sign change for tilde-P_{m} on [{lo}, {hi}]")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def P_root_nonneg(m: int, p: float) -> float:
    """The unique nonnegative root of P_m(.; 1/p) for odd m: y_m = 1/p - z_m."""
    if m % 2 == 0:
        raise DomainError(f"P_m has no nonnegative root for even m, got {m}")
    z = tildeP_roots(m, p)
    return 1.0 / p - z
