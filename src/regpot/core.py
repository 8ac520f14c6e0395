"""Evaluation of the regularized potential V_m^p(x) and its Fourier transform.

The workhorse is one adaptive Gauss-Legendre quadrature kernel, `_quad_vmp`,
for the Tricomi-U integral (DLMF 13.4.4)

    K(m, c, z) = (1/Gamma(m+1)) * int_0^inf u^m e^(-u) (z + u)^c du,

with an analytic bound on the truncated tail, so every result carries a
defensible absolute-error estimate.  It returns Gamma(m+1) K, which
V_m^p(x) = K(m, (1-p)/p, x^p) divides by Gamma(m+1), and the p = 2 Fourier
transform Gamma(m+1)/sqrt(2 pi) K(m, -(m+1), xi^2/4) by sqrt(2 pi) alone.
Closed forms (p = 1, x = 0, 1/p a positive integer) and the large-x
asymptotic series are dispatched to when cheaper and at least as accurate.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import AsymptoticRegimeError, ConvergenceError, DomainError

DEFAULT_TOL = 1e-10

_EPS = float(np.finfo(float).eps)
_MAX_PANELS = 3000
_LOG_MAX = math.log(sys.float_info.max)


def _check_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class EvalParams:
    """Argument bundle (m, p, x) with domain validation."""

    m: float
    p: float
    x: float

    def __post_init__(self):
        _check_finite(m=self.m, p=self.p, x=self.x)
        if self.p <= 0:
            raise DomainError(f"p must be positive, got {self.p}")
        if self.m < -1:
            raise DomainError(f"m must be >= -1, got {self.m}")
        if self.x < 0:
            raise DomainError(f"x must be nonnegative, got {self.x}")
        if self.x == 0:
            if self.m == -1:
                if self.p >= 1:
                    raise DomainError("x = 0 with m = -1 is undefined for p >= 1")
            elif self.m <= -1.0 / self.p:
                raise DomainError(f"x = 0 requires m > -1/p, got m={self.m}, p={self.p}")


@dataclass(frozen=True)
class EvalResult:
    value: float
    abs_err_estimate: float
    method: str  # quadrature | asymptotic | closed_form_inv_p | convention


def _ulp_slack(value: float) -> float:
    return 10.0 * _EPS * abs(value)


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be positive and finite, got {tol}")


def _x_pow(x: float, p: float) -> float:
    """x ** p, or inf where it overflows a double."""
    try:
        return x ** p
    except OverflowError:
        return math.inf


def gamma_ratio(a: float, *bs: float) -> tuple[float, float]:
    """Gamma(a) / (Gamma(b_1) Gamma(b_2) ...) for positive arguments, and a
    bound on its absolute error.  Each lgamma is good to about an ulp of its
    magnitude, and exp(lgamma(a) - lgamma(b_1) - ...) makes that a relative
    error: eps times the sum of |lgamma|, 3e-12 at a ~ 1e4, 1e-7 at 1e8."""
    lg = math.lgamma(a)
    lg_abs = abs(lg)
    for b in bs:
        lb = math.lgamma(b)
        lg -= lb
        lg_abs += abs(lb)
    try:
        value = math.exp(lg)
    except OverflowError:
        ratio = " / ".join(f"Gamma({v})" for v in (a, *bs))
        raise ConvergenceError(f"{ratio} overflows a double") from None
    return value, _EPS * (10.0 + 2.0 * lg_abs) * value


# ---------------------------------------------------------------- quadrature

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _panel(f, lo: float, hi: float, n: int) -> float:
    xs, ws = _gl(n)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return half * float(np.sum(ws * f(mid + half * xs)))


def _adaptive(f, edges, tol_abs: float) -> tuple[float, float]:
    """Adaptive composite Gauss-Legendre over the panels between consecutive
    `edges`; error from a 15- vs 7-node comparison, plus the rounding of
    summing the panels and their nodes, for an integrand of one sign."""
    a, b = edges[0], edges[-1]
    total, err = 0.0, 0.0
    stack = list(zip(edges, edges[1:]))
    panels = 0
    while stack:
        lo, hi = stack.pop()
        coarse = _panel(f, lo, hi, 7)
        fine = _panel(f, lo, hi, 15)
        e = abs(fine - coarse)
        panels += 1
        if panels > _MAX_PANELS:
            raise ConvergenceError("quadrature panel budget exhausted")
        if e <= tol_abs * (hi - lo) / (b - a) or (hi - lo) <= 64.0 * _EPS * (b - a):
            total += fine
            err += e
        else:
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid))
            stack.append((mid, hi))
    return total, err + (panels + 15) * _EPS * abs(total)


def _gamma_tail_bound(a: float, U: float) -> float:
    """Upper bound on int_U^inf u^a e^(-u) du, for U >= 1."""
    # u^a <= u^n U^(a-n) on [U, inf) with n = max(ceil(a), 0), and
    # Gamma(n+1, U) = sum_{j<=n} (n!/j!) U^j e^(-U), summed from j = n down;
    # inf, a valid if useless bound, where U^a e^(-U) overflows a double
    log_term = a * math.log(U) - U
    term = tot = math.exp(log_term) if log_term < _LOG_MAX else math.inf
    for j in range(math.ceil(a), 0, -1):
        term *= j / U
        tot += term
    return tot


def _vmp_tail_bound(m: float, c: float, z: float, U: float) -> float:
    """Upper bound on int_U^inf u^m e^(-u) (z+u)^c du, for U >= 1."""
    if c <= 0:
        # algebraic factor is nonincreasing, take its value at U
        return (z + U) ** c * _gamma_tail_bound(m, U)
    # c > 0: (z+u)^c <= (z+u)^n with n = ceil(c); expand binomially
    n = math.ceil(c)
    return sum(math.comb(n, i) * z ** i * _gamma_tail_bound(m + n - i, U)
               for i in range(n + 1))


def _quad_vmp(m: float, c: float, z: float, tol: float) -> tuple[float, float]:
    """(Gamma(m+1) K(m, c, z), absolute-error estimate) for z > 0, with K as
    in the module docstring: the integral itself, unnormalised."""
    # u^m e^(-u) peaks near Gamma(m+1), so the integrand leaves the double
    # range with it
    log_gamma = math.lgamma(m + 1.0)
    if log_gamma > _LOG_MAX:
        raise ConvergenceError(f"Gamma({m + 1.0}) overflows a double")
    if z == 0 and m + 1.0 + c <= 0:
        # the integral grows like z^(m+1+c), or log(1/z), as z -> 0
        raise ConvergenceError("x^p or xi^2/4 underflows to 0, where the integral diverges")
    # The tolerance scales with a lower bound on the integral.  For c > 0,
    # (z+u)^c >= max(u^c, z^c) gives max(Gamma(m+1+c), Gamma(m+1) z^c).  For
    # c <= 0, Jensen's Gamma(m+1) (z+|m|+1)^c and the integral over [0, q]
    # with (z+u)^c and e^(-u) taken at q, largest at the positive root q of
    # q^2 - (m+1+c-z) q - (m+1) z = 0; that one follows the growth like
    # z^(m+1+c) as z -> 0 below the threshold m + 1 + c = 0.
    if c > 0:
        log_scale = max(math.lgamma(m + 1.0 + c), log_gamma + c * math.log(z))
    else:
        log_scale = log_gamma + c * math.log(z + abs(m) + 1.0)
        b = m + 1.0 + c - z
        d = math.hypot(b, 2.0 * math.sqrt((m + 1.0) * z))
        q = 0.5 * (b + d) if b >= 0 else 2.0 * (m + 1.0) * z / (d - b)
        if q > 0:
            log_scale = max(log_scale, c * math.log(z + q) - q + (m + 1.0) * math.log(q)
                            - math.log(m + 1.0))
    if log_scale > _LOG_MAX:
        raise ConvergenceError("the unnormalised integral Gamma(m+1) K overflows a double")
    target_abs = max(tol, 1e-16) * math.exp(log_scale)

    U = max(2.0 * abs(m) + 2.0, 10.0)
    while (tail := _vmp_tail_bound(m, c, z, U)) > 0.25 * target_abs:
        U *= 1.3
        if U > 700.0:
            raise ConvergenceError("tail bound not satisfiable before exp underflow")

    # Head [0, 1] under u = t^gamma: the transformed integrand behaves like
    # t^(gamma(m+1)-1) while t^gamma << z and t^(gamma(m+1+min(c, 0))-1)
    # beyond; gamma makes both exponents >= 2, which tames the u^m weight and
    # the small-z near-singularity at once.  When m + 1 + c <= 0 the second
    # cannot be positive (the integrand peaks near t = z^(1/gamma) instead),
    # and flattening the u^m weight alone suffices.
    edges = (0.0, 1.0)
    if m + 1.0 < 0.025:
        # u^m is nearly 1/u: u = t^(1/(m+1)) makes the weight exactly flat.
        # e^(-u) (z+u)^c is flat up to u = z e^(-40) too; its change, within
        # (40 + log(1/z))/gamma of t = 1, escapes one panel's nodes: break.
        gamma = 1.0 / (m + 1.0)
        decades = 40.0 - math.log(min(max(z, math.ulp(0.0)), 1.0))
        edges = (0.0, math.exp(-decades / gamma), 1.0)
    else:
        denom = m + 1.0 + min(c, 0.0)
        gamma = max(3.0 / (m + 1.0), 3.0 / denom if denom > 0.025 else 0.0)
        if denom < 0.5 and 0.0 < z < 1.0:
            # near (or below) the threshold the mass spreads over log(1/z)
            # decades; stretch the map so they fit in O(1) t-range
            gamma = max(gamma, math.log(1.0 / z))
        gamma = min(max(gamma, 1.0), 120.0)
        if 0.0 < z < 1.0:
            # the integrand has a kink where u ~ z that fools the 7- vs
            # 15-node comparison of a panel across it: break there
            edges = (0.0, z ** (1.0 / gamma), 1.0)

    def f_head(t):  # Gauss-Legendre nodes are interior, so t > 0
        u = t ** gamma
        return gamma * t ** (gamma * (m + 1.0) - 1.0) * np.exp(-u) * (z + u) ** c

    val, perr = _adaptive(f_head, edges, 0.25 * target_abs)
    # log form: u^m alone overflows a double from u ~ 110 at m = 150
    v2, e2 = _adaptive(lambda u: np.exp(m * np.log(u) - u) * (z + u) ** c,
                       (1.0, U), 0.25 * target_abs)
    return val + v2, perr + e2 + tail


# ---------------------------------------------------------------- closed forms

def eval_vm0(m: float, p: float) -> EvalResult:
    """V_m^p(0) = Gamma(m + 1/p) / Gamma(m + 1)."""
    if p <= 0:
        raise DomainError(f"p must be positive, got {p}")
    if m <= -1.0 / p:
        raise DomainError(f"V_m^p(0) requires m > -1/p, got m={m}, p={p}")
    value, abs_err = gamma_ratio(m + 1.0 / p, m + 1.0)
    return EvalResult(value, abs_err, "closed_form_inv_p")


def eval_closed_form_inv_p(m: float, n: int, x: float) -> float:
    """V_m^(1/n)(x) for integer n >= 2: a degree-(n-1) polynomial in x^(1/n)."""
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"n must be an integer >= 2, got {n}")
    if m <= -1:
        raise DomainError(f"m must be > -1, got {m}")
    if x < 0:
        raise DomainError(f"x must be nonnegative, got {x}")
    t = x ** (1.0 / n)
    coeffs = [math.comb(n - 1, k) * gamma_ratio(m + n - k, m + 1.0)[0] for k in range(n)]
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    if math.isinf(acc):
        raise ConvergenceError(f"V_m^(1/{n})(x) overflows a double at m = {m}, x = {x}")
    return acc


def eval_asymptotic(params: EvalParams, max_terms: int = 40) -> EvalResult:
    """Optimally truncated large-x expansion (p > 1 only).

    V ~ x^(1-p) * sum_j binom((1-p)/p, j) * (m+1)_j * x^(-jp); the error
    estimate is the magnitude of the first omitted term.
    """
    m, p, x = params.m, params.p, params.x
    if p <= 1:
        raise DomainError(f"asymptotic series requires p > 1, got p={p}")
    if x <= 0:
        raise DomainError("asymptotic series requires x > 0")
    alpha = (1.0 - p) / p
    inv_xp = x ** (-p)
    lead = x ** (1.0 - p)

    total = 1.0
    term = 1.0
    first_omitted = 0.0
    for j in range(max_terms):
        nxt = term * (alpha - j) / (j + 1) * (m + 1.0 + j) * inv_xp
        if j == 0 and abs(nxt) >= 1.0:
            raise AsymptoticRegimeError(
                f"first correction {nxt:.3g} not smaller than leading term at x={x}")
        if nxt == 0.0:
            # series terminates (e.g. the m = -1 convention)
            first_omitted = 0.0
            break
        if j > 0 and abs(nxt) >= abs(term):
            # optimal truncation point reached
            first_omitted = abs(nxt)
            break
        term = nxt
        total += term
        first_omitted = abs(term * (alpha - j - 1) / (j + 2) * (m + 2.0 + j) * inv_xp)
    value = lead * total
    return EvalResult(value, lead * first_omitted + _ulp_slack(value), "asymptotic")


# ---------------------------------------------------------------- dispatcher

def _inv_p_integer(p: float) -> int | None:
    n = 1.0 / p
    r = round(n)
    if r >= 2 and abs(n - r) < 1e-12 * max(1.0, n):
        return int(r)
    return None


def eval_vmp(params: EvalParams, tol: float = DEFAULT_TOL) -> EvalResult:
    """Evaluate V_m^p(x) with automatic method selection."""
    _check_tol(tol)
    m, p, x = params.m, params.p, params.x

    if m == -1:
        try:
            value = x ** (1.0 - p)
        except OverflowError:
            raise ConvergenceError(f"V_-1 = x^(1-p) overflows a double at x = {x}") from None
        return EvalResult(value, _ulp_slack(value), "convention")
    if p == 1:
        return EvalResult(1.0, _ulp_slack(1.0), "closed_form_inv_p")
    if x == 0:
        return eval_vm0(m, p)
    n = _inv_p_integer(p)
    if n is not None:
        value = eval_closed_form_inv_p(m, n, x)
        # no coefficient's gamma ratio errs by more than the leading one's
        lead, lead_err = gamma_ratio(m + n, m + 1.0)
        return EvalResult(value, value * lead_err / lead + _ulp_slack(value) * n,
                          "closed_form_inv_p")
    z = _x_pow(x, p)  # inf only at p > 1, where the series then gives x^(1-p)
    if p > 1 and z > 2.0 * (m + 2.0):
        try:
            res = eval_asymptotic(params)
            if res.abs_err_estimate <= tol * abs(res.value):
                return res
        except AsymptoticRegimeError:
            pass
    integral, err = _quad_vmp(m, (1.0 - p) / p, z, tol)
    gamma_m1, gamma_err = gamma_ratio(m + 1.0)
    value = integral / gamma_m1
    return EvalResult(value, (err + value * gamma_err) / gamma_m1 + _ulp_slack(value),
                      "quadrature")


def vmp(m: float, p: float, x: float, tol: float = DEFAULT_TOL) -> float:
    """Convenience scalar wrapper around eval_vmp."""
    return eval_vmp(EvalParams(m, p, x), tol).value


# ---------------------------------------------------------------- Fourier side

def eval_fourier_transform(m: float, xi: float, tol: float = DEFAULT_TOL) -> EvalResult:
    """Fourier transform of V_m (p = 2 only):

        F_m(xi) = (4^(m+1)/sqrt(2 pi)) int_0^inf s^m e^(-s) (xi^2 + 4s)^(-(m+1)) ds
                = Gamma(m+1)/sqrt(2 pi) K(m, -(m+1), xi^2/4)
                = Gamma(m+1) U(m+1, 1, xi^2/4) / sqrt(2 pi),

    since 4^(m+1) (xi^2 + 4s)^(-(m+1)) = (xi^2/4 + s)^(-(m+1)); K is the
    quadrature kernel that also gives V_m^p.  The integrand behaves like
    s^(-1) near 0 when xi = 0, for every m, so xi = 0 is always rejected.
    """
    _check_finite(m=m, xi=xi)
    if m <= -1:
        raise DomainError(f"m must be > -1, got {m}")
    if xi == 0:
        raise DomainError("the transform integral diverges at xi = 0")
    _check_tol(tol)
    integral, err = _quad_vmp(m, -(m + 1.0), 0.25 * xi * xi, tol)
    value = integral / math.sqrt(2.0 * math.pi)
    return EvalResult(value, err / math.sqrt(2.0 * math.pi) + _ulp_slack(value), "quadrature")
