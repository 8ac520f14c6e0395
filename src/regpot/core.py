"""Evaluation of the regularized potential V_m^p(x).

The workhorse is an adaptive Gauss-Legendre quadrature on the integral
representation

    V_m^p(x) = (1/Gamma(m+1)) * int_0^inf u^m e^(-u) (x^p + u)^(-(p-1)/p) du

with an analytic bound on the truncated tail, so every result carries a
defensible absolute-error estimate.  Closed forms (p = 1, x = 0, 1/p a
positive integer) and the large-x asymptotic series are dispatched to
automatically when they are cheaper and at least as accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AsymptoticRegimeError, ConvergenceError, DomainError

DEFAULT_TOL = 1e-10

_EPS = float(np.finfo(float).eps)
_MAX_PANELS = 3000


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


def _gamma_m1(m: float) -> float:
    """Gamma(m + 1) as a double, the normalization of both quadratures."""
    try:
        return math.exp(math.lgamma(m + 1.0))
    except OverflowError:
        raise ConvergenceError(f"Gamma(m + 1) overflows a double at m = {m}; "
                               "the quadrature is limited to m below about 171") from None


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


def _adaptive(f, a: float, b: float, tol_abs: float) -> tuple[float, float]:
    """Adaptive composite Gauss-Legendre; error from a 15- vs 7-node comparison."""
    total, err = 0.0, 0.0
    stack = [(a, b)]
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
    return total, err


def _gamma_tail_bound(a: float, U: float) -> float:
    """Upper bound on int_U^inf u^a e^(-u) du, for U >= max(1, a)."""
    if a <= 0:
        return U ** a * math.exp(-U)
    n = math.ceil(a)
    # Gamma(n+1, U) = n! e^(-U) sum_{j<=n} U^j/j!, and u^a <= u^n U^(a-n) on [U, inf)
    tot, term = 0.0, 1.0
    for j in range(n):
        term *= U / (j + 1)
        tot += term
    return math.factorial(n) * math.exp(-U) * (1.0 + tot) * U ** (a - n)


def _vmp_tail_bound(m: float, p: float, xp: float, U: float) -> float:
    expo = -(p - 1.0) / p
    if p >= 1:
        # algebraic factor is nonincreasing, take its value at U
        return (xp + U) ** expo * _gamma_tail_bound(m, U)
    # p < 1: factor grows like u^(ceil((1-p)/p)); expand binomially
    n = math.ceil((1.0 - p) / p)
    tot = 0.0
    for i in range(n + 1):
        tot += math.comb(n, i) * xp ** i * _gamma_tail_bound(m + n - i, U)
    return tot


def _quad_vmp(m: float, p: float, x: float, tol: float) -> tuple[float, float]:
    """Unnormalized-then-normalized quadrature for V_m^p(x), x > 0."""
    xp = x ** p
    expo = -(p - 1.0) / p
    gamma_m1 = _gamma_m1(m)
    v_guess = (xp + abs(m) + 1.0) ** ((1.0 - p) / p)
    if m + 1.0 / p < 0:
        # below the x = 0 existence threshold the value diverges like
        # x^(p m + 1) as x -> 0; anchor the tolerance to that scale
        v_guess = max(v_guess, xp ** (m + 1.0 / p))
    target_abs = max(tol * v_guess, 1e-16 * v_guess) * gamma_m1

    U = max(2.0 * abs(m) + 2.0, 10.0)
    while _vmp_tail_bound(m, p, xp, U) > 0.25 * target_abs:
        U *= 1.3
        if U > 700.0:
            raise ConvergenceError("tail bound not satisfiable before exp underflow")
    tail = _vmp_tail_bound(m, p, xp, U)

    # Head [0, 1] under u = t^gamma: the transformed integrand behaves like
    # t^(gamma(m+1)-1) while t^gamma << xp and t^(gamma(m+1-alpha)-1) beyond,
    # with alpha = (p-1)/p; gamma is chosen so both exponents are >= 2, which
    # tames the u^m weight and the small-x algebraic near-singularity at once.
    # When m + 1 - alpha <= 0 the second exponent cannot be made positive
    # (the integrand has an interior peak near t = xp^(1/gamma) instead of a
    # boundary singularity); flattening the u^m weight alone suffices there.
    u0 = min(1.0, U)
    alpha = max(-expo, 0.0)
    denom = m + 1.0 - alpha
    gamma = max(3.0 / (m + 1.0), 3.0 / denom if denom > 0.025 else 0.0)
    if denom < 0.5 and 0.0 < xp < 1.0:
        # near (or below) the existence threshold m = -1/p the mass spreads
        # over log(1/xp) decades; stretch the map so they fit in O(1) t-range
        gamma = max(gamma, math.log(1.0 / xp))
    gamma = min(max(gamma, 1.0), 120.0)

    def f_head(t):
        base = np.where(t > 0, t, 1.0)
        u = np.where(t > 0, base ** gamma, 0.0)
        um = np.where(t > 0, base ** (gamma * (m + 1.0) - 1.0), 0.0)
        return gamma * um * np.exp(-u) * (xp + u) ** expo

    val, perr = _adaptive(f_head, 0.0, u0 ** (1.0 / gamma), 0.25 * target_abs)
    if U > u0:
        v2, e2 = _adaptive(lambda u: u ** m * np.exp(-u) * (xp + u) ** expo,
                           u0, U, 0.25 * target_abs)
        val += v2
        perr += e2

    value = val / gamma_m1
    abs_err = (perr + tail) / gamma_m1 + _ulp_slack(value)
    return value, abs_err


# ---------------------------------------------------------------- closed forms

def eval_vm0(m: float, p: float) -> EvalResult:
    """V_m^p(0) = Gamma(m + 1/p) / Gamma(m + 1)."""
    if p <= 0:
        raise DomainError(f"p must be positive, got {p}")
    if m <= -1.0 / p:
        raise DomainError(f"V_m^p(0) requires m > -1/p, got m={m}, p={p}")
    value = math.exp(math.lgamma(m + 1.0 / p) - math.lgamma(m + 1.0))
    return EvalResult(value, _ulp_slack(value), "closed_form_inv_p")


def eval_closed_form_inv_p(m: float, n: int, x: float) -> float:
    """V_m^(1/n)(x) for integer n >= 2: a degree-(n-1) polynomial in x^(1/n)."""
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"n must be an integer >= 2, got {n}")
    if m <= -1:
        raise DomainError(f"m must be > -1, got {m}")
    if x < 0:
        raise DomainError(f"x must be nonnegative, got {x}")
    t = x ** (1.0 / n)
    lg = math.lgamma(m + 1.0)
    coeffs = [math.comb(n - 1, k) * math.exp(math.lgamma(m + n - k) - lg)
              for k in range(n)]
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
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
        value = x ** (1.0 - p)
        return EvalResult(value, _ulp_slack(value), "convention")
    if p == 1:
        return EvalResult(1.0, _ulp_slack(1.0), "closed_form_inv_p")
    if x == 0:
        return eval_vm0(m, p)
    n = _inv_p_integer(p)
    if n is not None:
        value = eval_closed_form_inv_p(m, n, x)
        return EvalResult(value, _ulp_slack(value) * n, "closed_form_inv_p")
    if p > 1 and x ** p > 2.0 * (m + 2.0):
        try:
            res = eval_asymptotic(params)
            if res.abs_err_estimate <= tol * abs(res.value):
                return res
        except AsymptoticRegimeError:
            pass
    value, abs_err = _quad_vmp(m, p, x, tol)
    return EvalResult(value, abs_err, "quadrature")


def vmp(m: float, p: float, x: float, tol: float = DEFAULT_TOL) -> float:
    """Convenience scalar wrapper around eval_vmp."""
    return eval_vmp(EvalParams(m, p, x), tol).value


# ---------------------------------------------------------------- Fourier side

def eval_fourier_transform(m: float, xi: float, tol: float = DEFAULT_TOL) -> EvalResult:
    """Fourier transform of V_m (p = 2 only):

        (4^(m+1)/sqrt(2 pi)) * int_0^inf s^m e^(-s) (xi^2 + 4s)^(-(m+1)) ds.

    The integrand behaves like s^(-1) near 0 when xi = 0, for every m, so
    xi = 0 is always rejected.
    """
    _check_finite(m=m, xi=xi)
    if m <= -1:
        raise DomainError(f"m must be > -1, got {m}")
    if xi == 0:
        raise DomainError("the transform integral diverges at xi = 0")
    _check_tol(tol)
    xi2 = xi * xi
    gamma_m1 = _gamma_m1(m)  # raises before 4^(m+1) can overflow
    front = 4.0 ** (m + 1.0) / math.sqrt(2.0 * math.pi)
    guess = front * gamma_m1 * (xi2 + 4.0) ** (-(m + 1.0))
    target_abs = max(tol * max(abs(guess), 1e-300), 1e-300)

    def phi_at(s: float) -> float:
        return (xi2 + 4.0 * s) ** (-(m + 1.0))

    U = max(2.0 * abs(m) + 2.0, 10.0)
    while phi_at(U) * _gamma_tail_bound(m, U) * front > 0.25 * target_abs:
        U *= 1.3
        if U > 700.0:
            raise ConvergenceError("tail bound not satisfiable before exp underflow")
    tail = phi_at(U) * _gamma_tail_bound(m, U)

    if m > 0:
        c = 2.0 * m + 1.0

        def f(v):
            s = v * v
            base = np.where(v > 0, v, 1.0)
            t = np.where(v > 0, base ** c, 0.0)
            return 2.0 * t * np.exp(-s) * (xi2 + 4.0 * s) ** (-(m + 1.0))

        val, perr = _adaptive(f, 0.0, math.sqrt(U), 0.5 * target_abs / front)
    elif m == 0:
        val, perr = _adaptive(lambda s: np.exp(-s) / (xi2 + 4.0 * s), 0.0, U, 0.5 * target_abs / front)
    else:
        c = m + 1.0

        def f(w):
            base = np.where(w > 0, w, 1.0)
            s = base ** (1.0 / c)
            s = np.where(w > 0, s, 0.0)
            return np.exp(-s) * (xi2 + 4.0 * s) ** (-(m + 1.0)) / c

        val, perr = _adaptive(f, 0.0, U ** c, 0.5 * target_abs / front)

    value = front * val
    abs_err = front * (perr + tail) + _ulp_slack(value)
    return EvalResult(value, abs_err, "quadrature")
