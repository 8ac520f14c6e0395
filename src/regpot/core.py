"""Evaluation of the regularized potential V_m^p(x) and its Fourier transform.

V_m^p(x) = K(m, (1-p)/p, x^p), and the p = 2 Fourier transform is
Gamma(m+1) K(m, -(m+1), xi^2/4) / sqrt(2 pi), with the Tricomi-U integral

    K(m, c, z) = (1/Gamma(m+1)) * int_0^inf u^m e^(-u) (z + u)^c du

(DLMF 13.4.4) taken by one double-exponential trapezoid kernel, `_quad_vmp`,
at a whole vector of (m, z) per call.  Under Mori's map u = exp(t - e^(-t))
(Takahasi & Mori 1974) the integrand, sampled in logs with lgamma(m+1) in the
exponent so that no Gamma(m+1) overflows, decays double exponentially in t.
The step is halved until two successive levels agree to tol (Trefethen &
Weideman 2014), or until one level agrees and its difference is at most 1/8
of the one before: the error of a converging level roughly squares each
halving.  The estimate is the larger of the two differences, or the last one
after an eightfold fall, plus the exponent's rounding.  Near tol = 1e-15
that rounding can pass tol |K|: the value comes back with that honest
estimate, or a ConvergenceError names the tol as out of reach.
`eval_vmp_many` picks closed forms, the m = -1 convention or the large-x
series point by point, and sends the other points to one kernel call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AsymptoticRegimeError, ConvergenceError, DomainError

DEFAULT_TOL = 1e-10

_EPS = float(np.finfo(float).eps)
_SERIES_TERMS = 40  # terms of the large-x series before its truncation


def _check_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


def _check_p(p: float, **values: float) -> None:
    """p finite and positive, and the other values finite."""
    _check_finite(p=p, **values)
    if p <= 0:
        raise DomainError(f"p must be positive, got {p}")


@dataclass(frozen=True)
class EvalParams:
    """Argument bundle (m, p, x) with domain validation."""

    m: float
    p: float
    x: float

    def __post_init__(self):
        _check_p(self.p, m=self.m, x=self.x)
        if self.m < -1:
            raise DomainError(f"m must be >= -1, got {self.m}")
        if self.x < 0:
            raise DomainError(f"x must be nonnegative, got {self.x}")
        if self.x == 0 and (self.p >= 1 if self.m == -1 else self.m <= -1.0 / self.p):
            raise DomainError(f"x = 0 requires m > -1/p, or m = -1 with p < 1; "
                              f"got m={self.m}, p={self.p}")


@dataclass(frozen=True)
class EvalResult:
    value: float
    abs_err_estimate: float
    method: str  # quadrature | asymptotic | closed_form_inv_p | convention


def _ulp_slack(value):
    """Rounding slack of a computed value: 10 ulp, plus the least subnormal,
    the most by which a value below the double range can round to 0."""
    return 10.0 * _EPS * abs(value) + math.ulp(0.0)


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

def _quad_vmp(m, c: float, z, tol: float, log_norm: float | None = None):
    """(integral / e^L, absolute-error estimate), arrays over the 1-D array
    z > 0, where the integral is Gamma(m+1) K(m, c, z), m is one value or one
    per z, and L = log_norm, by default lgamma(m+1), which gives K itself."""
    z = np.asarray(z, dtype=float)
    if np.any(z == 0):
        # below the threshold m + 1 + c = 0 the integral grows like
        # z^(m+1+c), or log(1/z), as z -> 0
        raise ConvergenceError("x^p or xi^2/4 underflows to 0, where the integral diverges")
    m1 = (np.asarray(m, dtype=float) + np.ones_like(z))[:, None]
    L = np.array([[math.lgamma(v)] for v in m1[:, 0].tolist()]) if log_norm is None \
        else np.full(m1.shape, log_norm)
    z = z[:, None]
    # The t-range reaches u^(m+1) ~ e^(-80), (u/z)^(m+1) ~ e^(-80) when
    # c < 0, where the mass can sit near u ~ z, and the tail of u^(b-1) e^(-u)
    # past 12.6 standard deviations; one grid serves every row.
    b = float(m1.max()) + max(c, 0.0)
    s_lo = -80.0 / float(m1.min()) + (min(0.0, math.log(z.min())) if c < 0 else 0.0)
    t_lo = -math.log1p(-s_lo)  # s(t_lo) <= s_lo - 1
    s_hi = math.log(b + math.sqrt(160.0 * b) + 80.0)
    t_hi = s_hi + math.exp(-s_hi)  # s(t_hi) >= s_hi
    n = 2 * math.ceil((t_hi - t_lo) / min(0.5, 1.0 / math.sqrt(float(m1.max()))))
    h = (t_hi - t_lo) / n

    def log_f(t, rows):
        """log f at the nodes t, and its largest terms."""
        e = np.exp(-t)
        s = t - e
        u = np.exp(s)
        m_s, c_log = m1[rows] * s, c * np.log(z[rows] + u)
        return m_s - u + np.log1p(e) - L[rows] + c_log, (m_s, u, c_log)

    with np.errstate(over="ignore", invalid="ignore"):
        # levels h0 = 2h and h in one pass; the shift puts each row's largest
        # sample at 1, and the rounding errors of the terms of log f become
        # relative errors of f
        rows = np.arange(z.size)
        lf, (m_s, u, c_log) = log_f(t_lo + h * np.arange(n + 1.0), rows)
        size = np.abs(m_s) + u + np.abs(c_log) + np.abs(L)
        shift = lf.max(axis=1, keepdims=True)
        f = np.exp(lf - shift)
        total = h * f.sum(axis=1)
        diff = np.abs(total - 2.0 * h * f[:, ::2].sum(axis=1))
        rounding = _EPS * ((f * size).sum(axis=1) / f.sum(axis=1) + 10.0)
        estimate = np.empty(z.size)
        for _ in range(12):  # down to h0 / 4096
            h *= 0.5
            t = t_lo + h * np.arange(1.0, 2 * n, 2.0)  # the new midpoints
            n *= 2
            new_sum, step = 0.0, max((1 << 16) // rows.size, 1)  # bound the memory
            for i in range(0, t.size, step):
                new_sum = new_sum + np.exp(log_f(t[i:i + step], rows)[0]
                                           - shift[rows]).sum(axis=1)
            new_total = 0.5 * total[rows] + h * new_sum
            new_diff = np.abs(new_total - total[rows])
            total[rows] = new_total
            round_rel = rounding[rows] + _EPS * math.sqrt(n)
            # two successive levels must agree, since one can by chance, or
            # one must agree where the difference fell eightfold: the error
            # of a converging level roughly squares each halving
            limit = np.maximum(0.1 * tol, round_rel) * new_total
            agree = new_diff <= limit
            done = agree & (diff[rows] <= limit)
            early = agree & ~done & (8.0 * new_diff <= diff[rows])
            estimate[rows] = (np.where(early, new_diff, np.maximum(new_diff, diff[rows]))
                              + round_rel * new_total)
            done |= early
            diff[rows] = new_diff
            rows = rows[~done]
            if not rows.size:
                break
        else:
            raise ConvergenceError(
                f"tol {tol:g} is out of reach: successive trapezoid levels still differ "
                f"by {float(np.max(diff[rows] / total[rows])):.1e} relative")
        value = np.exp(shift[:, 0] + np.log(total))  # total >= h: its largest sample is 1
    if not np.all(np.isfinite(value)):
        raise ConvergenceError("the integral overflows a double")
    return value, value * (estimate / total)


# ---------------------------------------------------------------- closed forms

def eval_vm0(m: float, p: float) -> EvalResult:
    """V_m^p(0) = Gamma(m + 1/p) / Gamma(m + 1), or 0 by the convention
    V_-1 = x^(1-p) at m = -1, p < 1."""
    EvalParams(m, p, 0.0)
    if m == -1:
        return EvalResult(0.0, _ulp_slack(0.0), "convention")
    value, abs_err = gamma_ratio(m + 1.0 / p, m + 1.0)
    return EvalResult(value, abs_err, "closed_form_inv_p")


def eval_closed_form_inv_p(m: float, n: int, x):
    """V_m^(1/n)(x) for integer n >= 2: a degree-(n-1) polynomial in x^(1/n),
    at a scalar x or at every x of an array."""
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"n must be an integer >= 2, got {n}")
    if m <= -1:
        raise DomainError(f"m must be > -1, got {m}")
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs) & (xs >= 0)):
        raise DomainError(f"x must be finite and nonnegative, got {x}")
    t = xs ** (1.0 / n)
    acc = 0.0
    with np.errstate(over="ignore"):
        # Gamma(m + 1 + j), not Gamma(m + n - k): at m ~ -1 the rounding of
        # m + n - k is a large relative error of an argument near the pole
        for k in range(n - 1, -1, -1):
            acc = acc * t + math.comb(n - 1, k) * gamma_ratio(m + 1.0 + (n - 1 - k), m + 1.0)[0]
    if np.any(np.isinf(acc)):
        raise ConvergenceError(f"V_m^(1/{n})(x) overflows a double at m = {m}, x = {x}")
    return float(acc) if np.ndim(x) == 0 else acc


def _asymptotic_series(ms: np.ndarray, p: float, xs: np.ndarray):
    """(values, estimates, in_regime) of `eval_asymptotic`'s series at every
    (m, x) of the arrays ms and xs; out of regime where the first correction
    is not smaller than the leading term."""
    j = np.arange(_SERIES_TERMS + 1.0)
    factors = np.ones((xs.size, _SERIES_TERMS + 2))
    with np.errstate(over="ignore", under="ignore"):
        factors[:, 1:] = (((1.0 - p) / p - j) / (j + 1.0) * (ms[:, None] + 1.0 + j)
                          * xs[:, None] ** -p)
        # terms[:, j] = binom((1-p)/p, j) (m+1)_j x^(-jp), and the sums up to
        # each, in order; a growing term stops the sum before it can overflow
        terms = np.cumprod(factors, axis=1)
        sums = np.cumsum(terms, axis=1)
        size = np.abs(terms)
    # truncate before the first term that is 0 (the series terminates, as at
    # m = -1), that no longer shrinks (the optimal truncation point), or that
    # can no longer change the sum
    stop = size[:, 1:] <= 0.5 * _EPS * np.abs(sums[:, :-1])
    stop[:, 1:] |= size[:, 2:] >= size[:, 1:-1]
    stop[:, -1] = True
    rows, k = np.arange(xs.size), stop.argmax(axis=1)
    lead = xs ** (1.0 - p)
    values = lead * sums[rows, k]
    return values, lead * size[rows, k + 1] + _ulp_slack(values), size[:, 1] < 1.0


def eval_asymptotic(params: EvalParams) -> EvalResult:
    """Optimally truncated large-x expansion (p > 1 only).

    V ~ x^(1-p) * sum_j binom((1-p)/p, j) * (m+1)_j * x^(-jp); the error
    estimate is the magnitude of the first omitted term.
    """
    m, p, x = params.m, params.p, params.x
    if p <= 1:
        raise DomainError(f"asymptotic series requires p > 1, got p={p}")
    if x <= 0:
        raise DomainError("asymptotic series requires x > 0")
    values, errs, in_regime = _asymptotic_series(np.array([m]), p, np.array([x]))
    if not in_regime[0]:
        raise AsymptoticRegimeError(f"first correction not smaller than leading term at x={x}")
    return EvalResult(float(values[0]), float(errs[0]), "asymptotic")


# ---------------------------------------------------------------- dispatcher

def eval_vmp_many(m, p: float, xs, tol: float = DEFAULT_TOL):
    """(values, estimates, methods), arrays over the points x of `xs`, of
    V_m^p(x), with m one value or one per x.  The method is chosen point by
    point: the convention at m = -1, closed forms at p = 1, x = 0 (or x^p
    below the double range) and 1/p an integer, and the asymptotic series
    where it meets tol; the other points share one `_quad_vmp` call."""
    _check_tol(tol)
    xs = np.array(xs, dtype=float).ravel()
    ms = np.asarray(m, dtype=float) + np.zeros_like(xs)
    for mi in set(ms.tolist()):  # m and p, at an x with no rules of its own
        EvalParams(mi, p, 1.0)
    odd = ~((xs > 0) & np.isfinite(xs))
    if odd.any():
        for mi, x in zip(ms[odd].tolist(), xs[odd].tolist()):
            EvalParams(mi, p, x)
    values, errs = np.ones(xs.size), np.full(xs.size, _ulp_slack(1.0))
    methods = np.full(xs.size, "closed_form_inv_p", dtype=object)
    rest = ms != -1
    if not rest.all():
        with np.errstate(over="ignore"):
            v = xs[~rest] ** (1.0 - p)
        if np.isinf(v).any():
            x = xs[~rest][np.isinf(v)][0]
            raise ConvergenceError(f"V_-1 = x^(1-p) overflows a double at x = {x}")
        values[~rest], errs[~rest], methods[~rest] = v, _ulp_slack(v), "convention"
    if p == 1:
        return values, errs, methods
    with np.errstate(over="ignore"):
        z = xs ** p  # inf only at p > 1, where the series gives x^(1-p)
    if not z.all():
        for i in np.flatnonzero(rest & (z == 0) & (ms > -1.0 / p)):
            res = eval_vm0(float(ms[i]), p)
            values[i], errs[i] = res.value, res.abs_err_estimate
        rest &= (z > 0) | (ms <= -1.0 / p)
    n = round(1.0 / p)
    if n >= 2 and abs(1.0 / p - n) < 1e-12 * n:
        for mi in set(ms[rest].tolist()):
            at = rest & (ms == mi)
            values[at] = eval_closed_form_inv_p(mi, n, xs[at])
            # no coefficient's gamma ratio errs by more than the leading one's
            lead, lead_err = gamma_ratio(mi + 1.0 + (n - 1), mi + 1.0)
            errs[at] = values[at] * (lead_err / lead) + _ulp_slack(values[at]) * n
        return values, errs, methods
    near = np.flatnonzero(rest & (z > 2.0 * (ms + 2.0))) if p > 1 else []
    if len(near):
        v, e, in_regime = _asymptotic_series(ms[near], p, xs[near])
        # the slack's least subnormal meets any tol: no double is closer
        ok = in_regime & (e <= tol * np.abs(v) + math.ulp(0.0))
        values[near[ok]], errs[near[ok]], methods[near[ok]] = v[ok], e[ok], "asymptotic"
        rest[near[ok]] = False
    if rest.any():
        values[rest], errs[rest] = _quad_vmp(ms[rest], (1.0 - p) / p, z[rest], tol)
        errs[rest] += _ulp_slack(values[rest])
        methods[rest] = "quadrature"
    return values, errs, methods


def eval_vmp(params: EvalParams, tol: float = DEFAULT_TOL) -> EvalResult:
    """Evaluate V_m^p(x) with automatic method selection: `eval_vmp_many`
    at the one point x."""
    values, errs, methods = eval_vmp_many(params.m, params.p, (params.x,), tol)
    return EvalResult(float(values[0]), float(errs[0]), methods[0])


def vmp(m: float, p: float, x: float, tol: float = DEFAULT_TOL) -> float:
    """Convenience scalar wrapper around eval_vmp."""
    return eval_vmp(EvalParams(m, p, x), tol).value


# ---------------------------------------------------------------- Fourier side

def eval_fourier_transform(m: float, xi: float, tol: float = DEFAULT_TOL) -> EvalResult:
    """Fourier transform of V_m (p = 2 only):

        F_m(xi) = (4^(m+1)/sqrt(2 pi)) int_0^inf s^m e^(-s) (xi^2 + 4s)^(-(m+1)) ds
                = Gamma(m+1) K(m, -(m+1), xi^2/4) / sqrt(2 pi),

    the kernel of V_m^p, with the log normaliser log sqrt(2 pi).  The
    integrand behaves like s^(-1) near 0 when xi = 0, so xi = 0 is rejected.
    Where xi^2/4 = z overflows a double, the answer is the leading term
    Gamma(m+1) z^-(m+1) / sqrt(2 pi), taken in logs: (1 + u/z)^-(m+1) lies in
    [1 - (m+1) u/z, 1], so its relative error is below (m+1)^2 / z.
    """
    _check_finite(m=m, xi=xi)
    if m <= -1:
        raise DomainError(f"m must be > -1, got {m}")
    if xi == 0:
        raise DomainError("the transform integral diverges at xi = 0")
    _check_tol(tol)
    log_norm = 0.5 * math.log(2.0 * math.pi)
    if math.isinf(0.25 * xi * xi):
        log_z, lg = 2.0 * math.log(abs(xi)) - math.log(4.0), math.lgamma(m + 1.0)
        value = math.exp(lg - (m + 1.0) * log_z - log_norm)
        rel_err = (math.exp(2.0 * math.log1p(m) - log_z)
                   + _EPS * (abs(lg) + 2.0 * (m + 1.0) * log_z + log_norm + 10.0))
        # a value below the double range rounds to at most the least subnormal
        return EvalResult(value, value * rel_err + math.ulp(0.0), "asymptotic")
    value, err = _quad_vmp(m, -(m + 1.0), [0.25 * xi * xi], tol, log_norm)
    return EvalResult(float(value[0]), float(err[0] + _ulp_slack(value[0])), "quadrature")
