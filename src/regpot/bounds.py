"""The inequality catalog: g_k, G_k^m, G_k^(m,p), Jensen, Boyd, ratio and
convexity bounds, plus grid-based verification suites with JSON-able reports.

G_k^(m,p) and its derivative take an array of y as well as a float.  The
suites do each grid's work once: the ratio suite reads all its m off one
chain and makes one G_k call per bound and m, and the monotone and
convexity suites take a list of m, all read off one chain to the largest.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import DEFAULT_TOL, _x_pow, eval_vm0, eval_vmp_many
from .errors import BracketError, ConvergenceError, DomainError
from .recursion import chain_values

SLACK = 1e-9
_S_MIN = math.sqrt(np.finfo(float).tiny)  # an S below this has a subnormal S^2
CONVEXITY_SLACK = 1e-7  # on (1/V)'', where 2 V'^2 and V V'' cancel


# ---------------------------------------------------------------- report type

@dataclass
class Report:
    name: str
    n_points: int = 0
    worst_margin: float = math.inf
    violations: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def record(self, ok: bool, margin: float, **context):
        self.n_points += 1
        if margin < self.worst_margin:
            self.worst_margin = margin
        if not ok:
            self.violations.append({"margin": margin, **context})

    def to_json(self) -> str:
        return json.dumps({
            "name": self.name,
            "passed": self.passed,
            "n_points": self.n_points,
            "worst_margin": self.worst_margin,
            "violations": self.violations,
            "info": self.info,
        }, sort_keys=True)


def default_grid(lo: float = 1e-2, hi: float = 1e2, n: int = 200) -> list[float]:
    return list(np.geomspace(lo, hi, n))


# ---------------------------------------------------------------- bound families

def g_k(k: float, x: float) -> float:
    """g_k(x) = k / ((k-1) x + sqrt(x^2 + k))."""
    if k <= 0:
        raise DomainError(f"k must be positive, got {k}")
    if x < 0:
        raise DomainError(f"x must be nonnegative, got {x}")
    return k / ((k - 1.0) * x + math.sqrt(x * x + k))


def G_k_m(k: float, m: float, y):
    """G_k^m(y) = k y / ((k-1) y - m + sqrt((y+m)^2 + k y)), the p = 2 case of
    G_k^(m,p), at a float y or at every y of an array; limit 2m/(2m+1) at
    y = 0."""
    return G_k_m_p(k, m, 2.0, y)


def _gkp_far(k: float, m: float, p: float, y):
    """(G, G') of G_k^(m,p) where S^2 leaves the range of normal doubles,
    for u = y + m > 0.  With
    b = 2 (1 - 1/p), a = k b and w = sqrt(1 + a y / u^2), D = p k y (1 + h)
    and G = 1 / (1 + h), h = b / (u (1 + w)): every term is positive and no
    u^2 or (m/y)^2 is formed, so nothing cancels or overflows."""
    b, u = 2.0 * (1.0 - 1.0 / p), y + m
    a_u = k * b / u
    w = np.sqrt(1.0 + a_u * (y / u))
    v = u * (1.0 + w)
    g = 1.0 / (1.0 + b / v)
    # v' = 1 + w + a (m - y) / (2 w u^2), at least 1 + w/2
    return g, g * g * b * (1.0 + w + a_u * ((m - y) / u) / (2.0 * w)) / v / v


def _gkp_at_zero(k: float, m: float, p: float) -> tuple[float, float]:
    """(G, G') of G_k^(m,p) at y = 0, the y -> 0 limits.  G is 1 at p = 1,
    where the whole function collapses to 1, and 0 at m = 0, p > 1, where
    G ~ sqrt(y) and G' is +inf.  Otherwise the conjugate form
    G = k p / (p (k-1) + (p^2 (y + 2m) + 2kp(p-1)) / (S + p m)) has no
    cancellation at y = 0, and gives G = p m / (p m + p - 1) and
    G' = (p-1) (p + k (p-1) / (2m)) / (p m + p - 1)^2."""
    if p == 1:
        return 1.0, 0.0
    if m == 0:
        return 0.0, math.inf
    q = p * m + (p - 1.0)
    return p * m / q, (p - 1.0) / q * ((p + k * (p - 1.0) / (2.0 * m)) / q)


def _gkp(k: float, m: float, p: float, y, deriv: bool):
    """G_k^(m,p)(y) = k p y / D, D = p((k-1) y - m) + S with
    S = sqrt(p^2 (y+m)^2 + 2kp(p-1) y), or its y-derivative, at a float y or
    at every y of an array.  Where S^2 overflows, or is too small to be a
    normal double, the value comes from `_gkp_far`, and at y = 0 from
    `_gkp_at_zero`."""
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    if k < 1 or m < 0 or p < 1 or np.any(ys < 0):
        raise DomainError(f"need k >= 1, m >= 0, p >= 1, xp >= 0; got {k}, {m}, {p}, {y}")
    with np.errstate(all="ignore"):
        # float_power calls the C library's pow, as `**` on a float does;
        # `**` on an array squares by a product, which now and then rounds
        # the other way
        S = np.sqrt(p * p * np.float_power(ys + m, 2.0) + 2.0 * k * p * (p - 1.0) * ys)
        D = p * ((k - 1.0) * ys - m) + S
        if deriv:
            Dp = p * (k - 1.0) + (p * p * (ys + m) + k * p * (p - 1.0)) / S
            out = k * p * (D - ys * Dp) / (D * D)
        else:
            out = k * p * ys / D
        far = np.isinf(S) | (S < _S_MIN)
        if far.any():
            out[far] = _gkp_far(k, m, p, ys[far])[deriv]
    # D >= p k y exactly, so it rounds to 0 only where y is below about
    # eps m, and there G and G' are their limits to double precision
    out[(ys == 0) | (D == 0)] = _gkp_at_zero(k, m, p)[deriv]
    return float(out[0]) if np.ndim(y) == 0 else out


def G_k_m_p(k: float, m: float, p: float, xp):
    """G_k^(m,p)(y) at a float y, or an array at every y of an array;
    reduces to G_k^m at p = 2."""
    return _gkp(k, m, p, xp, False)


def G_k_m_p_deriv(k: float, m: float, p: float, y):
    """d/dy G_k^(m,p)(y), analytic, at a float y or at every y of an array."""
    return _gkp(k, m, p, y, True)


def jensen_bounds(m: float, p: float, x: float) -> tuple[float, float | None]:
    """Jensen sandwich for V_m^p(x), x > 0; (lower, upper), upper None when absent.

    p > 1:        (x^p+m+1)^(-(p-1)/p) <= V <= (x^p+m)^(-(p-1)/p)   (m > -1 / m >= 0)
    1/2 <= p < 1: reversed roles of the two expressions
    0 < p <= 1/2: lower bound (x^p+m+1)^((1-p)/p) only (m > -1)
    """
    if x <= 0:
        raise DomainError(f"Jensen bounds stated for x > 0, got {x}")
    if m <= -1:
        raise DomainError(f"m must be > -1, got {m}")
    xp = _x_pow(x, p)

    def jensen(a: float) -> float:
        # (x^p + a)^((1-p)/p); where x^p + a overflows, or is 0 at a = 0,
        # it is x^(1-p) to double precision, and inf an upper bound
        s = xp + a
        return _x_pow(s, (1.0 - p) / p) if 0.0 < s < math.inf else _x_pow(x, 1.0 - p)

    if p >= 1:
        upper = jensen(m) if m >= 0 else None  # upper stated for m >= 0 only
        return jensen(m + 1.0), upper
    if p >= 0.5:
        if m < 0:
            raise DomainError(f"lower Jensen bound requires m >= 0 for 1/2 <= p < 1, got m={m}")
        return jensen(m), jensen(m + 1.0)
    return jensen(m + 1.0), None


def boyd_bounds(m: float) -> tuple[float, float]:
    """Boyd's two-sided estimate of V_m(0) at p = 2, m > 0."""
    if m <= 0:
        raise DomainError(f"Boyd bounds stated for m > 0, got {m}")
    lower = math.sqrt(m + 0.75 + 1.0 / (32.0 * m + 48.0)) / (m + 0.5)
    upper = 1.0 / math.sqrt(m + 0.25 + 1.0 / (32.0 * m + 32.0))
    return lower, upper


def ratio(m: float, p: float, x: float, tol: float = DEFAULT_TOL) -> float:
    """R_m^p(x) = V_m^p(x) / V_(m-1)^p(x), both from one `eval_vmp_many` call."""
    num, den = eval_vmp_many([m, m - 1.0], p, [x, x], tol)[0].tolist()
    if den == 0.0:
        raise ConvergenceError(f"V_{m - 1.0}^{p}({x}) underflows a double, so R_m has no value")
    return num / den


# ---------------------------------------------------------------- h-functions

def h1(x: float) -> float:
    """Rational-surd upper comparison function for V_0 from the R_1 analysis."""
    return 2.0 * x * (6.0 * x * x - 1.0) / (
        1.0 + 6.0 * x * x + 12.0 * x ** 4 - 2.0 * x * math.sqrt(8.0 + x * x))


def h2(x: float) -> float:
    x2 = x * x
    s = math.sqrt(8.0 * x2 + (1.0 + x2) ** 2)
    num = 3.0 + 9.0 * x2 + 14.0 * x2 * x2 + (2.0 * x2 - 3.0) * s
    den = -3.0 - 7.0 * x2 + 32.0 * x2 ** 2 + 28.0 * x2 ** 3 + (3.0 - 4.0 * x2 + 4.0 * x2 * x2) * s
    return 2.0 * x * num / den


def h3(x: float) -> float:
    x2 = x * x
    s = math.sqrt(8.0 * x2 + (2.0 + x2) ** 2)
    num = -30.0 - 23.0 * x2 + 32.0 * x2 ** 2 + 28.0 * x2 ** 3 + s * (15.0 - 8.0 * x2 + 4.0 * x2 * x2)
    den = (30.0 + 3.0 * x2 - 42.0 * x2 ** 2 + 92.0 * x2 ** 3 + 56.0 * x2 ** 4
           + s * (-15.0 + 18.0 * x2 - 12.0 * x2 * x2 + 8.0 * x2 ** 3))
    return 2.0 * x * num / den


def bisect(f, lo: float, hi: float) -> float:
    """A root of f in [lo, hi] to 1e-12 absolute; f(lo) and f(hi) must not
    share a sign."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise BracketError(f"no sign change on [{lo}, {hi}]")
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


def crossover_x0() -> float:
    """Root of 9x + 14x^3 + (2x^2 - 1) sqrt(8 + x^2), approximately 0.2511."""
    return bisect(lambda x: 9.0 * x + 14.0 * x ** 3
                  + (2.0 * x * x - 1.0) * math.sqrt(8.0 + x * x), 0.05, 0.5)


def crossover_x1() -> float:
    """Point where g_4 meets h_1, approximately 1.399."""
    return bisect(lambda x: g_k(4.0, x) - h1(x), 0.5, 3.0)


# ---------------------------------------------------------------- suites

def verify_v0_bounds(grid: list[float] | None = None, tol: float = DEFAULT_TOL) -> Report:
    """g_pi(x) <= V_0(x) < g_4(x) on the grid plus x = 0 (equality only there)."""
    rep = Report("v0")
    grid = [0.0] + (grid if grid is not None else default_grid())
    for i, (x, v) in enumerate(zip(grid, eval_vmp_many(0.0, 2.0, grid, tol)[0].tolist())):
        lo, hi = g_k(math.pi, x), g_k(4.0, x)
        if x == 0.0:
            ok = abs(v - lo) <= 1e-12 * v and v < hi
            margin = hi - v
        else:
            # strictness below the evaluation error is unresolvable; the
            # suite flags only violations beyond the slack
            margin = min(v - lo, hi - v)
            ok = margin > -SLACK
        rep.record(ok, margin, index=i, x=x, v0=v, lower=lo, upper=hi)
    return rep


def find_gk_violation(k: float, side: str, grid: list[float] | None = None,
                      tol: float = DEFAULT_TOL) -> float | None:
    """First grid point where g_k fails as the given bound for V_0 (optimality witness)."""
    grid = [0.0] + (grid if grid is not None else default_grid())
    for x, v in zip(grid, eval_vmp_many(0.0, 2.0, grid, tol)[0].tolist()):
        gk = g_k(k, x)
        if side == "upper" and v >= gk:
            return x
        if side == "lower" and v < gk - 1e-12:
            return x
    return None


def verify_ratio_bounds(m_max: int, grid: list[float] | None = None,
                        tol: float = DEFAULT_TOL) -> Report:
    """G_8^(m-1)(x^2) < R_m(x) < G_4^m(x^2) for integer m in [1, m_max], the
    ratios read off one chain per grid and each bound in one call per m."""
    rep = Report("ratio")
    grid = grid if grid is not None else default_grid()
    chain = chain_values(m_max, 2.0, grid, tol)
    xs = np.asarray(grid, dtype=float)
    y = xs * xs
    for m in range(1, m_max + 1):
        r = chain[m] / chain[m - 1]
        lo, hi = G_k_m(8.0, m - 1.0, y), G_k_m(4.0, float(m), y)
        for i, (x, r_i, lo_i, hi_i, margin) in enumerate(zip(
                grid, r.tolist(), lo.tolist(), hi.tolist(), np.minimum(r - lo, hi - r).tolist())):
            rep.record(margin > -SLACK, margin, index=i, m=m, x=x, r=r_i, lower=lo_i, upper=hi_i)
    return rep


def _m_list(m) -> list[int]:
    """The suites' m: one integer, or a list of them."""
    ms = [m] if np.ndim(m) == 0 else list(m)
    if any(mi < 0 for mi in ms):
        raise DomainError(f"suite stated for integer m >= 0, got m={m}")
    return ms


def verify_ratio_monotone(m, grid: list[float] | None = None, tol: float = DEFAULT_TOL):
    """R_(m+1) nondecreasing along an increasing grid.  One integer m gives
    one Report, a list of m a list of Reports; all are read off one chain
    to max(m) + 1."""
    ms = _m_list(m)
    grid = grid if grid is not None else default_grid()
    chain = chain_values(max(ms, default=0) + 1, 2.0, grid, tol)
    reports = []
    for mi in ms:
        rep = Report("monotone")
        r = chain[mi + 1] / chain[mi]
        for i, (x, margin) in enumerate(zip(grid[1:], np.diff(r).tolist()), 1):
            rep.record(margin > -SLACK, margin, index=i, m=mi, x=x)
        reports.append(rep)
    return reports[0] if np.ndim(m) == 0 else reports


def convexity_criterion_poly(m: float, x, z):
    """P(z) = z^2 (1 + 2m - 2x^2) + 2z (3x^2 - m) - 4x^2; P(R_m(x)) < 0 iff 1/V_m
    convex at x.  Floats, or arrays of x and z."""
    x2 = x * x
    return z * z * (1.0 + 2.0 * m - 2.0 * x2) + 2.0 * z * (3.0 * x2 - m) - 4.0 * x2


def verify_convexity_reciprocal(m, p: float, grid: list[float] | None = None,
                                tol: float = 1e-12):
    """Convexity of 1/V_m: (1/V)'' >= -CONVEXITY_SLACK, plus the algebraic criterion
    P(R_m(x)) < 0 when p = 2.  One integer m gives one Report, a list of m a
    list of Reports; all come from one chain to max(m, 1): with
    V_m' = p x^(p-1) (V_m - V_(m-1)), exact at m = 0 with V_(-1) = x^(1-p),

        (1/V)'' = (2 V'^2 - V V'') / V^3,
        V''     = p (p-1) x^(p-2) (V_m - V_(m-1))
                  + p^2 x^(2p-2) (V_m - 2 V_(m-1) + V_(m-2)),

    where V_(-2) = x^(1-p) - (1-p) x^(1-2p) / p makes the first identity
    give V_(-1)' = (1-p) x^(-p)."""
    ms = _m_list(m)
    if p < 2:
        raise DomainError(f"suite stated for integer m >= 0, p >= 2; got m={m}, p={p}")
    grid = grid if grid is not None else default_grid(5e-2, 20.0, 120)
    xs = np.asarray(grid, dtype=float)
    chain = chain_values(max([*ms, 1]), p, xs, tol)
    v_minus1 = xs ** (1.0 - p)
    below = [v_minus1 - (1.0 - p) / p * xs ** (1.0 - 2.0 * p), v_minus1, *chain]
    slope, curve = p * xs ** (p - 1.0), p * (p - 1.0) * xs ** (p - 2.0)
    reports = []
    for mi in ms:
        rep = Report("convexity")
        v, v1, v2 = below[mi + 2], below[mi + 1], below[mi]  # V_m, V_(m-1), V_(m-2)
        d1 = slope * (v - v1)
        d2 = curve * (v - v1) + slope * slope * (v - 2.0 * v1 + v2)
        second = ((2.0 * d1 * d1 - v * d2) / v ** 3).tolist()
        crits = (convexity_criterion_poly(float(mi), xs, v / v1).tolist()
                 if mi >= 1 and p == 2 else None)
        for i, x in enumerate(grid):
            rep.record(second[i] >= -CONVEXITY_SLACK, second[i], index=i, m=mi, p=p, x=x,
                       kind="exact")
            if crits is not None:
                rep.record(crits[i] < 0.0, -crits[i], index=i, m=mi, x=x, kind="criterion")
        reports.append(rep)
    return reports[0] if np.ndim(m) == 0 else reports


def verify_jensen(m: float, p: float, grid: list[float] | None = None,
                  tol: float = DEFAULT_TOL) -> Report:
    """V sits inside the regime-appropriate Jensen sandwich."""
    rep = Report("jensen")
    grid = grid if grid is not None else default_grid()
    for i, (x, v) in enumerate(zip(grid, eval_vmp_many(m, p, grid, tol)[0].tolist())):
        lo, up = jensen_bounds(m, p, x)
        margin = v - lo if up is None else min(v - lo, up - v)
        rep.record(margin > -SLACK * max(1.0, abs(v)), margin, index=i, m=m, p=p, x=x)
    return rep


def verify_boyd(m_grid: list[float] | None = None) -> Report:
    """eval_vm0(m, 2) strictly inside Boyd's bounds."""
    rep = Report("boyd")
    m_grid = m_grid if m_grid is not None else [0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0]
    for m in m_grid:
        v = eval_vm0(m, 2.0).value
        lo, hi = boyd_bounds(m)
        margin = min(v - lo, hi - v)
        rep.record(margin > 0.0, margin, m=m, v=v, lower=lo, upper=hi)
    return rep


def verify_r123(tol: float = DEFAULT_TOL) -> Report:
    """Direct checks behind the small-m ratio bounds: the crossovers
    x0 ~ 0.2511 and x1 ~ 1.399, and the h1/h2/h3 comparisons with V_0
    on the regions where those comparisons are meaningful."""
    rep = Report("r123")
    x0 = crossover_x0()
    x1 = crossover_x1()
    rep.info["x0"] = x0
    rep.info["x1"] = x1
    rep.record(abs(x0 - 0.2511) < 1e-3, abs(x0 - 0.2511), check="x0")
    rep.record(abs(x1 - 1.399) < 1e-3, abs(x1 - 1.399), check="x1")

    def v0(grid):
        return zip(grid.tolist(), eval_vmp_many(0.0, 2.0, grid, tol)[0].tolist())

    # V_0 <= h1 on [x0, inf): the R_1 lower bound in disguise
    for x, v in v0(np.geomspace(x0 * 1.02, 50.0, 120)):
        margin = h1(x) - v
        rep.record(margin > -SLACK, margin, check="h1", x=x)
    # V_0 >= h2 wherever h2 is a genuine (positive) lower candidate;
    # V_0 <= h3 wherever h3 is a genuine upper candidate
    values = list(v0(np.geomspace(1e-2, 50.0, 150)))
    for x, v in values:
        val = h2(x)
        if val > 0:
            margin = v - val
            rep.record(margin > -SLACK, margin, check="h2", x=x)
    for x, v in values:
        val = h3(x)
        if val > 0:
            margin = val - v
            rep.record(margin > -SLACK, margin, check="h3", x=x)
    return rep
