"""The inequality catalog: g_k, G_k^m, G_k^(m,p), Jensen, Boyd, ratio and
convexity bounds, plus grid-based verification suites with JSON-able reports.

g_k, G_k^(m,p) and its derivative, the Jensen bounds and h1/h2/h3 take an
array as well as a float.  The suites do each grid's work once and on
arrays: each check forms its margins as one array and records them with one
`Report.add`.  The ratio suite reads all its m off one chain and makes one
G_k call per bound and m, and the monotone and convexity suites take a list
of m, all read off one chain to the largest.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import DEFAULT_TOL, eval_vm0, eval_vmp_many
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

    def add(self, ok, margin, **context):
        """Record n points: ok and margin have length n, and each context
        entry is an array of length n or one value that every point shares.
        The worst margin is the first smallest one, never a NaN; the points
        that are not ok join the violations in their order."""
        ok, margin = np.asarray(ok, dtype=bool), np.asarray(margin, dtype=float)
        self.n_points += margin.size
        seen = margin[~np.isnan(margin)]
        if seen.size and seen.min() < self.worst_margin:
            self.worst_margin = float(seen[seen.argmin()])  # the first of equal margins
        bad = np.flatnonzero(~ok)
        cols = [np.asarray(v)[bad].tolist() if np.ndim(v) else [v] * bad.size
                for v in context.values()]
        keys = ["margin", *context]
        self.violations += [dict(zip(keys, row)) for row in zip(margin[bad].tolist(), *cols)]

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

def g_k(k: float, x):
    """g_k(x) = k / ((k-1) x + sqrt(x^2 + k)), at a float x or at every x of
    an array."""
    if k <= 0:
        raise DomainError(f"k must be positive, got {k}")
    if np.less(x, 0).any():
        raise DomainError(f"x must be nonnegative, got {x}")
    return k / ((k - 1.0) * x + np.sqrt(x * x + k))


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


def jensen_bounds(m: float, p: float, x):
    """Jensen sandwich for V_m^p(x), x > 0; (lower, upper), upper None when
    absent, floats at a float x and arrays at an array of x.

    p > 1:        (x^p+m+1)^(-(p-1)/p) <= V <= (x^p+m)^(-(p-1)/p)   (m > -1 / m >= 0)
    1/2 <= p < 1: reversed roles of the two expressions
    0 < p <= 1/2: lower bound (x^p+m+1)^((1-p)/p) only (m > -1)
    """
    xs = np.asarray(x, dtype=float)
    if np.any(xs <= 0):
        raise DomainError(f"Jensen bounds stated for x > 0, got {x}")
    if m <= -1:
        raise DomainError(f"m must be > -1, got {m}")
    if 0.5 <= p < 1 and m < 0:
        raise DomainError(f"lower Jensen bound requires m >= 0 for 1/2 <= p < 1, got m={m}")
    with np.errstate(over="ignore", divide="ignore"):
        # float_power calls the C library's pow, as `**` on a float does
        xp = np.float_power(xs, p)

        def jensen(a: float):
            # (x^p + a)^((1-p)/p); where x^p + a overflows, or is 0 at a = 0,
            # it is x^(1-p) to double precision, and inf an upper bound
            s = xp + a
            return np.where((0.0 < s) & (s < math.inf), np.float_power(s, (1.0 - p) / p),
                            np.float_power(xs, 1.0 - p))

        if p >= 1:
            lower, upper = jensen(m + 1.0), jensen(m) if m >= 0 else None  # upper for m >= 0
        elif p >= 0.5:
            lower, upper = jensen(m), jensen(m + 1.0)
        else:
            lower, upper = jensen(m + 1.0), None
    if np.isinf(lower).any():
        raise ConvergenceError(f"the Jensen lower bound overflows a double at m = {m}, p = {p}, "
                               f"x = {xs[np.isinf(lower)].flat[0]}")
    if np.ndim(x) == 0:
        return float(lower), None if upper is None else float(upper)
    return lower, upper


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

# The h-functions take a float x or an array of x; `_pow` is the C library's
# pow, as `**` on a float is.
_pow = np.float_power


def h1(x):
    """Rational-surd upper comparison function for V_0 from the R_1 analysis."""
    return 2.0 * x * (6.0 * x * x - 1.0) / (
        1.0 + 6.0 * x * x + 12.0 * _pow(x, 4) - 2.0 * x * np.sqrt(8.0 + x * x))


def h2(x):
    x2 = x * x
    s = np.sqrt(8.0 * x2 + _pow(1.0 + x2, 2))
    num = 3.0 + 9.0 * x2 + 14.0 * x2 * x2 + (2.0 * x2 - 3.0) * s
    den = (-3.0 - 7.0 * x2 + 32.0 * _pow(x2, 2) + 28.0 * _pow(x2, 3)
           + (3.0 - 4.0 * x2 + 4.0 * x2 * x2) * s)
    return 2.0 * x * num / den


def h3(x):
    x2 = x * x
    s = np.sqrt(8.0 * x2 + _pow(2.0 + x2, 2))
    num = (-30.0 - 23.0 * x2 + 32.0 * _pow(x2, 2) + 28.0 * _pow(x2, 3)
           + s * (15.0 - 8.0 * x2 + 4.0 * x2 * x2))
    den = (30.0 + 3.0 * x2 - 42.0 * _pow(x2, 2) + 92.0 * _pow(x2, 3) + 56.0 * _pow(x2, 4)
           + s * (-15.0 + 18.0 * x2 - 12.0 * x2 * x2 + 8.0 * _pow(x2, 3)))
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
    xs = np.array([0.0, *(grid if grid is not None else default_grid())])
    v = eval_vmp_many(0.0, 2.0, xs, tol)[0]
    lo, hi = g_k(math.pi, xs), g_k(4.0, xs)
    # equality at x = 0 only; elsewhere strictness below the evaluation
    # error is unresolvable, and the suite flags only violations beyond the slack
    zero = xs == 0.0
    margin = np.where(zero, hi - v, np.minimum(v - lo, hi - v))
    ok = np.where(zero, (np.abs(v - lo) <= 1e-12 * v) & (v < hi), margin > -SLACK)
    rep.add(ok, margin, index=np.arange(xs.size), x=xs, v0=v, lower=lo, upper=hi)
    return rep


def find_gk_violation(k: float, side: str, grid: list[float] | None = None,
                      tol: float = DEFAULT_TOL) -> float | None:
    """First grid point where g_k fails as the given bound for V_0 (optimality witness)."""
    xs = np.array([0.0, *(grid if grid is not None else default_grid())])
    v, gk = eval_vmp_many(0.0, 2.0, xs, tol)[0], g_k(k, xs)
    if side not in ("upper", "lower"):
        return None
    bad = v >= gk if side == "upper" else v < gk - 1e-12
    return float(xs[bad.argmax()]) if bad.any() else None


def verify_ratio_bounds(m_max: int, grid: list[float] | None = None,
                        tol: float = DEFAULT_TOL) -> Report:
    """G_8^(m-1)(x^2) < R_m(x) < G_4^m(x^2) for integer m in [1, m_max], the
    ratios read off one chain per grid and each bound in one call per m."""
    rep = Report("ratio")
    xs = np.asarray(grid if grid is not None else default_grid(), dtype=float)
    chain = chain_values(m_max, 2.0, xs, tol)
    ms, y = np.arange(1, m_max + 1), xs * xs
    r = chain[1:] / chain[:-1]
    lo = np.array([G_k_m(8.0, m - 1.0, y) for m in ms.tolist()])
    hi = np.array([G_k_m(4.0, float(m), y) for m in ms.tolist()])
    margin = np.minimum(r - lo, hi - r)
    rep.add(margin > -SLACK, margin, index=np.tile(np.arange(xs.size), m_max),
            m=np.repeat(ms, xs.size), x=np.tile(xs, m_max), r=r, lower=lo, upper=hi)
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
        margin = np.diff(chain[mi + 1] / chain[mi])
        rep.add(margin > -SLACK, margin, index=np.arange(1, len(grid)), m=mi, x=grid[1:])
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
        second = (2.0 * d1 * d1 - v * d2) / v ** 3
        index = np.arange(xs.size)
        rep.add(second >= -CONVEXITY_SLACK, second, index=index, m=mi, p=p, x=xs, kind="exact")
        if mi >= 1 and p == 2:
            crit = convexity_criterion_poly(float(mi), xs, v / v1)
            rep.add(crit < 0.0, -crit, index=index, m=mi, x=xs, kind="criterion")
            rep.violations.sort(key=lambda row: row["index"])  # exact first at each index
        reports.append(rep)
    return reports[0] if np.ndim(m) == 0 else reports


def verify_jensen(m: float, p: float, grid: list[float] | None = None,
                  tol: float = DEFAULT_TOL) -> Report:
    """V sits inside the regime-appropriate Jensen sandwich."""
    rep = Report("jensen")
    xs = np.asarray(grid if grid is not None else default_grid(), dtype=float)
    v = eval_vmp_many(m, p, xs, tol)[0]
    lo, up = jensen_bounds(m, p, xs)
    margin = v - lo if up is None else np.minimum(v - lo, up - v)
    rep.add(margin > -SLACK * np.maximum(1.0, np.abs(v)), margin, index=np.arange(xs.size),
            m=m, p=p, x=xs)
    return rep


def verify_boyd(m_grid: list[float] | None = None) -> Report:
    """eval_vm0(m, 2) strictly inside Boyd's bounds."""
    rep = Report("boyd")
    m_grid = m_grid if m_grid is not None else [0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0]
    v = np.array([eval_vm0(m, 2.0).value for m in m_grid])
    lo, hi = np.reshape([boyd_bounds(m) for m in m_grid], (-1, 2)).T
    margin = np.minimum(v - lo, hi - v)
    rep.add(margin > 0.0, margin, m=m_grid, v=v, lower=lo, upper=hi)
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
    err = np.abs(np.array([x0, x1]) - [0.2511, 1.399])
    rep.add(err < 1e-3, err, check=["x0", "x1"])

    # V_0 <= h1 on [x0, inf): the R_1 lower bound in disguise
    xs = np.geomspace(x0 * 1.02, 50.0, 120)
    margin = h1(xs) - eval_vmp_many(0.0, 2.0, xs, tol)[0]
    rep.add(margin > -SLACK, margin, check="h1", x=xs)
    # V_0 >= h2 wherever h2 is a genuine (positive) lower candidate;
    # V_0 <= h3 wherever h3 is a genuine upper candidate
    xs = np.geomspace(1e-2, 50.0, 150)
    v = eval_vmp_many(0.0, 2.0, xs, tol)[0]
    for check, val, sign in (("h2", h2(xs), 1.0), ("h3", h3(xs), -1.0)):
        at = val > 0
        margin = sign * (v[at] - val[at])
        rep.add(margin > -SLACK, margin, check=check, x=xs[at])
    return rep
