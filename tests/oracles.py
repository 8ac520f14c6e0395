"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately dumb: fixed-panel composite Simpson on a
hard truncation of the defining integral, direct log-gamma arithmetic, and
schoolbook polynomial arithmetic on exponent-tuple dicts.
None of the adaptive machinery from the package is imported, so agreement
between the two is meaningful.
"""

import math
from fractions import Fraction

import numpy as np

TRUNCATION_U = 60.0
PANELS = 10 ** 5


def _simpson(fvals: np.ndarray, width: float) -> float:
    # fvals on 2n+1 equally spaced points
    n2 = len(fvals) - 1
    h = width / n2
    return h / 3.0 * (fvals[0] + fvals[-1] + 4.0 * fvals[1::2].sum() + 2.0 * fvals[2:-1:2].sum())


def simpson_vmp(m: float, p: float, x: float, panels: int = PANELS, U: float = TRUNCATION_U) -> float:
    """V_m^p(x) by composite Simpson on the u-integral, truncated at u=U.

    The u^m factor is singular or has an unbounded derivative at u=0 for
    non-integer m, so the integral is computed after a substitution that
    flattens the endpoint: u = w^(1/(m+1)) for -1 < m < 0, u = v^2 for m >= 0.
    """
    if p <= 0 or m <= -1:
        raise ValueError("oracle domain: p > 0, m > -1")
    xp = x ** p
    expo = -(p - 1.0) / p

    if m < 0.0:
        c = m + 1.0
        W = U ** c
        w = np.linspace(0.0, W, 2 * panels + 1)
        u = w ** (1.0 / c)
        f = np.exp(-u) * (xp + u) ** expo
        integral = _simpson(f, W) / c
    else:
        V = math.sqrt(U)
        v = np.linspace(0.0, V, 2 * panels + 1)
        u = v * v
        t = np.empty_like(v)
        t[0] = 0.0 if 2 * m + 1 > 0 else 1.0
        t[1:] = v[1:] ** (2 * m + 1)
        f = 2.0 * t * np.exp(-u) * (xp + u) ** expo
        if m == 0.0 and x == 0.0:
            f[0] = 0.0
        integral = _simpson(f, V)
    return integral / math.gamma(m + 1.0)


def gamma_ratio(a: float, b: float) -> float:
    """Gamma(a)/Gamma(b) for positive arguments via log-gamma."""
    return math.exp(math.lgamma(a) - math.lgamma(b))


def vm0_oracle(m: float, p: float) -> float:
    return gamma_ratio(m + 1.0 / p, m + 1.0)


def simpson_fourier(m: float, xi: float, panels: int = PANELS, U: float = TRUNCATION_U) -> float:
    """Fourier-transform integral oracle, same Simpson scheme (p = 2 case)."""
    if xi == 0.0:
        raise ValueError("oracle domain: xi != 0")
    xi2 = xi * xi

    if -1.0 < m < 0.0:
        c = m + 1.0
        W = U ** c
        w = np.linspace(0.0, W, 2 * panels + 1)
        s = w ** (1.0 / c)
        f = np.exp(-s) * (xi2 + 4.0 * s) ** (-(m + 1.0))
        integral = _simpson(f, W) / c
    else:
        V = math.sqrt(U)
        v = np.linspace(0.0, V, 2 * panels + 1)
        s = v * v
        t = np.empty_like(v)
        t[0] = 0.0 if 2 * m + 1 > 0 else 1.0
        t[1:] = v[1:] ** (2 * m + 1)
        f = 2.0 * t * np.exp(-s) * (xi2 + 4.0 * s) ** (-(m + 1.0))
        integral = _simpson(f, V)
    return 4.0 ** (m + 1.0) / math.sqrt(2.0 * math.pi) * integral


# ---------------------------------------------------------------- polynomials
#
# A polynomial as a plain dict from exponent tuples to nonzero Fractions,
# with schoolbook arithmetic: the oracle for RatPoly's packed form.

def _poly_clean(d: dict) -> dict:
    return {e: c for e, c in d.items() if c != 0}


def poly_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return _poly_clean(out)


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _poly_clean(out)


def poly_pow(a: dict, n: int, nvars: int) -> dict:
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(n):
        out = poly_mul(out, a)
    return out


def poly_diff(a: dict, i: int) -> dict:
    out: dict = {}
    for e, c in a.items():
        if e[i]:
            e2 = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[e2] = out.get(e2, 0) + c * e[i]
    return _poly_clean(out)


def poly_subs(a: dict, i: int, v: dict, nvars: int) -> dict:
    """Variable i replaced by the polynomial v."""
    out: dict = {}
    for e, c in a.items():
        rest = {e[:i] + (0,) + e[i + 1:]: c}
        out = poly_add(out, poly_mul(rest, poly_pow(v, e[i], nvars)))
    return out


def poly_eval(a: dict, values: tuple):
    total = Fraction(0)
    for e, c in a.items():
        term = c
        for v, k in zip(values, e):
            term *= Fraction(v) ** k
        total += term
    return total
