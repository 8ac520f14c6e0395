"""The three-term recursion in m and the averaged potentials.

The recursion

    V_m = (1/m) [ (m - 1 + 1/p - x^p) V_(m-1) + x^p V_(m-2) ]

is run by `recur`, on floats and on exact polynomials alike: it drives
`chain_values` here and grows the polynomial families in `polys` (P_m,
Q_m = X_(m+1), and tilde-P_m with y = s - z).  The ratios r of its two
solutions solve m r^2 - (m - 1 + 1/p - x^p) r - x^p = 0, so V_m is the
dominant solution upward above the turning point m ~ x^p + 1 - 1/p and
downward below it; a chain is seeded there and run outward both ways.
"""

from __future__ import annotations

import math

from .core import DEFAULT_TOL, EvalParams, _x_pow, eval_vm0, eval_vmp
from .errors import DomainError


def recur(ns, s, y, prev2, prev1) -> list:
    """[X_n for n in ns], with X_n = ((n - 1 + s - y) X_(n-1) + y X_(n-2)) / n.

    `ns` are consecutive, and (prev2, prev1) are the two values before the
    first.  With s = 1/p and y = x^p this is the recursion of V_m^p; the
    arguments may be floats or exact `RatPoly`s.
    """
    out = []
    for n in ns:
        prev2, prev1 = prev1, ((n - 1 + s - y) * prev1 + y * prev2) / n
        out.append(prev1)
    return out


def chain_values(m_max: int, p: float, x: float, tol: float = DEFAULT_TOL) -> list[float]:
    """[V_0, ..., V_m_max] by the recursion, seeded by V_(k-1) and V_k at the
    turning point k = ceil(x^p + 1 - 1/p), clamped to [1, m_max], and run
    upward and downward from there, in each of which V_m is dominant."""
    if m_max < 1:
        raise DomainError(f"m_max must be >= 1, got {m_max}")
    if x <= 0:
        raise DomainError(f"chain requires x > 0, got {x}")
    if not p > 0:  # before 1/p, and a nan p would make k nan
        raise DomainError(f"p must be positive, got {p}")
    xp = _x_pow(x, p)
    inv_p = 1.0 / p
    # clamped in floats first: x^p may be inf
    k = math.ceil(min(max(xp + 1.0 - inv_p, 1.0), m_max))
    out = [0.0] * (m_max + 1)
    out[k - 1] = eval_vmp(EvalParams(float(k - 1), p, x), tol).value
    out[k] = eval_vmp(EvalParams(float(k), p, x), tol).value
    out[k + 1:] = recur(range(k + 1, m_max + 1), inv_p, xp, out[k - 1], out[k])
    for m in range(k, 1, -1):
        # the same step with x^p divided out, so it also holds where x^p overflows
        out[m - 2] = out[m - 1] + (m * out[m] - (m - 1.0 + inv_p) * out[m - 1]) / xp
    return out


def averaged_potential(N: int, p: float, x: float, tol: float = DEFAULT_TOL) -> float:
    """V_av^(p,N)(x) = (1/N) sum_{m=0}^{N-1} V_m^p(x), the mean of one
    `chain_values` chain, seeded at the turning point m ~ x^p + 1 - 1/p."""
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    if x <= 0:
        raise DomainError(f"averaged potential requires x > 0, got {x}")
    return sum(chain_values(max(N - 1, 1), p, x, tol)[:N]) / N


def averaged_at_zero(N: int, p: float) -> float:
    """V_av^(p,N)(0), defined for every p > 0 since every V_m(0) with m >= 0 exists."""
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    return sum(eval_vm0(float(m), p).value for m in range(N)) / N
