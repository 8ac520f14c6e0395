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

import numpy as np

from .core import DEFAULT_TOL, eval_vm0, eval_vmp_many
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


def chain_values(m_max: int, p: float, x, tol: float = DEFAULT_TOL):
    """[V_0, ..., V_m_max] by the recursion, seeded by V_(k-1) and V_k at the
    turning point k = ceil(x^p + 1 - 1/p), clamped to [1, m_max], and run
    upward and downward from there, in each of which V_m is dominant.

    A scalar x gives a list of floats.  An array of x gives an array of
    shape (m_max + 1, len(x)): every seed comes from one `eval_vmp_many`
    call, and the points that share k run the recursion on numpy rows."""
    if m_max < 1:
        raise DomainError(f"m_max must be >= 1, got {m_max}")
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(xs > 0):
        raise DomainError(f"chain requires x > 0, got {x}")
    if not p > 0:  # before 1/p, and a nan p would make k nan
        raise DomainError(f"p must be positive, got {p}")
    with np.errstate(over="ignore"):
        xp = xs ** p  # inf where x^p overflows a double
    inv_p = 1.0 / p
    # clamped in floats first: x^p may be inf
    ks = np.ceil(np.clip(xp + 1.0 - inv_p, 1.0, m_max)).astype(int)
    out = np.empty((m_max + 1, xs.size))
    cols = np.arange(xs.size)
    seeds = eval_vmp_many(np.concatenate([ks - 1, ks]), p, np.tile(xs, 2), tol)[0]
    out[ks - 1, cols], out[ks, cols] = seeds[:xs.size], seeds[xs.size:]
    for k in np.unique(ks):
        at = np.flatnonzero(ks == k)
        y, rows = xp[at], out[:, at]
        if k < m_max:
            rows[k + 1:] = recur(range(k + 1, m_max + 1), inv_p, y, rows[k - 1], rows[k])
        for m in range(k, 1, -1):
            # the same step with x^p divided out, so it also holds where x^p overflows
            rows[m - 2] = rows[m - 1] + (m * rows[m] - (m - 1.0 + inv_p) * rows[m - 1]) / y
        out[:, at] = rows
    return out[:, 0].tolist() if scalar else out


def averaged_potential(N: int, p: float, x, tol: float = DEFAULT_TOL):
    """V_av^(p,N)(x) = (1/N) sum_{m=0}^{N-1} V_m^p(x), the mean of one
    `chain_values` chain, seeded at the turning point m ~ x^p + 1 - 1/p; a
    float for a scalar x, an array for an array of x."""
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    if not np.all(np.asarray(x) > 0):
        raise DomainError(f"averaged potential requires x > 0, got {x}")
    chain = np.asarray(chain_values(max(N - 1, 1), p, x, tol))
    mean = chain[:N].sum(axis=0) / N
    return float(mean) if np.ndim(x) == 0 else mean


def averaged_at_zero(N: int, p: float) -> float:
    """V_av^(p,N)(0), defined for every p > 0 since every V_m(0) with m >= 0 exists."""
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    return sum(eval_vm0(float(m), p).value for m in range(N)) / N
