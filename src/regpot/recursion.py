"""The three-term recursion in m and the averaged potentials.

The recursion

    V_m = (1/m) [ (m - 1 + 1/p - x^p) V_(m-1) + x^p V_(m-2) ]

is run by `recur`, on floats and on exact polynomials alike: it drives
`chain_values` here and grows the polynomial families in `polys` (P_m,
Q_m = X_(m+1), and tilde-P_m with y = s - z).  Upward chains are exact in
the recursion but numerically ill-conditioned once x^p exceeds the chain
length (the wanted solution becomes subdominant), so chains are validated
against direct evaluation and rerun downward in the large-x regime.
"""

from __future__ import annotations

from .core import _EPS, DEFAULT_TOL, EvalParams, _x_pow, eval_vm0, eval_vmp
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
    """[V_0, ..., V_m_max] by the recursion, choosing a stable direction.

    Upward from the convention seed is exact to roundoff while x^p stays
    comparable to the chain length; beyond that the chain is reseeded at the
    top from direct evaluation and run downward, where the wanted solution
    is dominant.
    """
    if m_max < 1:
        raise DomainError(f"m_max must be >= 1, got {m_max}")
    if x <= 0:
        raise DomainError(f"chain requires x > 0, got {x}")
    xp = _x_pow(x, p)
    inv_p = 1.0 / p
    v0 = eval_vmp(EvalParams(0.0, p, x), tol).value

    up = [v0] + recur(range(1, m_max + 1), inv_p, xp, x ** (1.0 - p), v0)
    ref_top = eval_vmp(EvalParams(float(m_max), p, x), tol).value
    if abs(up[-1] - ref_top) <= 1e-9 * abs(ref_top):
        return up

    # upward chain contaminated; run downward from directly evaluated seeds
    down = [0.0] * (m_max + 1)
    down[m_max] = ref_top
    down[m_max - 1] = eval_vmp(EvalParams(float(m_max - 1), p, x), tol).value
    for m in range(m_max, 1, -1):
        # the same step with x^p divided out, so it also holds where x^p overflows
        down[m - 2] = down[m - 1] + (m * down[m] - (m - 1.0 + inv_p) * down[m - 1]) / xp
    return down


def averaged_potential(N: int, p: float, x: float, tol: float = DEFAULT_TOL) -> float:
    """V_av^(p,N)(x) = (1/N) sum_{m=0}^{N-1} V_m^p(x), via the closed form

        p V_N - (p x^p / N) [ V_(-1) - V_(N-1) ].

    The bracket cancels as x^p grows: where its rounding alone, amplified by
    p x^p / N, would pass tol, the mean is summed directly.
    """
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    if x <= 0:
        raise DomainError(f"averaged potential requires x > 0, got {x}")
    xp = _x_pow(x, p)
    if p * xp * _EPS > N * tol:
        return sum(eval_vmp(EvalParams(float(m), p, x), tol).value for m in range(N)) / N
    v_n = eval_vmp(EvalParams(float(N), p, x), tol).value
    v_n1 = eval_vmp(EvalParams(float(N - 1), p, x), tol).value
    return p * v_n - (p * xp / N) * (x ** (1.0 - p) - v_n1)


def averaged_at_zero(N: int, p: float) -> float:
    """V_av^(p,N)(0), defined for p < arbitrary since every V_m(0) with m >= 0 exists."""
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    return sum(eval_vm0(float(m), p).value for m in range(N)) / N
