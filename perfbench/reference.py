"""Independent high-precision reference values for the benchmark's checks.

Nothing here imports regpot.  V_m^p(x) comes from the Tricomi-U form of the
defining integral (DLMF 13.4(ii)),

    V_m^p(x) = x^(pm+1) U(m+1, m+1+1/p, x^p),        x > 0,
    V_m^p(0) = Gamma(m+1/p) / Gamma(m+1),

and the p = 2 Fourier side from F_m(xi) = Gamma(m+1) U(m+1, 1, xi^2/4) / sqrt(2 pi).
The tilde-P roots and the sweep quantity E_m(y) are recomputed from their
closed forms.  Everything runs at DPS significant digits, outside the timed
loop.
"""

from __future__ import annotations

import math

import mpmath as mp

DPS = 30


def vmp(m: float, p: float, x: float) -> float:
    with mp.workdps(DPS):
        m, p, x = mp.mpf(m), mp.mpf(p), mp.mpf(x)
        if x == 0:
            return float(mp.gamma(m + 1 / p) / mp.gamma(m + 1))
        return float(x ** (p * m + 1) * mp.hyperu(m + 1, m + 1 + 1 / p, x ** p))


def fourier(m: float, xi: float) -> float:
    with mp.workdps(DPS):
        m, xi = mp.mpf(m), mp.mpf(xi)
        return float(mp.gamma(m + 1) * mp.hyperu(m + 1, 1, xi * xi / 4) / mp.sqrt(2 * mp.pi))


def tildeP_root(m: int, p: float) -> float:
    """Root z_m in [-m+1, 0] of tilde-P_m(.; 1/p), odd m, via y = 1/p - z and
    P_m(y) = sum_k (-1)^k Gamma(m+s-k) / (k! (m-k)! Gamma(s)) y^k, s = 1/p."""
    if m == 1:
        return 0.0
    with mp.workdps(DPS):
        s = 1 / mp.mpf(p)
        coeffs = [(-1) ** k * mp.gamma(m + s - k)
                  / (mp.factorial(k) * mp.factorial(m - k) * mp.gamma(s))
                  for k in range(m, -1, -1)]
        y = mp.findroot(lambda t: mp.polyval(coeffs, t), (s, s + m - 1), solver="anderson")
        return float(s - y)


def _G(k, m, p, y):
    S = mp.sqrt(p * p * (y + m) ** 2 + 2 * k * p * (p - 1) * y)
    return k * p * y / (p * ((k - 1) * y - m) + S)


def sweep_E(k: float, p: float, m: int, y: float, orientation: str) -> float:
    """E_m(y) = +-[(G_k^(m,p)/G_k^(m-1,p) - 1) - dG_k^(m,p)/dy], derivative numeric."""
    sign = 1 if orientation == "upper" else -1
    with mp.workdps(DPS):
        k, p, y = mp.mpf(k), mp.mpf(p), mp.mpf(y)
        ratio = _G(k, m, p, y) / _G(k, m - 1, p, y) - 1
        return float(sign * (ratio - mp.diff(lambda t: _G(k, m, p, t), y)))


def self_check() -> None:
    """Raise AssertionError unless the reference reproduces three known values."""
    checks = [(vmp(0.0, 2.0, 0.0), math.sqrt(math.pi))]
    for x in (0.1, 1.0, 4.0):
        with mp.workdps(DPS):
            mills = float(mp.sqrt(mp.pi) * mp.exp(mp.mpf(x) ** 2) * mp.erfc(x))
        checks.append((vmp(0.0, 2.0, x), mills))
    for m, x in ((0.0, 0.5), (3.5, 2.0), (-0.5, 7.0)):
        checks.append((vmp(m, 1.0, x), 1.0))
    for got, want in checks:
        if abs(got - want) > 1e-15 * abs(want):
            raise AssertionError(f"reference self-check failed: {got!r} != {want!r}")

