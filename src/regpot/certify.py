"""Exact-rational replay of the polynomial positivity certificates.

Each of the paper's ratio-bound proofs squares out one radical inequality
into W = wa + wb B with B = sqrt(q), written once for all four chains
(`_radical`), and then removes B by B-multiplied derivatives: `b_step` maps
the parts (a, b) of a + b B to those of B d/dy(a + b B).  The three p = 2
chains are one generic-k construction (`_p2_parts`) taken at k = 4, at
k = 8 and at symbolic k; the p = 3 chain brings its own q, r, A and C.
Every multiplier is recorded, so the final polynomial L is a documented
positive multiple along the derivative chain.  Reconstructed polynomials
are compared coefficient-by-coefficient against the reference tables in
`_reference`; any discrepancy raises ChainMismatchError naming the first
polynomial that differs.  The squaring steps need both radicands q and r
nonnegative; each chain proves that exactly, with the shift criterion
`positivity_for_m_ge` that also certifies its final polynomial, and records
the certificates in `notes["square_guard"]`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby

import numpy as np

from . import _reference as ref
from .bounds import G_k_m_p, G_k_m_p_deriv
from .core import _check_finite
from .errors import ChainMismatchError, DomainError
from .ratpoly import RatPoly

VARS_YM = ("y", "m")
VARS_YMK = ("y", "m", "k")
_YM = tuple(RatPoly.var(VARS_YM, v) for v in VARS_YM)


@dataclass(frozen=True)
class PositivityCertificate:
    target: RatPoly
    m_low: int
    status: str  # "all_coeffs_nonneg" or "sign_indefinite"
    witness: tuple | None = None  # offending monomial of the shifted poly, if any
    min_coeff: Fraction = Fraction(0)

    @property
    def passed(self) -> bool:
        return self.status == "all_coeffs_nonneg"

    def to_json(self) -> dict:
        return {
            "m_low": self.m_low,
            "status": self.status,
            "witness": list(self.witness) if self.witness else None,
            "min_shifted_coeff": [str(self.min_coeff.numerator), str(self.min_coeff.denominator)],
        }


@dataclass
class ChainResult:
    """Output of one certification chain.

    `polys` maps names to exact polynomials in construction order;
    `steps` records the multiplier applied at each derivative step, so the
    product of the listed multipliers relates L back to the original
    expression; `anchors` holds the reference comparisons that passed.
    """
    name: str
    q: RatPoly
    polys: dict[str, RatPoly]
    steps: list[str]
    anchors: dict[str, str]
    certificate: PositivityCertificate | None = None
    notes: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "chain": self.name,
            "q": self.q.to_json_dict(),
            "steps": self.steps,
            "polys": {n: p.to_json_dict() for n, p in self.polys.items()},
            "anchors": self.anchors,
            "certificate": self.certificate.to_json() if self.certificate else None,
            "notes": self.notes,
        }


def positivity_for_m_ge(poly: RatPoly, m_low: int) -> PositivityCertificate:
    """Shift m -> m + m_low and check all coefficients >= 0.

    Sufficient for poly >= 0 on y >= 0, m >= m_low.  sign_indefinite is not
    a disproof; it only means this criterion does not apply.
    """
    if "m" not in poly.vars:
        raise DomainError(f"polynomial must involve m, has vars {poly.vars}")
    shifted = poly.shift("m", m_low)
    if shifted.is_zero():
        return PositivityCertificate(poly, m_low, "sign_indefinite", None, Fraction(0))
    neg = min((k for k, c in shifted.terms.items() if c < 0), default=None)
    if neg is not None:
        return PositivityCertificate(poly, m_low, "sign_indefinite", shifted.unpack(neg),
                                     Fraction(shifted.terms[neg], shifted.den))
    return PositivityCertificate(poly, m_low, "all_coeffs_nonneg", None, shifted.min_coeff())


# -- construction helpers ---------------------------------------------


def _match(name: str, derived: RatPoly, reference: RatPoly):
    if derived != reference:
        diff = derived - reference
        expo = diff.unpack(min(diff.terms))
        raise ChainMismatchError(name, f"first differing monomial {expo}: derived "
                                       f"{derived.coeff(expo)}, reference {reference.coeff(expo)}")


def _square_guard(q: RatPoly, r: RatPoly, label: str) -> dict:
    """Soundness of the squaring steps: both radicands that back the squared
    inequality are certified nonnegative on y >= 0, m >= 1 by
    `positivity_for_m_ge`; their certificates, keyed "q" and "r"."""
    certs = {"q": positivity_for_m_ge(q, 1), "r": positivity_for_m_ge(r, 1)}
    for name, cert in certs.items():
        if not cert.passed:
            raise ChainMismatchError(label, f"radicand {name} not certified nonnegative "
                                            "for m >= 1; squaring step unsound")
    return {name: cert.to_json() for name, cert in certs.items()}


# -- the four chains --------------------------------------------------


def _radical(q: RatPoly, r: RatPoly, A: RatPoly, C: RatPoly,
             lin: RatPoly) -> tuple[RatPoly, RatPoly]:
    """(wa, wb) of W = wa + wb B, with B^2 = q: the squared-out radical
    inequality W = q r (lin^2 + q) - q A^2 - C^2 + 2 (lin q r - A C) B that
    each chain reduces.  The chains differ only in sign and scale."""
    qr = q * r
    return qr * (lin * lin + q) - q * A * A - C * C, 2 * (lin * qr - A * C)


def _p2_parts(y: RatPoly, m: RatPoly, k) -> tuple[RatPoly, ...]:
    """(q, r, A, C, lin) of the p = 2 chains, with k an int or the variable k.
    C is P/2 of the symbolic-k proof, so the k = 4 and k = 8 chains are that
    proof at k = 4 and 8."""
    q = (y + m) ** 2 + k * y
    r = (y + m - 1) ** 2 + k * y
    A = (y + m) ** 2 + y - (k - 1) * m
    C = ((k - 1) * m ** 2 - m ** 3 + (k * k - 2 * k) * y / 2 + ((k - 3) * m ** 2 - 2 * m) * y
         + (k * k - k - 1 + (2 * k - 3) * m) * y ** 2 + (k - 1) * y ** 3)
    return q, r, A, C, (k - 1) * y - m


def b_step(a: RatPoly, b: RatPoly, q: RatPoly) -> tuple[RatPoly, RatPoly]:
    """The parts of B d/dy (a + b B) = (b' q + b q'/2) + a' B, with B^2 = q:
    the B multiplier clears the 1/(2B) of d/dy(b B), and q'/2 stays exact."""
    return b.diff("y") * q + b * q.diff("y") * Fraction(1, 2), a.diff("y")


def build_chain_k4_p2() -> ChainResult:
    """k = 4, p = 2 reduction chain, every polynomial matched to its reference.

    Chain: F = f1 B - f2 = W/8, then four B-multiplied derivative steps giving
    d1 - d2 B, g1 B - g2, h1 - h2 B and l1 B - l2, each part matched before
    the next step, and finally L = q l1^2 - l2^2.
    """
    y, m = _YM
    q, r, A, C, lin = _p2_parts(y, m, 4)
    wa, wb = _radical(q, r, A, C, lin)
    f1, f2 = wb / 8, -wa / 8
    _match("f1", f1, RatPoly(VARS_YM, ref.K4_F1))
    _match("f2", f2, RatPoly(VARS_YM, ref.K4_F2))
    guard = _square_guard(q, r, "k4p2")

    steps = (("d", ref.K4_D1, ref.K4_D2), ("g", ref.K4_G1, ref.K4_G2),
             ("h", ref.K4_H1, ref.K4_H2), ("l", ref.K4_L1, ref.K4_L2))
    polys = {"f1": f1, "f2": f2}
    a, b = -f2, f1
    for i, (name, ref1, ref2) in enumerate(steps):
        a, b = b_step(a, b, q)
        p1, p2 = (a, -b) if i % 2 == 0 else (b, -a)
        polys[name + "1"], polys[name + "2"] = p1, p2
        _match(name + "1", p1, RatPoly(VARS_YM, ref1))
        _match(name + "2", p2, RatPoly(VARS_YM, ref2))
    l1, l2, h1, h2 = polys["l1"], polys["l2"], polys["h1"], polys["h2"]
    L = q * l1 * l1 - l2 * l2
    _match("L", L, 4 * RatPoly(VARS_YM, ref.K4_L4))

    # H(0) = h1(0) - m h2(0) since B(0) = m; must equal 12m(2 + 5m + 2m^2)
    h_at_0 = h1.subs("y", 0) - m * h2.subs("y", 0)
    _match("H(0)", h_at_0, 12 * m * (2 + 5 * m + 2 * m * m))

    cert = positivity_for_m_ge(L, 1)
    anchors = {
        "L/4 coeff y^8": str(L.coeff((8, 0)) / 4),
        "L/4 coeff m^2": str(L.coeff((0, 2)) / 4),
        "H(0)": h_at_0.pretty(),
    }
    return ChainResult("k4p2", q, {**polys, "L": L}, ["B", "B", "B", "B"], anchors, cert,
                       {"square_guard": guard})


def build_chain_k8_p2() -> ChainResult:
    """k = 8, p = 2 chain from f1 - f2 B = -W/8: L(0) = 0 and L'(0) carries
    the sign; the certificate is for L''(y) with m >= 4, and L'(0) < 0 for
    m in {1,2,3}."""
    y, m = _YM
    q, r, A, C, lin = _p2_parts(y, m, 8)
    wa, wb = _radical(q, r, A, C, lin)
    f1, f2 = -wa / 8, wb / 8
    guard = _square_guard(q, r, "k8p2")

    a, b = b_step(f1, -f2, q)          # -d2 + d1 B
    d1, d2 = b, -a
    a, b = b_step(a, b, q)             # e1 - e2 B
    e1, e2 = a, -b
    L = e1 * e1 - q * e2 * e2

    L_at_0 = L.subs("y", 0)
    if not L_at_0.is_zero():
        raise ChainMismatchError("L(0)", f"expected 0, got {L_at_0.pretty()}")
    Lp = L.diff("y")
    Lp_at_0 = Lp.subs("y", 0)
    factored = 192 * m * m * (m - 4) * (1 + 2 * m) * (480 + 64 * m + 90 * m * m + 33 * m ** 3)
    _match("L'(0)", Lp_at_0, factored)

    lp0_small = {mm: Lp_at_0.eval(y=0, m=mm) for mm in (1, 2, 3)}
    if any(v >= 0 for v in lp0_small.values()):
        raise ChainMismatchError("L'(0) m<4", f"expected negative values, got {lp0_small}")

    Lpp = Lp.diff("y")
    cert = positivity_for_m_ge(Lpp, 4)
    anchors = {
        "L(0)": "0",
        "L'(0) factored": "192*m^2*(m-4)*(1+2*m)*(480+64*m+90*m^2+33*m^3)",
        "L'(0) at m=5": str(Lp_at_0.eval(y=0, m=5)),
    }
    polys = {"f1": f1, "f2": f2, "d1": d1, "d2": d2, "e1": e1, "e2": e2,
             "L": L, "Lprime": Lp, "Lsecond": Lpp}
    return ChainResult("k8p2", q, polys, ["B", "B"], anchors, cert, {
        "square_guard": guard, "Lprime0_m123": {str(k): str(v) for k, v in lp0_small.items()}})


def optimality_factor_generic_k() -> RatPoly:
    """Symbolic-k chain from f1 - f2 B = -4W: three 2B-multiplied derivative
    steps (three B-multiplied ones, times 2^3), then the value at y = 0
    (where B = m), which must factor as 24 k^3 m (1 + 2m) (km - 6m - k)."""
    y, m, k = (RatPoly.var(VARS_YMK, v) for v in VARS_YMK)
    q, r, A, C, lin = _p2_parts(y, m, k)
    wa, wb = _radical(q, r, A, C, lin)
    f1, f2 = -4 * wa, 4 * wb
    _match("f1", f1, RatPoly(VARS_YMK, ref.GK_F1))
    _match("f2", f2, RatPoly(VARS_YMK, ref.GK_F2))

    a, b = f1, -f2
    for _ in range(3):
        a, b = b_step(a, b, q)
    value0 = 8 * (a.subs("y", 0) + m * b.subs("y", 0))
    target = 24 * k ** 3 * m * (1 + 2 * m) * (k * m - 6 * m - k)
    _match("value_at_0", value0, target)
    return value0


def build_chain_generic_k() -> ChainResult:
    """The symbolic-k chain as a ChainResult wrapping its optimality factor."""
    factor = optimality_factor_generic_k()
    anchors = {
        "factored form": "24*k^3*m*(1+2*m)*(k*m-6*m-k)",
        "value at (m=2,k=12)": str(factor.eval(y=0, m=2, k=12)),
        "value at (m=4,k=8)": str(factor.eval(y=0, m=4, k=8)),
    }
    q = RatPoly.var(VARS_YMK, "y")  # placeholder; factor has no radical left
    return ChainResult("generic_k", q, {"factor": factor}, ["2B", "2B", "2B"], anchors)


def build_chain_p3_k4() -> ChainResult:
    """p = 3, k = 4 chain with B^2 = 9(y+m)^2 + 48y from W itself; four
    B-multiplied steps end at (1944 l1, 1944 l2); certificate for L with
    m >= 1."""
    y, m = _YM
    q = 9 * (y + m) ** 2 + 48 * y
    r = 9 * (y + m - 1) ** 2 + 48 * y
    A = 3 * (3 * (y + m) ** 2 + 7 * y - 9 * m)
    C = 9 * (9 * m ** 2 - 3 * m ** 3 + (16 - 10 * m + 3 * m ** 2) * y
             + (45 + 15 * m) * y ** 2 + 9 * y ** 3)
    wa, wb = _radical(q, r, A, C, 9 * y - 3 * m)
    guard = _square_guard(q, r, "p3k4")

    a, b = wa, wb
    for _ in range(4):
        a, b = b_step(a, b, q)
    l1, l2 = b / 1944, -a / 1944
    _match("l1", l1, RatPoly(VARS_YM, ref.P3_L1))
    _match("l2", l2, RatPoly(VARS_YM, ref.P3_L2))

    L = q * l1 * l1 - l2 * l2
    cert = positivity_for_m_ge(L, 1)
    anchors = {
        "l1/3 coeff y^4": str(l1.coeff((4, 0)) / 3),
        "l2/27 coeff y^5": str(l2.coeff((5, 0)) / 27),
        "l1/3 constant": str(l1.coeff((0, 0)) / 3),
    }
    return ChainResult("p3k4", q, {"wa": wa, "wb": wb, "l1": l1, "l2": l2, "L": L},
                       ["B", "B", "B", "B"], anchors, cert, {"square_guard": guard})


_BUILDERS = {"k4p2": build_chain_k4_p2, "k8p2": build_chain_k8_p2,
             "generic_k": build_chain_generic_k, "p3k4": build_chain_p3_k4}
ALL_CHAINS = tuple(_BUILDERS)


def run_chain(name: str) -> ChainResult:
    """Build one chain by name."""
    if name not in _BUILDERS:
        raise DomainError(f"unknown chain {name!r}; choose from {ALL_CHAINS}")
    return _BUILDERS[name]()


def certificate_json(result: ChainResult) -> str:
    return json.dumps(result.to_json(), sort_keys=True)


# -- numeric companion sweep ------------------------------------------


def numeric_lemma_sweep(k: float, p: float, m_list: list, y_grid: list,
                        orientation: str | None = None) -> dict:
    """Sign sweep of the differential inequality behind the G_k bounds.

    For the upper-bound family (k = 4) the quantity is
        E_m(y) = (G_k^(m,p)/G_k^(m-1,p) - 1) - dG_k^(m,p)/dy,
    for the lower-bound family (k = 8) the orientation reverses:
        E_m(y) = dG_k^(m,p)/dy - (G_k^(m,p)/G_k^(m-1,p) - 1).
    Default orientation follows k (lower for k >= 8); override with
    "upper"/"lower".  Reports, per m, the grid minimum of E and maximal
    contiguous negative intervals; E >= 0 everywhere means the bound's
    induction step holds on the grid.
    """
    _check_finite(k=k, p=p)
    if orientation is None:
        orientation = "lower" if k >= 8 else "upper"
    if orientation not in ("upper", "lower"):
        raise DomainError(f"orientation must be 'upper' or 'lower', got {orientation!r}")
    sign = 1.0 if orientation == "upper" else -1.0
    ys = sorted(v for v in y_grid if v > 0)
    if not ys:
        raise DomainError("y_grid must contain positive points")
    out: dict = {"k": k, "p": p, "orientation": orientation, "per_m": {}}
    y = np.array(ys)
    for m in m_list:
        if m < 1:
            raise DomainError(f"sweep requires m >= 1, got {m}")
        es = (sign * ((G_k_m_p(k, m, p, y) / G_k_m_p(k, m - 1, p, y) - 1.0)
                      - G_k_m_p_deriv(k, m, p, y))).tolist()
        i = min(range(len(es)), key=es.__getitem__)
        runs = [[yv for yv, _ in run]
                for neg, run in groupby(zip(ys, es), key=lambda ye: ye[1] < 0) if neg]
        intervals = [(run[0], run[-1]) for run in runs]
        out["per_m"][m] = {"min_E": es[i], "argmin_y": ys[i],
                           "negative_intervals": intervals, "ok": not intervals}
    out["all_nonnegative"] = all(v["ok"] for v in out["per_m"].values())
    return out
