"""Exact-rational replay of the polynomial positivity certificates.

Each chain works in the quadratic extension ring of elements a + b*B over
RatPoly, with B^2 = q(y, m) fixed per chain.  The reduction procedure
repeatedly multiplies the derivative by B (or 2B) to stay inside the ring;
every multiplier is recorded, so the final polynomial L is a documented
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
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import _reference as ref
from .bounds import G_k_m_p, G_k_m_p_deriv
from .errors import ChainMismatchError, DomainError
from .ratpoly import RatPoly

VARS_YM = ("y", "m")
VARS_YMK = ("y", "m", "k")


class ExtensionElement:
    """a + b*B with B^2 = q, all three RatPoly over the same variables."""

    __slots__ = ("a", "b", "q")

    def __init__(self, a: RatPoly, b: RatPoly, q: RatPoly):
        if not (a.vars == b.vars == q.vars):
            raise ValueError("component variable mismatch")
        self.a = a
        self.b = b
        self.q = q

    def _check(self, other: "ExtensionElement"):
        if self.q != other.q:
            raise ValueError("elements live in different extensions")

    def __add__(self, other: "ExtensionElement") -> "ExtensionElement":
        self._check(other)
        return ExtensionElement(self.a + other.a, self.b + other.b, self.q)

    def __sub__(self, other: "ExtensionElement") -> "ExtensionElement":
        self._check(other)
        return ExtensionElement(self.a - other.a, self.b - other.b, self.q)

    def __mul__(self, other: "ExtensionElement") -> "ExtensionElement":
        self._check(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return ExtensionElement(a1 * a2 + b1 * b2 * self.q, a1 * b2 + a2 * b1, self.q)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExtensionElement)
                and self.q == other.q and self.a == other.a and self.b == other.b)

    def norm(self) -> RatPoly:
        """(a + bB)(a - bB) = a^2 - b^2 q."""
        return self.a * self.a - self.b * self.b * self.q

    def diff_times_B(self) -> "ExtensionElement":
        """B * d/dy (a + bB) = (b' q + b q'/2) + a' B.

        The 1/(2B) appearing in d/dy(bB) is cleared by the B multiplier;
        the division by 2 stays exact in Fraction arithmetic.
        """
        qp = self.q.diff("y")
        return ExtensionElement(
            self.b.diff("y") * self.q + self.b * qp * Fraction(1, 2),
            self.a.diff("y"), self.q)

    def __repr__(self):
        return f"ExtensionElement(a={self.a!r}, b={self.b!r})"


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
            "min_shifted_coeff": [str(self.min_coeff.numerator),
                                  str(self.min_coeff.denominator)],
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
    for expo, c in sorted(shifted.coeffs.items()):
        if c < 0:
            return PositivityCertificate(poly, m_low, "sign_indefinite", expo, c)
    return PositivityCertificate(poly, m_low, "all_coeffs_nonneg", None,
                                 shifted.min_coeff())


# -- construction helpers ---------------------------------------------


def _match(name: str, derived: RatPoly, reference: RatPoly):
    if derived != reference:
        diff = derived - reference
        expo = next(iter(sorted(diff.coeffs)))
        raise ChainMismatchError(
            name, f"first differing monomial {expo}: "
                  f"derived {derived.coeff(expo)}, reference {reference.coeff(expo)}")


def _ym():
    y = RatPoly.var(VARS_YM, "y")
    m = RatPoly.var(VARS_YM, "m")
    return y, m


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


def build_chain_k4_p2() -> ChainResult:
    """k = 4, p = 2 reduction chain, every polynomial matched to its reference.

    Chain: F = f1 B - f2, then four B-multiplied derivative steps giving
    (d1, d2), (g1, g2), (h1, h2), (l1, l2), and finally L = q l1^2 - l2^2.
    """
    y, m = _ym()
    q = (y + m) ** 2 + 4 * y
    r = (y + m - 1) ** 2 + 4 * y
    s = 3 * m ** 2 + 4 * y + 11 * y ** 2 + m ** 2 * y + 5 * m * y ** 2 + 3 * y ** 3
    t = 2 * m * y + m ** 3
    h = (y + m) ** 2 + y - 3 * m
    big = (3 * y - m) ** 2 + q
    wa = q * r * big - q * h * h - (s - t) ** 2
    wb = 2 * (3 * y - m) * q * r - 2 * h * (s - t)
    f1 = wb * Fraction(1, 8)
    f2 = -wa * Fraction(1, 8)
    _match("f1", f1, RatPoly(VARS_YM, ref.K4_F1))
    _match("f2", f2, RatPoly(VARS_YM, ref.K4_F2))
    guard = _square_guard(q, r, "k4p2")

    el = ExtensionElement(-f2, f1, q)
    el = el.diff_times_B()            # d1 - d2 B
    d1, d2 = el.a, -el.b
    _match("d1", d1, RatPoly(VARS_YM, ref.K4_D1))
    _match("d2", d2, RatPoly(VARS_YM, ref.K4_D2))
    el = el.diff_times_B()            # -g2 + g1 B
    g1, g2 = el.b, -el.a
    _match("g1", g1, RatPoly(VARS_YM, ref.K4_G1))
    _match("g2", g2, RatPoly(VARS_YM, ref.K4_G2))
    el = el.diff_times_B()            # h1 - h2 B
    h1, h2 = el.a, -el.b
    _match("h1", h1, RatPoly(VARS_YM, ref.K4_H1))
    _match("h2", h2, RatPoly(VARS_YM, ref.K4_H2))
    el = el.diff_times_B()            # -l2 + l1 B
    l1, l2 = el.b, -el.a
    _match("l1", l1, RatPoly(VARS_YM, ref.K4_L1))
    _match("l2", l2, RatPoly(VARS_YM, ref.K4_L2))

    L = -el.norm()                    # q l1^2 - l2^2
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
    return ChainResult("k4p2", q, {
        "f1": f1, "f2": f2, "d1": d1, "d2": d2, "g1": g1, "g2": g2,
        "h1": h1, "h2": h2, "l1": l1, "l2": l2, "L": L,
    }, ["B", "B", "B", "B"], anchors, cert, {"square_guard": guard})


def build_chain_k8_p2() -> ChainResult:
    """k = 8, p = 2 chain: L(0) = 0 and L'(0) carries the sign; the
    certificate is for L''(y) with m >= 4, and L'(0) < 0 for m in {1,2,3}."""
    y, m = _ym()
    q = (y + m) ** 2 + 8 * y
    r = (y + m - 1) ** 2 + 8 * y
    A = (y + m) ** 2 + y - 7 * m
    C = (7 * m ** 2 - m ** 3 + 24 * y - 2 * m * y + 5 * m ** 2 * y
         + 55 * y ** 2 + 13 * m * y ** 2 + 7 * y ** 3)
    big = (7 * y - m) ** 2 + q
    wa = q * A * A + C * C - q * r * big
    wb = 2 * A * C - 2 * (7 * y - m) * q * r
    f1 = wa * Fraction(1, 8)
    f2 = -wb * Fraction(1, 8)
    guard = _square_guard(q, r, "k8p2")

    el = ExtensionElement(f1, -f2, q)
    el = el.diff_times_B()            # -d2 + d1 B
    d1, d2 = el.b, -el.a
    el = el.diff_times_B()            # e1 - e2 B
    e1, e2 = el.a, -el.b
    L = el.norm()                     # e1^2 - q e2^2

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
    return ChainResult("k8p2", q, {
        "f1": f1, "f2": f2, "d1": d1, "d2": d2, "e1": e1, "e2": e2,
        "L": L, "Lprime": Lp, "Lsecond": Lpp,
    }, ["B", "B"], anchors, cert,
        {"square_guard": guard,
         "Lprime0_m123": {str(k): str(v) for k, v in lp0_small.items()}})


def optimality_factor_generic_k() -> RatPoly:
    """Symbolic-k chain: three 2B-multiplied derivative steps (three
    B-multiplied ones, times 2^3), then the value at y = 0 (where B = m),
    which must factor as 24 k^3 m (1 + 2m) (km - 6m - k)."""
    y = RatPoly.var(VARS_YMK, "y")
    m = RatPoly.var(VARS_YMK, "m")
    k = RatPoly.var(VARS_YMK, "k")
    q = (y + m) ** 2 + k * y
    r = (y + m - 1) ** 2 + k * y
    A2 = 2 * (y + (y + m) ** 2 - (k - 1) * m)
    P = (-2 * m ** 2 + 2 * k * m ** 2 - 2 * m ** 3 - 2 * k * y + k * k * y
         - 4 * m * y - 6 * m ** 2 * y + 2 * k * m ** 2 * y - 2 * y ** 2
         - 2 * k * y ** 2 + 2 * k * k * y ** 2 - 6 * m * y ** 2
         + 4 * k * m * y ** 2 - 2 * y ** 3 + 2 * k * y ** 3)
    big = ((k - 1) * y - m) ** 2 + q
    f1 = q * A2 * A2 + P * P - 4 * q * r * big
    f2 = -(2 * A2 * P - 8 * ((k - 1) * y - m) * q * r)
    _match("f1", f1, RatPoly(VARS_YMK, ref.GK_F1))
    _match("f2", f2, RatPoly(VARS_YMK, ref.GK_F2))

    el = ExtensionElement(f1, -f2, q)
    for _ in range(3):
        el = el.diff_times_B()
    value0 = 8 * (el.a.subs("y", 0) + m * el.b.subs("y", 0))
    target = 24 * k ** 3 * m * (1 + 2 * m) * (k * m - 6 * m - k)
    _match("value_at_0", value0, target)
    return value0


def build_chain_p3_k4() -> ChainResult:
    """p = 3, k = 4 chain with B^2 = 9(y+m)^2 + 48y; four B-multiplied steps
    end at (1944 l1, 1944 l2); certificate for L with m >= 1."""
    y, m = _ym()
    p = 3
    q = p * p * (y + m) ** 2 + 8 * p * (p - 1) * y
    r = p * p * (y + m - 1) ** 2 + 8 * p * (p - 1) * y
    A = p * (p * (y + m) ** 2 + (5 * p - 8) * y - 3 * p * m)
    C = p * p * (3 * p * m ** 2 - p * m ** 3
                 + (-8 + 8 * m + 8 * p - 6 * m * p + p * m ** 2) * y
                 + (-24 + 23 * p + 5 * m * p) * y ** 2 + 3 * p * y ** 3)
    big = (3 * p * y - p * m) ** 2 + q
    wa = q * r * big - q * A * A - C * C
    wb = 2 * (3 * p * y - p * m) * q * r - 2 * A * C
    guard = _square_guard(q, r, "p3k4")

    el = ExtensionElement(wa, wb, q)
    for _ in range(4):
        el = el.diff_times_B()
    l1 = el.b * Fraction(1, 1944)
    l2 = -el.a * Fraction(1, 1944)
    _match("l1", l1, RatPoly(VARS_YM, ref.P3_L1))
    _match("l2", l2, RatPoly(VARS_YM, ref.P3_L2))

    L = -el.norm() / 1944 ** 2         # q l1^2 - l2^2
    cert = positivity_for_m_ge(L, 1)
    anchors = {
        "l1/3 coeff y^4": str(l1.coeff((4, 0)) / 3),
        "l2/27 coeff y^5": str(l2.coeff((5, 0)) / 27),
        "l1/3 constant": str(l1.coeff((0, 0)) / 3),
    }
    return ChainResult("p3k4", q, {
        "wa": wa, "wb": wb, "l1": l1, "l2": l2, "L": L,
    }, ["B", "B", "B", "B"], anchors, cert, {"square_guard": guard})


ALL_CHAINS = ("k4p2", "k8p2", "generic_k", "p3k4")


def run_chain(name: str):
    """Dispatch one chain by name; returns ChainResult or, for generic_k,
    a ChainResult wrapping the optimality factor."""
    if name == "k4p2":
        return build_chain_k4_p2()
    if name == "k8p2":
        return build_chain_k8_p2()
    if name == "p3k4":
        return build_chain_p3_k4()
    if name == "generic_k":
        factor = optimality_factor_generic_k()
        anchors = {
            "factored form": "24*k^3*m*(1+2*m)*(k*m-6*m-k)",
            "value at (m=2,k=12)": str(factor.eval(y=0, m=2, k=12)),
            "value at (m=4,k=8)": str(factor.eval(y=0, m=4, k=8)),
        }
        cert = None
        q = RatPoly.var(VARS_YMK, "y")  # placeholder; factor has no radical left
        return ChainResult("generic_k", q, {"factor": factor}, ["2B", "2B", "2B"],
                           anchors, cert, {})
    raise DomainError(f"unknown chain {name!r}; choose from {ALL_CHAINS}")


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
    if orientation is None:
        orientation = "lower" if k >= 8 else "upper"
    if orientation not in ("upper", "lower"):
        raise DomainError(f"orientation must be 'upper' or 'lower', got {orientation!r}")
    sign = 1.0 if orientation == "upper" else -1.0
    ys = sorted(v for v in y_grid if v > 0)
    if not ys:
        raise DomainError("y_grid must contain positive points")
    out: dict = {"k": k, "p": p, "orientation": orientation, "per_m": {}}
    for m in m_list:
        if m < 1:
            raise DomainError(f"sweep requires m >= 1, got {m}")
        min_e = math.inf
        min_y = None
        intervals: list[tuple[float, float]] = []
        run_start = None
        prev_y = None
        for yv in ys:
            g_m = G_k_m_p(k, m, p, yv)
            g_m1 = G_k_m_p(k, m - 1, p, yv)
            e = sign * ((g_m / g_m1 - 1.0) - G_k_m_p_deriv(k, m, p, yv))
            if e < min_e:
                min_e, min_y = e, yv
            if e < 0:
                if run_start is None:
                    run_start = yv
            else:
                if run_start is not None:
                    intervals.append((run_start, prev_y))
                    run_start = None
            prev_y = yv
        if run_start is not None:
            intervals.append((run_start, prev_y))
        out["per_m"][m] = {
            "min_E": min_e,
            "argmin_y": min_y,
            "negative_intervals": intervals,
            "ok": not intervals,
        }
    out["all_nonnegative"] = all(v["ok"] for v in out["per_m"].values())
    return out
