"""Exact polynomial family identities and the polynomial evaluation path."""

import math
from fractions import Fraction

import mpmath
import pytest

from regpot import cli, polys
from regpot.core import EvalParams, eval_vmp, gamma_ratio
from regpot.polys import (P_root_nonneg, build_P, build_Q, build_tildeP,
                          derivative_identities_check, eval_via_polynomials,
                          hypergeometric_check, ode_residual_check,
                          sum_identity_check, tildeP_roots)
from regpot.errors import DomainError, RegpotError
from regpot.ratpoly import RatPoly


def rel(a, b):
    return abs(a - b) / abs(b)


def explicit_P_coeffs(m: int, p: float) -> list[float]:
    """Numeric coefficients b_0..b_m of P_m at s = 1/p from the closed form

        b_k = (-1)^k Gamma(m + 1/p - k) / (k! (m-k)! Gamma(1/p)).
    """
    s = 1.0 / p
    out = []
    for k in range(m + 1):
        val = gamma_ratio(m + s - k, k + 1, m - k + 1, s)[0]
        out.append(val if k % 2 == 0 else -val)
    return out


def test_base_cases():
    y = RatPoly.var(("y", "s"), "y")
    s = RatPoly.var(("y", "s"), "s")
    assert build_P(0).poly == RatPoly.constant(("y", "s"), 1)
    assert build_P(1).poly == s - y
    assert build_Q(1).poly == (1 + s - y) * Fraction(1, 2)
    z = RatPoly.var(("z", "s"), "z")
    assert build_tildeP(1).poly == z


def test_leading_coefficients():
    for m in range(1, 26):
        p_lead = build_P(m).poly.coeff((m, 0))
        q_lead = build_Q(m).poly.coeff((m, 0))
        assert p_lead == Fraction((-1) ** m, math.factorial(m))
        assert q_lead == Fraction((-1) ** m, math.factorial(m + 1))


def test_appell_property():
    # dP_m/dy = -P_(m-1), exactly
    for m in range(1, 26):
        assert build_P(m).poly.diff("y") == -build_P(m - 1).poly


def test_q_derivative_identity():
    for m in range(1, 26):
        assert derivative_identities_check(m)


def test_ode_residual_zero():
    for m in range(1, 26):
        assert ode_residual_check(m).is_zero()


def test_sum_identities():
    for m in range(1, 26):
        assert sum_identity_check(m)


def test_tilde_relation_and_positivity():
    # P_m(y) = tildeP_m(s - y); all tildeP coefficients >= 0 and nonzero
    for m in range(0, 26):
        t = build_tildeP(m).poly
        sub = t.subs("z", RatPoly.var(("z", "s"), "s") - RatPoly.var(("z", "s"), "z"))
        p_in_t_vars = RatPoly(("z", "s"),
                              {(e[0], e[1]): c for e, c in build_P(m).poly.coeffs.items()})
        assert sub == p_in_t_vars
        assert not t.is_zero() or m == 0
        assert all(c > 0 for c in t.coeffs.values())


def test_explicit_coefficients_match_family():
    for m in (1, 3, 7):
        for p in (2.0, 3.0):
            bs = explicit_P_coeffs(m, p)
            poly = build_P(m).poly
            for k, b in enumerate(bs):
                exact = float(poly.coeff((k, 0))
                              + sum(poly.coeff((k, j)) * (1.0 / p) ** j
                                    for j in range(1, m + 1)))
                assert abs(b - exact) < 1e-12 * max(1.0, abs(exact))


def test_eval_via_polynomials_matches_quadrature():
    for m in (1, 5, 12, 20):
        for x in (0.05, 0.7, 2.0, 10.0, 100.0):
            got = eval_via_polynomials(float(m), 2.0, x)
            want = eval_vmp(EvalParams(float(m), 2.0, x), 1e-12).value
            assert rel(got, want) < 1e-9


def test_eval_via_polynomials_fractional_anchor():
    # fractional m is evaluated directly: from x^p ~ m on, an upward
    # combination of the anchors V_a, V_(a-1) cancels (at (20.5, 30) it once
    # returned 7.6e22 for 0.0329)
    for m, x in ((2.5, 1.3), (6.5, 1.3), (6.5, 3.0), (6.5, 5.0), (12.5, 10.0), (20.5, 30.0)):
        got = eval_via_polynomials(m, 2.0, x)
        want = eval_vmp(EvalParams(m, 2.0, x), 1e-12).value
        assert rel(got, want) < 1e-9


def test_horner_coefficients_equal_bivariate_eval():
    for p in (2.0, 3.0, 2.5):
        for x in (0.3, 1.7, 6.1):
            y, s = polys._exact_y_s(p, x)
            for m in range(0, 21):
                assert polys._eval_y("P", m, s, y) == build_P(m).poly.eval(y=y, s=s)
                assert polys._eval_y("Q", m, s, y) == build_Q(m).poly.eval(y=y, s=s)


def test_anchor_matches_integral_representation():
    # V_0 = int_0^inf e^(-u) (y + u)^(s-1) du, with y = x^p and s = 1/p
    for p in (0.5, 1.5, 2.0, 2.5, 3.0):
        for x in (0.3, 2.9, 6.1):
            y, s = polys._exact_y_s(p, x)
            got = polys._anchor_v0_hp(y, s, 40)
            with mpmath.workdps(40):
                yv = mpmath.mpf(y.numerator) / y.denominator
                expo = mpmath.mpf(s.numerator) / s.denominator - 1
                want = mpmath.quad(lambda u: mpmath.exp(-u) * (yv + u) ** expo,
                                   [0, 1, 10, 50, mpmath.inf])
                assert abs(got - want) <= mpmath.mpf("1e-35") * want


def test_high_precision_anchor_needs_no_quadrature(monkeypatch):
    def no_quad(*args, **kwargs):
        raise AssertionError("mp.quad called")

    gammainc_calls = []
    gammainc = polys.mp.gammainc

    def counting_gammainc(*args, **kwargs):
        gammainc_calls.append(args)
        return gammainc(*args, **kwargs)

    monkeypatch.setattr(polys.mp, "quad", no_quad)
    monkeypatch.setattr(polys.mp, "gammainc", counting_gammainc)
    polys._anchor_v0_hp.cache_clear()  # an anchor kept from an earlier call would hide the calls
    for m in range(1, 21):
        got = eval_via_polynomials(float(m), 3.0, 6.1)
        want = eval_vmp(EvalParams(float(m), 3.0, 6.1), 1e-12).value
        assert rel(got, want) < 1e-9
    assert gammainc_calls  # the cancelling combination took the closed-form anchor


def _mp_vmp(m, p, x):
    """x^(pm+1) U(m+1, m+1+1/p, x^p) (DLMF 13.4(ii)) at 30 digits."""
    with mpmath.workdps(30):
        m, p, x = mpmath.mpf(m), mpmath.mpf(p), mpmath.mpf(x)
        return float(x ** (p * m + 1) * mpmath.hyperu(m + 1, m + 1 + 1 / p, x ** p))


@pytest.mark.parametrize("m, p, x", [(2, 2.0, 4.937), (2, 3.0, 2.8979)])
def test_anchor_precision_follows_anchor_error(m, p, x):
    # cond ~ 1e2 here: the float anchor's ~1e-10 error used to reach 1.2e-8
    got = eval_via_polynomials(float(m), p, x)
    assert rel(got, _mp_vmp(m, p, x)) < 1e-10


@pytest.mark.parametrize("m, p, x", [(14, 2.5, 3.548), (20, 2.5, 10.0), (20, 1.5, 30.0),
                                     (3, 2.5, 1e40), (20, 3.0, 1e10), (20, 2.0, 1e16),
                                     (5, 2.0, 1e80)])
def test_cancelling_combination_at_non_integer_p_and_huge_y(m, p, x):
    # the combination cancels here: at non-integer p every part of it
    # must be taken at the doubles y = x^p and s = 1/p themselves, and at
    # huge y the condition estimate must stay out of the float range
    assert rel(eval_via_polynomials(float(m), p, x), _mp_vmp(m, p, x)) < 1e-9


_X_MID = [0.3 * (10 / 0.3) ** (i / 11) for i in range(12)]
_X_WIDE = [1e-3 * 1e6 ** (i / 12) for i in range(13)]


@pytest.mark.parametrize("p", [2.0, 3.0, 2.5, 1.5, 0.75, 0.1, 0.2, 0.35, 0.5])
def test_eval_via_polynomials_matches_hyperu(monkeypatch, p):
    # at integer m the value is rounded from >= 30 correct digits whatever
    # tol asks, with the closed-form anchor and no quadrature: correctly
    # rounded (to within one ulp) at integer p, where y and s are exact; at
    # non-integer p the double x^p carries its own rounding.  A quadrature
    # anchor at tol left up to 1.5e-11 at (m, p, x, tol) = (1, 2, 5.29, 1e-10).
    def no_eval_vmp(*args, **kwargs):
        raise AssertionError("eval_vmp called")

    monkeypatch.setattr(polys, "eval_vmp", no_eval_vmp)
    xs, tols = (_X_MID, (1e-10, 1e-12)) if p > 0.5 else (_X_WIDE, (1e-12,))
    bound = 2.3e-16 if p.is_integer() else 1e-14
    for m in (1, 2, 3, 5, 8, 13, 20):
        for x in xs:
            with mpmath.workdps(40):
                mm, pp, xx = mpmath.mpf(m), mpmath.mpf(p), mpmath.mpf(x)
                z, c = xx ** pp, (1 - pp) / pp
                want = z ** (mm + 1 + c) * mpmath.hyperu(mm + 1, mm + 2 + c, z)
            for tol in tols:
                got = eval_via_polynomials(float(m), p, x, tol)
                with mpmath.workdps(40):
                    assert abs(got - want) <= bound * want, (m, p, x, tol)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_eval_via_polynomials_rejects_non_finite(bad):
    for args in ((bad, 2.0, 1.0), (2.0, bad, 1.0), (2.0, 2.0, bad)):
        with pytest.raises(DomainError, match="finite"):
            eval_via_polynomials(*args)
    with pytest.raises(DomainError, match="finite"):
        eval_via_polynomials(2.0, 2.0, 1.0, tol=bad)


def test_hypergeometric_agreement():
    for m in (1, 2, 5):
        for p in (2.0, 3.0, 2.5):
            for y in (0.0, 0.5, 1.0, 3.0):
                lhs, rhs = hypergeometric_check(m, p, y)
                assert rel(lhs, rhs) < 1e-9 or abs(lhs - rhs) < 1e-12


def test_tilde_roots():
    assert tildeP_roots(1, 2.0) == 0.0
    assert tildeP_roots(2, 2.0) is None
    for m in (3, 5, 9):
        z = tildeP_roots(m, 2.0)
        assert -m + 1 <= z <= 0
        t = build_tildeP(m).poly
        val = float(t.eval(z=Fraction(z).limit_denominator(10 ** 15), s=Fraction(1, 2)))
        assert abs(val) < 1e-9


@pytest.mark.parametrize("p", [0.0, math.nan, -2.0, math.inf])
def test_p_outside_domain_is_domain_error(capsys, p):
    # once a ZeroDivisionError, a bare ValueError, an untrue "unexpectedly
    # negative" BracketError, and roots 0 at p = inf
    for call in (lambda: tildeP_roots(3, p), lambda: tildeP_roots(4, p),
                 lambda: P_root_nonneg(3, p), lambda: hypergeometric_check(2, p, 1.0)):
        with pytest.raises(DomainError, match="p must be"):
            call()
    assert cli.main(["roots", "--p", repr(p), "--m-max", "3"]) == 3
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("m, p, y", [(20, 10.0, 1e300), (1, 0.3, 1e200)])
def test_hypergeometric_check_past_the_double_range(m, p, y):
    # once a bare OverflowError from float(P_20(1e300)), and nan from a 1F1
    # sum that overflowed
    with pytest.raises(RegpotError, match="double range"):
        hypergeometric_check(m, p, y)


def test_hypergeometric_check_rejects_non_finite_y():
    with pytest.raises(DomainError, match="y must be finite"):
        hypergeometric_check(2, 2.5, math.nan)


def test_p_root_shift():
    for m in (3, 5):
        z = tildeP_roots(m, 2.0)
        r = P_root_nonneg(m, 2.0)
        assert r == pytest.approx(0.5 - z, abs=1e-12)
        assert r >= 0
