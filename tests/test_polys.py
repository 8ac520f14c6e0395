"""Exact polynomial family identities and the polynomial evaluation path."""

import math
from fractions import Fraction

import mpmath
import pytest

from regpot import polys
from regpot.core import EvalParams, eval_vmp
from regpot.polys import (P_root_nonneg, build_P, build_Q, build_tildeP,
                          derivative_identities_check, eval_via_polynomials,
                          explicit_P_coeffs, hypergeometric_check,
                          ode_residual_check, sum_identity_check, tildeP_roots)
from regpot.errors import DomainError
from regpot.ratpoly import RatPoly


def rel(a, b):
    return abs(a - b) / abs(b)


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
    for m in (2.5, 6.5):
        got = eval_via_polynomials(m, 2.0, 1.3)
        want = eval_vmp(EvalParams(m, 2.0, 1.3), 1e-12).value
        assert rel(got, want) < 1e-8


def test_horner_coefficients_equal_bivariate_eval():
    for p in (2.0, 3.0, 2.5):
        for x in (0.3, 1.7, 6.1):
            y, s = polys._exact_y_s(p, x)
            for m in range(0, 21):
                assert polys._eval_y("P", m, s, y) == build_P(m).poly.eval(y=y, s=s)
                assert polys._eval_y("Q", m, s, y) == build_Q(m).poly.eval(y=y, s=s)


def test_anchor_matches_integral_representation():
    # V_0^p(x) = int_0^inf e^(-u) (x^p + u)^((1-p)/p) du
    for p in (0.5, 1.5, 2.5, 3.0):
        for x in (0.3, 2.9, 6.1):
            got = polys._anchor_v0_hp(p, x, 40)
            with mpmath.workdps(40):
                xp = mpmath.mpf(x) ** p
                expo = (1 - mpmath.mpf(p)) / p
                want = mpmath.quad(lambda u: mpmath.exp(-u) * (xp + u) ** expo,
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


def test_p_root_shift():
    for m in (3, 5):
        z = tildeP_roots(m, 2.0)
        r = P_root_nonneg(m, 2.0)
        assert r == pytest.approx(0.5 - z, abs=1e-12)
        assert r >= 0
