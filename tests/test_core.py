"""Evaluation engine tests against closed forms and the Simpson oracle."""

import math
import random
import sys
import warnings

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import simpson_fourier, simpson_vmp, vm0_oracle
from regpot import bounds, cli, polys, recursion
from regpot.core import (EvalParams, eval_asymptotic, eval_closed_form_inv_p,
                         eval_fourier_transform, eval_vm0, eval_vmp, vmp)
from regpot.errors import AsymptoticRegimeError, ConvergenceError, DomainError, RegpotError


def rel(a, b):
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------- closed forms

def test_value_at_zero_matches_gamma_ratio():
    for m in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, -0.3):
        for p in (0.5, 2.0, 3.0):
            assert rel(eval_vm0(m, p).value, vm0_oracle(m, p)) < 1e-13


def test_v0_at_zero_is_sqrt_pi():
    assert eval_vm0(0.0, 2.0).value == pytest.approx(math.sqrt(math.pi), rel=1e-15)


def test_convention_m_minus_one():
    assert eval_vmp(EvalParams(-1.0, 2.0, 4.0)).value == 0.25
    assert eval_vmp(EvalParams(-1.0, 3.0, 2.0)).value == 2.0 ** -2


def test_value_at_zero_follows_the_convention_at_m_minus_one():
    # V_-1 = x^(1-p) is 0 at x = 0 for p < 1, whichever entry point is asked
    for p in (0.5, 0.9):
        assert eval_vm0(-1.0, p) == eval_vmp(EvalParams(-1.0, p, 0.0))
        assert eval_vm0(-1.0, p).value == 0.0


@pytest.mark.parametrize("m, p", [(math.nan, 2.0), (math.inf, 2.0), (1.0, math.inf),
                                  (1.0, math.nan)])
def test_value_at_zero_rejects_what_eval_params_rejects(m, p):
    with pytest.raises(DomainError):
        EvalParams(m, p, 0.0)
    with pytest.raises(DomainError):
        eval_vm0(m, p)


def test_closed_form_rejects_non_finite_x():
    for x in (math.inf, math.nan, [1.0, math.inf]):
        with pytest.raises(DomainError, match="finite"):
            eval_closed_form_inv_p(1.0, 2, x)


def test_p_equal_one_is_identically_one():
    for m in (-0.5, 0.0, 3.7):
        for x in (0.0, 1.0, 50.0):
            assert eval_vmp(EvalParams(m, 1.0, x)).value == 1.0


def test_closed_form_inverse_integer_p():
    # p = 1/2: V = (m+1) + sqrt(x)
    for m in (0.0, 1.5, 4.0):
        for x in (0.25, 2.0, 9.0):
            assert rel(eval_closed_form_inv_p(m, 2, x), (m + 1) + math.sqrt(x)) < 1e-14
    # p = 1/3 against the oracle
    for m in (0.5, 2.0):
        for x in (0.5, 3.0):
            got = eval_vmp(EvalParams(m, 1.0 / 3.0, x))
            assert got.method == "closed_form_inv_p"
            assert rel(got.value, simpson_vmp(m, 1.0 / 3.0, x)) < 1e-9


# ---------------------------------------------------------------- quadrature

def test_quadrature_matches_oracle():
    random.seed(99)
    for _ in range(25):
        m = random.uniform(-0.9, 10.0)
        p = random.choice([0.5, 1.5, 2.0, 3.0])
        x = random.uniform(0.05, 15.0)
        got = eval_vmp(EvalParams(m, p, x), 1e-11)
        assert rel(got.value, simpson_vmp(m, p, x)) < 1e-8


def test_small_x_continuity_to_origin_value():
    # V(x) - V(0) vanishes like x^(p m + 1) (capped at x^p), slow near the
    # existence threshold; budget the comparison accordingly
    for m in (-0.4, 0.0, 0.5, 3.0):
        for p in (2.0, 3.0, 10.0):
            x = 1e-8
            v = eval_vmp(EvalParams(m, p, x), 1e-12).value
            rate = (x ** p) ** min(m + 1.0 / p, 1.0)
            assert rel(v, vm0_oracle(m, p)) < 4.0 * rate + 1e-9


@pytest.mark.parametrize("m", [1e2, 1e4, 1e6, 1e8])
def test_gamma_ratio_estimates_cover_lgamma_cancellation(m):
    # exp(lgamma(a) - lgamma(b)) loses digits as lgamma grows: 3e-12 at
    # m = 1e4, 1.3e-7 at 1e8; the estimates must say so.  p = 1/2 also takes
    # the closed form V = (m + 1) + sqrt(x) at x > 0.
    for p in (0.5, 2.0, 3.0):
        res = eval_vm0(m, p)
        with mpmath.workdps(30):
            want = mpmath.gamma(mpmath.mpf(m) + 1 / mpmath.mpf(p)) / mpmath.gamma(mpmath.mpf(m) + 1)
        assert abs(res.value - want) <= res.abs_err_estimate
    res = eval_vmp(EvalParams(m, 0.5, 2.0))
    assert res.method == "closed_form_inv_p"
    assert abs(res.value - (mpmath.mpf(m) + 1 + mpmath.sqrt(2))) <= res.abs_err_estimate


def test_hard_corner_small_x_large_p():
    # near the existence threshold m = -1/p the value grows like x^(pm+1);
    # reference values from 60-digit quadrature of the smoothed integrand
    refs = {
        (-0.9, 20.0, 0.01): 1.07855946408e34,
        (-0.5, 10.0, 0.001): 2.07570650064e12,
        (-0.1, 10.0, 0.001): 64.2674562959,
    }
    for (m, p, x), want in refs.items():
        assert rel(eval_vmp(EvalParams(m, p, x)).value, want) < 1e-9


def test_error_estimates_are_honest():
    random.seed(5)
    for _ in range(15):
        m = random.uniform(-0.8, 8.0)
        p = random.choice([0.5, 2.0, 3.0])
        x = random.uniform(0.05, 10.0)
        loose = eval_vmp(EvalParams(m, p, x), 1e-6)
        tight = eval_vmp(EvalParams(m, p, x), 1e-13)
        assert abs(loose.value - tight.value) <= loose.abs_err_estimate + tight.abs_err_estimate


# ---------------------------------------------------------------- asymptotics

def test_asymptotic_in_regime():
    for m in (0.0, 1.0, 5.0):
        for x in (8.0, 20.0, 80.0):
            a = eval_asymptotic(EvalParams(m, 2.0, x))
            q = eval_vmp(EvalParams(m, 2.0, x), 1e-13)
            assert abs(a.value - q.value) <= a.abs_err_estimate + q.abs_err_estimate
            assert rel(a.value, q.value) < 1e-9


def test_asymptotic_rejects_out_of_regime():
    with pytest.raises(AsymptoticRegimeError):
        eval_asymptotic(EvalParams(5.0, 2.0, 1.0))


def test_dispatch_uses_asymptotic_at_large_x():
    r = eval_vmp(EvalParams(1.0, 2.0, 50.0))
    assert r.method == "asymptotic"


# ---------------------------------------------------------------- domain rules

def test_domain_errors():
    with pytest.raises(DomainError):
        EvalParams(0.0, -1.0, 1.0)
    with pytest.raises(DomainError):
        EvalParams(0.0, 2.0, -1.0)
    with pytest.raises(DomainError):
        EvalParams(-1.5, 2.0, 1.0)
    with pytest.raises(DomainError):
        EvalParams(-0.6, 2.0, 0.0)  # x = 0 needs m > -1/p
    with pytest.raises(DomainError):
        EvalParams(-1.0, 2.0, 0.0)  # convention value diverges at 0 for p > 1
    with pytest.raises(DomainError):
        eval_vmp(EvalParams(0.0, 2.0, 1.0), tol=0.0)
    EvalParams(-0.4, 2.0, 0.0)  # fine: -0.4 > -1/2


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_is_domain_error(bad):
    for args in ((bad, 2.0, 1.0), (1.0, bad, 1.0), (1.0, 2.0, bad)):
        with pytest.raises(DomainError, match="finite"):
            EvalParams(*args)
    with pytest.raises(DomainError, match="finite"):
        eval_vmp(EvalParams(1.0, 2.0, 1.0), tol=bad)
    with pytest.raises(DomainError, match="finite"):
        eval_fourier_transform(1.0, bad)
    with pytest.raises(DomainError, match="finite"):
        eval_fourier_transform(bad, 1.0)
    with pytest.raises(DomainError, match="finite"):
        eval_fourier_transform(1.0, 1.0, tol=bad)


REF_DPS = 50  # 30-digit hyperu is wrong at large non-integer m: 4.5e27 for 0.0564 at (233.19, 80.9)


def _v_ref(m, p, x):
    """V_m^p(x) = x^(pm+1) U(m+1, m+1+1/p, x^p) (DLMF 13.4.4), V_m^p(0) =
    Gamma(m+1/p)/Gamma(m+1), as an mpf at REF_DPS digits."""
    with mpmath.workdps(REF_DPS):
        m, p, x = mpmath.mpf(m), mpmath.mpf(p), mpmath.mpf(x)
        if x == 0:
            return +(mpmath.gamma(m + 1 / p) / mpmath.gamma(m + 1))
        return +(x ** (p * m + 1) * mpmath.hyperu(m + 1, m + 1 + 1 / p, x ** p))


def _f_ref(m, xi):
    """Gamma(m+1) U(m+1, 1, xi^2/4) / sqrt(2 pi) as an mpf at REF_DPS digits."""
    with mpmath.workdps(REF_DPS):
        m, xi = mpmath.mpf(m), mpmath.mpf(xi)
        return +(mpmath.gamma(m + 1) * mpmath.hyperu(m + 1, 1, xi * xi / 4)
                 / mpmath.sqrt(2 * mpmath.pi))


def _assert_honest(res, want):
    with mpmath.workdps(REF_DPS):
        assert abs(mpmath.mpf(res.value) - want) <= res.abs_err_estimate


def test_large_m_answers_within_its_estimate():
    # Gamma(m + 1) overflows a double from m ~ 170.6, but V and the Fourier
    # transform do not: the kernel keeps lgamma(m+1) inside its exponent
    for m in (171.0, 200.0, 600.0):
        _assert_honest(eval_vmp(EvalParams(m, 2.0, 1.0)), _v_ref(m, 2.0, 1.0))
        _assert_honest(eval_fourier_transform(m, 1.0), _f_ref(m, 1.0))
    # at tiny p the integral Gamma(m+1) K is past the double range, V is not
    _assert_honest(eval_vmp(EvalParams(120.0, 0.0156, 1.0)), _v_ref(120.0, 0.0156, 1.0))


# an estimate the old kernel missed (off by 5.3e-11 against 4.5e-12), an input
# below its reach ("panel budget exhausted"), one that a one-level stop of the
# trapezoid kernel misses (1.03e-13 against 9.6e-14), and the edge inputs past
# Gamma(m + 1)'s overflow
HONESTY_ROWS = ([(1.134, 3.0, 0.005383, 1e-10), (8.15, 0.75, 2.238, 1e-14),
                 (1.0, 3.0, 0.0072638, 1e-12)]
                + [(m, 2.0, x, 1e-10) for m in (171.0, 200.0) for x in (0.01, 1.0)])


@pytest.mark.parametrize("m, p, x, tol", HONESTY_ROWS)
def test_error_estimate_is_honest_at_known_misses(m, p, x, tol):
    _assert_honest(eval_vmp(EvalParams(m, p, x), tol), _v_ref(m, p, x))


def test_error_estimate_is_honest_where_the_kernel_stops_early():
    # the kernel may stop at the first level that agrees to tol, where the
    # difference fell eightfold; seeded draws over the domain where that
    # rule was tried, each quadrature estimate against the reference
    rng = random.Random(7)
    n_quad = 0
    for _ in range(400):
        m, p = 120.0 - 121.0 * rng.random(), rng.uniform(0.2, 6.0)
        x, tol = 10.0 ** rng.uniform(-3.0, 2.0), 10.0 ** rng.uniform(-14.0, -6.0)
        res = eval_vmp(EvalParams(m, p, x), tol)
        if res.method == "quadrature":
            n_quad += 1
            _assert_honest(res, _v_ref(m, p, x))
    assert n_quad > 250


_TOLS = st.floats(-15.0, -6.0).map(lambda e: 10.0 ** e)
_MS = st.one_of(st.floats(-0.9999, 20.0), st.floats(20.0, 250.0), st.integers(0, 30).map(float))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(m=_MS, p=st.one_of(st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0]),
                          st.floats(0.1, 10.0)),
       x=st.one_of(st.just(0.0), st.floats(-4.0, 3.0).map(lambda e: 10.0 ** e)), tol=_TOLS)
def test_error_estimate_is_honest_over_the_domain(m, p, x, tol):
    # whatever the method, |value - reference| <= abs_err_estimate, with tol
    # down to 1e-15, where the estimate may then exceed tol |V|
    assume(x > 0 or m > -1.0 / p)
    want = _v_ref(m, p, x)
    if want > sys.float_info.max:
        with pytest.raises(ConvergenceError, match="overflows"):
            eval_vmp(EvalParams(m, p, x), tol)
    else:
        _assert_honest(eval_vmp(EvalParams(m, p, x), tol), want)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(m=_MS, xi=st.floats(-4.0, 1.3).map(lambda e: 10.0 ** e), tol=_TOLS)
def test_fourier_error_estimate_is_honest_over_the_domain(m, xi, tol):
    # xi <= 20: the reference's hyperu takes seconds at m ~ 230 and xi ~ 60
    _assert_honest(eval_fourier_transform(m, xi, tol), _f_ref(m, xi))


def test_large_m_asymptotic_dispatch_still_answers():
    # x^p well past 2(m + 2): the asymptotic series answers before any overflow
    x = 50.0
    for m in (171.0, 200.0):
        res = eval_vmp(EvalParams(m, 2.0, x))
        assert res.method == "asymptotic"
        _assert_honest(res, _v_ref(m, 2.0, x))


TRICOMI_ROWS = ([(m, 2.0, x) for m in (130.0, 150.0, 170.0) for x in (0.01, 1.0)]
                + [(-0.9999, 2.0, 1e-4), (-0.9999, 2.0, 1.0), (0.5, 0.08, 0.01),
                   (-0.99999, 0.7, 1e-8), (1.0, 2.391, 0.002188)])


@pytest.mark.parametrize("m, p, x", TRICOMI_ROWS, ids=[
    f"{m}-{x}" + ("" if p == 2.0 else f"-p{p}") for m, p, x in TRICOMI_ROWS])
def test_quadrature_matches_tricomi_u(m, p, x):
    # u^m overflowed a double in the tail piece from m ~ 130 at p = 2; at
    # m = -0.9999 the head map u = t^(1/(m+1)) put every node of a single
    # [0, 1] panel at u ~ 0, off by ~(m+1) while claiming ~eps.  At p = 0.08
    # and at m ~ -1 with p = 0.7 the tolerance scale (z+|m|+1)^c was far
    # from the integral (panel budget exhausted; 1.3e-9 off); at
    # (1, 2.391, 0.002188) the head's kink at u ~ z fooled the error estimate
    res = eval_vmp(EvalParams(m, p, x))
    assert res.method == "quadrature"
    want = _v_ref(m, p, x)
    assert rel(res.value, float(want)) < 1e-9
    _assert_honest(res, want)


@pytest.mark.parametrize("call, want, rtol", [
    (lambda: vmp(1.0, 2.0, 1e300), 1e-300, 1e-14),
    (lambda: vmp(1.0, 1e-3, 2.0), None, None),  # V is past 1000! here
    (lambda: vmp(-1.0, 3.0, 1e-300), None, None),  # the convention x^(1-p)
    (lambda: polys.eval_via_polynomials(3.0, 2.5, 1e200), 1e-300, 1e-14),
    (lambda: polys.eval_via_polynomials(20.0, 1e-3, 1.0), None, None),  # it returned inf
    (lambda: recursion.chain_values(20, 2.0, 1e200)[-1], 1e-200, 1e-14),
    (lambda: recursion.averaged_potential(7, 3.0, 1e120), 1e-240, 1e-14),
    (lambda: bounds.ratio(5.0, 2.0, 1e200), 1.0, 1e-14),
    (lambda: bounds.jensen_bounds(1.0, 2.0, 1e300), (1e-300, 1e-300), 1e-14),
    (lambda: bounds.jensen_bounds(0.5, 3.0, 1e200), (0.0, 0.0), 0.0),  # V = 1e-400
    (lambda: cli.main(["table", "--m", "1", "--p", "2", "--grid", "1,1e300,3,geometric",
                       "--with-bounds"]), 0, 0.0),
    # the grid spans 500 decades: its ratio (stop/start)^(1/(n-1)) overflows
    (lambda: cli.main(["table", "--m", "0", "--p", "2", "--grid", "1e-200,1e300,3,geometric"]),
     0, 0.0),
    # x^p underflows to 0 here, and x^(1-p) overflows: V_m(x) is V_m(0)
    (lambda: recursion.chain_values(5, 11.89, 4.3e-279)[-1], eval_vm0(5.0, 11.89).value,
     1e-9),
    (lambda: recursion.averaged_potential(3, 9.23, 1.7e-176), recursion.averaged_at_zero(3, 9.23),
     1e-9),
], ids=["vmp", "vmp_tiny_p", "vmp_convention", "eval_via_polynomials",
        "eval_via_polynomials_tiny_p", "chain_values",
        "averaged_potential", "ratio", "jensen_bounds", "jensen_bounds_underflow", "vmp_table",
        "vmp_table_wide_grid",
        "chain_values_tiny_x", "averaged_potential_tiny_x"])
def test_overflowing_x_pow_answers_or_raises_regpot_error(call, want, rtol):
    # V = x^(1-p) to double precision once x^p overflows a double; where
    # x^(1-p) overflows instead, V_m is V_m(0) or a RegpotError
    if want is None:
        with pytest.raises(RegpotError, match="overflows"):
            call()
    else:
        assert call() == pytest.approx(want, rel=rtol, abs=0.0)


@pytest.mark.parametrize("call", [
    lambda: eval_vmp(EvalParams(-0.999, 3.0, 1e-120)),
    lambda: eval_fourier_transform(-0.99, 1e-170),
    lambda: bounds.ratio(20.0, 10.0, 1e300),
], ids=["vmp", "fourier", "ratio"])
def test_underflowing_z_below_threshold_is_convergence_error(call):
    # z = x^p or xi^2/4 rounds to 0 where the integral diverges as z -> 0;
    # the ratio's denominator V_19 rounds to 0 (once a ZeroDivisionError)
    with pytest.raises(ConvergenceError, match="underflows"):
        call()


@pytest.mark.parametrize("call", [
    lambda: eval_vmp(EvalParams(1.0, 3.0, 1e200)),
    lambda: eval_vmp(EvalParams(20.0, 400.0, 7.3)),
    lambda: eval_fourier_transform(20.0, 1e154),
    lambda: eval_fourier_transform(1e8, 1.0),
], ids=["vmp_series", "vmp_series_huge_p", "fourier", "fourier_large_m"])
def test_estimate_of_an_underflowing_value_is_positive(call):
    # V or F is below the double range and rounds to 0; an estimate of 0
    # (as once returned) would claim the positive true value is 0 exactly
    res = call()
    assert res.value == 0.0
    assert res.abs_err_estimate > 0.0


def test_closed_form_estimate_of_a_value_near_the_double_range():
    # V ~ 1e285 times the leading gamma ratio's error once passed the double
    # range before the division by that ratio: "est. err inf"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = eval_vmp(EvalParams(10000.0, 0.05, 1e300))
    assert res.method == "closed_form_inv_p"
    assert math.isfinite(res.abs_err_estimate)
    _assert_honest(res, _v_ref(10000.0, 0.05, 1e300))


def test_vmp_wrapper_bit_for_bit():
    assert vmp(2.0, 2.0, 1.5) == eval_vmp(EvalParams(2.0, 2.0, 1.5)).value


# ---------------------------------------------------------------- Fourier side

def test_fourier_transform_matches_oracle():
    for m in (0.0, 1.0, 3.5):
        for xi in (0.5, 1.0, 4.0):
            got = eval_fourier_transform(m, xi, 1e-11)
            assert rel(got.value, simpson_fourier(m, xi)) < 1e-8


@pytest.mark.parametrize("m", [-0.999, -0.5, 1.0, 20.0])
@pytest.mark.parametrize("xi", [1e155, 1e200, 1e300])
def test_fourier_transform_where_xi_squared_overflows(m, xi):
    # xi^2/4 overflows a double: the kernel once saw z = inf and failed with
    # "tol 1e-10 is out of reach ... differ by nan"
    want = _f_ref(m, xi)
    res = eval_fourier_transform(m, xi)
    _assert_honest(res, want)
    if want > 1e-300:
        assert rel(res.value, float(want)) <= 1e-12


def test_fourier_rejects_zero_frequency():
    for m in (0.0, 5.0):
        with pytest.raises(DomainError):
            eval_fourier_transform(m, 0.0)


@pytest.mark.parametrize("m", [-0.9999, -0.999, -0.5, 0.0, 0.5, 2.0, 6.0, 10.0, 15.0, 20.0])
def test_fourier_transform_matches_tricomi_u(m):
    # the transform once took a tolerance scale up to 1e18 above the value
    # (off by up to 0.43 at m = 15, 20) and failed to converge at xi = 1e-4
    for xi in (1e-4, 0.01, 0.1, 1.0, 10.0, 100.0):
        res = eval_fourier_transform(m, xi, 1e-11)
        want = _f_ref(m, xi)
        assert rel(res.value, float(want)) <= 1e-9
        _assert_honest(res, want)
