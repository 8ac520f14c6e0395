"""Evaluation engine tests against closed forms and the Simpson oracle."""

import math
import random

import mpmath
import pytest

from oracles import simpson_fourier, simpson_vmp, vm0_oracle
from regpot.core import (EvalParams, eval_asymptotic, eval_closed_form_inv_p,
                         eval_fourier_transform, eval_vm0, eval_vmp, vmp)
from regpot.errors import AsymptoticRegimeError, ConvergenceError, DomainError


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


def test_large_m_overflow_is_convergence_error():
    # Gamma(m + 1) overflows a double from m ~ 171.6; 4^(m + 1) from m ~ 511
    for m in (171.0, 200.0, 600.0):
        with pytest.raises(ConvergenceError, match="overflows"):
            eval_vmp(EvalParams(m, 2.0, 1.0))
        with pytest.raises(ConvergenceError, match="overflows"):
            eval_fourier_transform(m, 1.0)


def test_large_m_asymptotic_dispatch_still_answers():
    # x^p well past 2(m + 2): the asymptotic series answers before any overflow.
    # Reference: V_m^2(x) = x^(2m+1) U(m+1, m+3/2, x^2) at 30 digits
    x = 50.0
    for m in (171.0, 200.0):
        res = eval_vmp(EvalParams(m, 2.0, x))
        assert res.method == "asymptotic"
        with mpmath.workdps(30):
            want = float(mpmath.mpf(x) ** (2 * m + 1) * mpmath.hyperu(m + 1, m + 1.5, x * x))
        assert abs(res.value - want) <= res.abs_err_estimate


def test_vmp_wrapper_bit_for_bit():
    assert vmp(2.0, 2.0, 1.5) == eval_vmp(EvalParams(2.0, 2.0, 1.5)).value


# ---------------------------------------------------------------- Fourier side

def test_fourier_transform_matches_oracle():
    for m in (0.0, 1.0, 3.5):
        for xi in (0.5, 1.0, 4.0):
            got = eval_fourier_transform(m, xi, 1e-11)
            assert rel(got.value, simpson_fourier(m, xi)) < 1e-8


def test_fourier_rejects_zero_frequency():
    for m in (0.0, 5.0):
        with pytest.raises(DomainError):
            eval_fourier_transform(m, 0.0)
