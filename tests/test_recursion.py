"""The recursion runner, chains, averaged potentials, and the gamma identity."""

import math

import numpy as np
import pytest

from regpot.core import DEFAULT_TOL, EvalParams, eval_vmp
from regpot.errors import DomainError
from regpot.recursion import (averaged_at_zero, averaged_potential,
                              chain_values, recur)


def rel(a, b):
    return abs(a - b) / abs(b)


def averaged_direct_and_budget(N, p, x, tol=DEFAULT_TOL):
    """The direct mean of V_0..V_(N-1) at x, and the error budget the closed
    form V_av^(p,N)(x) = p V_N - (p x^p / N) [V_(-1) - V_(N-1)] must meet
    against it: the estimates of the summed values and of the closed form's
    two terms, plus 1e-9 relative."""
    results = [eval_vmp(EvalParams(float(m), p, x), tol) for m in range(N)]
    direct = sum(r.value for r in results) / N
    err_n = eval_vmp(EvalParams(float(N), p, x), tol).abs_err_estimate
    budget = (sum(r.abs_err_estimate for r in results) / N + p * err_n
              + (p * x ** p / N) * results[N - 1].abs_err_estimate
              + 1e-9 * abs(direct))
    return direct, budget


def test_recur_from_fractional_anchors():
    p, x = 2.0, 1.5
    for m0 in (0.0, 0.5, 0.7):
        # seeded from V_(m0 - 1): the convention x^(1-p) at m0 = 0, V_(-0.3) at 0.7
        prev2 = eval_vmp(EvalParams(m0 - 1.0, p, x)).value
        prev1 = eval_vmp(EvalParams(m0, p, x)).value
        chain = recur([m0 + j for j in range(1, 7)], 1.0 / p, x ** p, prev2, prev1)
        assert len(chain) == 6
        for j, v in enumerate(chain, 1):
            assert rel(v, eval_vmp(EvalParams(m0 + j, p, x)).value) < 1e-9


def test_chain_values_small_and_large_x():
    # every m: an upward chain checked only at its top drifted 2.8e-9 inside
    # at (m, p, x) = (11, 2, 3.409)
    for p in (0.75, 2.0, 3.0):
        for x in (0.5, 1.0, 3.0, 3.409, 10.0, 50.0):
            ch = chain_values(20, p, x, 1e-12)
            for m in range(21):
                assert rel(ch[m], eval_vmp(EvalParams(float(m), p, x), 1e-12).value) < 1e-10


def test_unrolled_matches_recursion():
    # V_m = (1/(p m)) [(1 - p x^p) V_(m-1) + sum_{k<m-1} V_k + p x^p V_(-1)]
    p, x = 2.0, 1.7
    xp = x ** p
    ch = chain_values(9, p, x)
    for m in (1, 4, 9):
        got = ((1.0 - p * xp) * ch[m - 1] + sum(ch[:m - 1])
               + p * xp * x ** (1.0 - p)) / (p * m)
        assert rel(got, ch[m]) < 1e-10


def test_averaged_potential_closed_form():
    for p in (0.75, 2.0, 3.0):
        for n in (1, 3, 5, 7):
            for x in np.geomspace(0.01, 50.0, 9):
                x = float(x)
                direct, budget = averaged_direct_and_budget(n, p, x)
                closed = p * eval_vmp(EvalParams(float(n), p, x)).value - (p * x ** p / n) * (
                    x ** (1.0 - p) - eval_vmp(EvalParams(n - 1.0, p, x)).value)
                got = averaged_potential(n, p, x)
                assert abs(got - direct) <= budget
                assert abs(got - closed) <= budget


def test_averaged_cusp_slope():
    # the one-sided slope of V_av^(p,N) at 0+ is -p/N
    h = 1e-6
    for n in (1, 2, 5):
        fd = (averaged_potential(n, 2.0, h, tol=1e-12) - averaged_at_zero(n, 2.0)) / h
        assert abs(fd - (-2.0 / n)) < 1e-3


def test_averaged_at_zero():
    got = averaged_at_zero(2, 2.0)
    want = (math.sqrt(math.pi) + math.sqrt(math.pi) / 2) / 2
    assert rel(got, want) < 1e-13


def test_gamma_identity():
    # Gamma(m+1/p)/Gamma(m+1) = (1/(pm)) sum_{k<m} Gamma(k+1/p)/Gamma(k+1)
    def ratio(k, p):
        return math.exp(math.lgamma(k + 1.0 / p) - math.lgamma(k + 1.0))

    for m in (1, 2, 10, 40):
        for p in (0.5, 2.0, 3.0):
            rhs = sum(ratio(k, p) for k in range(m)) / (p * m)
            assert rel(ratio(m, p), rhs) < 1e-12


def test_domain_guards():
    with pytest.raises(DomainError):
        chain_values(0, 2.0, 1.0)
    with pytest.raises(DomainError):
        averaged_potential(0, 2.0, 1.0)
    for p in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            chain_values(5, p, 1.0)
        with pytest.raises(DomainError):
            averaged_potential(3, p, 1.0)
