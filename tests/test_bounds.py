"""Inequality catalog: pointwise bounds, suites, witnesses, crossovers."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regpot import bounds
from regpot.core import EvalParams, eval_vmp
from regpot.errors import ConvergenceError, DomainError


def rel(a, b):
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------- pointwise

def test_g_k_at_zero():
    assert bounds.g_k(math.pi, 0.0) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert bounds.g_k(4.0, 0.0) == 2.0


def test_G_k_m_limit():
    for m in (0.0, 1.0, 7.0):
        assert bounds.G_k_m(4.0, m, 0.0) == 2.0 * m / (2.0 * m + 1.0)


def test_G_k_m_p_limits_and_reduction():
    assert bounds.G_k_m_p(4.0, 3.0, 1.0, 0.0) == 1.0
    assert bounds.G_k_m_p(4.0, 0.0, 3.0, 0.0) == 0.0
    assert bounds.G_k_m_p(4.0, 2.0, 3.0, 0.0) == pytest.approx(6.0 / 8.0)
    # p = 2 reduces to G_k^m
    for y in (0.1, 1.0, 25.0):
        assert bounds.G_k_m_p(4.0, 2.0, 2.0, y) == pytest.approx(
            bounds.G_k_m(4.0, 2.0, y), rel=1e-13)


def test_G_derivatives_match_finite_difference():
    h = 1e-6
    for (k, m, y) in [(4.0, 1.0, 0.5), (8.0, 3.0, 2.0)]:
        fd = (bounds.G_k_m(k, m, y + h) - bounds.G_k_m(k, m, y - h)) / (2 * h)
        assert bounds.G_k_m_p_deriv(k, m, 2.0, y) == pytest.approx(fd, rel=1e-6)
    for (k, m, p, y) in [(4.0, 1.0, 3.0, 0.5), (4.0, 2.0, 5.0, 2.0)]:
        fd = (bounds.G_k_m_p(k, m, p, y + h) - bounds.G_k_m_p(k, m, p, y - h)) / (2 * h)
        assert bounds.G_k_m_p_deriv(k, m, p, y) == pytest.approx(fd, rel=1e-6)


def _G_ref(k, m, p, y):
    """G_k^(m,p)(y) and its y-derivative from the formula as written, at
    enough digits to cover the cancellation of p m against S (m/y), the
    size of G' against G (1/(y + m)^2), and to keep mpmath's difference
    step, about 10^-digits, below y (1/y)."""
    k, m, p, y = mp.mpf(k), mp.mpf(m), mp.mpf(p), mp.mpf(y)

    def G(t):
        return k * p * t / (p * ((k - 1) * t - m) + mp.sqrt(p * p * (t + m) ** 2
                                                             + 2 * k * p * (p - 1) * t))
    with mp.workdps(60 + 3 * int(mp.log10(max(1, y, m, m / y, 1 / y)))):
        return G(y), mp.diff(G, y)


@pytest.mark.parametrize("k, m, p, y", [(4.0, 2.0, 2.0, 1e154), (8.0, 5.0, 3.0, 1e200),
                                        (4.0, 1.0, 1e160, 10.0), (8.0, 3.0, 1e200, 0.5),
                                        (4.0, 1e155, 2.0, 1.0), (4.0, 1e17, 1e160, 1.0),
                                        (8.0, 1e300, 2.0, 1e-10), (1.0, 1e100, 1e200, 1.0),
                                        (8.0, 1e160, 3.0, 1e-5), (4.0, 0.0, 1.0, 1e-200),
                                        (4.0, 1e-200, 1.0, 1e-200), (8.0, 1e-160, 3.0, 1e-160)])
def test_G_past_the_double_range_of_S(k, m, p, y):
    # S^2 overflows here: once a bare OverflowError from (y + m) ** 2 past
    # y + m ~ 1e154, and 0 (G) or nan (its derivative) where p^2 overflows;
    # m/y >> 1 is where a form divided through by y would cancel.  In the
    # last three rows S^2 is subnormal or 0: G read 4/3 and 2 at p = 1,
    # where it is 1, and G' raised ZeroDivisionError
    g, dg = _G_ref(k, m, p, y)
    assert bounds.G_k_m_p(k, m, p, y) == pytest.approx(float(g), rel=1e-14)
    assert bounds.G_k_m_p_deriv(k, m, p, y) == pytest.approx(float(dg), rel=1e-12, abs=1e-320)


def _G_conj(k, m, p):
    """G_k^(m,p) in the conjugate form k p / (p (k-1) + (p^2 (y + 2m) +
    2kp(p-1)) / (S + p m)), analytic at y = 0 for m > 0."""
    def G(y):
        S = mp.sqrt(p * p * (y + m) ** 2 + 2 * k * p * (p - 1) * y)
        return k * p / (p * (k - 1) + (p * p * (y + 2 * m) + 2 * k * p * (p - 1)) / (S + p * m))
    return G


@pytest.mark.parametrize("k, m, p", [(4.0, 2.0, 2.0), (8.0, 3.0, 3.0), (4.0, 1.0, 1.5),
                                     (4.0, 0.5, 10.0), (8.0, 1e-3, 2.0), (4.0, 1e100, 2.0),
                                     (4.0, 2.0, 1.0), (8.0, 0.0, 1.0)])
def test_G_deriv_at_zero_is_the_limit(k, m, p):
    # once a bare ZeroDivisionError: D = p (-m) + p m = 0 at y = 0.  G' is
    # about 1/m^2 against G ~ 1, so the difference quotient needs 2 log10(m)
    # more digits
    with mp.workdps(40 + 3 * int(math.log10(max(1.0, m)))):
        want = mp.diff(_G_conj(*map(mp.mpf, (k, m, p))), 0, direction=1) if m > 0 else 0
    assert bounds.G_k_m_p_deriv(k, m, p, 0.0) == pytest.approx(float(want), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("k, m, p, y", [(4.0, 1.0, 2.0, 1e-191), (16.0, 1.0, 1.0, 4.7e-175),
                                        (1.0, 5.0, 1.5, 5.8e-205), (3.3, 2.0, 2.0, 1e-17)])
def test_G_where_D_rounds_to_zero_is_the_limit(k, m, p, y):
    # y below about eps m: D = p((k-1) y - m) + S rounds to 0, once a bare
    # ZeroDivisionError
    g, dg = _G_ref(k, m, p, y)
    assert bounds.G_k_m_p(k, m, p, y) == pytest.approx(float(g), rel=1e-14)
    assert bounds.G_k_m_p_deriv(k, m, p, y) == pytest.approx(float(dg), rel=1e-14)


def test_G_deriv_at_zero_is_inf_where_G_grows_like_sqrt_y():
    for k, p in [(4.0, 2.0), (8.0, 3.0), (4.0, 1.5)]:
        assert bounds.G_k_m_p_deriv(k, 0.0, p, 0.0) == math.inf


@pytest.mark.parametrize("k, m, p", [(4.0, 2.0, 2.0), (8.0, 3.0, 3.0), (4.0, 0.0, 2.0),
                                     (4.0, 5.0, 1.0), (8.0, 1e155, 2.0), (4.0, 1.0, 1e160)])
def test_G_arrays_match_the_scalar_loop(k, m, p):
    ys = [0.0, 1e-300, 1e-5, 0.37, 3.0, 29.9, 1e100, 1e154, 3e154, 1e200, 1e300]
    for f in (bounds.G_k_m_p, bounds.G_k_m_p_deriv):
        scalar = [f(k, m, p, y) for y in ys]
        assert all(type(v) is float for v in scalar)
        assert f(k, m, p, np.array(ys)).tolist() == scalar


def test_G_deriv_domain():
    with pytest.raises(DomainError):
        bounds.G_k_m_p_deriv(4.0, 2.0, 2.0, -1.0)


def test_jensen_regimes():
    lo, hi = bounds.jensen_bounds(2.0, 2.0, 1.0)
    v = eval_vmp(EvalParams(2.0, 2.0, 1.0)).value
    assert lo <= v <= hi
    # p > 1, m in (-1, 0): lower bound only
    lo, hi = bounds.jensen_bounds(-0.4, 2.0, 1.0)
    assert hi is None
    assert lo <= eval_vmp(EvalParams(-0.4, 2.0, 1.0)).value
    # 1/2 <= p < 1: reversed sandwich
    lo, hi = bounds.jensen_bounds(1.0, 0.75, 1.0)
    v = eval_vmp(EvalParams(1.0, 0.75, 1.0)).value
    assert lo <= v <= hi
    with pytest.raises(DomainError):
        bounds.jensen_bounds(-0.5, 0.75, 1.0)
    # 0 < p <= 1/2: lower only
    lo, hi = bounds.jensen_bounds(1.0, 0.4, 1.0)
    assert hi is None


def test_jensen_bounds_on_an_array_are_the_scalar_formula():
    # float_power is the C library's pow, as `**` on a float is: the same bits
    xs = [1e-3, 0.37, 1.0, 2.5, 29.9, 1e10]
    for m, p in [(2.0, 2.0), (-0.4, 2.0), (1.0, 0.75), (1.0, 0.4), (0.5, 3.0)]:
        lo, hi = bounds.jensen_bounds(m, p, np.array(xs))
        a_lo = m if 0.5 <= p < 1 else m + 1.0
        assert lo.tolist() == [(x ** p + a_lo) ** ((1.0 - p) / p) for x in xs]
        assert [bounds.jensen_bounds(m, p, x)[0] for x in xs] == lo.tolist()
        assert type(bounds.jensen_bounds(m, p, 1.0)[0]) is float
        if hi is not None:
            a_hi = m + 1.0 if 0.5 <= p < 1 else m
            assert hi.tolist() == [(x ** p + a_hi) ** ((1.0 - p) / p) for x in xs]


@pytest.mark.parametrize("x", [1e-8, np.array([2.0, 1e-8, 0.5])], ids=["float", "array"])
def test_jensen_lower_bound_past_the_double_range_is_convergence_error(x):
    # (x^p + m + 1)^((1-p)/p) overflows, and inf is no lower bound; V
    # overflows there too
    with pytest.raises(ConvergenceError, match="overflows a double"):
        bounds.jensen_bounds(1e8, 1e-3, x)
    with pytest.raises(ConvergenceError, match="overflows a double"):
        eval_vmp(EvalParams(1e8, 1e-3, 1e-8))


def test_boyd_brackets_v0_at_zero():
    for m in (1.0, 2.0, 10.0, 100.0):
        lo, hi = bounds.boyd_bounds(m)
        v = eval_vmp(EvalParams(m, 2.0, 0.0)).value
        assert lo < v < hi


def mascioni_upper_v0p(p: float, x: float) -> float:
    """Mascioni's upper bound for V_0^p(x), stated for p >= 2 and x > 0:
    4p/(3p x^(p-1) + sqrt(p^2 x^(2p-2) + 8p(p-1) x^(p-2)))."""
    return 4.0 * p / (3.0 * p * x ** (p - 1.0)
                      + math.sqrt(p * p * x ** (2.0 * p - 2.0)
                                  + 8.0 * p * (p - 1.0) * x ** (p - 2.0)))


def test_mascioni_upper_bound():
    for p in (2.0, 3.0, 5.0):
        for x in (0.5, 1.0, 5.0):
            v = eval_vmp(EvalParams(0.0, p, x)).value
            assert v <= mascioni_upper_v0p(p, x) + 1e-12


def test_ratio_basics():
    for m in (1.0, 5.0):
        for x in (0.3, 2.0):
            r = bounds.ratio(m, 2.0, x)
            assert 0.0 < r < 1.0


# ---------------------------------------------------------------- suites

def test_v0_suite_passes():
    rep = bounds.verify_v0_bounds()
    assert rep.passed
    assert rep.n_points == 201  # includes x = 0


def test_gk_optimality_witnesses():
    # k = 3.9 upper bound must fail somewhere, k = 3.3 lower fails at 0
    w = bounds.find_gk_violation(3.9, "upper")
    assert w is not None
    w0 = bounds.find_gk_violation(3.3, "lower")
    assert w0 == 0.0


def test_ratio_suite_passes():
    assert bounds.verify_ratio_bounds(10).passed


def test_convexity_violations_keep_their_order():
    # at p = 8, (1/V)'' from the chain's differences loses its sign at large x
    rep = bounds.verify_convexity_reciprocal(3, 8.0)
    assert rep.n_points == 120
    assert [(v["index"], v["kind"], v["m"], v["p"]) for v in rep.violations] == [
        (106, "exact", 3, 8.0), (114, "exact", 3, 8.0)]
    assert [v["x"] for v in rep.violations] == [10.393727852548412, 15.54890262961569]
    assert [v["margin"] for v in rep.violations] == pytest.approx(
        [-7143630.407093881, -123282876070.78426], rel=1e-6)
    assert rep.worst_margin == rep.violations[1]["margin"]


def test_monotone_and_convexity_suites():
    for m in (1, 5, 10):
        assert bounds.verify_ratio_monotone(m).passed
        assert bounds.verify_convexity_reciprocal(m, 2.0).passed


def test_jensen_suite_passes():
    for m, p in [(0.0, 2.0), (2.5, 3.0), (1.0, 0.75), (5.0, 0.5)]:
        assert bounds.verify_jensen(m, p).passed


def test_boyd_suite_passes():
    assert bounds.verify_boyd().passed


def test_r123_suite_and_crossovers():
    rep = bounds.verify_r123()
    assert rep.passed
    assert abs(bounds.crossover_x0() - 0.2511) < 1e-3
    assert abs(bounds.crossover_x1() - 1.399) < 1e-3


def test_h_functions_sandwich_v0():
    x0 = bounds.crossover_x0()
    for x in (x0 * 1.1, 0.5, 1.0, 3.0, 10.0):
        v0 = eval_vmp(EvalParams(0.0, 2.0, x), 1e-12).value
        assert v0 <= bounds.h1(x) + 1e-9
        h2v = bounds.h2(x)
        if h2v > 0:
            assert v0 >= h2v - 1e-9
        h3v = bounds.h3(x)
        if h3v > 0:
            assert v0 <= h3v + 1e-9


def test_convexity_criterion_poly_sign():
    # P(z) < 0 at z = R_m certifies convexity of 1/V_m at that point (p = 2)
    for m in (1.0, 4.0):
        for x in (0.5, 2.0):
            r = bounds.ratio(m, 2.0, x)
            assert bounds.convexity_criterion_poly(m, x, r) < 0


def test_report_json_shape():
    rep = bounds.verify_boyd()
    import json
    d = json.loads(rep.to_json())
    assert set(d) == {"name", "passed", "n_points", "worst_margin", "violations", "info"}


def _record_one(rep, ok, margin, **context):
    """The one-point rule, written out as the reference: count the point,
    keep the smallest margin (a NaN never compares smaller), and list the
    point if not ok."""
    rep.n_points += 1
    if margin < rep.worst_margin:
        rep.worst_margin = margin
    if not ok:
        rep.violations.append({"margin": margin, **context})


_MARGINS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.5, -2.0]),
                     st.floats(allow_nan=True))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(points=st.lists(st.tuples(st.booleans(), _MARGINS, st.floats(-1e3, 1e3)), max_size=12),
       cut=st.integers(0, 12))
def test_report_add_is_a_loop_of_one_point_records(points, cut):
    # ties, signed zeros, NaN and infinite margins, and failing points, one
    # by one and in two batches: the second meets the worst margin of the first
    looped, written_out, batched = (bounds.Report("t") for _ in range(3))
    for i, (ok, margin, x) in enumerate(points):
        looped.add([ok], [margin], index=i, x=x, kind="k")
        _record_one(written_out, ok, margin, index=i, x=x, kind="k")
    for part in (slice(0, cut), slice(cut, None)):
        index = np.arange(len(points))[part]
        ok, margin, x = (np.array([pt[j] for pt in points[part]]) for j in range(3))
        batched.add(ok, margin, index=index, x=x, kind="k")
    assert batched.to_json() == looped.to_json() == written_out.to_json()
