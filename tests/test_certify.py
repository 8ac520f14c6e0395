"""The B-multiplied derivative step and the positivity certification chains."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regpot import _reference as ref
from regpot.certify import (ALL_CHAINS, PositivityCertificate, _square_guard, b_step,
                            build_chain_k4_p2, build_chain_k8_p2,
                            build_chain_p3_k4, certificate_json,
                            numeric_lemma_sweep, optimality_factor_generic_k,
                            positivity_for_m_ge, run_chain)
from regpot.errors import ChainMismatchError, DomainError
from regpot.ratpoly import RatPoly

VARS = ("y", "m")
# L'(0) of the k = 8 chain, m-exponent -> coefficient: 192 m^2 (m - 4)(1 + 2m)
# (480 + 64m + 90m^2 + 33m^3) expanded
K8_LPRIME0 = {2: -368640, 3: -694272, 4: 29184, 5: -121728, 6: -9792, 7: 12672}
Q = RatPoly(VARS, {(2, 0): 1, (1, 1): 2, (0, 2): 1, (1, 0): 4})  # (y+m)^2+4y


@st.composite
def small_polys(draw):
    coeffs = {}
    for _ in range(draw(st.integers(0, 4))):
        e = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        coeffs[e] = coeffs.get(e, 0) + draw(st.integers(-5, 5))
    return RatPoly(VARS, coeffs)


def part_value(a, b, **values) -> float:
    """a + b B as a float, with B = +sqrt(q) (q >= 0 at the point)."""
    return (float(a.eval(**values))
            + float(b.eval(**values)) * math.sqrt(float(Q.eval(**values))))


@given(small_polys(), small_polys())
@settings(max_examples=30, deadline=None)
def test_derivative_step_is_a_derivative(a, b):
    # B * d/dy(a + b B) evaluated numerically must match a finite difference
    # of the value of a + b B times sqrt(q)
    y0, m0 = 0.7, 2.0
    stepped = b_step(a, b, Q)
    qv = float(Q.eval(y=Fraction(7, 10), m=2))
    got = part_value(*stepped, y=Fraction(7, 10), m=2) / math.sqrt(qv)
    h = 1e-6

    def val(yv):
        fy = Fraction(yv).limit_denominator(10 ** 12)
        return part_value(a, b, y=fy, m=2)

    fd = (val(y0 + h) - val(y0 - h)) / (2 * h)
    assert got == pytest.approx(fd, rel=1e-5, abs=1e-5)


# ---------------------------------------------------------------- certificates

def test_positivity_shift_examples():
    m_minus_4 = RatPoly(VARS, {(0, 1): 1, (0, 0): -4})
    assert positivity_for_m_ge(m_minus_4, 4).passed
    cert = positivity_for_m_ge(m_minus_4, 0)
    assert cert.status == "sign_indefinite"
    assert cert.witness == (0, 0)


def test_chain_k4_matches_references():
    res = build_chain_k4_p2()
    assert res.certificate.passed
    assert res.polys["L"].coeff((8, 0)) == 4 * 101250
    assert res.polys["L"].coeff((0, 2)) == 4 * 14400
    assert res.polys["f1"] == RatPoly(VARS, ref.K4_F1)
    assert res.polys["l2"] == RatPoly(VARS, ref.K4_L2)
    assert res.steps == ["B", "B", "B", "B"]


def test_chain_k8_boundary():
    res = build_chain_k8_p2()
    assert res.certificate.passed and res.certificate.m_low == 4
    lp = res.polys["Lprime"].subs("y", 0)
    assert lp.eval(y=0, m=4) == 0
    assert lp.eval(y=0, m=5) > 0
    for mm in (1, 2, 3):
        assert lp.eval(y=0, m=mm) < 0
    assert lp == RatPoly(VARS, {(0, e): c for e, c in K8_LPRIME0.items()})


def test_generic_k_factor():
    factor = optimality_factor_generic_k()
    assert factor.eval(y=0, m=2, k=12) == 0
    assert factor.eval(y=0, m=4, k=8) == 0
    # km - 6m - k = -6 for m = 1, so no k rescues m = 1 (R_1 needs direct proof)
    for k in (8, 20, 100):
        assert factor.eval(y=0, m=1, k=k) < 0
    assert factor.eval(y=0, m=2, k=16) > 0


def test_chain_p3_anchors():
    res = build_chain_p3_k4()
    assert res.certificate.passed and res.certificate.m_low == 1
    assert res.polys["l1"].coeff((4, 0)) == 3 * 16875
    assert res.polys["l2"].coeff((5, 0)) == 27 * 5625
    assert res.polys["l1"].coeff((0, 0)) == 3 * 5120


def test_run_chain_dispatch_and_json():
    for name in ALL_CHAINS:
        res = run_chain(name)
        d = json.loads(certificate_json(res))
        assert d["chain"] == name
        assert set(d) >= {"chain", "q", "steps", "polys", "anchors"}
    with pytest.raises(DomainError):
        run_chain("bogus")


def test_square_guard_certifies_both_radicands():
    for build in (build_chain_k4_p2, build_chain_k8_p2, build_chain_p3_k4):
        guard = build().notes["square_guard"]
        assert set(guard) == {"q", "r"}
        for cert in guard.values():
            assert cert["status"] == "all_coeffs_nonneg" and cert["m_low"] == 1
    # (y + m - 3)^2 + 4y is nonnegative, but its shift to m >= 1 has the
    # negative coefficient -4 of m: not certified, so the guard refuses it
    y, m = RatPoly.var(VARS, "y"), RatPoly.var(VARS, "m")
    with pytest.raises(ChainMismatchError, match="radicand r"):
        _square_guard(Q, (y + m - 3) ** 2 + 4 * y, "shifted_r")


def test_chain_mismatch_detection(monkeypatch):
    tampered = dict(ref.K4_F1)
    tampered[(0, 3)] = 3  # flip one printed coefficient
    monkeypatch.setattr(ref, "K4_F1", tampered)
    with pytest.raises(ChainMismatchError) as exc:
        build_chain_k4_p2()
    assert exc.value.name == "f1"


# ---------------------------------------------------------------- numeric sweep

def test_sweep_k4_all_nonnegative():
    grid = [0.05 * i for i in range(1, 401)]
    rep = numeric_lemma_sweep(4.0, 2.0, [1, 2, 3, 5, 10], grid)
    assert rep["orientation"] == "upper"
    assert rep["all_nonnegative"]


def test_sweep_k8_boundary_at_m4():
    grid = [0.05 * i for i in range(1, 401)]
    rep = numeric_lemma_sweep(8.0, 2.0, [1, 2, 3, 4, 5], grid)
    assert rep["orientation"] == "lower"
    for m in (1, 2, 3):
        assert not rep["per_m"][m]["ok"]
    for m in (4, 5):
        assert rep["per_m"][m]["ok"]


def test_sweep_guards():
    with pytest.raises(DomainError):
        numeric_lemma_sweep(4.0, 2.0, [0], [1.0])
    with pytest.raises(DomainError):
        numeric_lemma_sweep(4.0, 2.0, [1], [])
    with pytest.raises(DomainError):
        numeric_lemma_sweep(4.0, 2.0, [1], [1.0], orientation="sideways")
