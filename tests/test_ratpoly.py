"""Ring-law and calculus properties of RatPoly."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regpot.ratpoly import RatPoly

VARS = ("y", "m")


@st.composite
def ratpolys(draw, max_terms=5, max_exp=3, max_coeff=9):
    n = draw(st.integers(0, max_terms))
    coeffs = {}
    for _ in range(n):
        e = (draw(st.integers(0, max_exp)), draw(st.integers(0, max_exp)))
        num = draw(st.integers(-max_coeff, max_coeff))
        den = draw(st.integers(1, 4))
        coeffs[e] = coeffs.get(e, Fraction(0)) + Fraction(num, den)
    return RatPoly(VARS, coeffs)


@given(ratpolys(), ratpolys(), ratpolys())
@settings(max_examples=100, deadline=None)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + RatPoly(VARS) == a
    assert a * RatPoly.constant(VARS, 1) == a
    assert a - a == RatPoly(VARS)
    assert (a * 3) / 3 == a and a / Fraction(2, 5) == a * Fraction(5, 2)


@given(ratpolys(), ratpolys())
@settings(max_examples=60, deadline=None)
def test_diff_product_rule(a, b):
    lhs = (a * b).diff("y")
    rhs = a.diff("y") * b + a * b.diff("y")
    assert lhs == rhs


@given(ratpolys())
@settings(max_examples=60, deadline=None)
def test_shift_inverse(a):
    assert a.shift("m", 3).shift("m", -3) == a


@given(ratpolys(), st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=60, deadline=None)
def test_subs_matches_eval(a, yv, mv):
    # substituting a constant then evaluating the rest equals direct eval
    partial = a.subs("y", yv)
    assert partial.eval(y=0, m=mv) == a.eval(y=yv, m=mv)


@given(ratpolys(), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_pow_is_repeated_mul(a, n):
    expected = RatPoly.constant(VARS, 1)
    for _ in range(n):
        expected = expected * a
    assert a ** n == expected


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        RatPoly(VARS, {(1,): 1})
    with pytest.raises(ValueError):
        RatPoly(VARS, {(-1, 0): 1})
    with pytest.raises(TypeError):
        RatPoly(VARS, {(0, 0): 0.5})


def test_eval_is_exact():
    p = RatPoly(VARS, {(2, 1): Fraction(1, 3), (0, 0): 2})
    assert p.eval(y=Fraction(3), m=Fraction(1, 2)) == Fraction(3, 2) + 2


def test_degree_and_coeff_queries():
    p = RatPoly(VARS, {(2, 1): 5, (0, 3): -1})
    assert p.degree("y") == 2
    assert p.degree("m") == 3
    assert max(sum(e) for e in p.coeffs) == 3  # total degree
    assert p.coeff((2, 1)) == 5
    assert p.coeff((1, 1)) == 0
    assert p.min_coeff() == -1


def test_pretty_and_json_stable():
    p = RatPoly(VARS, {(1, 0): 1, (0, 0): -2})
    assert p.pretty() == "-2 + y"
    assert p.to_json() == p.to_json()
    d = p.to_json_dict()
    assert d["vars"] == ["y", "m"]
    assert d["terms"]["1,0"] == ["1", "1"]
