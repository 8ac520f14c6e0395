"""Ring-law and calculus properties of RatPoly, and its agreement with the
schoolbook exponent-tuple dict arithmetic of `oracles`."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import poly_add, poly_diff, poly_eval, poly_mul, poly_pow, poly_subs
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


def test_eval_with_floats_rounds_each_coefficient():
    # over the common denominator 10^400 the numerators pass the double range
    p = RatPoly(VARS, {(0, 0): Fraction(1, 10 ** 400), (1, 0): 1})
    assert p.eval(y=1.0, m=1.0) == 1.0
    assert p.eval(y=0.0, m=0.0) == 1e-400


def test_degree_and_coeff_queries():
    p = RatPoly(VARS, {(2, 1): 5, (0, 3): -1})
    assert p.degree("y") == 2
    assert p.degree("m") == 3
    assert max(sum(e) for e in p.coeffs) == 3  # total degree
    assert p.coeff((2, 1)) == 5
    assert p.coeff((1, 1)) == 0
    for bad in ((1,), (0, 2 ** 32), (0, -1), (2, 1, 0)):  # no alias of another term
        with pytest.raises(ValueError):
            p.coeff(bad)
    assert p.min_coeff() == -1


def test_pretty_and_json_stable():
    p = RatPoly(VARS, {(1, 0): 1, (0, 0): -2})
    assert p.pretty() == "-2 + y"
    assert p.to_json() == p.to_json()
    d = p.to_json_dict()
    assert d["vars"] == ["y", "m"]
    assert d["terms"]["1,0"] == ["1", "1"]


# ---------------------------------------------------------------- oracle

@st.composite
def oracle_pairs(draw):
    """(names, a, b): two polynomials in 2 or 3 variables as exponent-tuple
    dicts, coefficients over mixed denominators; half the time b holds a's
    terms negated, so that a + b cancels them."""
    n = draw(st.sampled_from((2, 3)))

    def one():
        d = {}
        for _ in range(draw(st.integers(0, 5))):
            e = tuple(draw(st.integers(0, 3)) for _ in range(n))
            d[e] = d.get(e, 0) + Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 12)))
        return {e: c for e, c in d.items() if c}

    a, b = one(), one()
    if draw(st.booleans()):
        b = poly_add(b, a, -1)
    return ("y", "m", "k")[:n], a, b


@given(oracle_pairs())
@settings(max_examples=60, deadline=None)
def test_ring_ops_match_oracle(pair):
    names, a, b = pair
    A, B = RatPoly(names, a), RatPoly(names, b)
    assert dict(A.coeffs) == a
    assert dict((A + B).coeffs) == poly_add(a, b)
    assert dict((A - B).coeffs) == poly_add(a, b, -1)
    assert dict((-A).coeffs) == poly_add({}, a, -1)
    assert dict((A * B).coeffs) == poly_mul(a, b)
    assert dict((A ** 3).coeffs) == poly_pow(a, 3, len(names))
    total = RatPoly(names, poly_add(a, b))
    assert A + B == total and hash(A + B) == hash(total)


@given(oracle_pairs(), st.integers(0, 2),
       st.fractions(min_value=-3, max_value=3, max_denominator=7),
       st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=7),
                min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_calculus_matches_oracle(pair, i, c, values):
    names, a, b = pair
    n, i = len(names), i % len(names)
    A, B = RatPoly(names, a), RatPoly(names, b)
    const = {(0,) * n: c} if c else {}
    var_plus_c = poly_add({tuple(int(j == i) for j in range(n)): Fraction(1)}, const)
    assert dict(A.diff(names[i]).coeffs) == poly_diff(a, i)
    assert dict(A.subs(names[i], B).coeffs) == poly_subs(a, i, b, n)
    assert dict(A.subs(names[i], c).coeffs) == poly_subs(a, i, const, n)
    assert dict(A.shift(names[i], c).coeffs) == poly_subs(a, i, var_plus_c, n)
    got = A.eval(**dict(zip(names, values)))
    assert isinstance(got, Fraction) and got == poly_eval(a, values[:n])
    scale = poly_eval({e: abs(c) for e, c in a.items()}, [abs(v) for v in values[:n]])
    got = A.eval(**{name: float(v) for name, v in zip(names, values)})
    assert abs(got - float(poly_eval(a, values[:n]))) <= 1e-13 * (1 + scale)


def test_exponent_overflow_is_value_error():
    y = RatPoly.var(VARS, "y")
    with pytest.raises(ValueError):
        y ** (2 ** 40)
    with pytest.raises(ValueError):
        RatPoly(VARS, {(2 ** 31, 0): 1})
    half = y ** (2 ** 30)  # each factor is in range, their product is not
    with pytest.raises(ValueError):
        half * half
    assert (half * y).degree("y") == 2 ** 30 + 1 and (half * y).degree("m") == 0


def test_coeffs_view_is_read_only():
    p = RatPoly(VARS, {(1, 0): Fraction(1, 2), (0, 0): -2})
    view = p.coeffs
    with pytest.raises(TypeError):
        view[(0, 0)] = 5
    copy = dict(view)
    copy[(1, 0)] = 7
    assert p == RatPoly(VARS, {(1, 0): Fraction(1, 2), (0, 0): -2})
    assert dict(p.coeffs) == {(1, 0): Fraction(1, 2), (0, 0): Fraction(-2)}
