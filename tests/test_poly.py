"""Integer polynomials and the ordered field of rational functions."""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from ordalab.poly import (
    RF_ONE,
    RF_ZERO,
    RatFunc,
    X,
    poly,
    poly_add,
    poly_content,
    poly_div_exact,
    poly_gcd,
    poly_lead,
    poly_mul,
    poly_neg,
    poly_primitive,
    poly_scale,
    poly_str,
    poly_sub,
)

coeffs = st.lists(st.integers(min_value=-9, max_value=9), max_size=5)


def test_poly_normalizes_trailing_zeros():
    assert poly([1, 2, 0]) == (1, 2)
    assert poly([0, 0, 0]) == ()
    assert poly([]) == ()


def test_poly_degree_and_lead():
    assert poly_lead(poly([1, 2, 0])) == 2


@given(coeffs, coeffs)
def test_poly_add_matches_pointwise(a, b):
    pa, pb = poly(a), poly(b)
    s = poly_add(pa, pb)
    width = max(len(pa), len(pb), len(s))
    for i in range(width):
        ai = pa[i] if i < len(pa) else 0
        bi = pb[i] if i < len(pb) else 0
        si = s[i] if i < len(s) else 0
        assert si == ai + bi


@given(coeffs, coeffs)
def test_poly_sub_adds_negation(a, b):
    pa, pb = poly(a), poly(b)
    assert poly_sub(pa, pb) == poly_add(pa, poly_neg(pb))


@given(coeffs, coeffs, coeffs)
def test_poly_mul_ring_laws(a, b, c):
    pa, pb, pc = poly(a), poly(b), poly(c)
    assert poly_mul(pa, pb) == poly_mul(pb, pa)
    assert poly_mul(pa, poly_add(pb, pc)) == poly_add(
        poly_mul(pa, pb), poly_mul(pa, pc)
    )
    assert poly_mul(poly_mul(pa, pb), pc) == poly_mul(pa, poly_mul(pb, pc))


@given(coeffs)
def test_poly_scale(a):
    pa = poly(a)
    assert poly_scale(pa, 3) == poly_mul(pa, poly([3]))
    assert poly_scale(pa, 0) == ()


def test_poly_content_primitive():
    assert poly_content(poly([2, 4])) == 2
    assert poly_primitive(poly([2, 4])) == (1, 2)


def test_poly_gcd_pins():
    # X^2 - 1 and X - 1 share the factor X - 1
    assert poly_gcd(poly([-1, 0, 1]), poly([-1, 1])) == (-1, 1)


@given(coeffs, coeffs)
def test_poly_gcd_divides_both(a, b):
    pa, pb = poly(a), poly(b)
    g = poly_gcd(pa, pb)
    if g == ():
        assert pa == () and pb == ()
        return
    for p in (pa, pb):
        if p != ():
            q = poly_div_exact(p, g)
            assert poly_mul(q, g) == p


def test_poly_div_exact():
    assert poly_div_exact(poly([-1, 0, 1]), poly([-1, 1])) == (1, 1)
    with pytest.raises(ValueError):
        poly_div_exact(poly([1, 1]), poly([0, 1]))


def test_poly_str_pins():
    assert poly_str(poly([-1, 1])) == "X - 1"
    assert poly_str(poly([0, 0, 1])) == "X^2"
    assert poly_str(poly([2])) == "2"
    assert poly_str(poly([])) == "0"


def test_poly_rejects_non_integral_coefficients():
    with pytest.raises(ValueError, match="coefficient 0.5 is not an integer"):
        poly([1, 0.5])
    with pytest.raises(ValueError, match="coefficient 1/2 is not an integer"):
        RatFunc((F(1, 2),))
    with pytest.raises(ValueError, match="coefficient 1/2 is not an integer"):
        RatFunc((1,), (F(1, 2),))
    # integral values of other exact types are still accepted
    assert poly([F(2), 3.0, True]) == (2, 3, 1)


# ---------------------------------------------------------------------------
# rational functions


def test_ratfunc_normalizes():
    assert RatFunc((2,), (0, 2)) == RatFunc((1,), (0, 1))
    assert hash(RatFunc((2,), (0, 2))) == hash(RatFunc((1,), (0, 1)))
    with pytest.raises(ZeroDivisionError):
        RatFunc((1,), ())


def test_ratfunc_str_pins():
    r = RF_ONE / X
    assert str(r) == "1/X"
    assert str(r**3) == "1/X^3"
    assert str(RatFunc.from_fraction(F(-2, 3))) == "(-2)/3"
    assert str((RF_ONE / X) + (RF_ONE / (X * X))) == "(X + 1)/X^2"


rationals = st.fractions(min_value=F(-50), max_value=F(50), max_denominator=20)


def _rf(num_c, den_c):
    den = poly(den_c)
    if den == ():
        den = (1,)
    return RatFunc(poly(num_c), den)


ratfuncs = st.builds(_rf, coeffs, st.lists(st.integers(-9, 9), min_size=1, max_size=4))


@given(ratfuncs, ratfuncs, ratfuncs)
def test_ratfunc_field_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + RF_ZERO == a
    assert a * RF_ONE == a
    assert a + (-a) == RF_ZERO
    if a != RF_ZERO:
        assert a * (RF_ONE / a) == RF_ONE


@given(ratfuncs, ratfuncs)
def test_ratfunc_order_is_total_and_compatible(a, b):
    assert (a < b) + (a == b) + (b < a) == 1
    if a < b:
        assert a + RF_ONE < b + RF_ONE
        if RF_ZERO < X:
            assert a * X < b * X


@given(rationals)
def test_ratfunc_embeds_rationals_in_order(q):
    a = RatFunc.from_fraction(q)
    assert (a < RF_ZERO) == (q < 0)
    assert (a == RF_ZERO) == (q == 0)
    assert a.sign() == (0 if q == 0 else (1 if q > 0 else -1))


@given(st.fractions(min_value=F(1, 10**6), max_value=F(10**6), max_denominator=10**6))
def test_one_over_x_is_a_positive_infinitesimal(q):
    # strictly positive, yet below every positive rational
    r = RF_ONE / X
    assert RF_ZERO < r
    assert r < RatFunc.from_fraction(q)


@given(st.integers(min_value=1, max_value=10**6))
def test_no_repeated_sum_of_infinitesimal_reaches_one(n):
    r = RF_ONE / X
    total = RatFunc.from_fraction(F(n)) * r
    assert total < RF_ONE


def test_x_dominates_every_rational():
    assert X > RatFunc.from_fraction(F(10**9))
    assert RF_ONE / X < RatFunc.from_fraction(F(1, 10**9))
