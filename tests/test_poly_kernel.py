"""The integer polynomial kernel against the slow Fraction-Euclid oracle.

``poly_gcd``, ``poly_div_exact`` and the ``RatFunc`` constructor must give
the very tuples the oracle gives, on dense and on sparse high-degree inputs;
products by a monomial (a shift and a scale), and powers of and division
by one, must give the schoolbook's; every fast path of ``RatFunc`` must
agree with the general path it skips, and every arithmetic result with
the oracle's canonical form of the schoolbook pair.
"""

import operator
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, strategies as st

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
    poly_pow,
    poly_sub,
)
from poly_oracle import (
    oracle_canonical,
    oracle_div_exact,
    oracle_gcd,
    oracle_mul,
    oracle_pow,
)

small = st.integers(min_value=-12, max_value=12)
dense = st.lists(small, min_size=1, max_size=9).map(poly).filter(bool)
nonzero = small.filter(bool)


def _binomial(a, m, b, k):
    cs = [0] * (max(m, k) + 1)
    cs[m] += a
    cs[k] += b
    return poly(cs)


def sparse_polys(top):
    """Sparse inputs up to degree about top: binomials, and dense blocks
    shifted by a power of X (monomials among them).  Sparse polynomials with
    more terms make the Fraction oracle's coefficients explode; it then
    takes minutes."""
    exponents = st.integers(min_value=0, max_value=top)
    return st.one_of(
        st.builds(_binomial, nonzero, exponents, nonzero, exponents).filter(bool),
        st.builds(lambda v, d: (0,) * min(v, top + 1 - len(d)) + d, exponents, dense),
    )


polys = st.one_of(dense, sparse_polys(256))


@st.composite
def sharing_pairs(draw, factors=polys):
    """Two polynomials with a common factor drawn from factors, so gcds are
    not all 1."""
    g = draw(factors)
    return poly_mul(g, draw(dense)), poly_mul(g, draw(dense))


pairs = st.one_of(st.tuples(polys, polys), sharing_pairs())


@given(pairs)
def test_gcd_matches_oracle(pq):
    p, q = pq
    assert poly_gcd(p, q) == oracle_gcd(p, q)
    assert poly_gcd(p, ()) == oracle_gcd(p, ())
    assert poly_gcd((), q) == oracle_gcd((), q)


@given(pairs)
def test_gcd_is_primitive_with_positive_lead(pq):
    g = poly_gcd(*pq)
    assert poly_content(g) == 1
    assert poly_lead(g) > 0


def _outcome(f, p, q):
    try:
        return f(p, q)
    except ValueError as exc:
        return ("ValueError", str(exc))


@given(pairs)
def test_div_exact_matches_oracle(pq):
    p, q = pq
    # an exact quotient, then whatever p / q is: a quotient or the same error
    assert poly_div_exact(poly_mul(p, q), q) == oracle_div_exact(poly_mul(p, q), q) == p
    assert _outcome(poly_div_exact, p, q) == _outcome(oracle_div_exact, p, q)


def test_div_exact_refusals():
    with pytest.raises(ValueError, match="not exact"):
        poly_div_exact(poly([1, 1]), poly([0, 1]))
    with pytest.raises(ValueError, match="not exact"):
        poly_div_exact(poly([0, 1]), poly([0, 0, 1]))
    with pytest.raises(ValueError, match="not integral"):
        poly_div_exact(poly([2, 1]), poly([2]))
    with pytest.raises(ValueError, match="not integral"):
        poly_div_exact(poly([2, 2]), poly([4, 4]))
    with pytest.raises(ValueError, match="not exact"):
        poly_div_exact(poly([1, 0, 1]), poly([1, 2]))  # (X^2+1)/(2X+1) leaves 5/4
    assert poly_div_exact((), poly([3, 1])) == ()


# ---------------------------------------------------------------------------
# monomials c X^k: a product shifts and scales; a power squares through such
# products, and a division is the long division with a one-term divisor

coefficients = st.one_of(nonzero, st.integers(min_value=-(10**30), max_value=10**30).filter(bool))


def _monomial(c, k):
    return (0,) * k + (c,)


def monomials(top):
    """c X^k for k up to top, constants (k = 0) among them."""
    return st.builds(_monomial, coefficients, st.one_of(st.just(0), st.integers(0, top)))


@given(monomials(512), st.one_of(dense, monomials(512), sparse_polys(512), st.just(())))
def test_monomial_products_match_the_schoolbook(m, p):
    assert poly_mul(m, p) == oracle_mul(m, p)
    assert poly_mul(p, m) == oracle_mul(p, m)


@given(monomials(16), st.integers(min_value=0, max_value=64))
def test_monomial_powers_match_repeated_products(m, n):
    for c in (m, poly_neg(m)):
        assert poly_pow(c, n) == oracle_pow(c, n)


@st.composite
def monomial_dividends(draw):
    """A monomial divisor c X^v and dividends: exact multiples of it, and
    polynomials whose valuation may fall short of v or whose coefficients c
    need not divide."""
    c, v = draw(st.integers(min_value=-6, max_value=6).filter(bool)), draw(st.integers(0, 512))
    q = _monomial(c, v)
    multiple = poly_mul(q, draw(st.one_of(dense, sparse_polys(64))))
    shifted = (0,) * draw(st.integers(0, v + 2)) + draw(dense)
    return q, (multiple, shifted, draw(polys))


@given(monomial_dividends())
def test_division_by_a_monomial_matches_the_oracle(case):
    q, dividends = case
    for p in dividends:
        assert _outcome(poly_div_exact, p, q) == _outcome(oracle_div_exact, p, q)
    assert poly_div_exact(dividends[0], q) == oracle_div_exact(dividends[0], q)


def test_division_by_a_monomial_refusals():
    with pytest.raises(ValueError, match="^polynomial division is not exact$"):
        poly_div_exact(poly([0, 3, 6]), poly([0, 0, 3]))  # (3X + 6X^2) / 3X^2
    with pytest.raises(ValueError, match="^polynomial quotient is not integral$"):
        poly_div_exact(poly([0, 0, 3, 5]), poly([0, 0, 3]))  # (3X^2 + 5X^3) / 3X^2
    assert poly_div_exact(poly([0, 0, 3, -6]), poly([0, 0, -3])) == (-1, 2)
    assert poly_div_exact(poly([0, 4]), poly([4])) == (0, 1)


@given(pairs, st.integers(min_value=-6, max_value=6).filter(bool))
def test_ratfunc_canonical_matches_oracle(pq, c):
    num, den = pq
    for n, d in ((num, den), (poly_mul(num, (c,)), den), (num, poly_mul(den, (c,)))):
        r = RatFunc(n, d)
        assert (r.num, r.den) == oracle_canonical(n, d)


def test_high_degree_monomial_pin():
    r = RF_ONE / X**4096
    assert r.num == (1,)
    assert r.den == (0,) * 4096 + (1,)
    assert (r.num, r.den) == oracle_canonical((1,), (0,) * 4096 + (1,))


# ---------------------------------------------------------------------------
# fast paths against the general path

ratfuncs = st.builds(RatFunc, polys, polys)
values = st.one_of(ratfuncs, st.just(RF_ZERO), st.builds(RatFunc, dense, st.just((1,))))


def _full_sum(a, b):
    return RatFunc(
        poly_add(oracle_mul(a.num, b.den), oracle_mul(b.num, a.den)), oracle_mul(a.den, b.den)
    )


def _full_cmp_sign(a, b):
    lead = poly_lead(poly_sub(oracle_mul(a.num, b.den), oracle_mul(b.num, a.den)))
    return (lead > 0) - (lead < 0)


@given(values)
def test_negation_skips_canonicalization_safely(x):
    full = RatFunc(poly_neg(x.num), x.den)
    neg = -x
    assert (neg.num, neg.den) == (full.num, full.den)


@given(values)
def test_adding_zero_returns_the_other_operand(x):
    full = _full_sum(x, RF_ZERO)
    for s in (x + RF_ZERO, RF_ZERO + x, x + 0, 0 + x, x - 0, x - RF_ZERO):
        assert (s.num, s.den) == (full.num, full.den)
    neg = 0 - x
    assert (neg.num, neg.den) == oracle_canonical(poly_neg(x.num), x.den)


@given(values, values)
def test_cmp_sign_matches_cross_product(a, b):
    assert a._cmp_sign(b) == _full_cmp_sign(a, b)
    assert b._cmp_sign(a) == _full_cmp_sign(b, a)


@given(ratfuncs, dense, st.integers(min_value=0, max_value=3))
def test_cmp_sign_when_degrees_tie(a, low, shift):
    # b = a + low / (a.den * X^m) with m > deg(low) differs from a below the
    # leading term, so the cross products tie in degree and leading coefficient
    m = len(low) + shift
    b = a + RatFunc(low, poly_mul(a.den, (0,) * m + (1,)))
    assume(len(a.num) + len(b.den) == len(b.num) + len(a.den))
    assert a._cmp_sign(b) == _full_cmp_sign(a, b)
    assert b._cmp_sign(a) == _full_cmp_sign(b, a)
    assert a._cmp_sign(a) == 0
    assert a._cmp_sign(RatFunc(a.num, a.den)) == 0


def test_cmp_sign_pins():
    half = RatFunc.from_fraction(F(1, 2))
    assert (RF_ONE / X)._cmp_sign(half) == -1  # degrees differ
    assert (X + 1)._cmp_sign(X + 2) == -1  # degrees and leads tie
    assert (X + 2)._cmp_sign(X + 1) == 1
    assert (2 * X)._cmp_sign(X + 5) == 1  # degrees tie, leads differ
    assert RF_ZERO._cmp_sign(RF_ZERO) == 0
    assert RF_ZERO._cmp_sign(-X) == 1


def test_compares_coerce_ints_and_fractions_and_refuse_anything_else():
    assert RF_ONE._cmp_sign(1) == 0 and (RF_ONE / X)._cmp_sign(F(1, 2)) == -1
    assert RF_ONE._cmp_sign("1") is None and RF_ONE._cmp_sign(1.0) is None
    assert RF_ONE < 2 and RF_ONE <= F(1) and X > 5 and -X >= F(-7, 2) - X
    assert 2 > RF_ONE and F(1, 2) < RF_ONE and 0 <= RF_ONE / X
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(RF_ONE, "1")
        with pytest.raises(TypeError):
            compare(1.5, X)


# ---------------------------------------------------------------------------
# arithmetic against the schoolbook pair, canonicalized by the oracle

small_dense = st.lists(small, min_size=1, max_size=4).map(poly).filter(bool)
contents = st.sampled_from((1, 2, 6, -3))
# A sum or product doubles the degree, and the oracle's Euclid over Fraction
# coefficients on the doubled degree of a shared factor near 256 took the
# test up to a minute a run; with shared factors up to degree 24 it stays
# near a second.
low_polys = st.one_of(dense, sparse_polys(24))


@st.composite
def operand_pairs(draw):
    """Two quotients whose denominators are equal, divide one another, share
    a factor or are coprime, with contents that often share a factor too;
    for any of these four kinds, the second may be chosen so that their sum
    cancels.  The second may also be zero, the negation of the first, or
    have a numerator that shares the first's denominator."""
    kinds = ("equal", "divides", "shares", "coprime", "zero", "negated", "crossed")
    kind = draw(st.sampled_from(kinds))
    if kind == "equal":
        b = d = draw(dense)
    elif kind == "divides":
        b = draw(dense)
        d = poly_mul(b, draw(small_dense))
    elif kind == "shares":
        b, d = draw(sharing_pairs(low_polys))
    else:
        b, d = draw(dense), draw(dense)
    k = draw(contents)
    b, d = poly_mul(b, (k * draw(contents),)), poly_mul(d, (k * draw(contents),))
    x = RatFunc(draw(dense), b)
    if kind == "zero":
        return x, RF_ZERO
    if kind == "negated":
        return x, -x
    if kind == "crossed":
        return x, RatFunc(poly_mul(b, draw(small_dense)), d)
    y = RatFunc(draw(dense), d)
    return (x, y - x) if draw(st.booleans()) else (x, y)


def _assert_canonical_result(r, school):
    assert (r.num, r.den) == oracle_canonical(*school)
    again = RatFunc(r.num, r.den)
    assert (again.num, again.den) == (r.num, r.den)
    assert r.den[-1] > 0


OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _schoolbook(x, y):
    a, b, c, d = x.num, x.den, y.num, y.den
    pairs = {
        "+": (poly_add(oracle_mul(a, d), oracle_mul(c, b)), oracle_mul(b, d)),
        "-": (poly_sub(oracle_mul(a, d), oracle_mul(c, b)), oracle_mul(b, d)),
        "*": (oracle_mul(a, c), oracle_mul(b, d)),
    }
    if c:
        pairs["/"] = (oracle_mul(a, d), oracle_mul(b, c))
    return pairs


@given(operand_pairs())
def test_arithmetic_matches_the_schoolbook_pair(xy):
    x, y = xy
    for u, v in ((x, y), (y, x)):
        for op, school in _schoolbook(u, v).items():
            _assert_canonical_result(OPERATORS[op](u, v), school)
    # x + (y - x) = y adds over denominators that share x's, and must cancel
    # what y's own denominator lacks
    w = y - x
    _assert_canonical_result(x + w, _schoolbook(x, w)["+"])
    assert x - x == RF_ZERO and x + (-x) == RF_ZERO


@given(st.one_of(st.just(RF_ZERO), st.builds(RatFunc, small_dense, small_dense)),
       st.integers(min_value=0, max_value=6))
def test_powers_match_the_schoolbook_pair(x, n):
    _assert_canonical_result(x**n, (oracle_pow(x.num, n), oracle_pow(x.den, n)))


def _partial_sums(c, b, signs):
    """The running sums of sign_k c / (X + b)^k, with the pair each sum
    makes from the last one and its term by schoolbook products.  The
    denominators share (X + b)^(k-1), which stands to different powers on
    the two sides and so never cancels."""
    total = RF_ZERO
    for k, sign in enumerate(signs, start=1):
        term = RatFunc.from_fraction(sign * c) / RatFunc((b, 1)) ** k
        school = _schoolbook(total, term)["+"]
        total = total + term
        yield total, school


@given(st.fractions(min_value=-8, max_value=8, max_denominator=12).filter(bool),
       small, st.lists(st.sampled_from((1, -1)), min_size=1, max_size=10))
def test_partial_sums_of_c_over_a_power_of_x_plus_b_match_the_schoolbook_pair(c, b, signs):
    for total, school in _partial_sums(c, b, signs):
        _assert_canonical_result(total, school)


@st.composite
def cancelling_sums(draw):
    """x = a / (h^m k u) and y = z - x for z = s / (h^p v): x + y is z, so
    the sum cancels k, which both denominators hold once, while h stands
    to different powers on the two sides when p > m."""
    h, k, u, v = (draw(small_dense) for _ in range(4))
    m, p = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    x = RatFunc(draw(small_dense), poly_mul(poly_mul(poly_pow(h, m), k), u))
    z = RatFunc(draw(small_dense), poly_mul(poly_pow(h, p), poly_mul(v, (draw(contents),))))
    return x, z - x, z


@given(cancelling_sums())
def test_sums_that_cancel_part_of_a_shared_factor_match_the_schoolbook_pair(xyz):
    x, y, z = xyz
    for u, v in ((x, y), (y, x)):
        _assert_canonical_result(u + v, _schoolbook(u, v)["+"])
        assert u + v == z


def test_henrici_sum_pins():
    x2x1 = RatFunc((1,), (0, 0, 1, 1))  # 1/(X^2 (X+1))
    # X stands squared on one side and once on the other; X + 1 cancels
    r = x2x1 + RatFunc((1,), (0, 1, 1))
    assert (r.num, r.den) == ((1,), (0, 0, 1))
    r = RatFunc((1,), (-1, 0, 1)) + RatFunc((0, 1), (-1, 0, 1))  # (1 + X)/(X^2 - 1)
    assert (r.num, r.den) == ((1,), (-1, 1))
    r = RatFunc((1,), (0, 2)) + RatFunc((1,), (0, 2))  # equal denominators, a content cancels
    assert (r.num, r.den) == ((1,), (0, 1))
    # X + 1 stands squared on one side and once on the other; the content 2 cancels
    r = RatFunc((1, 3), (2, 4, 2)) + RatFunc((1,), (2, 2))
    assert (r.num, r.den) == ((1, 2), (1, 2, 1))
    assert x2x1 + -x2x1 == RF_ZERO and (x2x1 + -x2x1).den == (1,)


def test_arithmetic_pins():
    quarter = RatFunc((1,), (4,))
    r = RatFunc((1,), (2, 2)) + quarter  # contents share 2, primitive parts are coprime
    assert (r.num, r.den) == ((3, 1), (4, 4))
    r = RatFunc((1,), (-1, 1)) - RatFunc((2,), (-1, 0, 1))  # the sum cancels X - 1
    assert (r.num, r.den) == ((1,), (1, 1))
    r = RatFunc((1,), (2, 2)) * RatFunc((2,), (0, 1))  # a constant cancels a content
    assert (r.num, r.den) == ((1,), (0, 1, 1))
    r = X / (-X - 1)  # a divisor whose numerator leads negative
    assert (r.num, r.den) == ((0, -1), (1, 1))
    r = quarter / RatFunc((-2,), (3,))
    assert (r.num, r.den) == ((-3,), (8,))
    assert RF_ZERO**0 == RF_ONE and RF_ZERO**3 == RF_ZERO and (RF_ZERO / X) == RF_ZERO
    assert (X * RF_ZERO).den == (1,)


def test_constant_quotients_hash_as_the_numbers_they_equal():
    half = RatFunc.from_fraction(F(1, 2))
    for r, q in ((RF_ONE, 1), (RF_ZERO, 0), (half, F(1, 2)), (RatFunc((-6,), (4,)), F(-3, 2))):
        assert r == q and hash(r) == hash(q)
    assert len({RatFunc((1,)), 1}) == 1
    assert len({half, F(1, 2), RatFunc((2,), (4,))}) == 1
    assert hash(X) == hash(RatFunc((0, 1)))
