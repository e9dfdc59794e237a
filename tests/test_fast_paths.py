"""Differential tests: each fast path against the slow path it replaces.

* ``StructureHandle.lt/le/eq`` on a handle that compares with
  ``total_compare`` use Python's comparisons; the reference is the handle's
  four-valued ``compare``.
* ``Z(X)`` and ``lex`` compare with ``total_compare``, join with ``max``,
  and ``Z(X)`` inverts with ``Q``'s inverse; the references are the
  closures these replaced, kept in ``tests/order_oracle.py``.
* ``FinDimAlgebra.multiply`` over Fractions accumulates integers over one
  denominator; the reference is the same table over a copy of ``Q`` whose
  compare is a wrapper, which sends products through the handle.
* ``verify_pseudonorm`` computes each sample norm once; the reference is
  the old loop in ``tests/pseudonorm_oracle.py``.
"""

from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from ordalab import (
    OrderResult,
    PseudonormedRing,
    albert_pseudonorm,
    coefficient_pseudonorm,
    load_algebra_table,
    lookup,
    registry,
    shipped_algebras,
    total_compare,
    verify_pseudonorm,
)
from ordalab.poly import RatFunc, poly_scale
from order_oracle import (
    lex_compare,
    lex_join,
    ratfunc_compare,
    ratfunc_invert,
    ratfunc_join,
)
from pseudonorm_oracle import verify_pseudonorm_reference
from test_poly import ratfuncs

DIRECT_KEYS = ("Q", "Z", "Z[1/2]", "Z[1/3]", "Z(X)", "lex")


def generic_copy(handle):
    """handle with a compare that is not total_compare itself, so its
    shorthands take the OrderResult path."""
    return replace(handle, compare=lambda a, b: total_compare(a, b))


# -- comparisons --------------------------------------------------------

small_fractions = st.fractions(min_value=-40, max_value=40, max_denominator=30)
lex_pairs = st.tuples(st.integers(-3, 3), small_fractions)


def operands(key):
    if key == "Z(X)":
        return ratfuncs
    if key == "lex":
        return lex_pairs
    ints = st.integers(-40, 40)
    if key == "Z":
        return ints
    p = {"Z[1/2]": 2, "Z[1/3]": 3}.get(key)
    if p is None:
        fracs = small_fractions
    else:
        fracs = st.builds(lambda k, e: F(k, p ** e), ints, st.integers(0, 4))
    return st.one_of(ints, fracs)


@pytest.mark.parametrize("key", DIRECT_KEYS + ("Q-generic",))
@given(data=st.data())
def test_shorthands_agree_with_compare(key, data):
    if key == "Q-generic":
        h = generic_copy(lookup("Q"))
        assert not h._direct
        pool = operands("Q")
    else:
        h = lookup(key)
        assert h._direct
        pool = operands(key)
    a = data.draw(pool)
    b = data.draw(st.one_of(st.just(a), pool))
    for x, y in ((a, b), (b, a), (a, a)):
        r = h.compare(x, y)
        assert h.lt(x, y) is (r is OrderResult.LESS)
        assert h.le(x, y) is (r in (OrderResult.LESS, OrderResult.EQUAL))
        assert h.eq(x, y) is (r is OrderResult.EQUAL)


def test_only_total_compare_takes_the_direct_path():
    reg = registry()
    for key, h in reg.items():
        assert h._direct is (key in DIRECT_KEYS), key
    assert replace(reg["Q"], name="Q'")._direct


def equal_copy(x):
    """A new object equal to the RatFunc or lex pair x."""
    if isinstance(x, RatFunc):
        # a common factor of 3, cancelled again by the constructor
        return RatFunc(poly_scale(x.num, 3), poly_scale(x.den, 3))
    return (x[0], F(x[1].numerator, x[1].denominator))


def partners(pool, a):
    """A second operand for a: a itself, an equal copy, any element, or one
    that shares a part of a (a numerator or denominator, a head or tail)."""
    if isinstance(a, RatFunc):
        shared = (pool.map(lambda r: RatFunc(a.num, r.den)),
                  pool.map(lambda r: RatFunc(r.num, a.den)))
    else:
        shared = (pool.map(lambda g: (a[0], g[1])), pool.map(lambda g: (g[0], a[1])))
    return st.one_of(st.just(a), st.just(equal_copy(a)), pool, *shared)


@pytest.mark.parametrize("key,compare,join", [
    ("Z(X)", ratfunc_compare, ratfunc_join),
    ("lex", lex_compare, lex_join),
])
@given(data=st.data())
def test_direct_orders_agree_with_the_old_closures(key, compare, join, data):
    h = lookup(key)
    a = data.draw(operands(key))
    b = data.draw(partners(operands(key), a))
    for x, y in ((a, b), (b, a), (a, a)):
        r = compare(x, y)
        assert total_compare(x, y) is r
        assert h.compare(x, y) is r
        assert h.lt(x, y) is (r is OrderResult.LESS)
        assert h.le(x, y) is (r in (OrderResult.LESS, OrderResult.EQUAL))
        assert h.eq(x, y) is (r is OrderResult.EQUAL)
        assert h.join(x, y) is join(x, y)


@given(ratfuncs, st.one_of(st.integers(-40, 40), small_fractions))
def test_ratfuncs_compare_with_ints_and_fractions_as_their_embeddings(a, q):
    e = RatFunc.from_fraction(q)
    for r in (a, e):
        assert total_compare(r, q) is ratfunc_compare(r, e)
        assert total_compare(q, r) is ratfunc_compare(e, r)
        assert max(r, q) is ratfunc_join(r, q)
        assert max(q, r) is ratfunc_join(q, r)


@given(ratfuncs)
def test_ratfunc_inverse_agrees_with_the_old_closure(a):
    invert = lookup("Z(X)").invert
    for x in (a, RatFunc(())):
        try:
            want = ratfunc_invert(x)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{exc}$"):
                invert(x)
        else:
            got = invert(x)
            assert type(got) is RatFunc
            assert got == want


# -- structure-constant products ------------------------------------------

# entries as in the benchmark's seeded tables: small numerators over 1, 2, 3
constants = st.builds(F, st.integers(-2, 2), st.sampled_from((1, 1, 2, 3)))
coefficients = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-5, 5), st.integers(1, 6)),
)


@st.composite
def tables_and_vectors(draw):
    n = draw(st.integers(1, 4))
    gamma = [str(draw(constants)) for _ in range(n ** 3)]
    vector = st.lists(coefficients, min_size=n, max_size=n).map(tuple)
    pairs = draw(st.lists(st.tuples(vector, vector), min_size=1, max_size=6))
    return n, gamma, pairs


@given(tables_and_vectors())
def test_integer_products_match_the_handle_path(case):
    n, gamma, pairs = case
    fast = load_algebra_table({"name": "T", "n": n, "gamma": gamma})
    slow = replace(fast, field=generic_copy(fast.field))
    assert fast._integer_terms is not None
    assert slow._integer_terms is None
    for a, b in pairs:
        got, want = fast.multiply(a, b), slow.multiply(a, b)
        assert got == want
        assert [type(c) for c in got] == [type(c) for c in want]


def test_integer_products_cover_zero_and_fractional_coefficients():
    alg = shipped_algebras()["H(Q)"]
    slow = replace(alg, field=generic_copy(alg.field))
    a = (F(0), F(1, 2), F(-3, 4), F(0))
    b = (F(2, 3), F(0), F(5), F(-1, 6))
    assert alg.multiply(a, b) == slow.multiply(a, b)
    assert alg.multiply(a, (F(0),) * 4) == (F(0),) * 4
    # int coefficients are not Fractions: they take the handle path
    assert alg.multiply((0, 1, 0, 0), (0, 1, 0, 0)) == (F(-1), F(0), F(0), F(0))


# -- pseudonorm verification ----------------------------------------------

def registered_pseudonorms():
    return [pn for h in registry().values() for pn in h.pnorms]


@pytest.mark.parametrize("pn", registered_pseudonorms(), ids=lambda pn: pn.name)
def test_verify_pseudonorm_matches_the_reference_on_registered_norms(pn):
    assert verify_pseudonorm(pn) == verify_pseudonorm_reference(pn)


vectors4 = st.lists(st.lists(coefficients, min_size=4, max_size=4).map(tuple),
                    min_size=1, max_size=8)


@pytest.mark.parametrize("name", sorted(shipped_algebras()))
@given(sample=vectors4)
def test_verify_pseudonorm_matches_the_reference_on_algebras(name, sample):
    alg = shipped_algebras()[name]
    sample = [v[:alg.n] for v in sample]
    for pn in (albert_pseudonorm(alg), coefficient_pseudonorm(alg)):
        assert verify_pseudonorm(pn, sample) == verify_pseudonorm_reference(pn, sample)


def test_the_unscaled_sqrt10_norm_still_fails():
    pn = coefficient_pseudonorm(shipped_algebras()["Q(sqrt10)"])
    sample = [(F(0), F(1)), (F(1), F(1)), (F(0), F(0))]
    got = verify_pseudonorm(pn, sample)
    assert got == verify_pseudonorm_reference(pn, sample)
    # s*s = 10, s*(1+s) = 10+s and (1+s)^2 = 11+2s outgrow the products of
    # the norms 1 and 2
    assert [v.values[2:] for v in got] == [
        (F(10), F(1)), (F(11), F(2)), (F(11), F(2)), (F(13), F(4))]
    assert {v.law for v in got} == {"pseudonorm.submultiplicative"}


def test_a_failing_norm_raises_where_the_reference_raises():
    q = lookup("Q")
    calls = []

    def norm(x):
        calls.append(x)
        if x == F(2):
            raise ValueError("no norm at 2")
        return abs(x)

    pn = PseudonormedRing("Q.partial", q, q, norm)
    sample = (F(1), F(-1), F(2), F(3))
    with pytest.raises(ValueError, match="no norm at 2"):
        verify_pseudonorm(pn, sample)
    fast_calls, calls[:] = list(calls), []
    with pytest.raises(ValueError, match="no norm at 2"):
        verify_pseudonorm_reference(pn, sample)
    assert fast_calls == calls == [F(1), F(-1), F(2)]
