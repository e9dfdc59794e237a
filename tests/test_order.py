"""Order results, structure flags, capability gates, and algebraic law checks."""

from fractions import Fraction as F

import dataclasses

import pytest
from hypothesis import given, strategies as st

from ordalab import (
    CapabilityError,
    OrderResult,
    absolute_value,
    fold_op,
    lookup,
    make_flags,
    nat_mul,
    nat_pow,
    total_compare,
    verify_compatibility,
    verify_group,
    verify_hemiring,
    verify_monoid,
)
from ordalab.algebra import is_prime
from ordalab.order import join_fold
from test_poly import _rf

rationals = st.fractions(min_value=F(-50), max_value=F(50), max_denominator=30)


def test_order_result_members():
    names = [m.name for m in OrderResult]
    assert names == ["LESS", "EQUAL", "GREATER", "INCOMPARABLE"]


def test_total_compare_pins():
    assert total_compare(F(1), F(2)) is OrderResult.LESS
    assert total_compare(2, 2) is OrderResult.EQUAL
    assert total_compare(3, 1) is OrderResult.GREATER


@given(rationals, rationals)
def test_total_compare_trichotomy(a, b):
    r = total_compare(a, b)
    flipped = total_compare(b, a)
    if r is OrderResult.LESS:
        assert flipped is OrderResult.GREATER and a < b
    elif r is OrderResult.GREATER:
        assert flipped is OrderResult.LESS and a > b
    else:
        assert r is OrderResult.EQUAL and flipped is OrderResult.EQUAL and a == b


def test_partial_orders_report_incomparable():
    q2 = lookup("Q^2")
    assert q2.compare((F(1), F(0)), (F(0), F(1))) is OrderResult.INCOMPARABLE
    assert q2.compare((F(0), F(0)), (F(1), F(1))) is OrderResult.LESS


def test_make_flags():
    f = make_flags(group=True, total_order=True)
    assert f.group and f.total_order and not f.field


@pytest.mark.parametrize("value", [True, False])
def test_make_flags_refuses_an_unknown_name_whatever_its_value(value):
    with pytest.raises(TypeError, match=r"unknown flags: \['feild'\]"):
        make_flags(feild=value)
    with pytest.raises(TypeError, match=r"unknown flags: \['feild'\]"):
        make_flags(field=True, feild=value)


def test_flags_pins():
    q = lookup("Q")
    assert q.flags.field and q.flags.total_order and q.flags.join_semilattice
    z = lookup("Z")
    assert z.flags.ring and not z.flags.field


def test_require_gate():
    lookup("Q").require("field", "total_order")
    with pytest.raises(CapabilityError):
        lookup("Z").require("field")


def test_handle_helpers():
    q = lookup("Q")
    assert q.lt(F(1), F(2)) and q.le(F(2), F(2)) and q.eq(F(1, 2), F(2, 4))
    assert q.is_positive(F(1, 3)) and not q.is_positive(F(0))
    assert q.is_nonnegative(F(0))
    assert q.sub(F(1), F(1, 3)) == F(2, 3)
    assert q.mul(F(2, 3), F(3, 4)) == F(1, 2)


def test_fold_and_naturals():
    q = lookup("Q")
    assert fold_op(q, [F(1), F(2), F(3)]) == F(6)
    assert nat_mul(q, 3, F(1, 2)) == F(3, 2)
    assert nat_pow(q, F(2), 5) == F(32)
    assert nat_pow(q, F(2), 0) == q.one
    assert join_fold(q, [F(1), F(5), F(3)]) == F(5)


def _left_fold(f, unit, x, n):
    # the n-fold product x f x f ... f x, bracketed from the left
    acc = unit
    for i in range(n):
        acc = x if i == 0 else f(acc, x)
    return acc


_ELEMENTS = {
    "Q": rationals,
    "lex": st.tuples(st.integers(-5, 5), rationals),
    "trop": st.none() | rationals,
    "Q(i)": st.tuples(rationals, rationals),
    "Z(X)": st.builds(_rf, st.lists(st.integers(-3, 3), max_size=3),
                      st.lists(st.integers(-3, 3), min_size=1, max_size=3)),
}


@pytest.mark.parametrize("key", ["Q", "lex", "trop"])
@given(data=st.data(), n=st.integers(0, 40))
def test_nat_mul_matches_a_left_fold(key, data, n):
    # doubling regroups the sum, which associativity allows
    h = lookup(key)
    x = data.draw(_ELEMENTS[key])
    got, want = nat_mul(h, n, x), _left_fold(h.op, h.identity, x, n)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("key", ["Q", "Z(X)", "Q(i)"])
@given(data=st.data(), n=st.integers(0, 40))
def test_nat_pow_matches_a_left_fold(key, data, n):
    h = lookup(key)
    x = data.draw(_ELEMENTS[key])
    got, want = nat_pow(h, x, n), _left_fold(h.second_op, h.one, x, n)
    assert got == want and type(got) is type(want)


@given(rationals)
def test_absolute_value_is_nonnegative_and_even(x):
    q = lookup("Q")
    assert absolute_value(q, x) >= 0
    assert absolute_value(q, x) == absolute_value(q, -x)


def test_law_checks_pass_on_rationals():
    q = lookup("Q")
    assert verify_group(q) == []
    assert verify_monoid(q) == []
    assert verify_hemiring(q) == []
    assert verify_compatibility(q) == []


def test_swapped_order_breaks_compatibility():
    # relabeling 1 and 2 inside the comparison keeps totality but breaks
    # translation-invariance of the order, and the checker catches it
    z = lookup("Z")

    def swap(x):
        return 2 if x == 1 else 1 if x == 2 else x

    broken = dataclasses.replace(
        z, name="Z-swapped", compare=lambda a, b: total_compare(swap(a), swap(b))
    )
    violations = verify_compatibility(dataclasses.replace(broken, sample=(0, 1, 2, 3, -1)))
    assert violations, "relabeled order must fail compatibility"
    laws = {v.law for v in violations}
    assert laws <= {
        "order.compatibility.op-left",
        "order.compatibility.op-right",
        "order.compatibility.mul-left",
        "order.compatibility.mul-right",
    }
    first = violations[0]
    assert first.law == "order.compatibility.op-right"
    assert first.values == (0, 1, 1, 1, 2)
    # the whole list: each failing pair and scalar, right side before left
    assert [(v.law, v.values) for v in violations] == [
        (f"order.compatibility.{op}-{side}", values)
        for op, values in (
            ("op", (0, 1, 1, 1, 2)), ("op", (2, 1, 1, 3, 2)), ("op", (2, 1, 2, 4, 3)),
            ("op", (2, 1, 3, 5, 4)), ("op", (2, 1, -1, 1, 0)), ("op", (2, 3, -1, 1, 2)),
            ("op", (-1, 0, 2, 1, 2)), ("mul", (2, 1, 2, 4, 2)), ("mul", (2, 1, 3, 6, 3)),
        )
        for side in ("right", "left")
    ]
    assert violations[1].note == "0 vs 1 with 1 on the left"
    assert violations[-1].note == "2 vs 1 scaled by 3 on the left"


def test_is_prime():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-3)
