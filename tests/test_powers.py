"""Stepped powers against square-and-multiply.

``order.powers(s, x)`` answers n -> nat_pow(s, x, n) and keeps its last
(k, x^k), so the next exponent costs one product.  Over every registry
carrier with a second operation, over sample elements and over walks of
exponents that run up, repeat, jump back and hit 0, it must give what
``nat_pow`` gives: an equal value of the same type, or the same exception.
``sequences.power_seq``, the builder of every power sequence, gives the same
values, through a ``PowerTerm`` with c = 1 where ``power_term`` admits the
carrier and through ``powers`` elsewhere.
"""

import dataclasses
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from ordalab import lookup, nat_pow
from ordalab.order import powers
from ordalab.poly import X
from ordalab.sequences import power_seq, power_term, shape_fact
from reference_registry import reference_registry

# every registry carrier with a second operation, and Q^2, which has none
KEYS = ("Q", "Z", "Z[1/2]", "Z[1/3]", "Z(X)", "Q(i)", "Q^2", "G0", "Id(Z)")
TOP = 40  # the largest exponent a walk reaches


@st.composite
def walks(draw):
    """Exponents from a start in 0..6: runs of consecutive ones, repeats
    and jumps to anywhere in 0..TOP, back or forward."""
    n = draw(st.integers(0, 6))
    out = [n]
    for move in draw(st.lists(st.sampled_from(("run", "repeat", "jump")), max_size=8)):
        if move == "run":
            for _ in range(draw(st.integers(1, 8))):
                n = min(n + 1, TOP)
                out.append(n)
        elif move == "repeat":
            out.append(n)
        else:
            n = draw(st.integers(0, TOP))
            out.append(n)
    return out


def outcome(f, n):
    """The value and its type, or the exception type and message."""
    try:
        value = f(n)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    return ("value", type(value), value)


@pytest.mark.parametrize("key", KEYS)
def test_powers_match_nat_pow_on_every_walk(key):
    handle = lookup(key)

    @given(st.sampled_from(handle.sample), walks())
    def check(x, walk):
        power = powers(handle, x)
        for n in walk:
            assert outcome(power, n) == outcome(lambda k: nat_pow(handle, x, k), n), n

    check()


def test_a_negative_exponent_is_refused_and_the_walk_goes_on():
    q = lookup("Q")
    power = powers(q, F(2, 3))
    assert [power(n) for n in (1, 2, 3)] == [F(2, 3), F(4, 9), F(8, 27)]
    with pytest.raises(ValueError, match="exponent must be nonnegative"):
        power(-1)
    assert power(4) == F(16, 81)


def counting(handle):
    """A copy of handle whose second_op logs each product it makes."""
    log = []

    def mul(a, b):
        log.append((a, b))
        return handle.second_op(a, b)

    return dataclasses.replace(handle, second_op=mul), log


@pytest.mark.parametrize("key, x", [("Q", F(2, 3)), ("Z(X)", X)])
def test_walking_one_to_n_takes_n_minus_one_products(key, x):
    handle, log = counting(lookup(key))
    top = 30
    power = powers(handle, x)
    assert [power(n) for n in range(1, top + 1)] == \
        [nat_pow(handle, x, n) for n in range(1, top + 1)]
    # nat_pow above made its own products; count the walk alone
    log.clear()
    power = powers(handle, x)
    for n in range(1, top + 1):
        power(n)
    assert len(log) == top - 1
    # a jump back goes to square-and-multiply, then the walk steps again
    log.clear()
    power(16)
    assert len(log) == 4
    log.clear()
    power(17)
    assert len(log) == 1


@pytest.mark.parametrize("key", KEYS)
def test_power_seq_is_r_to_the_n_through_a_power_term_where_the_gate_admits(key):
    for handle in (lookup(key), reference_registry()[key]):
        admits = power_term(handle, lambda: (handle.one, handle.one)) is not None
        for x in handle.sample[:6]:
            seq = power_seq(handle, x, "pow")
            assert seq.name == "pow"
            assert [outcome(seq, n) for n in range(1, 9)] == \
                [outcome(lambda k: nat_pow(handle, x, k), n) for n in range(1, 9)]
            # c = 1 under the gate; the stepping closure has no shape
            assert shape_fact(seq, "c") == (handle.one if admits else None)
    # the ordered carriers with an absolute-value metric take the PowerTerm
    assert (power_term(lookup(key), lambda: (1, 1)) is not None) == \
        (key in ("Q", "Z", "Z[1/2]", "Z[1/3]", "Z(X)"))
