"""Differential tests: each fast path against the slow path it replaces.

* ``StructureHandle.lt/le/eq`` on a handle that compares with
  ``total_compare`` use Python's comparisons; the reference is the handle's
  four-valued ``compare``.
* ``Q``, ``Z[1/2]`` and ``Z[1/3]`` add, multiply and negate with the
  ``Fraction`` kernel of ``order``, and their ``lt/le/eq`` compare two
  ``Fraction``s on their integer pairs; the references are ``Fraction``'s
  own operators and comparisons.
* ``Z(X)`` and ``lex`` compare with ``total_compare``, join with ``max``,
  and ``Z(X)`` inverts with ``Q``'s inverse; the references are the
  closures these replaced, kept in ``tests/order_oracle.py``.
* ``Q(i)``, ``Q^2``, ``lex``, ``trop`` and ``G0`` add, multiply, negate,
  compare, join and take norms on the ``Fraction`` kernel; the references
  are their old closures on ``Fraction``'s operators, kept in
  ``tests/order_oracle.py``, and a guard swaps those operators for ones
  that raise.
* ``verify_pseudonorm`` computes each sample norm once, and decides a
  coefficient norm over ``Q`` in integers; the reference is the old loop
  in ``tests/pseudonorm_oracle.py``.
* The law verifiers of the axioms and metric suites compute each
  operation, comparison, distance and norm value once per pair of argument
  objects; the references are the old loops in ``tests/law_oracle.py``,
  and call counters hold the once-per-pair property itself.
"""

import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

import law_oracle
from ordalab import (
    MetricSpace,
    NormedGroup,
    OrderResult,
    PseudonormedRing,
    StructureFlags,
    StructureHandle,
    albert_pseudonorm,
    coefficient_pseudonorm,
    load_algebra_table,
    lookup,
    order,
    registry,
    sample_triples,
    shipped_algebras,
    suites,
    total_compare,
    verify_compatibility,
    verify_hemiring,
    verify_metric,
    verify_monoid,
    verify_norm,
    verify_pseudonorm,
)
from ordalab.poly import RatFunc, poly_scale
import order_oracle
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


def test_a_wrapped_total_compare_leaves_the_direct_path_alone(monkeypatch):
    q = lookup("Q")
    monkeypatch.setattr(order, "total_compare", lambda a, b: total_compare(a, b))
    assert replace(q, name="Q'")._direct


class Sub(F):
    """A Fraction subclass whose sums, products and negations stay in the
    subclass, so a result's type shows that the kernel left the operands to
    Python's operators."""

    def __add__(a, b):
        return Sub(F(a) + b)

    def __mul__(a, b):
        return Sub(F(a) * b)

    def __neg__(a):
        return Sub(-F(a))

    __radd__, __rmul__ = __add__, __mul__


def kernel_operands(p):
    """Fractions of Z[1/p] (of Q when p is None), zero, ints and bools, small
    and of 30 digits and more, and now and then a Sub."""
    ints = st.one_of(st.integers(-40, 40), st.integers(-10**40, 10**40))
    if p is None:
        dens = st.one_of(st.integers(1, 30), st.integers(1, 10**40))
    else:
        dens = st.one_of(st.integers(0, 4), st.integers(0, 90)).map(lambda e: p ** e)
    fracs = st.one_of(st.just(F(0)), st.builds(F, ints, dens))
    return st.one_of(fracs, fracs, fracs, ints, st.booleans(), fracs.map(Sub))


def same(got, want):
    """got is want's value, type, hash and repr, and a Fraction's pair is
    canonical: coprime, with a positive denominator."""
    assert type(got) is type(want)
    assert (got == want, hash(got), repr(got)) == (True, hash(want), repr(want))
    if isinstance(want, F):
        n, d = got.numerator, got.denominator
        assert (n, d) == (want.numerator, want.denominator)
        assert d > 0 and math.gcd(n, d) == 1


@pytest.mark.parametrize("key,p", [("Q", None), ("Z[1/2]", 2), ("Z[1/3]", 3)])
@example(data=None)
@given(data=st.data())
def test_the_fraction_kernel_matches_fractions_own_operators(key, p, data):
    h = lookup(key)
    assert (h.op, h.negate, h.second_op) == (order.frac_add, order.frac_neg, order.frac_mul)
    if data is None:
        # sums and products whose second gcd reduces, a sum that is 0, bools
        cases = [(F(1, 6), F(1, 3)), (F(1, 4), F(1, 4)), (F(1, 2), F(2, 3)),
                 (F(3, 4), F(-3, 4)), (True, F(1, 2)), (F(0), Sub(1, 2))]
    else:
        pool = kernel_operands(p)
        a = data.draw(pool)
        # b: a itself, its negation, any operand, or one over a's denominator
        b = data.draw(st.one_of(st.just(a), st.just(-a), pool,
                                pool.map(lambda x: F(x.numerator, a.denominator))))
        cases = [(a, b)]
    for a, b in cases:
        for x, y in ((a, b), (b, a)):
            same(order.frac_add(x, y), x + y)
            same(order.frac_mul(x, y), x * y)
            assert h.lt(x, y) is (x < y)
            assert h.le(x, y) is (x <= y)
            assert h.eq(x, y) is (x == y)
            got = order.frac_cmp(x, y)
            assert type(got) is int and got == (x > y) - (x < y)
        same(order.frac_neg(a), -a)
        same(order.frac_abs(a), abs(a))


def test_frac_pow2_is_two_to_the_k():
    for k in range(-70, 71):
        same(order.frac_pow2(k), F(2) ** k)


# -- the pair and bottom carriers on the Fraction kernel --------------------

# each carrier's old closures, by the name of the handle's callable they
# are the reference for; sub is op after negate
KERNEL_CARRIERS = {
    "Q(i)": {"op": order_oracle.gaussian_op, "negate": order_oracle.gaussian_negate,
             "mul": order_oracle.gaussian_mul, "compare": order_oracle.gaussian_compare,
             "norm": order_oracle.taxicab},
    "Q^2": {"op": order_oracle.orthant_op, "negate": order_oracle.orthant_negate,
            "compare": order_oracle.orthant_compare, "join": order_oracle.orthant_join},
    "lex": {"op": order_oracle.lex_op, "negate": order_oracle.lex_negate,
            "norm": order_oracle.lex_lead_norm},
    "trop": {"op": order_oracle.bottom_max, "compare": order_oracle.bottom_compare,
             "join": order_oracle.bottom_max},
    "G0": {"op": order_oracle.bottom_max, "compare": order_oracle.bottom_compare,
           "join": order_oracle.bottom_max},
}

# Fractions with ints mixed in
coordinates = st.one_of(small_fractions, small_fractions, st.integers(-6, 6))


def carrier_elements(key):
    if key == "G0":
        return st.one_of(st.none(), st.integers(-6, 6))
    if key == "trop":
        return st.one_of(st.none(), coordinates)
    head = st.integers(-3, 3) if key == "lex" else coordinates
    return st.tuples(head, coordinates)


def copy_of(x):
    """A new object equal to x, or x where x is an int or None."""
    if isinstance(x, tuple):
        return tuple(map(copy_of, x))
    return F(x.numerator, x.denominator) if type(x) is F else x


def kernel_partners(key, a):
    """A second operand for a: a itself, an equal copy, any element, or one
    that shares a coordinate of a (as an equal copy, or as the int it
    equals)."""
    pool = carrier_elements(key)
    options = [st.just(a), st.just(copy_of(a)), pool]
    if isinstance(a, tuple):
        twins = [st.just(c) for c in (a[1], copy_of(a[1]))]
        if a[1] == int(a[1]):
            twins.append(st.just(int(a[1])))
        options += [st.tuples(st.just(a[0]), st.one_of(*twins)),
                    pool.map(lambda g: (a[0], g[1]))]
    return st.one_of(*options)


def same_element(got, want):
    """same() coordinate by coordinate, None for None."""
    if want is None or isinstance(want, tuple):
        assert type(got) is type(want)
        if want is not None:
            assert len(got) == len(want)
            for g, w in zip(got, want):
                same_element(g, w)
    else:
        same(got, want)


@pytest.mark.parametrize("key", sorted(KERNEL_CARRIERS))
@given(data=st.data())
def test_kernel_carriers_match_their_old_closures(key, data):
    h, ref = lookup(key), KERNEL_CARRIERS[key]
    a = data.draw(carrier_elements(key))
    b = data.draw(kernel_partners(key, a))
    norm = h.norms[0].norm if "norm" in ref else None
    if key == "Q(i)":
        assert h.pnorms[0].norm is norm
    for x, y in ((a, b), (b, a), (a, a)):
        same_element(h.op(x, y), ref["op"](x, y))
        if "negate" in ref:
            same_element(h.negate(x), ref["negate"](x))
            same_element(h.sub(x, y), ref["op"](x, ref["negate"](y)))
        if "mul" in ref:
            same_element(h.mul(x, y), ref["mul"](x, y))
        if "compare" in ref:
            assert h.compare(x, y) is ref["compare"](x, y)
        if "join" in ref:
            got, want = h.join(x, y), ref["join"](x, y)
            same_element(got, want)
            # the join picks the same objects as max
            if isinstance(want, tuple):
                assert all(g is w for g, w in zip(got, want))
            else:
                assert got is want
        if norm is not None:
            same_element(norm(x), ref["norm"](x))


FRACTION_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__",
    "__rmod__", "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__",
    "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
)


def test_kernel_carriers_never_reach_fractions_own_operators(monkeypatch):
    # every operation, comparison, join and norm of Q(i), Q^2 and trop, and
    # lex's op, negate and lead norm (lex compares and joins as a tuple,
    # through Fraction's comparisons), over each handle's sample and
    # eps_grid; inverses, density witnesses and fmt are not covered
    cases = []
    for key in ("Q(i)", "Q^2", "trop", "lex"):
        h = lookup(key)
        points = tuple(h.sample) + tuple(h.eps_grid)
        unary = [h.negate] if h.negate is not None else []
        unary += [ng.norm for ng in h.norms] + [pn.norm for pn in h.pnorms]
        binary = [h.op]
        if h.negate is not None:
            binary.append(h.sub)
        if h.second_op is not None:
            binary.append(h.mul)
        if key != "lex":
            binary.append(h.compare)
            if h.join is not None:
                binary.append(h.join)
        cases.append((key, points, unary, binary))
    assert [len(c[2]) for c in cases] == [3, 1, 0, 2]

    def refuse(*args):
        raise AssertionError("a Fraction operator was called")

    for name in FRACTION_OPERATORS:
        monkeypatch.setattr(F, name, refuse)
    try:
        for key, points, unary, binary in cases:
            for f in unary:
                for x in points:
                    f(x)
            for f in binary:
                for x in points:
                    for y in points:
                        f(x, y)
    finally:
        monkeypatch.undo()


def test_the_fraction_kernel_relies_on_two_slots():
    # the kernel reads and writes these slots; a Fraction with others (a
    # cached hash, say) would need its results built another way
    assert F.__slots__ == ("_numerator", "_denominator")


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


def test_integer_products_cover_zero_and_fractional_coefficients():
    alg = shipped_algebras()["H(Q)"]
    a = (F(0), F(1, 2), F(-3, 4), F(0))
    assert alg.multiply(a, (F(0),) * 4) == (F(0),) * 4
    # (i/2 - 3j/4)^2 = -1/4 - 9/16, as ij + ji = 0
    assert alg.multiply(a, a) == (F(-13, 16), F(0), F(0), F(0))
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


def same_violations(got, want):
    """Equal violations in the same order, with values of the same types."""
    return got == want and [[type(x) for x in v.values] for v in got] == [
        [type(x) for x in v.values] for v in want]


@st.composite
def tables_and_samples(draw):
    n = draw(st.integers(1, 4))
    gamma = [str(draw(constants)) for _ in range(n ** 3)]
    vector = st.lists(coefficients, min_size=n, max_size=n).map(tuple)
    return n, gamma, draw(st.lists(vector, max_size=6))


# Q(sqrt10), whose unscaled norm violates on this sample; an empty sample;
# e1*e1 = e1/2, whose scaled norm (scale n*M = 1/2) is multiplicative
@example((2, [1, 0, 0, 1, 0, 1, 10, 0], [(F(0), F(1)), (F(1), F(1)), (F(0), F(0))]))
@example((2, [1, 0, 0, 1, 0, 1, 10, 0], []))
@example((1, ["1/2"], [(F(1),), (F(-2, 3),), (F(0),)]))
@given(tables_and_samples())
def test_integer_norm_checks_match_the_reference(case):
    n, gamma, sample = case
    alg = load_algebra_table({"name": "T", "n": n, "gamma": gamma})
    pns = [coefficient_pseudonorm(alg)]
    if any(F(g) for g in gamma):
        pns.append(albert_pseudonorm(alg))
    for pn in pns + [replace(pn, strict=True) for pn in pns]:
        assert pn.norm.verify_integers(pn, tuple(sample)) is not None
        got = verify_pseudonorm(pn, sample)
        assert same_violations(got, verify_pseudonorm_reference(pn, sample))


def test_other_norms_keep_the_generic_loop():
    alg = shipped_algebras()["Q(sqrt10)"]
    q = generic_copy(alg.field)
    sample = ((F(0), F(1)), (F(1), F(1)), (F(1, 2), F(0)), (F(0), F(0)))
    ints = ((0, 1), (1, 1), (0, 0))
    plain = coefficient_pseudonorm(alg)
    calls = []

    def closure(a):
        calls.append(a)
        return plain.norm(a)

    cases = [
        (replace(plain, norm=closure), sample),
        (coefficient_pseudonorm(replace(alg, base_norm=lambda c: abs(c))), sample),
        (coefficient_pseudonorm(replace(alg, field=q, codomain=q)), sample),
        (albert_pseudonorm(replace(alg, field=q, codomain=q)), sample),
        (plain, ints),
        (albert_pseudonorm(alg), ints),
    ]
    for pn, s in cases:
        if pn.norm is not closure:
            assert pn.norm.verify_integers(pn, s) is None
        assert same_violations(verify_pseudonorm(pn, s), verify_pseudonorm_reference(pn, s))
    assert calls


# -- law verifiers that compute each value once ---------------------------

class Elt:
    """An element of a small random carrier, equal by its index, so that a
    sample can hold one object twice or two equal objects."""

    __slots__ = ("k",)

    def __init__(self, k):
        self.k = k

    def __eq__(self, other):
        return isinstance(other, Elt) and self.k == other.k

    def __hash__(self):
        return hash(self.k)

    def __repr__(self):
        return f"e{self.k}"


FLAG_NAMES = ("unital", "associative", "commutative_add", "group", "hemiring",
              "total_order")


@st.composite
def carriers(draw, fresh=False):
    """A handle over at most four indices whose op, second_op, negate,
    compare, join, distance and norm read random tables, with a metric
    space and a normed group on it.  Every call is logged with its
    arguments.  Under fresh, every result is a new object and the sample
    holds no object twice (it may hold equal ones)."""
    n = draw(st.integers(1, 4))
    index = st.integers(0, n - 1)
    pool = [Elt(k) for k in range(n)]
    element = st.one_of(st.sampled_from(pool), index.map(Elt))
    log = []

    def square(values):
        return draw(st.lists(st.lists(values, min_size=n, max_size=n),
                             min_size=n, max_size=n))

    def binary(name, values, as_result):
        t = square(values)

        def f(x, y):
            log.append((name, x, y))
            return as_result(t[x.k][y.k])

        return f

    # results are new objects, or the pool's own
    as_elt = Elt if fresh or draw(st.booleans()) else pool.__getitem__
    negations = draw(st.lists(index, min_size=n, max_size=n))
    norms = draw(st.lists(st.integers(-2, 4), min_size=n, max_size=n))

    def norm(x):
        log.append(("norm", x))
        return norms[x.k]

    sample = tuple(draw(st.lists(element, max_size=8, unique_by=id if fresh else None)))
    h = StructureHandle(
        name="T",
        flags=StructureFlags(**{f: draw(st.booleans()) for f in FLAG_NAMES}),
        op=binary("op", index, as_elt),
        compare=binary("compare", st.sampled_from(OrderResult), lambda r: r),
        identity=draw(element),
        negate=lambda x: as_elt(negations[x.k]),
        second_op=draw(st.none() | st.just(binary("mul", index, as_elt))),
        join=binary("join", index, as_elt),
        sample=sample,
        fmt=repr,
    )
    z = lookup("Z")
    codomain = draw(st.sampled_from((z, generic_copy(z), replace(z, negate=None))))
    space = MetricSpace("T.d", codomain, binary("distance", st.integers(-2, 4), int),
                        points=sample)
    triples = draw(st.lists(st.tuples(*[st.sampled_from(sample)] * 3), max_size=12)
                   if sample else st.just([]))
    return h, space, triples, NormedGroup("T.n", h, codomain, norm), log


def law_checks(h, space, triples, ng):
    """(name, memoised verifier, reference) for every law check that
    applies, each a thunk."""
    sample = tuple(h.sample)
    checks = [
        ("monoid", lambda: verify_monoid(h), lambda: law_oracle.verify_monoid(h)),
        ("hemiring", lambda: verify_hemiring(h), lambda: law_oracle.verify_hemiring(h)),
        ("compatibility", lambda: verify_compatibility(h),
         lambda: law_oracle.verify_compatibility(h)),
        ("order", lambda: suites._order_violations(h, sample),
         lambda: law_oracle.order_violations(h, sample)),
    ]
    if h.join is not None:
        checks.append(("join", lambda: suites._join_violations(h, sample),
                       lambda: law_oracle.join_violations(h, sample)))
    if space is not None:
        checks.append(("metric", lambda: verify_metric(space, triples),
                       lambda: law_oracle.verify_metric(space, triples)))
    if ng is not None:
        checks.append(("norm", lambda: verify_norm(ng), lambda: law_oracle.verify_norm(ng)))
    return checks


def first_calls(log):
    """The calls in the order each (callable, argument values) first occurs."""
    return list(dict.fromkeys(log))


@given(carriers())
def test_memoised_law_checks_match_the_reference(case):
    h, space, triples, ng, log = case
    for name, fast, slow in law_checks(h, space, triples, ng):
        log.clear()
        got = fast()
        fast_calls, log[:] = first_calls(log), []
        assert same_violations(got, slow()), name
        assert fast_calls == first_calls(log), name


def registered_cases():
    """Each registered handle, then each of its spaces with the metric
    suite's triples, then each of its norms."""
    for key, h in registry().items():
        yield pytest.param(h, None, [], None, id=key)
        for space in h.metrics:
            pts = tuple(space.points)
            triples = list(itertools.product(pts[:4], repeat=3))
            triples += sample_triples(pts, 48, random.Random(key))
            yield pytest.param(h, space, triples, None, id=f"{key}:metric:{space.name}")
        for ng in h.norms:
            yield pytest.param(h, None, [], ng, id=f"{key}:norm:{ng.name}")


@pytest.mark.parametrize("h,space,triples,ng", registered_cases())
def test_memoised_law_checks_match_the_reference_on_registered_handles(h, space, triples, ng):
    for name, fast, slow in law_checks(h, space, triples, ng):
        assert same_violations(fast(), slow()), name


class CallCounter:
    """Wraps f and records its arguments, keeping them alive so that no id
    is reused during a check."""

    def __init__(self, f):
        self.f, self.args = f, []

    def __call__(self, *args):
        self.args.append(args)
        return self.f(*args)


def repeats(calls):
    """How many calls repeat an earlier one's argument objects."""
    keys = [tuple(map(id, c)) for c in calls]
    return len(keys) - len(set(keys))


# the callables whose values each check keeps
MEMOISED = {
    "monoid": ("op",),
    "hemiring": ("op", "mul"),
    "compatibility": ("op", "mul"),
    "order": ("compare",),
    "join": ("compare",),
    "metric": ("distance",),
    "norm": ("norm",),
}


@given(carriers(fresh=True))
def test_memoised_law_checks_call_nothing_twice_with_the_same_objects(case):
    # every result is a new object and no sample object occurs twice, so a
    # repeated call can only be a value the check should have kept
    h, space, triples, ng, log = case
    for name, fast, _ in law_checks(h, space, triples, ng):
        log.clear()
        fast()
        for f in MEMOISED[name]:
            assert repeats([c for c in log if c[0] == f]) == 0, (name, f)


@pytest.mark.parametrize("key", sorted(registry()))
def test_law_checks_make_each_call_once_per_pair_of_sample_elements(key):
    # the bounds count the memoised calls once per pair of sample elements
    # (k of them in the cubic loops over the first six) and the others once
    # per use; the loops before the memo made from 1.5 to 18 times as many
    h = registry()[key]
    sample = tuple(h.sample)
    n, k = len(sample), min(len(sample), 6)
    checks = [
        (verify_monoid, {"op": 2 * n + n * n + 2 * k ** 3}),
        (verify_compatibility, {"op": n * n, "second_op": n * n}),
        (lambda c: suites._order_violations(c, sample), {"compare": n * n}),
    ]
    if h.flags.hemiring and h.second_op is not None:
        checks.append((verify_hemiring, {"op": k * k + 2 * k ** 3,
                                         "second_op": 2 * k + k * k + 2 * k ** 3}))
    if h.join is not None:
        checks.append((lambda c: suites._join_violations(c, sample),
                       {"compare": 3 * n * n + n ** 3}))
    for check, bounds in checks:
        ops = {name: CallCounter(getattr(h, name)) for name in bounds
               if getattr(h, name) is not None}
        check(replace(h, **ops))
        for name, counter in ops.items():
            assert len(counter.args) <= bounds[name], (check, name)
    for space in h.metrics:
        d = CallCounter(space.distance)
        pts = tuple(space.points)
        verify_metric(replace(space, distance=d), itertools.product(pts, repeat=3))
        assert repeats(d.args) == 0 and len(d.args) <= len(pts) ** 2
    for ng in h.norms:
        norm = CallCounter(ng.norm)
        verify_norm(replace(ng, norm=norm))
        assert len(norm.args) <= 2 * n + 2 * n * n
