"""Differential test: compiled term closures against the tree walk.

``seq_from_expr`` compiles a term once into nested closures; the reference
is the per-index walk of the syntax tree kept in ``tests/term_oracle.py``.
Over generated terms, carriers and indices the two must give equal values
of the same type, or raise the same exception type with the same message.
pow(c, n) over a c that does not mention n is a power term c^n or, where
none can be built, a closure; such terms are also called at indices that
run up, down, repeat and skip.  Compiling is one walk that records, from
the leaves up, which nodes mention n, then one build from the root.  Over
Q, a rational function of n is evaluated over plain ints: a term that
mentions n and is built from integer literals and n by + - * / and fixed
natural exponents compiles to its integer polynomials P/Q, evaluated by
Horner's rule, unless the degree bound of a node in it passes
``_MAX_DEGREE`` or a divisor vanishes at a positive integer; those terms,
and every handle without Q's own operations, take the general closures.
A node's polynomials are built once, and only when a node that mentions n
asks for them, so compile work grows linearly with the term and an
index-free term builds none.
"""

import inspect
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ordalab import (
    EvalError, eval_term, lookup, parse_term_expr, pretty, registry, seq_from_expr,
)
from ordalab import order, termexpr
from ordalab.poly import poly_mul
from ordalab.sequences import RationalTerm
from ordalab.termexpr import Bin, Index, Lit, Pow, Sym
from term_oracle import eval_term_reference, mentions_index_reference

Q = lookup("Q")
# the carriers terms are written over, a few that lack literals, subtraction
# or multiplication, and two changed copies of Q
HANDLES = {
    key: lookup(key) for key in ("Q", "Z", "Z[1/2]", "Z[1/3]", "Z(X)", "trop", "lex", "Id(Z)")
}
HANDLES["Q without inverses"] = replace(Q, name="Q without inverses", invert=None)


def _up_to_three(q):
    if q > 3:
        raise ValueError(f"{q} is out of range")
    return q


# refuses some literals: the refusal must wait for evaluation, as an index would
HANDLES["Q up to 3"] = replace(Q, name="Q up to 3", from_rational=_up_to_three)
INDICES = range(1, 41)
# Q evaluates rational functions of n over ints; a run of far indices too
FAR_INDICES = range(4090, 4101)

_leaves = st.one_of(
    st.builds(Lit, st.integers(0, 6)),
    st.just(Index()),
    # n - k vanishes at n = k: a zero divisor inside INDICES or FAR_INDICES
    st.builds(lambda k: Bin("-", Index(), Lit(k)),
              st.integers(1, 6) | st.integers(FAR_INDICES[0], FAR_INDICES[-1])),
    st.sampled_from((Sym("X"), Sym("Y"))),
)
# an index-dependent power only over a leaf, so values stay small at n = 40
_leaf_powers = st.builds(Pow, _leaves, st.none())


def _terms(depth):
    if depth == 0:
        return _leaves | _leaf_powers
    sub = _terms(depth - 1)
    return st.one_of(
        _leaves,
        _leaf_powers,
        st.builds(Bin, st.sampled_from("+-*/"), sub, sub),
        st.builds(Pow, sub, st.integers(0, 2)),
    )


TERMS = _terms(3)


def _nodes(node):
    """node and every node below it."""
    yield node
    if isinstance(node, Bin):
        yield from _nodes(node.left)
        yield from _nodes(node.right)
    elif isinstance(node, Pow):
        yield from _nodes(node.base)


def outcome(f, n):
    """The value and its type, or the exception type and message."""
    try:
        value = f(n)
    except Exception as exc:  # every failure must match, not only EvalError
        return ("raised", type(exc), str(exc))
    return ("value", type(value), value)


@settings(max_examples=200)
# Q, with its own path, half of the time
@given(TERMS, st.just("Q") | st.sampled_from(sorted(HANDLES)))
# degree bounds 40 and 36, past _MAX_DEGREE, and a zero power of a base
# past it: the general closures over Q
@example(parse_term_expr("1/n^40"), "Q")
@example(parse_term_expr("1/(n^8+n^7+n^6+n^5+n^4+n^3+n^2+n+1)"), "Q")
@example(parse_term_expr("(n^40)^0"), "Q")
def test_compiled_terms_match_the_tree_walk(node, key):
    handle = HANDLES[key]
    # building the sequence never evaluates: every error waits for an index
    seq = seq_from_expr(pretty(node), handle)
    facts = termexpr._Facts(node)
    for sub in _nodes(node):
        assert facts.mentions[id(sub)] is mentions_index_reference(sub)
    if key == "Q":
        # a term that mentions n is a RationalTerm exactly when it has a form
        mentions = facts.mentions[id(node)]
        assert (type(seq.term) is RationalTerm) is (mentions and facts.form(node) is not None)
    for n in (*INDICES, *FAR_INDICES) if key == "Q" else INDICES:
        expected = outcome(lambda i: eval_term_reference(node, handle, i), n)
        assert outcome(seq.term, n) == expected
        assert outcome(lambda i: eval_term(node, handle, i), n) == expected


def test_a_zero_exponent_keeps_the_degree_bound_of_its_base():
    # n^40 and n^100000000 pass _MAX_DEGREE, so their zeroth powers take the
    # closures; the second compiles at once and is not evaluated here
    for expr in ("(n^40)^0", "(n^100000000)^0"):
        assert type(seq_from_expr(expr, Q).term) is not RationalTerm, expr


@pytest.fixture
def products(monkeypatch):
    """products(build): the polynomial products termexpr makes in build()."""
    count = 0

    def counting(p, q):
        nonlocal count
        count += 1
        return poly_mul(p, q)

    monkeypatch.setattr(termexpr, "poly_mul", counting)

    def made_by(build):
        nonlocal count
        count = 0
        build()
        return count

    return made_by


def test_compile_work_grows_linearly(products):
    """The nested term (...((n+1/(n-1))+1/(n-2))+...+1/(n-k)) has k
    divisors that vanish at a positive integer: twice the divisors make at
    most twice the polynomial products."""

    def nested(k):
        src = "n"
        for j in range(1, k + 1):
            src = f"({src}+1/(n-{j}))"
        assert type(seq_from_expr(src, Q).term) is not RationalTerm
        return src

    assert 0 < products(lambda: nested(32)) <= 2 * products(lambda: nested(16))


def test_only_a_node_that_mentions_n_builds_polynomials(products):
    """A form is built only where a node that mentions n asks for it: an
    index-free term, the base of pow(b, n) and the other side of a product
    whose first side has none build no polynomials."""
    for expr in ("pow(1/3, n)", "3*pow(2/5, n)"):
        assert products(lambda: seq_from_expr(expr, Q)) == 0, expr
    grid_entry = parse_term_expr("1/1099511627776")
    assert products(lambda: eval_term(grid_entry, Q, 1)) == 0
    assert products(lambda: seq_from_expr("1/(n+8)", Q)) == 5


def test_a_zero_divisor_at_a_far_index_names_that_index():
    # the generated terms reach such a divisor only now and then
    for expr in ("1/(n-4095)", "(n+1)/(n^2-4095*n)", "3/(2*n-8190)^2"):
        term = seq_from_expr(expr, Q).term
        assert outcome(term, 4095) == ("raised", EvalError, "division by zero at n=4095")
        assert outcome(term, 4096) == outcome(
            lambda i: eval_term_reference(parse_term_expr(expr), Q, i), 4096)


def test_the_denominator_is_evaluated_first():
    # the numerator would fail on the undefined symbol; a zero denominator
    # is reported first, with its index
    node = Bin("/", Sym("Y"), Bin("-", Index(), Lit(3)))
    for handle in (Q, HANDLES["Z(X)"]):
        term = seq_from_expr(pretty(node), handle).term
        assert outcome(term, 3) == ("raised", EvalError, "division by zero at n=3")
        assert outcome(term, 2) == (
            "raised", EvalError, f"{handle.name} does not define the symbol 'Y'")


# index-free bases: literals and symbols under the four operations and
# fixed powers; an undefined symbol and the literal 0 are rare, so most
# terms have values
def _constants(depth, leaves):
    if depth == 0:
        return leaves
    sub = _constants(depth - 1, leaves)
    return st.one_of(
        leaves,
        st.builds(Bin, st.sampled_from("+-*/"), sub, sub),
        st.builds(Pow, sub, st.integers(0, 2)),
    )


def _stepped_terms(handle):
    """pow(c, n) over an index-free c, combined with literals, symbols and
    n; the symbols are the ones handle defines."""
    symbols = [Sym(name) for name in sorted(handle.symbols)]
    leaves = st.sampled_from([Lit(k) for k in range(1, 7)] * 3 + symbols * 4
                             + [Lit(0), Sym("Y")])
    stepped = st.builds(Pow, _constants(2, leaves), st.none())
    small = st.one_of(stepped, leaves, st.just(Index()))
    return st.one_of(stepped, st.builds(Bin, st.sampled_from("+-*/"), small, small),
                     st.builds(Bin, st.sampled_from("+-*/"), stepped, small))


ORDERS = {
    "ascending": tuple(range(1, 25)),
    "descending": tuple(range(24, 0, -1)),
    "repeated": (1, 1, 2, 2, 2, 3, 3, 7, 7, 8, 8),
    "skipping": (2, 5, 6, 7, 12, 1, 3, 4, 20, 21, 24, 9),
}


def assert_every_order_matches(node, handle):
    """Call a freshly compiled term in each order; every call must match the
    tree walk at its index."""
    expected = {n: outcome(lambda i: eval_term_reference(node, handle, i), n)
                for n in range(1, 25)}
    for order in ORDERS.values():
        term = seq_from_expr(pretty(node), handle).term
        for n in order:
            assert outcome(term, n) == expected[n], (pretty(node), n)


@settings(max_examples=150)
@given(st.data(), st.sampled_from(sorted(HANDLES)))
def test_stepped_terms_match_the_tree_walk_in_any_order(data, key):
    handle = HANDLES[key]
    assert_every_order_matches(data.draw(_stepped_terms(handle)), handle)


@pytest.mark.parametrize("key, expr", [
    ("Q", "pow(1/3,n)"),
    ("Z[1/3]", "pow(1/3,n)"),
    ("Z(X)", "3/(X^2+1)^n"),
    ("Z(X)", "(2*X)/(X^3+2)^n+n/(X+1)"),
    ("Q", "pow(2/3,n)*n+(1/4)^2"),
    # power terms c*r^n
    ("Q", "3*pow(0-2/3,n)"),
    ("Z[1/2]", "5/(0-2)^n"),
    ("Z(X)", "X*pow(1/(X-1),n)"),
])
def test_stock_stepped_terms_match_the_tree_walk_in_any_order(key, expr):
    assert_every_order_matches(parse_term_expr(expr), HANDLES[key])


@pytest.mark.parametrize("key, expr", [
    ("Q", "pow(1/0,n)"),
    ("Z(X)", "pow(X/(X-X),n)"),
    ("Z", "pow(1/2,n)"),
    ("Q up to 3", "pow(1+5,n)"),
])
def test_a_stepped_base_that_raises_raises_again_at_each_call(key, expr):
    # its failure is not kept: each call evaluates the base again and names
    # its own index where the error carries one
    handle = HANDLES[key]
    node = parse_term_expr(expr)
    term = seq_from_expr(expr, handle).term
    first = outcome(term, 3)
    assert first[0] == "raised"
    for n in (3, 1, 5, 5, 2, 4):
        got = outcome(term, n)
        assert got == outcome(lambda i: eval_term_reference(node, handle, i), n)
        if "division by zero" in first[2]:
            assert got == ("raised", EvalError, f"division by zero at n={n}")


def test_only_q_evaluates_rational_functions_over_ints():
    for key, handle in {**registry(), **HANDLES}.items():
        assert handle._int_terms is (key == "Q"), key
    assert replace(Q, name="Q'")._int_terms
    assert not replace(Q, compare=lambda a, b: order.total_compare(a, b))._int_terms


def test_wrapped_module_functions_leave_the_choice_alone(monkeypatch):
    # wrap every public function of order and termexpr wherever an ordalab
    # module binds it, as a layer profiler does, then build handles
    for module in (order, termexpr):
        for name, f in vars(module).copy().items():
            if name.startswith("_") or not inspect.isfunction(f) or f.__module__ != module.__name__:
                continue

            def wrapper(*args, _f=f, **kwargs):
                return _f(*args, **kwargs)

            for mod_name, owner in list(sys.modules.items()):
                if mod_name.startswith("ordalab") and owner is not None:
                    for attr, value in list(vars(owner).items()):
                        if value is f:
                            monkeypatch.setattr(owner, attr, wrapper)
    assert order.field_invert is not Q.invert
    copy = replace(Q, name="Q'")
    assert copy._int_terms
    assert seq_from_expr("1/(n-2)+n^2", copy).term(4) == Fraction(33, 2)
    assert not replace(Q, name="Q'", invert=None)._int_terms
    assert not replace(HANDLES["Z(X)"], name="Z(X)'")._int_terms


def test_a_power_is_raised_from_its_reduced_base():
    # past _MAX_DEGREE the term takes the closures, whose Fractions are
    # reduced: unreduced, the power would hold 2^(64*10^6) over itself
    node = parse_term_expr("((n/n)^1000)^1000")
    n = 2**64
    assert outcome(seq_from_expr(pretty(node), Q).term, n) == ("value", Fraction, 1)
    assert eval_term_reference(node, Q, n) == 1
