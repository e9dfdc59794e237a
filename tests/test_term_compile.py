"""Differential test: compiled term closures against the tree walk.

``seq_from_expr`` compiles a term once into nested closures; the reference
is the per-index walk of the syntax tree kept in ``tests/term_oracle.py``.
Over generated terms, carriers and indices the two must give equal values
of the same type, or raise the same exception type with the same message.
pow(c, n) over a c that does not mention n evaluates c once and steps
through its powers, so such terms are also called at indices that run up,
down, repeat and skip.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from ordalab import EvalError, eval_term, lookup, parse_term_expr, pretty, seq_from_expr
from ordalab.termexpr import Bin, Index, Lit, Pow, Sym
from term_oracle import eval_term_reference

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

_leaves = st.one_of(
    st.builds(Lit, st.integers(0, 6)),
    st.just(Index()),
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


def outcome(f, n):
    """The value and its type, or the exception type and message."""
    try:
        value = f(n)
    except Exception as exc:  # every failure must match, not only EvalError
        return ("raised", type(exc), str(exc))
    return ("value", type(value), value)


@settings(max_examples=200)
@given(TERMS, st.sampled_from(sorted(HANDLES)))
def test_compiled_terms_match_the_tree_walk(node, key):
    handle = HANDLES[key]
    # building the sequence never evaluates: every error waits for an index
    seq = seq_from_expr(pretty(node), handle)
    for n in INDICES:
        expected = outcome(lambda i: eval_term_reference(node, handle, i), n)
        assert outcome(seq.term, n) == expected
        assert outcome(lambda i: eval_term(node, handle, i), n) == expected


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
