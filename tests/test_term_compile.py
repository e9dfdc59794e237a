"""Differential test: compiled term closures against the tree walk.

``seq_from_expr`` compiles a term once into nested closures; the reference
is the per-index walk of the syntax tree kept in ``tests/term_oracle.py``.
Over generated terms, carriers and indices the two must give equal values
of the same type, or raise the same exception type with the same message.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from ordalab import EvalError, eval_term, lookup, pretty, seq_from_expr
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
