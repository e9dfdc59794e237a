"""Slow reference for term evaluation: a walk of the syntax tree per index.

This is the evaluator that ``ordalab.termexpr``'s compiled closures
replace: it dispatches on the node type and converts every literal again at
each index.  It is kept only as a differential oracle for the tests, with
a recursive reference for the compiler's record of which nodes mention n
and the doubling path that ``series.condensed_terms`` replaced.
"""

from fractions import Fraction

from ordalab.order import nat_mul, nat_pow
from ordalab.termexpr import Bin, EvalError, Index, Lit, Pow, Sym


def eval_term_reference(node, handle, n):
    """Evaluate at index n >= 1, exactly, through the structure handle."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"index must be a positive integer, got {n!r}")

    def as_element(q):
        if handle.from_rational is None:
            raise EvalError(f"{handle.name} cannot interpret rational literals")
        return handle.from_rational(q)

    def go(node):
        if isinstance(node, Lit):
            return as_element(Fraction(node.value))
        if isinstance(node, Index):
            return as_element(Fraction(n))
        if isinstance(node, Sym):
            try:
                return handle.symbols[node.name]
            except KeyError:
                raise EvalError(
                    f"{handle.name} does not define the symbol {node.name!r}"
                ) from None
        if isinstance(node, Pow):
            return nat_pow(handle, go(node.base),
                           n if node.exponent is None else node.exponent)
        if isinstance(node, Bin):
            if node.op == "+":
                return handle.op(go(node.left), go(node.right))
            if node.op == "-":
                if handle.negate is None:
                    raise EvalError(f"{handle.name} has no subtraction")
                return handle.sub(go(node.left), go(node.right))
            if node.op == "*":
                if handle.second_op is None:
                    raise EvalError(f"{handle.name} has no multiplication")
                return handle.mul(go(node.left), go(node.right))
            if node.op == "/":
                if handle.second_op is None or handle.invert is None:
                    raise EvalError(f"{handle.name} has no division")
                # the denominator first: a zero one is reported before the
                # numerator is evaluated
                den = go(node.right)
                if handle.eq(den, handle.identity):
                    raise EvalError("division by zero", n)
                num = go(node.left)
                try:
                    inverse = handle.invert(den)
                except ValueError as exc:
                    # a nonzero element without an inverse in this carrier
                    raise EvalError(str(exc)) from exc
                return handle.mul(num, inverse)
        raise TypeError(f"not a term node: {node!r}")

    return go(node)


def mentions_index_reference(node):
    """Whether the term depends on the index n: true of n and of pow(_, n)
    anywhere in it."""
    if isinstance(node, Index):
        return True
    if isinstance(node, Bin):
        return mentions_index_reference(node.left) or mentions_index_reference(node.right)
    if isinstance(node, Pow):
        return node.exponent is None or mentions_index_reference(node.base)
    return False


def condensed_term_reference(handle, x, j):
    """Term j of the condensed series as 2^(j-1) copies of x_(2^(j-1)),
    added up by doubling the term itself."""
    return nat_mul(handle, 2 ** (j - 1), x(2 ** (j - 1)))
