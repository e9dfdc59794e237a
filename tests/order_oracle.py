"""Slow references for the orders of ``Z(X)`` and ``lex``.

Both carriers used to compare through hand-written closures: ``Z(X)`` read
the sign of a difference off ``RatFunc._cmp_sign``, and ``lex`` compared
heads first and then tails.  Both now compare with ``total_compare`` and
join with ``max``, since Python's own comparisons of ``RatFunc``s and of
``(int, Fraction)`` pairs already realise those orders.  The closures, their
joins and the old ``Z(X)`` inverse are kept here only as differential
oracles for the tests.
"""

from ordalab import OrderResult, total_compare
from ordalab.poly import RF_ONE, RF_ZERO


def ratfunc_compare(a, b):
    s = a._cmp_sign(b)
    if s == 0:
        return OrderResult.EQUAL
    return OrderResult.LESS if s < 0 else OrderResult.GREATER


def ratfunc_join(a, b):
    return b if a < b else a


def ratfunc_invert(x):
    if x == RF_ZERO:
        raise ValueError("0 has no multiplicative inverse")
    return RF_ONE / x


def lex_compare(g, h):
    if g[0] != h[0]:
        return OrderResult.LESS if g[0] < h[0] else OrderResult.GREATER
    return total_compare(g[1], h[1])


def lex_join(g, h):
    return h if lex_compare(g, h) is OrderResult.LESS else g
