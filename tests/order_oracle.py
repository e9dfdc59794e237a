"""Slow references for the orders of ``Z(X)`` and ``lex``.

Both carriers used to compare through hand-written closures: ``Z(X)`` read
the sign of a difference off ``RatFunc._cmp_sign``, and ``lex`` compared
heads first and then tails.  Both now compare with ``total_compare`` and
join with ``max``, since Python's own comparisons of ``RatFunc``s and of
``(int, Fraction)`` pairs already realise those orders.  The closures, their
joins and the old ``Z(X)`` inverse are kept here only as differential
oracles for the tests.

The density splits of ``Q``, ``Z(X)`` and ``Z[1/p]`` used to be written out
by hand in the registry; they now come from ``demarr_density_witness`` and
``density_from_unit_interval``.  The hand-written splits are kept here too.
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


def two_fifths_split(two_fifths):
    """The old split of Q and Z(X): two fifths of eps, twice."""

    def split(eps):
        part = two_fifths * eps
        return (part, part)

    return split


def localized_split(p):
    """The old split of Z[1/p]: eps/p^2 and (p-1)eps/p^2, which combine to
    exactly eps/p."""

    def split(eps):
        return (eps / p**2, eps * (p - 1) / p**2)

    return split
