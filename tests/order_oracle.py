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
``density_from_unit_interval``.  The hand-written splits are kept here too,
and so is ``module_density_witness``, which split ``Q^2`` by a scalar action
before ``Q^2`` took ``Q``'s slice split on each coordinate.
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


def module_density_witness(ring, smul, alpha):
    """The old split of Q^2 from a scalar in (0, 1): a positive m splits into
    ((alpha - alpha^2)m, (alpha^2)m), which combine to exactly alpha*m."""
    ring.require("ring", "total_order")
    if not (ring.lt(ring.identity, alpha) and ring.lt(alpha, ring.one)):
        raise ValueError(
            f"{ring.name}: scalar {ring.fmt(alpha)} is not strictly between 0 and 1"
        )
    alpha_sq = ring.second_op(alpha, alpha)
    c1 = ring.sub(alpha, alpha_sq)

    def split(m):
        return (smul(c1, m), smul(alpha_sq, m))

    return split
