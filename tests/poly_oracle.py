"""Slow reference for the polynomial kernel: Euclid over Fraction coefficients.

This is the straightforward algorithm the integer kernel in ``ordalab.poly``
replaces.  It is kept only as a differential oracle for the tests.
"""

from fractions import Fraction
from math import gcd

from ordalab.poly import (
    Poly,
    poly,
    poly_content,
    poly_lead,
    poly_neg,
    poly_primitive,
    poly_scale,
)


def oracle_mul(p: Poly, q: Poly) -> Poly:
    """The schoolbook product: each nonzero coefficient of p times every
    coefficient of q."""
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly(out)


def oracle_pow(p: Poly, n: int) -> Poly:
    """p^n as n schoolbook products."""
    out = (1,)
    for _ in range(n):
        out = oracle_mul(out, p)
    return out


def _poly_divmod_frac(p, q):
    # division over the rationals; p, q are tuples of Fractions, q nonzero
    p = list(p)
    dq = len(q) - 1
    lead = q[-1]
    quo = [Fraction(0)] * max(0, len(p) - dq)
    while len(p) - 1 >= dq and any(p):
        while p and p[-1] == 0:
            p.pop()
        if len(p) - 1 < dq:
            break
        shift = len(p) - 1 - dq
        c = p[-1] / lead
        quo[shift] = c
        for i, b in enumerate(q):
            p[shift + i] -= c * b
        p.pop()
    while p and p[-1] == 0:
        p.pop()
    return quo, p


def oracle_gcd(p: Poly, q: Poly) -> Poly:
    """Primitive gcd with positive leading coefficient."""
    a = tuple(Fraction(c) for c in poly_primitive(p))
    b = tuple(Fraction(c) for c in poly_primitive(q))
    while b:
        _, r = _poly_divmod_frac(a, b)
        a, b = b, tuple(r)
    if not a:
        return ()
    # clear denominators, reduce to a primitive integer polynomial
    den = 1
    for c in a:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = poly(c.numerator * (den // c.denominator) for c in a)
    ints = poly_primitive(ints)
    if poly_lead(ints) < 0:
        ints = poly_neg(ints)
    return ints


def oracle_div_exact(p: Poly, q: Poly) -> Poly:
    quo, rem = _poly_divmod_frac(tuple(Fraction(c) for c in p), tuple(Fraction(c) for c in q))
    if rem:
        raise ValueError("polynomial division is not exact")
    out = []
    for c in quo:
        if c.denominator != 1:
            raise ValueError("polynomial quotient is not integral")
        out.append(c.numerator)
    return poly(out)


def oracle_canonical(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """The (num, den) pair the original ``RatFunc`` constructor produced."""
    num, den = poly(num), poly(den)
    if not num:
        return (), (1,)
    cn, cd = poly_content(num), poly_content(den)
    pn, pd = poly_primitive(num), poly_primitive(den)
    g = oracle_gcd(pn, pd)
    if g != (1,):
        pn = oracle_div_exact(pn, g)
        pd = oracle_div_exact(pd, g)
    c = Fraction(cn, cd)
    num = poly_scale(pn, c.numerator)
    den = poly_scale(pd, c.denominator)
    if poly_lead(den) < 0:
        num, den = poly_neg(num), poly_neg(den)
    return num, den
