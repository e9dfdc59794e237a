"""Slow reference for ``ordalab.algebra.verify_pseudonorm``.

This is the loop the library ran before it computed each sample norm once:
it evaluates ``p.norm(a)`` and ``p.norm(b)`` again for every pair.  It is
kept only as a differential oracle for the tests.
"""

from ordalab.order import Violation


def verify_pseudonorm_reference(p, sample=None):
    r, m = p.ring, p.codomain
    sample = tuple(sample if sample is not None else r.sample)
    out = []
    for a in sample:
        na = p.norm(a)
        if not m.le(m.identity, na):
            out.append(Violation("pseudonorm.nonneg", (a, na)))
        if r.eq(a, r.identity) != m.eq(na, m.identity):
            out.append(Violation("pseudonorm.definite", (a, na)))
    for a in sample:
        for b in sample:
            if r.negate is not None:
                diff = p.norm(r.sub(a, b))
                if not m.le(diff, m.op(p.norm(a), p.norm(b))):
                    out.append(Violation("pseudonorm.subadditive", (a, b)))
            prod = p.norm(r.mul(a, b))
            bound = m.mul(p.norm(a), p.norm(b))
            ok = m.eq(prod, bound) if p.strict else m.le(prod, bound)
            if not ok:
                law = "pseudonorm.multiplicative" if p.strict else "pseudonorm.submultiplicative"
                out.append(Violation(law, (a, b, prod, bound)))
    return out
