"""Slow references for the law verifiers that compute each value once.

These are the loops ``ordalab`` ran before its law verifiers memoised their
operations, comparisons, distances and norms on the identity of their
arguments: ``order.verify_monoid``, ``order.verify_hemiring``,
``order.verify_compatibility``, ``suites._order_violations``,
``suites._join_violations``, ``metric.verify_metric`` and
``metric.verify_norm``.  They recompute every value at each use and are
kept only as differential oracles for the tests.
"""

from ordalab.order import OrderResult, Violation


def _pairs_lt(s, sample, strict):
    rel = s.lt if strict else s.le
    for a in sample:
        for b in sample:
            if a is not b and rel(a, b):
                yield a, b


def verify_compatibility(s):
    sample = tuple(s.sample)
    strict = s.flags.group
    rel = s.lt if strict else s.le
    # (law prefix, operation, elements c to combine with, wording)
    laws = [("op", s.op, sample, "with")]
    if s.second_op is not None:
        cone = [c for c in sample if (s.is_positive(c) if strict else s.is_nonnegative(c))]
        laws.append(("mul", s.second_op, cone, "scaled by"))
    out = []
    for prefix, f, others, wording in laws:
        for a, b in _pairs_lt(s, sample, strict):
            for c in others:
                for side, x, y in (("right", (a, c), (b, c)), ("left", (c, a), (c, b))):
                    fx, fy = f(*x), f(*y)
                    if not rel(fx, fy):
                        out.append(Violation(
                            f"order.compatibility.{prefix}-{side}",
                            (a, b, c, fx, fy),
                            f"{s.fmt(a)} vs {s.fmt(b)} {wording} {s.fmt(c)} on the {side}",
                        ))
    return out


def verify_monoid(s):
    sample = tuple(s.sample)
    out = []
    if s.flags.unital:
        for a in sample:
            if not (s.eq(s.op(s.identity, a), a) and s.eq(s.op(a, s.identity), a)):
                out.append(Violation("op.identity", (a,)))
    if s.flags.associative:
        small = sample[:6]
        for a in small:
            for b in small:
                for c in small:
                    if not s.eq(s.op(s.op(a, b), c), s.op(a, s.op(b, c))):
                        out.append(Violation("op.associative", (a, b, c)))
    if s.flags.commutative_add:
        for a in sample:
            for b in sample:
                if not s.eq(s.op(a, b), s.op(b, a)):
                    out.append(Violation("op.commutative", (a, b)))
    return out


def verify_hemiring(s):
    sample = tuple(s.sample)
    out = []
    if not s.flags.hemiring or s.second_op is None:
        return [Violation("hemiring.capability", (), f"{s.name} is not a hemiring")]
    small = sample[:6]
    for a in small:
        za = s.second_op(s.identity, a)
        az = s.second_op(a, s.identity)
        if not (s.eq(za, s.identity) and s.eq(az, s.identity)):
            out.append(Violation("hemiring.zero-absorbs", (a,)))
        for b in small:
            for c in small:
                lhs = s.second_op(a, s.op(b, c))
                rhs = s.op(s.second_op(a, b), s.second_op(a, c))
                if not s.eq(lhs, rhs):
                    out.append(Violation("hemiring.distributive-left", (a, b, c)))
                lhs = s.second_op(s.op(a, b), c)
                rhs = s.op(s.second_op(a, c), s.second_op(b, c))
                if not s.eq(lhs, rhs):
                    out.append(Violation("hemiring.distributive-right", (a, b, c)))
    return out


def order_violations(handle, sample):
    out = []
    mirror = {
        OrderResult.LESS: OrderResult.GREATER,
        OrderResult.GREATER: OrderResult.LESS,
        OrderResult.EQUAL: OrderResult.EQUAL,
        OrderResult.INCOMPARABLE: OrderResult.INCOMPARABLE,
    }
    for a in sample:
        if handle.compare(a, a) is not OrderResult.EQUAL:
            out.append(Violation("order.reflexive", (a,)))
        for b in sample:
            r = handle.compare(a, b)
            if handle.compare(b, a) is not mirror[r]:
                out.append(Violation("order.mirror", (a, b)))
            if handle.flags.total_order and r is OrderResult.INCOMPARABLE:
                out.append(Violation("order.total", (a, b)))
    small = sample[:6]
    for a in small:
        for b in small:
            for c in small:
                if handle.lt(a, b) and handle.lt(b, c) and not handle.lt(a, c):
                    out.append(Violation("order.transitive", (a, b, c)))
    return out


def join_violations(handle, sample):
    out = []
    join = handle.join
    for a in sample:
        for b in sample:
            j = join(a, b)
            if not (handle.le(a, j) and handle.le(b, j)):
                out.append(Violation("join.upper-bound", (a, b, j)))
                continue
            for c in sample:
                if handle.le(a, c) and handle.le(b, c) and not handle.le(j, c):
                    out.append(Violation("join.least", (a, b, c, j)))
    return out


def verify_metric(space, triples):
    m = space.codomain
    pts = tuple(space.points)
    out = []
    for x in pts:
        for y in pts:
            dxy = space.distance(x, y)
            if not m.le(m.identity, dxy):
                out.append(Violation("metric.nonneg", (x, y, dxy)))
            same = x == y
            iszero = m.eq(dxy, m.identity)
            if same != iszero:
                out.append(Violation("metric.identity", (x, y, dxy)))
            if not m.eq(dxy, space.distance(y, x)):
                out.append(Violation("metric.symmetry", (x, y)))
    for x, y, z in triples:
        lhs = space.distance(x, z)
        rhs = m.op(space.distance(x, y), space.distance(y, z))
        if not m.le(lhs, rhs):
            out.append(Violation("metric.triangle", (x, y, z, lhs, rhs)))
    return out


def verify_norm(ng):
    g, m = ng.group, ng.codomain
    sample = tuple(ng.group.sample)
    out = []
    for a in sample:
        na = ng.norm(a)
        if not m.le(m.identity, na):
            out.append(Violation("norm.nonneg", (a, na)))
        if g.eq(a, g.identity) != m.eq(na, m.identity):
            out.append(Violation("norm.definite", (a, na)))
        if not m.eq(ng.norm(g.negate(a)), na):
            out.append(Violation("norm.inverse-invariance", (a,)))
    for a in sample:
        for b in sample:
            bound = m.op(ng.norm(a), ng.norm(b))
            if not m.le(ng.norm(g.sub(a, b)), bound):
                out.append(Violation("norm.subadditive-diff", (a, b)))
            if not m.le(ng.norm(g.op(a, b)), bound):
                out.append(Violation("norm.subadditive", (a, b)))
            if m.negate is not None:
                gap = m.sub(ng.norm(a), ng.norm(b))
                if not m.le(gap, ng.norm(g.sub(a, b))):
                    out.append(Violation("norm.reverse-triangle", (a, b)))
    return out
