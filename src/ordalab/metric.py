"""Distances and norms valued in ordered monoids rather than the reals.

A MetricSpace carries points, a codomain structure, and a distance function;
the triangle law combines distances with the codomain's op, so a join
semilattice codomain gives ultrametric-style geometry and an additive one
the familiar kind.  NormedGroup pairs a group with a codomain-valued norm;
its induced metric is d(g, h) = norm(g - h).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from .order import (
    CapabilityError,
    Element,
    StructureHandle,
    Violation,
    once,
)


@dataclass(frozen=True)
class MetricSpace:
    """Points with a codomain-valued distance.

    _group, set only by absolute_value_metric, is the ordered abelian group
    whose |x - y| is the distance; the Cauchy verifier and scan decide
    windows on such a space from the spread max - min of their values, and
    the convergence scan from the bounds limit - eps and limit + eps.  Not
    an init field, so dataclasses.replace drops the claim.
    """

    name: str
    codomain: StructureHandle
    distance: Callable[[Any, Any], Element]
    points: tuple = ()
    _group: StructureHandle | None = field(default=None, init=False, repr=False,
                                           compare=False)


@dataclass(frozen=True)
class NormedGroup:
    name: str
    group: StructureHandle
    codomain: StructureHandle
    norm: Callable[[Element], Element]


def absolute_value(s: StructureHandle, x: Element) -> Element:
    """max(x, -x) in a totally ordered group: x itself unless x is
    negative."""
    # every distance and norm comes here: test the flags, and build the
    # error only when one is missing
    if not (s.flags.group and s.flags.total_order):
        s.require("group", "total_order")
    return x if s.le(s.identity, x) else s.negate(x)


def absolute_value_metric(s: StructureHandle) -> MetricSpace:
    """d(x, y) = |x - y| on a totally ordered group (abelian or not), with
    the structure's sample as points; an abelian s is recorded as the
    space's _group."""
    s.require("group", "total_order")

    def d(x, y):
        return absolute_value(s, s.sub(x, y))

    space = MetricSpace(
        name=f"{s.name}.abs",
        codomain=s,
        distance=d,
        points=tuple(s.sample),
    )
    if s.flags.commutative_add:
        object.__setattr__(space, "_group", s)
    return space


def absolute_value_norm(s: StructureHandle) -> NormedGroup:
    s.require("group", "total_order")
    return NormedGroup(
        name=f"{s.name}.abs",
        group=s,
        codomain=s,
        norm=lambda x: absolute_value(s, x),
    )


def induced_metric(ng: NormedGroup) -> MetricSpace:
    """The metric a group norm induces: d(g, h) = norm(g * h^-1)."""
    g = ng.group

    def d(x, y):
        return ng.norm(g.sub(x, y))

    return MetricSpace(
        name=f"{ng.name}.induced",
        codomain=ng.codomain,
        distance=d,
        points=tuple(ng.group.sample),
    )


def product_metric(name: str, spaces: Sequence[MetricSpace]) -> MetricSpace:
    """Componentwise distance combined with the shared codomain's op; the
    points are a grid of at most 12 (at least two per factor)."""
    if not spaces:
        raise ValueError("need at least one factor")
    codomain = spaces[0].codomain
    for sp in spaces[1:]:
        if sp.codomain is not codomain:
            raise CapabilityError("product factors must share a codomain")
    codomain.require("commutative_add")

    def d(xs, ys):
        acc = None
        for sp, x, y in zip(spaces, xs, ys):
            v = sp.distance(x, y)
            acc = v if acc is None else codomain.op(acc, v)
        return acc

    per_factor = 1
    while (per_factor + 1) ** len(spaces) <= 12:
        per_factor += 1
    per_factor = max(2, per_factor)
    pts = tuple(itertools.product(*(sp.points[:per_factor] for sp in spaces)))
    return MetricSpace(name=name, codomain=codomain, distance=d, points=pts)


def verify_metric(space: MetricSpace, triples: Iterable[tuple]) -> list[Violation]:
    """Exact check of nonnegativity, identity, symmetry, and the triangle law.

    Pair laws run over all pairs of the space's points; the triangle law
    runs over the given triples.  The metric suite passes the cube of the
    first four points plus 48 seeded random triples.  Each distance is taken
    once per pair of point objects.
    """
    m = space.codomain
    dist = once(space.distance)
    pts = tuple(space.points)
    out: list[Violation] = []
    for x in pts:
        for y in pts:
            dxy = dist(x, y)
            if not m.le(m.identity, dxy):
                out.append(Violation("metric.nonneg", (x, y, dxy)))
            same = x == y
            iszero = m.eq(dxy, m.identity)
            if same != iszero:
                out.append(Violation("metric.identity", (x, y, dxy)))
            if not m.eq(dxy, dist(y, x)):
                out.append(Violation("metric.symmetry", (x, y)))
    for x, y, z in triples:
        lhs = dist(x, z)
        rhs = m.op(dist(x, y), dist(y, z))
        if not m.le(lhs, rhs):
            out.append(Violation("metric.triangle", (x, y, z, lhs, rhs)))
    return out


def sample_triples(points: Sequence, count: int, rng) -> list[tuple]:
    pts = tuple(points)
    return [
        (rng.choice(pts), rng.choice(pts), rng.choice(pts))
        for _ in range(count)
    ]


def verify_norm(ng: NormedGroup) -> list[Violation]:
    """Exact check of the group-norm laws plus derived consequences.

    Base laws: norm is nonnegative, vanishes exactly at the identity, and
    norm(g - h) <= norm(g) + norm(h).  Derived and also checked: inverse
    invariance, plain subadditivity, and (when the codomain has negation)
    the reverse triangle inequality.  Each sample norm is taken once, and
    norm(g - h) serves both laws that use it.
    """
    g, m = ng.group, ng.codomain
    sample = tuple(ng.group.sample)
    norms = []
    out: list[Violation] = []
    for a in sample:
        na = ng.norm(a)
        norms.append(na)
        if not m.le(m.identity, na):
            out.append(Violation("norm.nonneg", (a, na)))
        if g.eq(a, g.identity) != m.eq(na, m.identity):
            out.append(Violation("norm.definite", (a, na)))
        if not m.eq(ng.norm(g.negate(a)), na):
            out.append(Violation("norm.inverse-invariance", (a,)))
    for a, na in zip(sample, norms):
        for b, nb in zip(sample, norms):
            bound = m.op(na, nb)
            diff = ng.norm(g.sub(a, b))
            if not m.le(diff, bound):
                out.append(Violation("norm.subadditive-diff", (a, b)))
            if not m.le(ng.norm(g.op(a, b)), bound):
                out.append(Violation("norm.subadditive", (a, b)))
            if m.negate is not None:
                gap = m.sub(na, nb)
                if not m.le(gap, diff):
                    out.append(Violation("norm.reverse-triangle", (a, b)))
    return out
