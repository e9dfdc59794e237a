"""Ordered algebraic structures with executable density and shrink witnesses.

Everything here manipulates opaque carrier elements through a
:class:`StructureHandle`: a bundle of operations, a four-valued comparator,
capability flags, and optional witnesses.  Witnesses are plain functions
(split an epsilon into two smaller positive parts, shrink a target below a
bound, find a multiple exceeding a threshold, join two elements); every
claim a witness makes is re-checkable exactly, and the verifiers in this
module do exactly that.  No floating point is used anywhere.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

Element = Any


class OrderResult(enum.Enum):
    """Outcome of comparing two elements under a (possibly partial) order."""

    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


Compare = Callable[[Element, Element], OrderResult]
Split = Callable[[Element], tuple[Element, Element]]
Shrink = Callable[[Element, Element], tuple[Element, Element]]


class CapabilityError(Exception):
    """A structure lacks a flag, operation, or witness the check needs.

    Distinct from ValueError: a ValueError means a precondition on concrete
    values failed; a CapabilityError means the question cannot even be posed
    for this structure.  The CLI maps the former to "violation"/usage errors
    and the latter to "unverifiable".
    """


def total_compare(a: Element, b: Element) -> OrderResult:
    # For carriers whose Python comparisons already realize a total order.
    if a == b:
        return OrderResult.EQUAL
    return OrderResult.LESS if a < b else OrderResult.GREATER


_FLAG_IMPLIES = {
    "field": ("division_ring",),
    "division_ring": ("ring", "semiring"),
    "ring": ("hemiring", "near_ring"),
    "near_ring": ("group",),
    "semiring": ("hemiring",),
    "hemiring": ("commutative_add", "unital", "associative"),
    "group": ("unital", "associative"),
    "total_order": ("join_semilattice",),
}


@dataclass(frozen=True)
class StructureFlags:
    """Capability flags; stronger flags imply weaker ones (use make_flags)."""

    unital: bool = False
    associative: bool = False
    commutative_add: bool = False
    group: bool = False
    near_ring: bool = False
    hemiring: bool = False
    semiring: bool = False
    ring: bool = False
    division_ring: bool = False
    field: bool = False
    total_order: bool = False
    join_semilattice: bool = False


def make_flags(**kwargs: bool) -> StructureFlags:
    """Build flags, closing upward along the implication chain.

    make_flags(field=True) also sets division_ring, ring, semiring, hemiring,
    near_ring, group, commutative_add, unital, associative.
    """
    names = set(k for k, v in kwargs.items() if v)
    unknown = names - set(StructureFlags.__dataclass_fields__)
    if unknown:
        raise TypeError(f"unknown flags: {sorted(unknown)}")
    changed = True
    while changed:
        changed = False
        for name in tuple(names):
            for implied in _FLAG_IMPLIES.get(name, ()):
                if implied not in names:
                    names.add(implied)
                    changed = True
    return StructureFlags(**{name: True for name in names})


@dataclass(frozen=True)
class Violation:
    """One exact counterexample found by a verifier."""

    law: str
    values: tuple
    note: str = ""


@dataclass(frozen=True)
class StructureHandle:
    """A carrier with its operations, order, flags, and optional extras.

    op is the primary (additive) operation; second_op the multiplicative one
    when present.  compare returns one of four outcomes and is the only
    source of order information.  eps_grid is a strictly decreasing tuple of
    positive elements used as default check targets; sample a spread of
    carrier elements for law checks.  fmt renders elements as exact text.

    The witnesses are plain functions, None where the structure has none:
    density(eps) -> (beta, gamma), both positive, with beta*gamma < eps;
    shrink(alpha, bound) -> (left, right) with left*bound < alpha and
    bound*right < alpha, all of alpha, bound, left, right positive;
    archimedean(x, y) -> n >= 1 such that the n-fold sum of x exceeds y;
    join(a, b) -> the least upper bound of a and b.
    """

    name: str
    flags: StructureFlags
    op: Callable[[Element, Element], Element]
    compare: Compare
    identity: Element = None
    negate: Callable[[Element], Element] | None = None
    second_op: Callable[[Element, Element], Element] | None = None
    one: Element = None
    invert: Callable[[Element], Element] | None = None
    density: Split | None = None
    shrink: Shrink | None = None
    archimedean: Callable[[Element, Element], int] | None = None
    join: Callable[[Element, Element], Element] | None = None
    eps_grid: tuple = ()
    sample: tuple = ()
    fmt: Callable[[Element], str] = str
    symbols: Mapping[str, Element] = field(default_factory=dict)
    from_rational: Callable[[Any], Element] | None = None
    aliases: tuple[str, ...] = ()
    metrics: tuple = ()
    norms: tuple = ()
    pnorms: tuple = ()
    # True when compare is total_compare: Python's comparisons realize the
    # order, so the shorthands below use them and skip OrderResult.  Fixed
    # at construction, so a profiler that later wraps the module's
    # total_compare does not change which path a handle takes.
    _direct: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_direct", self.compare is total_compare)

    # -- comparison shorthands ------------------------------------------
    def lt(self, a: Element, b: Element) -> bool:
        if self._direct:
            return a < b
        return self.compare(a, b) is OrderResult.LESS

    def le(self, a: Element, b: Element) -> bool:
        if self._direct:
            return a <= b
        return self.compare(a, b) in (OrderResult.LESS, OrderResult.EQUAL)

    def eq(self, a: Element, b: Element) -> bool:
        if self._direct:
            return a == b
        return self.compare(a, b) is OrderResult.EQUAL

    def is_positive(self, a: Element) -> bool:
        return self.lt(self.identity, a)

    def is_nonnegative(self, a: Element) -> bool:
        return self.le(self.identity, a)

    # -- derived operations ---------------------------------------------
    def sub(self, a: Element, b: Element) -> Element:
        if self.negate is None:
            raise CapabilityError(f"{self.name} has no additive inverses")
        return self.op(a, self.negate(b))

    def mul(self, a: Element, b: Element) -> Element:
        if self.second_op is None:
            raise CapabilityError(f"{self.name} has no second operation")
        return self.second_op(a, b)

    def require(self, *flag_names: str) -> None:
        missing = [n for n in flag_names if not getattr(self.flags, n)]
        if missing:
            raise CapabilityError(f"{self.name} lacks: {', '.join(missing)}")


def nat_mul(s: StructureHandle, n: int, x: Element) -> Element:
    """n-fold op-sum of x (n >= 0); doubling needs associativity."""
    if n < 0:
        raise ValueError("repetition count must be nonnegative")
    if n == 0:
        if not s.flags.unital:
            raise CapabilityError(f"{s.name} has no identity for an empty sum")
        return s.identity
    if not s.flags.associative:
        acc = x
        for _ in range(n - 1):
            acc = s.op(acc, x)
        return acc
    return _doubling(s.op, x, n)


def nat_pow(s: StructureHandle, x: Element, n: int) -> Element:
    """n-fold second_op-product of x (n >= 0; empty product is one)."""
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    if s.second_op is None:
        raise CapabilityError(f"{s.name} has no second operation")
    if n == 0:
        if s.one is None:
            raise CapabilityError(f"{s.name} has no multiplicative identity")
        return s.one
    return _doubling(s.second_op, x, n)


def _doubling(f: Callable[[Element, Element], Element], x: Element, n: int) -> Element:
    # the n-fold f-product of x (n >= 1) by square-and-multiply; f associative
    acc = None
    base = x
    while n:
        if n & 1:
            acc = base if acc is None else f(acc, base)
        n >>= 1
        if n:
            base = f(base, base)
    return acc


def join_fold(s: StructureHandle, items: Iterable[Element]) -> Element:
    j = s.join
    if j is None:
        raise CapabilityError(f"{s.name} has no join witness")
    it = iter(items)
    try:
        acc = next(it)
    except StopIteration:
        raise ValueError("join of an empty collection") from None
    for x in it:
        acc = j(acc, x)
    return acc


# ---------------------------------------------------------------------------
# density machinery


def checked_split(s: StructureHandle, w: Split, eps: Element) -> tuple[Element, Element]:
    """Run a split and verify its contract exactly, raising on any breach."""
    if not s.is_positive(eps):
        raise ValueError(f"{s.name}: epsilon {s.fmt(eps)} is not positive")
    beta, gamma = w(eps)
    if not s.is_positive(beta) or not s.is_positive(gamma):
        raise ValueError(
            f"{s.name}: split({s.fmt(eps)}) produced a non-positive part "
            f"({s.fmt(beta)}, {s.fmt(gamma)})"
        )
    if not s.lt(s.op(beta, gamma), eps):
        raise ValueError(
            f"{s.name}: split({s.fmt(eps)}) parts do not combine below epsilon"
        )
    return beta, gamma


def split_witness(s: StructureHandle, w: Split | None) -> Split:
    w = w if w is not None else s.density
    if w is None:
        raise CapabilityError(f"{s.name} has no density witness")
    return w


def shrink_witness(s: StructureHandle) -> Shrink:
    if s.shrink is None:
        raise CapabilityError(f"{s.name} has no shrink witness")
    return s.shrink


def n_split(s: StructureHandle, eps: Element, n: int, w: Split | None = None) -> list[Element]:
    """Split eps into n positive parts whose op-fold stays strictly below eps.

    n=1 returns the first half of a single split (still strictly below eps);
    larger n repeatedly splits the last part.
    """
    w = split_witness(s, w)
    if n < 1:
        raise ValueError("part count must be at least 1")
    beta, gamma = checked_split(s, w, eps)
    if n == 1:
        if not s.lt(beta, eps):
            raise ValueError(f"{s.name}: split part not below epsilon")
        return [beta]
    parts = [beta, gamma]
    while len(parts) < n:
        parts[-1:] = checked_split(s, w, parts[-1])
    return parts


def fold_op(s: StructureHandle, items: Sequence[Element]) -> Element:
    acc = items[0]
    for x in items[1:]:
        acc = s.op(acc, x)
    return acc


def density_from_unit_interval(s: StructureHandle, alpha: Element) -> Split:
    """Density witness from one element strictly between 0 and 1.

    Requires a totally ordered near-ring with identity.  The split of eps is
    (a*a*eps, ((1-a)*a)*eps); the two parts combine to exactly a*eps.
    """
    s.require("near_ring", "total_order")
    if s.second_op is None or s.one is None:
        raise CapabilityError(f"{s.name} has no unital multiplication")
    if not (s.lt(s.identity, alpha) and s.lt(alpha, s.one)):
        raise ValueError(
            f"{s.name}: {s.fmt(alpha)} is not strictly between 0 and 1"
        )
    alpha_sq = s.second_op(alpha, alpha)
    # (1 - a)*a equals a - a*a using only right distributivity.
    coeff = s.second_op(s.op(s.one, s.negate(alpha)), alpha)

    def split(eps: Element) -> tuple[Element, Element]:
        return (s.second_op(alpha_sq, eps), s.second_op(coeff, eps))

    return split


def betweenness(s: StructureHandle, lo: Element, hi: Element, w: Split | None = None) -> Element:
    """An element strictly between lo and hi in a dense ordered group."""
    s.require("group")
    w = split_witness(s, w)
    if not s.lt(lo, hi):
        raise ValueError(
            f"{s.name}: need {s.fmt(lo)} < {s.fmt(hi)} to interpolate"
        )
    gap = s.op(s.negate(lo), hi)
    beta, _ = checked_split(s, w, gap)
    mid = s.op(lo, beta)
    if not (s.lt(lo, mid) and s.lt(mid, hi)):
        raise ValueError(f"{s.name}: witness produced a bad midpoint")
    return mid


def demarr_density_witness(s: StructureHandle) -> Split:
    """Density witness for ordered division rings where 1 is positive.

    Splits a positive x into two copies of (2/5')x where 2 and 5' are the
    one-fold sums 1+1 and 1+1+1+1+1; works under partial orders.
    """
    s.require("division_ring")
    if not s.lt(s.identity, s.one):
        raise ValueError(f"{s.name}: multiplicative identity is not positive")
    two = nat_mul(s, 2, s.one)
    five = nat_mul(s, 5, s.one)
    c = s.second_op(two, s.invert(five))

    def split(x: Element) -> tuple[Element, Element]:
        part = s.second_op(c, x)
        return (part, part)

    return split


# ---------------------------------------------------------------------------
# law verifiers (exact; return lists of Violation, empty means pass)


def _pairs_lt(s: StructureHandle, sample: Sequence[Element], strict: bool):
    rel = s.lt if strict else s.le
    for a in sample:
        for b in sample:
            if a is not b and rel(a, b):
                yield a, b


def verify_compatibility(
    s: StructureHandle, sample: Sequence[Element] | None = None
) -> list[Violation]:
    """Check order-compatibility of op (and second_op on the positive cone).

    A group is checked for a<b -> a*c<b*c and c*a<c*b, since cancellation
    makes op-compatibility strict there; any other structure for the
    non-strict variant.
    """
    sample = tuple(sample if sample is not None else s.sample)
    strict = s.flags.group
    rel = s.lt if strict else s.le
    # (law prefix, operation, elements c to combine with, wording)
    laws = [("op", s.op, sample, "with")]
    if s.second_op is not None:
        cone = [c for c in sample if (s.is_positive(c) if strict else s.is_nonnegative(c))]
        laws.append(("mul", s.second_op, cone, "scaled by"))
    out: list[Violation] = []
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


def verify_monoid(s: StructureHandle) -> list[Violation]:
    """Identity and (if flagged) associativity/commutativity of op."""
    sample = tuple(s.sample)
    out: list[Violation] = []
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


def verify_group(s: StructureHandle) -> list[Violation]:
    sample = tuple(s.sample)
    out: list[Violation] = []
    if not s.flags.group or s.negate is None:
        return [Violation("group.capability", (), f"{s.name} is not a group")]
    for a in sample:
        if not s.eq(s.op(a, s.negate(a)), s.identity):
            out.append(Violation("group.inverse-right", (a,)))
        if not s.eq(s.op(s.negate(a), a), s.identity):
            out.append(Violation("group.inverse-left", (a,)))
    return out


def verify_hemiring(s: StructureHandle) -> list[Violation]:
    """Distributivity and zero-absorption for flagged hemirings."""
    sample = tuple(s.sample)
    out: list[Violation] = []
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


def _density_at(
    s: StructureHandle, w: Split, eps: Element
) -> tuple[list[Violation], tuple | None]:
    """Exercise a density witness at one target: the n-part splits of eps for
    n up to 4, parts positive, folds below eps.  Returns the violations and
    the two-part split it produced (None when it failed)."""
    out: list[Violation] = []
    pair = None
    for n in range(1, 5):
        try:
            parts = n_split(s, eps, n, w)
        except ValueError as exc:
            out.append(Violation("density.split", (eps, n), str(exc)))
            continue
        if n == 2:
            pair = tuple(parts)
        if not all(s.is_positive(p) for p in parts):
            out.append(Violation("density.positivity", (eps, tuple(parts))))
        if not s.lt(fold_op(s, parts), eps):
            out.append(Violation("density.fold-below", (eps, tuple(parts))))
    return out, pair


def verify_density(
    s: StructureHandle,
    w: Split | None = None,
    grid: Sequence[Element] | None = None,
) -> list[Violation]:
    """Exercise a density witness over a grid: parts positive, folds below eps."""
    w = split_witness(s, w)
    grid = tuple(grid if grid is not None else s.eps_grid)
    return [v for eps in grid for v in _density_at(s, w, eps)[0]]


def _shrink_at(
    s: StructureHandle, w: Shrink, alpha: Element, bounds: Sequence[Element]
) -> tuple[list[Violation], list[tuple]]:
    """Exercise a shrink witness at one target against each bound.  Returns
    the violations and the (bound, left, right) triples whose parts are
    positive."""
    out: list[Violation] = []
    produced: list[tuple] = []
    for m in bounds:
        left, right = w(alpha, m)
        if not (s.is_positive(left) and s.is_positive(right)):
            out.append(Violation("shrink.positivity", (alpha, m, left, right)))
            continue
        if not s.lt(s.second_op(left, m), alpha):
            out.append(Violation("shrink.left-product", (alpha, m, left)))
        if not s.lt(s.second_op(m, right), alpha):
            out.append(Violation("shrink.right-product", (alpha, m, right)))
        produced.append((m, left, right))
    return out, produced


def verify_shrink(
    s: StructureHandle,
    targets: Sequence[Element] | None = None,
    bounds: Sequence[Element] | None = None,
) -> list[Violation]:
    """Exercise a shrink witness: both scaled products land strictly below."""
    w = shrink_witness(s)
    if s.second_op is None:
        raise CapabilityError(f"{s.name} has no second operation")
    targets = tuple(targets if targets is not None else s.eps_grid)
    bounds = tuple(bounds if bounds is not None else (x for x in s.sample if s.is_positive(x)))
    return [v for alpha in targets for v in _shrink_at(s, w, alpha, bounds)[0]]


def verify_archimedean(s: StructureHandle) -> list[Violation]:
    w = s.archimedean
    if w is None:
        raise CapabilityError(f"{s.name} has no multiple-exceeds witness")
    positives = [x for x in s.sample if s.is_positive(x)]
    out: list[Violation] = []
    for x in positives:
        for y in s.sample:
            n = w(x, y)
            if n < 1:
                out.append(Violation("archimedean.count", (x, y, n)))
                continue
            if not s.lt(y, nat_mul(s, n, x)):
                out.append(Violation("archimedean.exceeds", (x, y, n)))
    return out

