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
from fractions import Fraction
from math import gcd
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


def field_invert(x: Element) -> Element:
    # the inverse in Q and in Z(X), whose elements both divide the integer 1
    if x == 0:
        raise ValueError("0 has no multiplicative inverse")
    return 1 / x


# The Fraction kernel: a + b, a * b and -a by the gcd steps of Fraction's
# own _add and _mul, with the coprime result written into the slots
# _numerator and _denominator, skipping the numeric tower and the
# normalising constructor; |a| and the sign of a - b read off the pairs,
# and 2^k is written as one.
# Any operand that is not exactly a Fraction (an int, a bool, a subclass)
# takes Python's operator or comparison.

_new = object.__new__


def frac_add(a: Element, b: Element) -> Element:
    if type(a) is not Fraction or type(b) is not Fraction:
        return a + b
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    g = gcd(da, db)
    if g == 1:
        n, d = na * db + da * nb, da * db
    else:
        s = da // g
        n = na * (db // g) + nb * s
        g2 = gcd(n, g)
        if g2 == 1:
            d = s * db
        else:
            n, d = n // g2, s * (db // g2)
    x = _new(Fraction)
    x._numerator, x._denominator = n, d
    return x


def frac_mul(a: Element, b: Element) -> Element:
    if type(a) is not Fraction or type(b) is not Fraction:
        return a * b
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    g1 = gcd(na, db)
    if g1 > 1:
        na, db = na // g1, db // g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb, da = nb // g2, da // g2
    x = _new(Fraction)
    x._numerator, x._denominator = na * nb, da * db
    return x


def frac_neg(a: Element) -> Element:
    if type(a) is not Fraction:
        return -a
    x = _new(Fraction)
    x._numerator, x._denominator = -a._numerator, a._denominator
    return x


def frac_pow2(k: int) -> Fraction:
    x = _new(Fraction)
    x._numerator, x._denominator = (1 << k, 1) if k >= 0 else (1, 1 << -k)
    return x


def frac_abs(a: Element) -> Element:
    if type(a) is not Fraction:
        return abs(a)
    return a if a._numerator >= 0 else frac_neg(a)


def frac_cmp(a: Element, b: Element) -> int:
    # the sign of a - b: -1, 0 or 1, from the cross products of the pairs
    if type(a) is not Fraction or type(b) is not Fraction:
        return (a > b) - (a < b)
    x, y = a._numerator * b._denominator, b._numerator * a._denominator
    return (x > y) - (x < y)


# Q's own comparison and operations, bound here at import, so a profiler
# that later rebinds the module's functions does not change which handles
# match them
_Q_OPERATIONS = (total_compare, frac_add, frac_neg, frac_mul, field_invert)


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
    unknown = set(kwargs) - set(StructureFlags.__dataclass_fields__)
    if unknown:
        raise TypeError(f"unknown flags: {sorted(unknown)}")
    names = set(k for k, v in kwargs.items() if v)
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
    # True when compare is total_compare as bound at import: Python's
    # comparisons realize the order, so the shorthands below use them and
    # skip OrderResult.  A profiler that later wraps the module's
    # total_compare does not change which path a handle takes.
    _direct: bool = field(init=False, repr=False, compare=False)
    # True when every operation and constant that evaluating a rational
    # function of n reaches is Q's own, so termexpr may evaluate one over
    # plain ints.  Fixed at construction, like _direct.
    _int_terms: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_direct", self.compare is _Q_OPERATIONS[0])
        ops = (self.compare, self.op, self.negate, self.second_op, self.invert)
        object.__setattr__(self, "_int_terms", (
            self.from_rational is Fraction
            and all(f is g for f, g in zip(ops, _Q_OPERATIONS))
            and type(self.identity) is Fraction and self.identity == 0
            and type(self.one) is Fraction and self.one == 1))

    # -- comparison shorthands ------------------------------------------
    # On the direct path two Fractions compare their integer pairs, whose
    # denominators are positive and, being coprime, unique: cross products
    # for the order, equal pairs for equality.
    def lt(self, a: Element, b: Element) -> bool:
        if self._direct:
            if type(a) is Fraction and type(b) is Fraction:
                return a._numerator * b._denominator < b._numerator * a._denominator
            return a < b
        return self.compare(a, b) is OrderResult.LESS

    def le(self, a: Element, b: Element) -> bool:
        if self._direct:
            if type(a) is Fraction and type(b) is Fraction:
                return a._numerator * b._denominator <= b._numerator * a._denominator
            return a <= b
        return self.compare(a, b) in (OrderResult.LESS, OrderResult.EQUAL)

    def eq(self, a: Element, b: Element) -> bool:
        if self._direct:
            if type(a) is Fraction and type(b) is Fraction:
                return a._numerator == b._numerator and a._denominator == b._denominator
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
    """n-fold second_op-product of x (n >= 0; empty product is one), by
    square-and-multiply; powers steps through consecutive exponents."""
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    if s.second_op is None:
        raise CapabilityError(f"{s.name} has no second operation")
    if n == 0:
        if s.one is None:
            raise CapabilityError(f"{s.name} has no multiplicative identity")
        return s.one
    return _doubling(s.second_op, x, n)


def powers(s: StructureHandle, x: Element) -> Callable[[int], Element]:
    """n -> nat_pow(s, x, n) for a walk over exponents: the last (k, x^k)
    with k >= 1 is kept, so k + 1 costs one product x^k * x.  Any other
    exponent, 0 and 1 included, goes to nat_pow and restarts the walk;
    the values agree because powers of one element associate."""
    last: list = [0, None]

    def power(n: int) -> Element:
        k, xk = last
        xn = s.second_op(xk, x) if k and n == k + 1 else nat_pow(s, x, n)
        last[0], last[1] = n, xn
        return xn

    return power


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


class _Row(dict):
    # row[j] is f(x, cols[j]), called on the first read of j
    __slots__ = ("f", "x", "cols")

    def __init__(self, f: Callable[[Element, Element], Element], x: Element,
                 cols: Sequence[Element]) -> None:
        self.f, self.x, self.cols = f, x, cols

    def __missing__(self, j: int) -> Element:
        value = self[j] = self.f(self.x, self.cols[j])
        return value


def pair_table(f: Callable[[Element, Element], Element], rows: Sequence[Element],
               cols: Sequence[Element]) -> list[dict]:
    """f over pairs taken by position, for the length of one law check:
    table[i][j] is f(rows[i], cols[j]), called on the first read of that
    entry and kept for every later one.  A check whose loops read the
    entries in their own order makes each first call, and meets any
    exception, where the plain loops would; the checks take a handle's
    operations to be functions of their arguments.  A row reads cols as it
    is at each first read, so a check may append to a list of columns."""
    return [_Row(f, x, cols) for x in rows]


def _with_identity(items: tuple, e: Element) -> tuple[tuple, int]:
    # items with e appended unless it is one of them, and e's position
    for i, x in enumerate(items):
        if x is e:
            return items, i
    return items + (e,), len(items)


def verify_compatibility(s: StructureHandle) -> list[Violation]:
    """Check order-compatibility of op (and second_op on the positive cone)
    over the structure's sample.

    A group is checked for a<b -> a*c<b*c and c*a<c*b, since cancellation
    makes op-compatibility strict there; any other structure for the
    non-strict variant.
    """
    sample = tuple(s.sample)
    strict = s.flags.group
    rel = s.lt if strict else s.le
    # (law prefix, operation table, positions of the elements c to combine
    # with, wording); the cone is positive under a group, nonnegative
    # otherwise
    laws = [("op", pair_table(s.op, sample, sample), range(len(sample)), "with")]
    if s.second_op is not None:
        cone = [k for k, c in enumerate(sample) if rel(s.identity, c)]
        laws.append(("mul", pair_table(s.second_op, sample, sample), cone, "scaled by"))
    # the pairs a < b, compared once for both laws
    below = pair_table(rel, sample, sample)
    out: list[Violation] = []

    def violation(prefix: str, side: str, wording: str, a: Element, b: Element, k: int,
                  fx: Element, fy: Element) -> Violation:
        c = sample[k]
        return Violation(f"order.compatibility.{prefix}-{side}", (a, b, c, fx, fy),
                         f"{s.fmt(a)} vs {s.fmt(b)} {wording} {s.fmt(c)} on the {side}")

    for prefix, f, others, wording in laws:
        for i, a in enumerate(sample):
            f_a, below_a = f[i], below[i]
            for j, b in enumerate(sample):
                if a is b or not below_a[j]:
                    continue
                f_b = f[j]
                for k in others:
                    fx, fy = f_a[k], f_b[k]
                    if not rel(fx, fy):
                        out.append(violation(prefix, "right", wording, a, b, k, fx, fy))
                    f_c = f[k]
                    fx, fy = f_c[i], f_c[j]
                    if not rel(fx, fy):
                        out.append(violation(prefix, "left", wording, a, b, k, fx, fy))
    return out


def verify_monoid(s: StructureHandle) -> list[Violation]:
    """Identity and (if flagged) associativity/commutativity of op."""
    sample = tuple(s.sample)
    items, e = _with_identity(sample, s.identity)
    op = pair_table(s.op, items, items)
    out: list[Violation] = []
    if s.flags.unital:
        from_e = op[e]
        for i, a in enumerate(sample):
            if not (s.eq(from_e[i], a) and s.eq(op[i][e], a)):
                out.append(Violation("op.identity", (a,)))
    if s.flags.associative:
        small = sample[:6]
        # the outer sums are new per triple, so only the inner ones are kept
        for i, a in enumerate(small):
            op_a = op[i]
            for j, b in enumerate(small):
                op_b = op[j]
                for k, c in enumerate(small):
                    if not s.eq(s.op(op_a[j], c), s.op(a, op_b[k])):
                        out.append(Violation("op.associative", (a, b, c)))
    if s.flags.commutative_add:
        for i, a in enumerate(sample):
            op_a = op[i]
            for j, b in enumerate(sample):
                if not s.eq(op_a[j], op[j][i]):
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
    items, e = _with_identity(small, s.identity)
    add = pair_table(s.op, small, small)
    mul = pair_table(s.second_op, items, items)
    # the sum m + m of the product m of positions i and j, which the left
    # law takes at (a, b, b) and the right law at (a, a, b)
    positions = range(len(small))
    twice = pair_table(lambda i, j: s.op(mul[i][j], mul[i][j]), positions, positions)
    for i, a in enumerate(small):
        add_a, mul_a, twice_a = add[i], mul[i], twice[i]
        za = mul[e][i]
        az = mul_a[e]
        if not (s.eq(za, s.identity) and s.eq(az, s.identity)):
            out.append(Violation("hemiring.zero-absorbs", (a,)))
        for j, b in enumerate(small):
            add_b, mul_b = add[j], mul[j]
            for k, c in enumerate(small):
                lhs = s.second_op(a, add_b[k])
                rhs = twice_a[j] if j == k else s.op(mul_a[j], mul_a[k])
                if not s.eq(lhs, rhs):
                    out.append(Violation("hemiring.distributive-left", (a, b, c)))
                lhs = s.second_op(add_a[j], c)
                rhs = twice_a[k] if i == j else s.op(mul_a[k], mul_b[k])
                if not s.eq(lhs, rhs):
                    out.append(Violation("hemiring.distributive-right", (a, b, c)))
    return out


def verify_density(
    s: StructureHandle,
    w: Split | None = None,
    grid: Sequence[Element] | None = None,
) -> list[Violation]:
    """Exercise a density witness at each target of the grid (default: the
    structure's eps_grid): the n-part splits of eps for n up to 4, parts
    positive, folds below eps.  The density suite passes one grid epsilon
    at a time."""
    w = split_witness(s, w)
    grid = tuple(grid if grid is not None else s.eps_grid)
    out: list[Violation] = []
    for eps in grid:
        for n in range(1, 5):
            try:
                parts = n_split(s, eps, n, w)
            except ValueError as exc:
                out.append(Violation("density.split", (eps, n), str(exc)))
                continue
            if not all(s.is_positive(p) for p in parts):
                out.append(Violation("density.positivity", (eps, tuple(parts))))
            if not s.lt(fold_op(s, parts), eps):
                out.append(Violation("density.fold-below", (eps, tuple(parts))))
    return out


def verify_shrink(
    s: StructureHandle,
    targets: Sequence[Element] | None = None,
    bounds: Sequence[Element] | None = None,
) -> list[Violation]:
    """Exercise a shrink witness at each target against each bound: both
    parts positive, both scaled products strictly below the target.  The
    targets default to the structure's eps_grid and the bounds to its
    positive sample elements; the shrink suite passes one grid epsilon at a
    time and the first four positive sample elements."""
    w = shrink_witness(s)
    if s.second_op is None:
        raise CapabilityError(f"{s.name} has no second operation")
    targets = tuple(targets if targets is not None else s.eps_grid)
    bounds = tuple(bounds if bounds is not None else (x for x in s.sample if s.is_positive(x)))
    out: list[Violation] = []
    for alpha in targets:
        for m in bounds:
            left, right = w(alpha, m)
            if not (s.is_positive(left) and s.is_positive(right)):
                out.append(Violation("shrink.positivity", (alpha, m, left, right)))
                continue
            if not s.lt(s.second_op(left, m), alpha):
                out.append(Violation("shrink.left-product", (alpha, m, left)))
            if not s.lt(s.second_op(m, right), alpha):
                out.append(Violation("shrink.right-product", (alpha, m, right)))
    return out


def verify_archimedean(s: StructureHandle) -> list[Violation]:
    """Check the multiple-exceeds witness on every positive x and every y of
    the sample: n >= 1 and the n-fold sum of x exceeds y."""
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

