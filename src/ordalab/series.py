"""Series machinery: partial sums, tail bounds, and the classical
convergence tests rebuilt as certificate transformations.

Every operation here either consumes a certificate for partial sums and
produces a derived one (with the modulus rewritten the way the underlying
argument rewrites its epsilon bookkeeping), or checks a finite, exact
instance of an inequality.  Hypotheses that quantify over all indices are
carried as evidence objects: verified exactly up to a declared index,
trusted beyond it only for modulus construction, and re-checked wherever a
verifier samples.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from .metric import MetricSpace, NormedGroup, absolute_value
from .order import (
    CapabilityError,
    StructureHandle,
    Violation,
    fold_op,
    nat_mul,
    nat_pow,
    shrink_witness,
    split_witness,
)
from .sequences import (
    CauchyCert,
    CondensedTerm,
    ConvCert,
    PartialSums,
    Seq,
    add_certs,
    constant_cert,
    conv_to_cauchy,
    modulus_at,
    negate_cert,
    power_seq,
    shape_fact,
    shift_cert,
    split_max,
    unshift_cert,
    window_values,
)

Element = Any


@dataclass(frozen=True)
class Series:
    """Terms x_1, x_2, ... with derived partial sums s_n = x_1 + ... + x_n,
    each the largest sum already known below n plus the block of terms
    between them (PartialSums).  A probe far out sums a rational term's
    block by binary splitting under Q's own operations, and takes the sum
    of c r^n whose 1 - r is a unit in closed form."""

    handle: StructureHandle
    terms: Seq
    partials: Seq = field(init=False)

    def __post_init__(self):
        sums = PartialSums(self.handle, self.terms, False)
        object.__setattr__(self, "partials", Seq(f"sum({self.terms.name})", sums, sums.sums))


def terms_from_partials(handle: StructureHandle, partials: Seq) -> Seq:
    """Recover terms as consecutive differences (needs additive inverses)."""
    def term(i: int) -> Element:
        if i == 1:
            return partials(1)
        return handle.sub(partials(i), partials(i - 1))

    return Seq(f"diff({partials.name})", term)


class MonotoneKind(enum.Enum):
    STRICTLY_DECREASING_POSITIVE = "strictly-decreasing-positive"
    DECREASING_POSITIVE = "decreasing-positive"


@dataclass(frozen=True)
class MonotoneEvidence:
    """A stated monotonicity hypothesis: its kind, and the depth up to which
    it is checked exactly.  check_monotone checks it, and so does every
    certificate that relies on it (condense), so stating it checks nothing."""

    kind: MonotoneKind
    checked_up_to: int


def check_monotone(
    handle: StructureHandle, x: Seq, kind: MonotoneKind, up_to: int
) -> MonotoneEvidence:
    """Verify positivity and (strict) decrease up to an index; raise on the
    first failure, otherwise package the evidence.  Terms whose shape
    falls in handle (c r^n with 0 < c and 0 < r < 1, through shape_fact)
    are positive and strictly decrease at every index, and get their
    evidence at once; any other term, and every failure, takes the walk."""
    if up_to < 1:
        raise ValueError("evidence must cover at least index 1")
    if shape_fact(x, "falls", handle):
        return MonotoneEvidence(kind, up_to)
    strict = kind is MonotoneKind.STRICTLY_DECREASING_POSITIVE
    rel = handle.lt if strict else handle.le
    for n in range(1, up_to + 1):
        if not handle.is_positive(x(n)):
            raise ValueError(f"{x.name}: term at index {n} is not positive")
        if not rel(x(n + 1), x(n)):
            raise ValueError(
                f"{x.name}: terms fail to {'strictly ' if strict else ''}decrease "
                f"at index {n}"
            )
    return MonotoneEvidence(kind, up_to)


def _sample_agree(a: Seq, b: Callable[[int], Element], upto: int, what: str) -> None:
    for k in range(1, upto + 1):
        if a(k) != b(k):
            raise ValueError(f"{a.name}: {what} (mismatch at index {k})")


# ---------------------------------------------------------------------------
# basic consequences of partial-sum certificates


def terms_vanish(c: ConvCert, carrier: StructureHandle, series_terms: Seq) -> ConvCert:
    """If the partial sums converge, the terms tend to zero.

    Built literally as (s shifted by one) + (-s) -> L + (-L) = 0, then
    re-anchored to the series' own term sequence series_terms.
    """
    carrier.require("group", "commutative_add")
    diff = add_certs(shift_cert(c, 1), negate_cert(c, carrier), carrier)
    return unshift_cert(diff, series_terms, 1)


@dataclass(frozen=True)
class TailCheck:
    """One exact tail inequality: the sum of terms m+1..n stays below eps."""

    ok: bool
    eps: Element
    m: int
    n: int
    bound_index: int
    tail_norm: Element


def tail_bound(cauchy: CauchyCert, eps: Element, m: int, n: int) -> TailCheck:
    """Check that the tail x_{m+1}+...+x_n (as the partial-sum difference)
    has distance below eps, for indices at or past the modulus.  The two
    sums are read as a window (window_values), so far partial sums of a
    rational term give just the block of terms m+1..n."""
    s = cauchy.space.codomain
    if not s.is_positive(eps):
        raise ValueError(f"{s.name}: eps {s.fmt(eps)} must be positive")
    n0 = modulus_at(cauchy.modulus, eps)
    if m < n0:
        raise ValueError(f"tail start {m} is below the modulus index {n0}")
    if n < m:
        raise ValueError(f"tail end {n} precedes tail start {m}")
    at_m, at_n = window_values(cauchy, m, (0, n - m))
    d = cauchy.space.distance(at_n, at_m)
    return TailCheck(ok=s.lt(d, eps), eps=eps, m=m, n=n, bound_index=n0, tail_norm=d)


# ---------------------------------------------------------------------------
# convergence tests as certificate transformations


def alternating_cauchy(handle: StructureHandle, c0: ConvCert) -> CauchyCert:
    """Alternating series with strictly decreasing positive terms: for the
    sequence x of c0, which certifies x -> 0, the partial sums of
    x_1 - x_2 + x_3 - ... are Cauchy in c0's space with c0's modulus (pair
    gaps collapse below x_{m+1}).  The strict decrease is checked up to
    index 32 (check_monotone).  The partial sums follow the rule of Series
    (PartialSums): a block of a rational term's terms is summed by binary
    splitting, and c r^n whose 1 + r is a unit gives
    c r (1 - (-r)^n) / (1 + r)."""
    handle.require("ring", "total_order")
    x = c0.seq
    check_monotone(handle, x, MonotoneKind.STRICTLY_DECREASING_POSITIVE, 32)
    if not handle.eq(c0.limit, handle.identity):
        raise ValueError(f"{x.name} does not carry a zero limit")

    sums = PartialSums(handle, x, True)
    partials = Seq(f"sum(alt({x.name}))", sums, sums.sums)
    return CauchyCert(c0.space, partials, lambda eps: modulus_at(c0.modulus, eps))


def squeeze_cauchy(
    handle: StructureHandle,
    cx: CauchyCert,
    cz: CauchyCert,
    n1: int,
    y: Seq,
) -> CauchyCert:
    """If the flanking series have Cauchy partial sums and x_n <= y_n <= z_n
    from n1 on, the middle series is Cauchy in cx's space: a tail of y is
    pinched between two tails that are both small.  The squeeze is checked
    on the 33 indices from n1 on."""
    handle.require("ring", "total_order")
    if n1 < 1:
        raise ValueError("ordering onset index must be >= 1")
    x_terms = terms_from_partials(handle, cx.seq)
    z_terms = terms_from_partials(handle, cz.seq)
    for n in range(n1, n1 + 33):
        if not (handle.le(x_terms(n), y(n)) and handle.le(y(n), z_terms(n))):
            raise ValueError(
                f"{y.name}: pointwise squeeze fails at index {n}"
            )
    partials = Series(handle, y).partials

    def modulus(eps: Element) -> int:
        return max(n1, modulus_at(cx.modulus, eps), modulus_at(cz.modulus, eps))

    return CauchyCert(cx.space, partials, modulus)


def condensed_terms(handle: StructureHandle, x: Seq) -> Seq:
    """The condensed series of x, whose term j is 2^(j-1) x_(2^(j-1))
    (sequences.CondensedTerm): the sum of 2^(j-1) ones times x at index
    2^(j-1), which agrees with j-1 doublings in any unital ring; without a
    second operation or a one this raises CapabilityError here, not at a
    term."""
    if handle.second_op is None:
        raise CapabilityError(f"{handle.name} has no second operation")
    if handle.one is None:
        raise CapabilityError(f"{handle.name} has no multiplicative identity")
    return Seq(f"cond({x.name})", CondensedTerm(handle, x))


def condense(
    handle: StructureHandle,
    space: MetricSpace,
    x: Seq,
    mono: MonotoneEvidence,
    c: CauchyCert,
    direction: str,
) -> CauchyCert:
    """Condensation for decreasing positive terms, in either direction.

    forward: from a Cauchy certificate for the partial sums of x, derive one
    for the condensed series sum_j 2^(j-1) x_(2^(j-1)).  The modulus is the
    least k with 2^(k-1) >= max(N(beta), N(gamma)), splitting eps: a gap of
    condensed partials past k is at most twice a gap of plain partials.

    backward: from a Cauchy certificate for the condensed partial sums,
    derive one for the plain partial sums with modulus 2^N(eps) - 1: the
    terms from 2^k to 2^(k+1)-1 are dominated blockwise by condensed terms.
    mono is checked before the split, which a carrier may lack the witness for.
    """
    handle.require("ring", "total_order")
    if handle.one is None:
        raise CapabilityError(f"{handle.name} has no multiplicative identity")
    check_monotone(handle, x, mono.kind, mono.checked_up_to)
    # only the forward modulus splits eps: backward needs no density witness
    plain_modulus = split_max(handle, c.modulus, c.modulus) if direction == "forward" else None

    base_partials = Series(handle, x).partials
    cond_partials = Series(handle, condensed_terms(handle, x)).partials

    # c claims one of the two sums; the result is for the other
    if direction == "forward":
        claimed, other, what = base_partials, cond_partials, "partial sums"

        def modulus(eps: Element) -> int:
            # the least k with 2^(k-1) >= N
            return (plain_modulus(eps) - 1).bit_length() + 1

    elif direction == "backward":
        claimed, other, what = cond_partials, base_partials, "condensed partial sums"

        def modulus(eps: Element) -> int:
            return max(1, 2 ** modulus_at(c.modulus, eps) - 1)

    else:
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    _sample_agree(c.seq, claimed, 6, f"certificate is not for this series' {what}")
    return CauchyCert(space, other, modulus)


def condensation_inequalities(
    handle: StructureHandle,
    x: Seq,
    ns: Iterable[int],
    kls: Iterable[tuple[int, int]],
) -> list[Violation]:
    """Exact spot checks of the two block bounds behind condensation, the
    forward one at each n of ns and the backward one at each (k, l) of kls:

      2^n x_(2^n)  <=  2 * (x_(2^(n-1)+1) + ... + x_(2^n))          (forward)
      x_(2^k) + ... + x_(2^(l+1)-1)  <=  sum_{i=k..l} 2^i x_(2^i)   (backward)

    2^i x_(2^i) is condensed term i + 1 (condensed_terms).
    """
    handle.require("ring", "total_order")
    cond = condensed_terms(handle, x)
    out: list[Violation] = []
    for n in ns:
        if n < 1:
            raise ValueError("forward block index must be >= 1")
        block = fold_op(handle, [x(i) for i in range(2 ** (n - 1) + 1, 2 ** n + 1)])
        lhs = cond(n + 1)
        rhs = nat_mul(handle, 2, block)
        if not handle.le(lhs, rhs):
            out.append(Violation("condensation.forward-block", (n, lhs, rhs)))
    for k, l in kls:
        if k < 0 or l < k:
            raise ValueError("backward block needs 0 <= k <= l")
        lhs = fold_op(handle, [x(i) for i in range(2 ** k, 2 ** (l + 1))])
        rhs = fold_op(handle, [cond(i + 1) for i in range(k, l + 1)])
        if not handle.le(lhs, rhs):
            out.append(Violation("condensation.backward-block", (k, l, lhs, rhs)))
    return out


# ---------------------------------------------------------------------------
# geometric series and power limits


def _refuse_ratio_one(handle: StructureHandle, r: Element) -> None:
    # the one owner of the rule that 1 + r + r^2 + ... has no limit at r = 1
    if handle.eq(r, handle.one):
        raise ValueError(f"{handle.name}: ratio 1 has no geometric limit")


def geometric_limit(handle: StructureHandle, r: Element) -> Element:
    """(1 - r)^(-1), the limit geometric_cert certifies for ratio r; ratio 1
    is refused with the same message geometric_cert gives."""
    _refuse_ratio_one(handle, r)
    return handle.invert(handle.sub(handle.one, r))


def geometric_cert(
    handle: StructureHandle,
    space: MetricSpace,
    r: Element,
    c0: ConvCert,
    inv: Element,
) -> ConvCert:
    """Certificate that 1 + r + r^2 + ... converges to inv = (1-r)^(-1),
    where c0 certifies x -> 0 for the power sequence x of r.

    The n-th sequence value is 1 + x_1 + ... + x_n.  Its closed form
    (1 - x_(n+1)) * inv is checked exactly for n = 0..32; given
    (1 - r) inv = 1 this holds exactly when x_k = r^k for every k <= 33
    (at n = 0 it reads x_1 = r; subtract consecutive closed forms and
    multiply by 1 - r for the rest), so the first failure names the index
    where x leaves the powers of r.  The modulus shrinks eps against |inv|
    before consulting c0.
    """
    handle.require("ring", "total_order")
    if handle.one is None:
        raise CapabilityError(f"{handle.name} has no multiplicative identity")
    _refuse_ratio_one(handle, r)
    lead = handle.mul(handle.sub(handle.one, r), inv)
    if not handle.eq(lead, handle.one):
        raise ValueError(
            f"{handle.name}: {handle.fmt(inv)} is not the inverse of "
            f"1 - {handle.fmt(r)}"
        )
    x = c0.seq
    if not handle.eq(c0.limit, handle.identity):
        raise ValueError(f"{x.name} does not carry a zero limit")
    shrink = shrink_witness(handle)

    # terms 1, x_1, x_2, ...: the sums and the closed form share x's cache
    terms = Seq(x.name, lambda i: handle.one if i == 1 else x(i - 1))
    partials = Series(handle, terms).partials
    for n in range(33):
        want = handle.mul(handle.sub(handle.one, x(n + 1)), inv)
        if not handle.eq(partials(n + 1), want):
            raise ValueError(
                f"{x.name} is not the power sequence of {handle.fmt(r)} (index {n + 1})"
            )
    seq = Seq(f"geom({handle.fmt(r)})", lambda n: partials(n + 1))

    bound = absolute_value(handle, inv)

    def modulus(eps: Element) -> int:
        e_l = shrink(eps, bound)[0]
        return max(1, modulus_at(c0.modulus, e_l) - 1)

    return ConvCert(space, seq, inv, modulus)


def power_limit_is_zero(
    handle: StructureHandle, c: ConvCert, r: Element
) -> list[Violation]:
    """A convergent power sequence r^n in a totally ordered ring with r != 1
    can only have limit 0: the limit must satisfy l*(r-1) = 0 exactly."""
    handle.require("ring", "total_order")
    _refuse_ratio_one(handle, r)
    out: list[Violation] = []
    fixed = handle.mul(c.limit, handle.sub(r, handle.one))
    if not handle.eq(fixed, handle.identity):
        out.append(Violation(
            "power-limit.fixed-point", (c.limit, r, fixed),
            "the limit times (r - 1) does not vanish",
        ))
    if not handle.eq(c.limit, handle.identity):
        out.append(Violation("power-limit.nonzero", (c.limit,)))
    return out


def archimedean_power_modulus(
    handle: StructureHandle,
    space: MetricSpace,
    r: Element,
) -> ConvCert:
    """Certificate for r^n -> 0 in an Archimedean totally ordered field with
    -1 < r < 1: with x = 1/|r| - 1, any N with N*(x*eps) > 1 works, since
    |r|^N <= 1/(1+Nx) <= 1/(Nx) < eps.  The chain is re-checked exactly at
    each requested epsilon."""
    handle.require("field", "total_order")
    exceeds = handle.archimedean
    if exceeds is None:
        raise CapabilityError(f"{handle.name} has no multiple-exceeds witness")
    mag = absolute_value(handle, r)
    if not handle.lt(mag, handle.one):
        raise ValueError(f"{handle.name}: need -1 < r < 1, got {handle.fmt(r)}")

    seq = power_seq(handle, r, f"pow({handle.fmt(r)})")
    if handle.eq(r, handle.identity):
        return constant_cert(space, handle.identity, name=seq.name)

    x = handle.sub(handle.invert(mag), handle.one)

    def modulus(eps: Element) -> int:
        n = max(1, exceeds(handle.mul(x, eps), handle.one))
        # re-verify the proof chain at this eps: |r|^n <= 1/(1+nx) <= 1/(nx) < eps
        nx = nat_mul(handle, n, x)
        mid = handle.invert(handle.op(handle.one, nx))
        last = handle.invert(nx)
        ok = (
            handle.le(nat_pow(handle, mag, n), mid)
            and handle.le(mid, last)
            and handle.lt(last, eps)
        )
        if not ok:
            raise ValueError(
                f"{handle.name}: power-limit chain fails at eps={handle.fmt(eps)}"
            )
        return n

    return ConvCert(space, seq, handle.identity, modulus)


def ratio_cauchy(
    ng: NormedGroup,
    space: MetricSpace,
    x: Seq,
    r: Element,
    ratio_checked_up_to: int,
    geo: ConvCert | None = None,
) -> CauchyCert:
    """Ratio test: norm(x_{n+1}) <= r * norm(x_n) transfers the modulus of
    the dominating geometric series (scaled by norm(x_1)) to sum x_n.

    geo must certify the partial sums of norm(x_1) * (1 + r + r^2 + ...);
    it may be omitted only when norm(x_1) = 0, which forces the zero series.
    Either way the domination is checked at the first 32 indices.
    """
    m = ng.codomain
    m.require("total_order")
    if ratio_checked_up_to < 1:
        raise ValueError("ratio evidence must cover at least index 1")
    for n in range(1, ratio_checked_up_to + 1):
        lhs, rhs = ng.norm(x(n + 1)), m.mul(r, ng.norm(x(n)))
        if not m.le(lhs, rhs):
            raise ValueError(
                f"{x.name}: ratio condition fails at index {n}: "
                f"{m.fmt(lhs)} > {m.fmt(rhs)}"
            )

    partials = Series(ng.group, x).partials
    c1 = ng.norm(x(1))

    if m.eq(c1, m.identity):
        for i in range(1, 33):
            if not m.eq(ng.norm(x(i)), m.identity):
                raise ValueError(
                    f"{x.name}: first norm vanishes but index {i} does not"
                )
        return CauchyCert(space, partials, lambda eps: 1)

    if geo is None:
        raise ValueError("a dominating geometric certificate is required")
    for i in range(1, 33):
        dom = m.mul(nat_pow(m, r, i - 1), c1)
        if not m.le(ng.norm(x(i)), dom):
            raise ValueError(
                f"{x.name}: geometric domination fails at index {i}"
            )

    def scaled(k: int) -> Element:
        return m.mul(fold_op(m, [nat_pow(m, r, i) for i in range(k + 1)]), c1)

    _sample_agree(geo.seq, scaled, 6,
                  "geometric certificate does not match the scaled powers")

    cg = conv_to_cauchy(geo)

    def modulus(eps: Element) -> int:
        return modulus_at(cg.modulus, eps) + 1

    return CauchyCert(space, partials, modulus)


def abs_conv_cauchy(
    ng: NormedGroup,
    space: MetricSpace,
    x: Seq,
    c_abs: CauchyCert,
) -> CauchyCert:
    """Absolute convergence: a Cauchy certificate for the partial sums of
    norm(x_n) is one for the partial sums of x_n with the same modulus,
    since a tail's norm never exceeds the sum of its terms' norms.  The
    tail bound is checked on every pair of the first 10 indices."""
    m = ng.codomain
    m.require("group", "total_order", "commutative_add")
    split_witness(m, None)
    norm_partials = Series(m, Seq(f"norm({x.name})", lambda i: ng.norm(x(i)))).partials
    _sample_agree(c_abs.seq, norm_partials, 6,
                  "certificate is not for this sequence's norm sums")

    partials = Series(ng.group, x).partials
    for a in range(1, 11):
        for b in range(a + 1, 11):
            tail = ng.norm(ng.group.sub(partials(b), partials(a)))
            bound = m.sub(norm_partials(b), norm_partials(a))
            if not m.le(tail, bound):
                raise ValueError(
                    f"{x.name}: tail norm exceeds the norm-sum tail on "
                    f"({a}, {b}]"
                )

    return CauchyCert(space, partials, c_abs.modulus)


# ---------------------------------------------------------------------------
# product-versus-sum inequalities


def bernoulli_check(
    handle: StructureHandle,
    xs: Sequence[Element],
    variant: str,
) -> list[Violation]:
    """Exact check of prod(1 + x_i) >= 1 + sum(x_i) in one of three regimes:

      semiring: every x_i >= 0 (and 1 + x_i >= 0, which then holds anyway);
      ring:     all x_i >= 0 or all x_i <= 0, each 1 + x_i >= 0;
      power:    all x_i equal, checking (1+x)^n >= 1 + n*x.

    Precondition failures are reported as violations carrying the index;
    the inequality itself is only evaluated when the preconditions hold.
    """
    xs = tuple(xs)
    out: list[Violation] = []
    if variant in ("semiring", "ring", "power") and handle.one is None:
        raise CapabilityError(f"{handle.name} has no multiplicative identity")
    if variant == "semiring":
        handle.require("hemiring", "total_order")
        for i, v in enumerate(xs):
            if not handle.is_nonnegative(v):
                out.append(Violation("bernoulli.precondition", (i, v),
                                     "entry is negative in the semiring variant"))
            elif not handle.is_nonnegative(handle.op(handle.one, v)):
                out.append(Violation("bernoulli.precondition", (i, v),
                                     "1 + entry is negative"))
    elif variant == "ring":
        handle.require("ring", "total_order")
        nonneg = [handle.is_nonnegative(v) for v in xs]
        nonpos = [handle.le(v, handle.identity) for v in xs]
        if not (all(nonneg) or all(nonpos)):
            # first entry that breaks whichever sign the prefix had settled on
            bad = next(i for i in range(len(xs))
                       if not (all(nonneg[: i + 1]) or all(nonpos[: i + 1])))
            out.append(Violation("bernoulli.precondition", (bad, xs[bad]),
                                 "entries mix signs"))
        for i, v in enumerate(xs):
            if not handle.is_nonnegative(handle.op(handle.one, v)):
                out.append(Violation("bernoulli.precondition", (i, v),
                                     "1 + entry is negative"))
    elif variant == "power":
        handle.require("ring", "total_order")
        if not xs:
            raise ValueError("power variant needs at least one entry")
        for i, v in enumerate(xs):
            if not handle.eq(v, xs[0]):
                out.append(Violation("bernoulli.precondition", (i, v),
                                     "power variant needs equal entries"))
        if not handle.is_nonnegative(handle.op(handle.one, xs[0])):
            out.append(Violation("bernoulli.precondition", (0, xs[0]),
                                 "1 + entry is negative"))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if out:
        return out

    if variant == "power":
        n = len(xs)
        lhs = nat_pow(handle, handle.op(handle.one, xs[0]), n)
        rhs = handle.op(handle.one, nat_mul(handle, n, xs[0]))
    else:
        lhs = handle.one
        rhs = handle.one
        for v in xs:
            lhs = handle.mul(lhs, handle.op(handle.one, v))
            rhs = handle.op(rhs, v)
    if not handle.le(rhs, lhs):
        out.append(Violation("bernoulli.inequality", (xs, lhs, rhs)))
    return out
