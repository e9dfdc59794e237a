"""Sequences with explicit convergence/Cauchy certificates.

A certificate replaces a "for every epsilon there is an N" claim with an
executable modulus: a function sending each positive epsilon to an index N
past which the relevant distances stay strictly below epsilon.  Nothing here
is trusted: every constructor composes moduli the way the underlying
arguments do, and verifiers re-check the result exactly on a finite grid of
epsilons and a window of indices.

Conventions: sequences are 1-indexed; all index windows are inclusive; all
inequalities are strict (d < eps) to match the definitions the certificates
encode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .algebra import PseudonormedRing
from .metric import MetricSpace, NormedGroup
from .order import (
    CapabilityError,
    StructureHandle,
    Violation,
    checked_split,
    join_fold,
    shrink_witness,
    split_witness,
)

Element = Any

# Index offsets probed past N(eps): dense near N, sparse further out.
_PROBE_OFFSETS = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55)

# The last window start a modulus scan tries before it gives up.
_MAX_INDEX = 8192


@dataclass(frozen=True)
class Seq:
    """A deterministic 1-indexed sequence; values are cached, so a term
    function is evaluated at most once per index."""

    name: str
    term: Callable[[int], Element]
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __call__(self, n: int) -> Element:
        if n < 1:
            raise ValueError(f"sequence index must be >= 1, got {n}")
        if n not in self._cache:
            self._cache[n] = self.term(n)
        return self._cache[n]


@dataclass(frozen=True)
class ConvCert:
    """Claim: seq converges to limit in space, with an explicit modulus.

    Contract: for every positive eps, d(seq(n), limit) < eps whenever
    n >= modulus(eps).  verify_conv_cert spot-checks a window of indices
    at every grid epsilon.
    """

    space: MetricSpace
    seq: Seq
    limit: Element
    modulus: Callable[[Element], int]


@dataclass(frozen=True)
class CauchyCert:
    """Claim: seq is Cauchy in space.  Contract: d(seq(m), seq(n)) < eps
    whenever both m, n >= modulus(eps)."""

    space: MetricSpace
    seq: Seq
    modulus: Callable[[Element], int]


@dataclass(frozen=True)
class SubseqMap:
    """A strictly increasing index selection k -> n_k (so n_k >= k)."""

    name: str
    index: Callable[[int], int]


@dataclass(frozen=True)
class ApartFromZeroWitness:
    """Evidence that a sequence does not sink into zero: for every n the
    selector finds k >= n with norm(x_k) >= eps."""

    eps: Element
    selector: Callable[[int], int]


@dataclass(frozen=True)
class RefutationRecord:
    """Exact bookkeeping from running the distinct-limit refutation."""

    eps: Element
    beta: Element
    gamma: Element
    index: int
    d_first: Element
    d_second: Element
    first_within: bool
    second_within: bool
    split_below_eps: bool
    triangle_holds: bool
    refuted: bool


def _modulus_at(modulus: Callable[[Element], int], eps: Element) -> int:
    n = modulus(eps)
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"modulus must return an integer index >= 1, got {n!r}")
    return n


def _grid_for(space: MetricSpace, grid: Sequence[Element] | None) -> tuple:
    grid = tuple(grid) if grid is not None else tuple(space.codomain.eps_grid)
    if not grid:
        raise ValueError(f"{space.name}: no epsilon grid to sample")
    s = space.codomain
    for eps in grid:
        if not s.is_positive(eps):
            raise ValueError(f"{space.name}: grid entry {s.fmt(eps)} is not positive")
    return grid


def _nonnegative_horizon(horizon: int) -> None:
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")


def _offsets(horizon: int) -> tuple[int, ...]:
    _nonnegative_horizon(horizon)
    return tuple(sorted({o for o in _PROBE_OFFSETS if o <= horizon} | {horizon}))


def verify_conv_cert(
    cert: ConvCert,
    grid: Sequence[Element] | None = None,
    horizon: int = 64,
) -> list[Violation]:
    """Check d(seq(n), limit) < eps for every grid eps and every index in
    [N(eps), N(eps)+horizon].  Empty result = consistent at this scale."""
    _nonnegative_horizon(horizon)
    space, s = cert.space, cert.space.codomain
    out: list[Violation] = []
    for eps in _grid_for(space, grid):
        n0 = _modulus_at(cert.modulus, eps)
        for n in range(n0, n0 + horizon + 1):
            d = space.distance(cert.seq(n), cert.limit)
            if not s.lt(d, eps):
                out.append(Violation(
                    "convergence.within",
                    (eps, n, d),
                    f"{cert.seq.name}: d at index {n} is {s.fmt(d)}, "
                    f"not below {s.fmt(eps)}",
                ))
    return out


def verify_cauchy_cert(
    cert: CauchyCert,
    grid: Sequence[Element] | None = None,
    horizon: int = 64,
) -> list[Violation]:
    """Check d(seq(m), seq(n)) < eps over sampled index pairs in
    [N(eps), N(eps)+horizon] for every grid eps."""
    space, s = cert.space, cert.space.codomain
    out: list[Violation] = []
    offs = _offsets(horizon)
    for eps in _grid_for(space, grid):
        n0 = _modulus_at(cert.modulus, eps)
        for a in range(len(offs)):
            for b in range(a, len(offs)):
                m, n = n0 + offs[a], n0 + offs[b]
                d = space.distance(cert.seq(m), cert.seq(n))
                if not s.lt(d, eps):
                    out.append(Violation(
                        "cauchy.within",
                        (eps, m, n, d),
                        f"{cert.seq.name}: d({m},{n}) is {s.fmt(d)}, "
                        f"not below {s.fmt(eps)}",
                    ))
    return out


# ---------------------------------------------------------------------------
# certificate constructors


def _split_max(
    s: StructureHandle,
    first: Callable[[Element], int],
    second: Callable[[Element], int],
) -> Callable[[Element], int]:
    """The modulus eps -> max(first(beta), second(gamma)) over the split
    eps -> (beta, gamma) of s's density witness: one triangle step charges
    a part to each side.  Raises CapabilityError now if s is not dense."""
    w = split_witness(s, None)

    def modulus(eps: Element) -> int:
        beta, gamma = checked_split(s, w, eps)
        return max(_modulus_at(first, beta), _modulus_at(second, gamma))

    return modulus


def constant_cert(space: MetricSpace, value: Element, name: str = "const") -> ConvCert:
    seq = Seq(name, lambda n: value)
    return ConvCert(space, seq, value, lambda eps: 1)


def conv_to_cauchy(cert: ConvCert) -> CauchyCert:
    """Convergent implies Cauchy over a dense codomain: route both sides of
    a pair through the limit, splitting eps into beta + gamma."""
    modulus = _split_max(cert.space.codomain, cert.modulus, cert.modulus)
    return CauchyCert(cert.space, cert.seq, modulus)


def shift_cert(cert: ConvCert, k: int) -> ConvCert:
    """Certificate for the k-step left shift n -> seq(n+k)."""
    if k < 0:
        raise ValueError("shift must be nonnegative")
    shifted = Seq(f"{cert.seq.name}<<{k}", lambda n: cert.seq(n + k))
    return ConvCert(cert.space, shifted, cert.limit,
                    lambda eps: max(1, _modulus_at(cert.modulus, eps) - k))


def unshift_cert(cert: ConvCert, original: Seq, k: int) -> ConvCert:
    """Recover a certificate for the original sequence from one for its
    k-step shift.  original(n+k) must agree with the shifted sequence at
    the first 16 indices."""
    if k < 0:
        raise ValueError("shift must be nonnegative")
    for n in range(1, 17):
        if original(n + k) != cert.seq(n):
            raise ValueError(
                f"{original.name} is not a {k}-step unshift of {cert.seq.name} "
                f"(mismatch at index {n + k})"
            )
    return ConvCert(cert.space, original, cert.limit,
                    lambda eps: _modulus_at(cert.modulus, eps) + k)


def negate_cert(cert: ConvCert, carrier: StructureHandle) -> ConvCert:
    """Certificate for (-x_n) -> -a; keeps the modulus, which is sound for
    inverse-invariant distances (the norm-induced ones)."""
    if carrier.negate is None:
        raise CapabilityError(f"{carrier.name} has no additive inverses")
    seq = Seq(f"-({cert.seq.name})", lambda n: carrier.negate(cert.seq(n)))
    return ConvCert(cert.space, seq, carrier.negate(cert.limit), cert.modulus)


def _same_space(a: MetricSpace, b: MetricSpace) -> MetricSpace:
    if a is not b:
        raise ValueError(f"certificates live in different spaces: {a.name} vs {b.name}")
    return a


def _sum_seq(cx, cy, carrier: StructureHandle) -> Seq:
    return Seq(f"({cx.seq.name})+({cy.seq.name})",
               lambda n: carrier.op(cx.seq(n), cy.seq(n)))


def add_certs(cx: ConvCert, cy: ConvCert, carrier: StructureHandle) -> ConvCert:
    """Sum of convergent sequences converges to the sum of limits.

    Works in an abelian group whose metric is norm-induced; the modulus
    splits eps and charges one part to each summand.  The split is applied
    to distances, so the density witness comes from the space's codomain;
    carrier only adds the terms and limits.
    """
    space = _same_space(cx.space, cy.space)
    carrier.require("group", "commutative_add")
    modulus = _split_max(space.codomain, cx.modulus, cy.modulus)
    return ConvCert(space, _sum_seq(cx, cy, carrier), carrier.op(cx.limit, cy.limit),
                    modulus)


def cauchy_sum(cx: CauchyCert, cy: CauchyCert, carrier: StructureHandle) -> CauchyCert:
    """Termwise sum of Cauchy sequences is Cauchy (same split pattern).

    As in add_certs, the density witness comes from the space's codomain
    and carrier only adds the terms."""
    space = _same_space(cx.space, cy.space)
    carrier.require("group", "commutative_add")
    modulus = _split_max(space.codomain, cx.modulus, cy.modulus)
    return CauchyCert(space, _sum_seq(cx, cy, carrier), modulus)


def bounded_from_cert(cert: ConvCert | CauchyCert, eps0: Element) -> Element:
    """A bound R on all distances to the anchor (the limit, or for a bare
    Cauchy certificate the term at N(eps0)): join the finitely many head
    distances with eps0 itself.  Re-checked at the first 64 indices."""
    space, s = cert.space, cert.space.codomain
    if not s.is_positive(eps0):
        raise ValueError(f"{s.name}: eps0 {s.fmt(eps0)} must be positive")
    n0 = _modulus_at(cert.modulus, eps0)
    anchor = cert.limit if isinstance(cert, ConvCert) else cert.seq(n0)
    dists = [space.distance(cert.seq(i), anchor) for i in range(1, n0)]
    bound = join_fold(s, dists + [eps0])
    for i in range(1, 65):
        d = space.distance(cert.seq(i), anchor)
        if not s.le(d, bound):
            raise ValueError(
                f"{cert.seq.name}: distance at index {i} exceeds the bound "
                f"{s.fmt(bound)}; the certificate is inconsistent"
            )
    return bound


def norm_bound_from_cert(ng: NormedGroup, cert: ConvCert, eps0: Element) -> Element:
    """Bound t on norm(x_n): distance bound to the limit plus norm(limit),
    re-checked at the first 64 indices."""
    s = cert.space.codomain
    r = bounded_from_cert(cert, eps0)
    t = s.op(r, ng.norm(cert.limit))
    for i in range(1, 65):
        if not s.le(ng.norm(cert.seq(i)), t):
            raise ValueError(
                f"{cert.seq.name}: norm at index {i} exceeds {s.fmt(t)}; "
                f"the certificate is inconsistent"
            )
    return t


def zero_times_bounded(
    c_zero: ConvCert,
    y: Seq,
    bound: Element,
    pnr: PseudonormedRing,
) -> tuple[ConvCert, ConvCert]:
    """From x -> 0 and norm(y_n) <= bound, certify x*y -> 0 and y*x -> 0.

    The bound is checked at the first 64 indices.  Shrinks eps against the
    bound: the left product needs e_l with e_l * bound < eps, the right one
    e_r with bound * e_r < eps.
    """
    ring, m = pnr.ring, pnr.codomain
    space = c_zero.space
    if not ring.eq(c_zero.limit, ring.identity):
        raise ValueError(f"{c_zero.seq.name} does not carry a zero limit")
    for n in range(1, 65):
        nv = pnr.norm(y(n))
        if not m.le(nv, bound):
            raise ValueError(
                f"{y.name}: norm {m.fmt(nv)} at index {n} exceeds the "
                f"declared bound {m.fmt(bound)}"
            )

    left_seq = Seq(f"({c_zero.seq.name})*({y.name})",
                   lambda n: ring.mul(c_zero.seq(n), y(n)))
    right_seq = Seq(f"({y.name})*({c_zero.seq.name})",
                    lambda n: ring.mul(y(n), c_zero.seq(n)))

    if m.eq(bound, m.identity):
        # bound 0 forces every y_n to be 0; both products vanish identically
        trivial = lambda eps: 1
        return (
            ConvCert(space, left_seq, ring.identity, trivial),
            ConvCert(space, right_seq, ring.identity, trivial),
        )
    if not m.is_positive(bound):
        raise ValueError(f"{m.name}: bound {m.fmt(bound)} is not nonnegative")

    shrink = shrink_witness(m)

    def left_modulus(eps: Element) -> int:
        e_l = shrink(eps, bound)[0]
        return _modulus_at(c_zero.modulus, e_l)

    def right_modulus(eps: Element) -> int:
        e_r = shrink(eps, bound)[1]
        return _modulus_at(c_zero.modulus, e_r)

    return (
        ConvCert(space, left_seq, ring.identity, left_modulus),
        ConvCert(space, right_seq, ring.identity, right_modulus),
    )


def prod_certs(
    cx: ConvCert,
    cy: ConvCert,
    pnr: PseudonormedRing,
) -> ConvCert:
    """Product of convergent sequences converges to the product of limits.

    For limit b != 0: bound s1 >= norm(x_n) from the first certificate at
    the first grid epsilon, then per eps split into beta + gamma and shrink
    each part against s1 and norm(b).  For b = 0 the zero-times-bounded
    route applies with x as the bounded factor.
    """
    space = _same_space(cx.space, cy.space)
    ring, m = pnr.ring, pnr.codomain
    a, b = cx.limit, cy.limit
    s1 = bounded_from_cert(cx, m.eps_grid[0])
    s1 = m.op(s1, pnr.norm(a))

    if ring.eq(b, ring.identity):
        _, bounded_times_zero = zero_times_bounded(cy, cx.seq, s1, pnr)
        return bounded_times_zero

    shrink = shrink_witness(m)
    split = split_witness(m, None)
    norm_b = pnr.norm(b)

    seq = Seq(
        f"({cx.seq.name})*({cy.seq.name})",
        lambda n: ring.mul(cx.seq(n), cy.seq(n)),
    )

    def modulus(eps: Element) -> int:
        beta, gamma = checked_split(m, split, eps)
        k_r = shrink(beta, s1)[1]       # s1 * k_r < beta
        m_l = shrink(gamma, norm_b)[0]  # m_l * norm_b < gamma
        return max(_modulus_at(cy.modulus, k_r), _modulus_at(cx.modulus, m_l))

    return ConvCert(space, seq, ring.mul(a, b), modulus)


def subseq_rescue(
    cauchy: CauchyCert,
    sub: SubseqMap,
    csub: ConvCert,
) -> ConvCert:
    """A Cauchy sequence with a convergent subsequence converges to the
    subsequence limit.  Uses n_k >= k to reach the tail with one split.
    The index map is checked at the first 64 k, the sampling at the first 8."""
    space = _same_space(cauchy.space, csub.space)
    modulus = _split_max(space.codomain, cauchy.modulus, csub.modulus)

    prev = 0
    for k in range(1, 65):
        nk = sub.index(k)
        if not isinstance(nk, int) or isinstance(nk, bool) or nk <= prev:
            raise ValueError(
                f"{sub.name}: index map is not strictly increasing at k={k}"
            )
        prev = nk
    for k in range(1, 9):
        if csub.seq(k) != cauchy.seq(sub.index(k)):
            raise ValueError(
                f"{csub.seq.name} does not sample {cauchy.seq.name} "
                f"through {sub.name} (mismatch at k={k})"
            )

    return ConvCert(space, cauchy.seq, csub.limit, modulus)


def validate_apart_witness(witness: ApartFromZeroWitness, ng: NormedGroup, x: Seq) -> None:
    """Raise unless the selector really produces k >= n with norm >= eps,
    for each of the first 16 n."""
    m = ng.codomain
    if not m.is_positive(witness.eps):
        raise ValueError(f"{m.name}: witness epsilon must be positive")
    for n in range(1, 17):
        k = witness.selector(n)
        if not isinstance(k, int) or isinstance(k, bool) or k < n:
            raise ValueError(f"apartness selector returned k={k!r} < n={n}")
        nv = ng.norm(x(k))
        if not m.le(witness.eps, nv):
            raise ValueError(
                f"{x.name}: norm {m.fmt(nv)} at selected index {k} is below "
                f"the witness epsilon {m.fmt(witness.eps)}"
            )


def apart_tail(
    cauchy: CauchyCert, witness: ApartFromZeroWitness, ng: NormedGroup
) -> tuple[Element, int]:
    """A Cauchy sequence apart from zero has a whole tail apart from zero:
    returns (gamma, N) with norm(x_n) > gamma for all n >= N.

    gamma is the first part of split(eps - beta) where beta is the first
    part of split(eps): both strictly positive, and the tail estimate
    norm(x_n) > eps - beta > gamma follows from one triangle step; it is
    re-checked on the 17 indices from N on.
    """
    m = ng.codomain
    m.require("group", "total_order")
    w = split_witness(m, None)
    validate_apart_witness(witness, ng, cauchy.seq)

    beta = checked_split(m, w, witness.eps)[0]
    n0 = _modulus_at(cauchy.modulus, beta)
    gap = m.sub(witness.eps, beta)
    gamma = checked_split(m, w, gap)[0]
    for n in range(n0, n0 + 17):
        nv = ng.norm(cauchy.seq(n))
        if not m.lt(gamma, nv):
            raise ValueError(
                f"{cauchy.seq.name}: tail norm {m.fmt(nv)} at index {n} is "
                f"not above {m.fmt(gamma)}; certificate or witness inconsistent"
            )
    return gamma, n0


def limit_hom_report(cx: ConvCert, cy: ConvCert, pnr: PseudonormedRing) -> list[Violation]:
    """Limit-taking as a ring map: the sum/product certificates must carry
    limits equal to the sum/product of limits and must verify over the
    codomain's grid with a 16-index window."""
    ring = pnr.ring
    out: list[Violation] = []

    c_sum = add_certs(cx, cy, ring)
    if not ring.eq(c_sum.limit, ring.op(cx.limit, cy.limit)):
        out.append(Violation("limit-hom.add", (cx.limit, cy.limit, c_sum.limit)))
    for v in verify_conv_cert(c_sum, horizon=16):
        out.append(Violation("limit-hom.add.cert", v.values, v.note))

    c_prod = prod_certs(cx, cy, pnr)
    if not ring.eq(c_prod.limit, ring.mul(cx.limit, cy.limit)):
        out.append(Violation("limit-hom.mul", (cx.limit, cy.limit, c_prod.limit)))
    for v in verify_conv_cert(c_prod, horizon=16):
        out.append(Violation("limit-hom.mul.cert", v.values, v.note))

    c_const = constant_cert(cx.space, cx.limit)
    if not ring.eq(c_const.limit, cx.limit):
        out.append(Violation("limit-hom.const", (cx.limit,)))
    return out


def refute_distinct_limits(ca: ConvCert, cb: ConvCert) -> RefutationRecord:
    """Run the two-certificate uniqueness argument on a shared sequence.

    Splitting eps = d(a, b) into beta + gamma and probing the max of the two
    moduli would force d(a, b) < d(a, b) if both certificates held; the
    record shows exactly which premise breaks.
    """
    space = _same_space(ca.space, cb.space)
    s = space.codomain
    w = split_witness(s, None)
    for n in range(1, 9):
        if ca.seq(n) != cb.seq(n):
            raise ValueError("certificates disagree about the sequence itself")

    eps = space.distance(ca.limit, cb.limit)
    if s.eq(eps, s.identity):
        raise ValueError("the two limits coincide; nothing to refute")
    beta, gamma = checked_split(s, w, eps)
    n = max(_modulus_at(ca.modulus, beta), _modulus_at(cb.modulus, gamma))
    d_first = space.distance(ca.seq(n), ca.limit)
    d_second = space.distance(cb.seq(n), cb.limit)
    first_within = s.lt(d_first, beta)
    second_within = s.lt(d_second, gamma)
    split_below = s.lt(s.op(beta, gamma), eps)
    triangle = s.le(eps, s.op(d_first, d_second))
    return RefutationRecord(
        eps=eps, beta=beta, gamma=gamma, index=n,
        d_first=d_first, d_second=d_second,
        first_within=first_within, second_within=second_within,
        split_below_eps=split_below, triangle_holds=triangle,
        refuted=split_below and triangle and not (first_within and second_within),
    )


# ---------------------------------------------------------------------------
# scanned moduli (desk-scale constructions for the CLI and for carriers
# without an analytic modulus)


def _scanned_modulus(
    scan: Callable[[Element], int | None], message: Callable[[Element], str]
) -> Callable[[Element], int]:
    """A modulus that runs scan once per epsilon and caches the index it
    finds; an epsilon whose scan finds none raises ValueError(message(eps))."""
    cache: dict = {}

    def modulus(eps: Element) -> int:
        if eps not in cache:
            found = scan(eps)
            if found is None:
                raise ValueError(message(eps))
            cache[eps] = found
        return cache[eps]

    return modulus


def scan_window_start(
    space: MetricSpace,
    seq: Seq,
    limit: Element,
    eps: Element,
    horizon: int = 64,
    max_index: int = _MAX_INDEX,
) -> int | None:
    """Least N with d(seq(n), limit) < eps across all of [N, N+horizon],
    or None when no such window starts at or below max_index."""
    _nonnegative_horizon(horizon)
    s = space.codomain
    last_bad = 0
    for n in range(1, max_index + horizon + 1):
        if not s.lt(space.distance(seq(n), limit), eps):
            last_bad = n
        window_start = n - horizon
        if window_start >= 1 and window_start > last_bad:
            return window_start
    return None


def scanned_conv_cert(
    space: MetricSpace, seq: Seq, limit: Element, horizon: int = 64
) -> ConvCert:
    """Certificate whose modulus is found by scanning, lazily per epsilon.

    Deterministic and exact, but desk-scale only: an epsilon whose window
    never clears within _MAX_INDEX raises ValueError at modulus time.
    """
    s = space.codomain
    modulus = _scanned_modulus(
        lambda eps: scan_window_start(space, seq, limit, eps, horizon, _MAX_INDEX),
        lambda eps: f"{seq.name}: no index window up to {_MAX_INDEX} stays "
                    f"below {s.fmt(eps)}; the claimed limit fails at this scale",
    )
    return ConvCert(space, seq, limit, modulus)


def scan_cauchy_window_start(
    space: MetricSpace,
    seq: Seq,
    eps: Element,
    horizon: int = 64,
    max_index: int = _MAX_INDEX,
) -> int | None:
    """Least N such that every pair drawn from [N, N+horizon] has distance
    below eps, or None when no such window starts at or below max_index.

    Slides a left bound g: after step n, all pairs inside [g, n] are known
    good, so the first window of width horizon is returned as soon as it
    fits."""
    _nonnegative_horizon(horizon)
    s = space.codomain
    g = 1
    for n in range(2, max_index + horizon + 1):
        xn = seq(n)
        for a in range(g, n):
            if not s.lt(space.distance(seq(a), xn), eps):
                g = a + 1
        if g > max_index:
            return None
        if n - g >= horizon:
            return g
    return None


def scanned_cauchy_cert(space: MetricSpace, seq: Seq, horizon: int = 64) -> CauchyCert:
    """Cauchy certificate whose modulus is found by scanning, lazily per
    epsilon; an epsilon whose window never clears raises at modulus time."""
    s = space.codomain
    modulus = _scanned_modulus(
        lambda eps: scan_cauchy_window_start(space, seq, eps, horizon, _MAX_INDEX),
        lambda eps: f"{seq.name}: no index window up to {_MAX_INDEX} keeps "
                    f"pairwise gaps below {s.fmt(eps)}; the values fail to "
                    f"cluster at this scale",
    )
    return CauchyCert(space, seq, modulus)
