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

from bisect import bisect_left, bisect_right
from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Sequence

from .algebra import PseudonormedRing
from .metric import MetricSpace, NormedGroup, absolute_value
from .order import (
    CapabilityError,
    StructureHandle,
    Violation,
    checked_split,
    join_fold,
    nat_mul,
    nat_pow,
    powers,
    shrink_witness,
    split_witness,
)
from .poly import Poly, poly_add, poly_scale, poly_sub, tail_start

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
        if type(n) is not int or n < 1:  # True is an int, but not the index 1
            what = ">= 1" if isinstance(n, int) else "an integer >= 1"
            raise ValueError(f"sequence index must be {what}, got {n!r}")
        if n not in self._cache:
            self._cache[n] = self.term(n)
        return self._cache[n]


class RationalTerm:
    """The term function of a rational function of n over Q, given as its
    unreduced integer polynomials num = P and den = Q in n, with Q(n) != 0
    at every n >= 1 (termexpr._Facts.form), built only under _int_terms.
    pair(n) gives the ints (P(n), Q(n)), by Horner's rule, and the term at
    n is their quotient.  Through shape_fact, PartialSums reads the pairs
    and conv_cert the polynomials (tail)."""

    def __init__(self, num: Poly, den: Poly):
        self.num, self.den = num, den
        self._num_desc, self._den_desc = num[::-1], den[::-1]  # Horner's order

    def pair(self, n: int) -> tuple[int, int]:
        p = q = 0
        for c in self._num_desc:
            p = p * n + c
        for c in self._den_desc:
            q = q * n + c
        return p, q

    def __call__(self, n: int) -> Fraction:
        return Fraction(*self.pair(n))

    def tail(self, space: MetricSpace, limit: Element | None, horizon: int,
             message: Callable[[Element], str]):
        """The proved modulus of P/Q -> limit, the zero of space's _group
        (_zero_group) with Q's own operations, when deg P < deg Q, else None:
        at eps = a/b the least N with (aQ(n) - bP(n)) (aQ(n) + bP(n)) > 0 from N on."""
        grp = _zero_group(space, limit)

        def least(eps: Element, start: int) -> int | None:
            aq, bp = poly_scale(self.den, eps.numerator), poly_scale(self.num, eps.denominator)
            n = tail_start(poly_sub(aq, bp), poly_add(aq, bp))
            return n if n <= _MAX_INDEX else None

        decides = grp is not None and grp._int_terms and len(self.num) < len(self.den)
        return _scanned_modulus(grp, least, message) if decides else None


class PowerTerm:
    """The term function n -> c * r^n of a term whose syntax is c·r^n, with
    c and r free of n and evaluated once (power_term).  The powers step
    from r^k to r^(k+1) with one product, and c = 1 is not multiplied in.
    Through shape_fact it decides, from c and r on the space or handle
    given, tail, sums_tail, sum_inverse, positive, falls and bounds."""

    def __init__(self, handle: StructureHandle, c: Element, r: Element):
        self.c, self.r = c, r
        self._power = powers(handle, r)
        self._mul = None if handle.eq(c, handle.one) else handle.second_op

    def __call__(self, n: int) -> Element:
        power = self._power(n)
        return power if self._mul is None else self._mul(self.c, power)

    def positive(self, s: StructureHandle) -> bool:
        """Whether 0 < c and 0 < r in s: every term is positive."""
        return s.is_positive(self.c) and s.is_positive(self.r)

    def falls(self, s: StructureHandle) -> bool:
        """Whether 0 < c and 0 < r < 1 in s: the terms are positive and
        strictly decrease at every index."""
        return self.positive(s) and s.lt(self.r, s.one)

    def bounds(self, space: MetricSpace, n0: int, h: int) -> tuple[int, int] | None:
        """(n0 + h, n0) when the terms fall in space's _group: the indices
        of the least and the greatest value of [n0, n0+h]; else None."""
        grp = space._group
        return (n0 + h, n0) if grp is not None and self.falls(grp) else None

    def tail(self, space: MetricSpace, limit: Element | None, horizon: int,
             message: Callable[[Element], str]):
        """The modulus of c r^n -> limit, the zero of space's _group
        (_zero_group), when 0 < |r| < 1, else None: |c r^n| strictly
        decreases, so N(eps) is the least N with |c| |r|^N < eps (_power_tail)."""
        grp = _zero_group(space, limit)
        ratio = None if grp is None else absolute_value(grp, self.r)
        decides = ratio is not None and grp.is_positive(ratio) and grp.lt(ratio, grp.one)
        return (_power_tail(grp, absolute_value(grp, self.c), ratio, grp.one, message)
                if decides else None)

    def sums_tail(self, space: MetricSpace, limit: Element | None, horizon: int,
                  message: Callable[[Element], str]):
        """The modulus of the partial sums S_N on space, when it has a
        _group and the terms fall, else None.  The sums rise, so the gap to
        the limit L = c r / (1 - r) is c r^(N+1) / (1 - r), and that of a
        Cauchy window [N, N+h] (limit None, h >= 1) c r^(N+1) (1 - r^h) / (1 - r)."""
        grp = space._group
        if grp is None or (limit is None and horizon < 1) or not self.falls(grp):
            return None
        one_less, scale = grp.sub(grp.one, self.r), grp.mul(self.c, self.r)
        if limit is None:
            scale = grp.mul(scale, grp.sub(grp.one, nat_pow(grp, self.r, horizon)))
        decides = limit is None or grp.eq(grp.mul(limit, one_less), scale)
        return _power_tail(grp, scale, self.r, one_less, message) if decides else None

    def sum_inverse(self, handle: StructureHandle, alternating: bool) -> Element | None:
        """(1 + r)^-1 when alternating, else (1 - r)^-1, when that is a unit
        of handle, else None: PartialSums' closed form reads it."""
        x = (handle.op if alternating else handle.sub)(handle.one, self.r)
        try:
            return None if handle.invert is None else handle.invert(x)
        except ValueError:  # 0, or 2/3 in Z[1/3]
            return None


def _zero_group(space: MetricSpace, limit: Element | None) -> StructureHandle | None:
    """space's _group when limit (None for a Cauchy claim) is its zero, else None."""
    grp = space._group
    return grp if grp is not None and limit is not None and grp.eq(limit, grp.identity) else None


def shape_fact(seq: Seq, name: str, *args: Any) -> Any:
    """Attribute name of the shape of seq's term, a RationalTerm, a
    PowerTerm, the PartialSums of a term or a CondensedTerm, called with
    args if any; None when there is none, or the shape cannot decide it
    here, and the asker scans or walks.  The one test of a term's shape by
    its type."""
    t = seq.term
    fact = (getattr(t, name, None)
            if type(t) in (RationalTerm, PowerTerm, PartialSums, CondensedTerm) else None)
    return fact(*args) if args and fact is not None else fact


def power_term(handle: StructureHandle,
               parts: Callable[[], tuple[Element, Element]]) -> PowerTerm | None:
    """c r^n as a PowerTerm over handle, with (c, r) = parts(), when handle
    has a second operation, a one and a first metric space with a _group
    (which the reference registry drops); else None, with parts not called."""
    if (handle.second_op is None or handle.one is None or not handle.metrics
            or handle.metrics[0]._group is None):
        return None
    return PowerTerm(handle, *parts())


def power_seq(handle: StructureHandle, r: Element, name: str) -> Seq:
    """The sequence n -> r^n named name, the one builder of a power sequence:
    a PowerTerm with c = 1 where power_term admits handle, else powers'."""
    return Seq(name, power_term(handle, lambda: (handle.one, r)) or powers(handle, r))


class PartialSums:
    """The term function n -> s_n = x_1 + x_2 + ... + x_n, or x_1 - x_2 +
    ... +- x_n when alternating: the term of series.Series(...).partials
    and of series.alternating_cauchy's sums.

    s_n is the largest sum already known below n plus the block of terms
    between them, and is kept.  A one-term block adds +-x_n.  A longer
    block is skipped according to x's shape: summed by binary splitting
    over a RationalTerm's integer pairs under Q's own operations; for a
    PowerTerm c r^n whose 1 - r (1 + r when alternating) is a unit, s_n
    comes in closed form; otherwise the terms are added one at a time, and
    each sum is kept.  The dict of sums is also the cache of the Seq whose
    term this is, so each sum is stored once, and that Seq calls it only
    for an index it holds no sum for.  Through shape_fact, window gives
    the values of a Cauchy window, from the gaps when the sums are far
    below it, bounds the two sums that bound a window's, and tail."""

    def __init__(self, handle: StructureHandle, x: Seq, alternating: bool):
        self.handle, self.x, self.alternating = handle, x, alternating
        self.sums: dict = {}
        self.known: list = []  # the indices of sums, ascending
        # not a fact of the sums: shape_fact answers pair only for a term
        self._pair = shape_fact(x, "pair") if handle._int_terms else None
        self.inv = shape_fact(x, "sum_inverse", handle, alternating)

    def _block(self, lo: int, hi: int) -> tuple[int, int]:
        """The sum of the signed terms lo..hi as an unreduced integer pair,
        by binary splitting: the halves are summed apart and added once.
        Leaves are evaluated in index order."""
        if lo == hi:
            num, den = self._pair(lo)
            return (-num if self.alternating and lo % 2 == 0 else num), den
        mid = (lo + hi) // 2
        a, b = self._block(lo, mid)
        c, d = self._block(mid + 1, hi)
        return a * d + c * b, b * d

    def __call__(self, n: int) -> Element:
        sums, known, h, x = self.sums, self.known, self.handle, self.x
        i = bisect_left(known, n)
        m = known[i - 1] if i else 0
        if n - m > 1 and self._pair is not None:
            block = Fraction(*self._block(m + 1, n))
            s = block if m == 0 else sums[m] + block
        elif n - m > 1 and self.inv is not None:
            # c r +- ... = (x_1 - x_(n+1)) / (1 - r), or (x_1 - (-1)^n x_(n+1)) / (1 + r)
            flip = h.op if self.alternating and n % 2 else h.sub
            s = h.mul(flip(x(1), x(n + 1)), self.inv)
        else:
            s = sums.get(m)  # None at m = 0
            for k in range(m + 1, n + 1):
                add = h.sub if self.alternating and k % 2 == 0 else h.op
                s = sums[k] = x(k) if s is None else add(s, x(k))
            # a one-index run goes in as a tuple: a range is slower to insert
            known[i:i] = range(m + 1, n + 1) if n - m > 1 else (n,)
            return s
        sums[n] = s
        known.insert(i, n)
        return s

    def window(self, n: int, offs: Sequence[int]) -> list:
        """The values at n + o for the ascending offsets offs, from 0, up
        to one shift of them all.  With a RationalTerm's pairs, and the
        largest known sum at or below n more than offs[-1] below n, they
        are s_(n+o) - s_n, added up from blocks of at most offs[-1] terms
        between consecutive offsets and kept nowhere: a far window costs
        its own terms, not the prefix below it.  Otherwise they are the
        sums themselves, taken from the dict or made and kept as by a
        call."""
        sums, known = self.sums, self.known
        i = bisect_right(known, n)
        if self._pair is None or n - (known[i - 1] if i else 0) <= offs[-1]:
            return [sums[n + o] if n + o in sums else self(n + o) for o in offs]
        out, num, den, last = [], 0, 1, n
        for o in offs:
            if n + o > last:
                a, b = self._block(last + 1, n + o)
                num, den, last = num * b + a * den, den * b, n + o
            out.append(Fraction(num, den))
        return out

    def bounds(self, space: MetricSpace, n0: int, h: int) -> tuple[int, int] | None:
        """Two indices whose sums bound, in space's _group, every sum of
        [n0, n0+h]: n0 and n0 + h when the terms are positive, so the sums
        rise; n0 and n0 + 1 for the alternating sums of falling terms, by
        Leibniz's bound (each later sum lies between two consecutive ones);
        else None."""
        grp = space._group
        if grp is None:
            return None
        if self.alternating:
            return (n0, n0 + 1) if shape_fact(self.x, "falls", grp) else None
        return (n0, n0 + h) if shape_fact(self.x, "positive", grp) else None

    def tail(self, space: MetricSpace, limit: Element | None, horizon: int,
             message: Callable[[Element], str]):
        """The modulus the terms' sums_tail proves for plain sums (a Cauchy
        one with limit None); None for alternating sums."""
        if self.alternating:
            return None
        return shape_fact(self.x, "sums_tail", space, limit, horizon, message)


class CondensedTerm:
    """Term j of the condensed series of x, 2^(j-1) x_(2^(j-1)): the sum of
    2^(j-1) ones times x at index 2^(j-1), one product in place of j-1
    doublings of a term whose size grows with 2^j (series.condensed_terms).
    Through shape_fact it is positive where x is: 2^(j-1) ones are
    positive in an ordered ring."""

    def __init__(self, handle: StructureHandle, x: Seq):
        self.handle, self.x = handle, x

    def __call__(self, j: int) -> Element:
        h, k = self.handle, 2 ** (j - 1)
        return h.mul(nat_mul(h, k, h.one), self.x(k))

    def positive(self, s: StructureHandle) -> bool:
        return bool(shape_fact(self.x, "positive", s))


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
    # d(seq(n), limit) by index n, filled lazily by verify_conv_cert (on a
    # space with a _group, only at the indices it reports or that several
    # windows read) and, for a scanned certificate on a space without a
    # _group, by the scans behind its modulus.  Not an init field, so
    # dataclasses.replace never carries a table to a new limit.
    _dists: dict = field(default_factory=dict, init=False, repr=False, compare=False)


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


def modulus_at(modulus: Callable[[Element], int], eps: Element) -> int:
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
    [N(eps), N(eps)+horizon].  Empty result = consistent at this scale.
    The moduli are read first, in grid order.

    On a space with an ordered abelian _group, as in scan_window_start, an
    index is within eps exactly when limit - eps < x_n < limit + eps.  A
    window whose term shape names two indices that bound all its values
    (the fact bounds: falling powers, the sums of positive terms, the
    alternating sums of falling terms, condensed sums) passes when those
    two values are within; that interval holds every value between them.
    Every other window is walked: an index that only one walked window
    reads is decided by the two compares, and takes a distance only when
    it is reported; an index that several read takes its distance once,
    into the certificate's table, since one distance and a compare per
    window cost less than two compares per window there (over Z(X) most of
    all).  So a violation is always found, and reported, by the walk."""
    _nonnegative_horizon(horizon)
    space, s = cert.space, cert.space.codomain
    grp = space._group
    dists = cert._dists
    grid = _grid_for(space, grid)
    starts = [modulus_at(cert.modulus, eps) for eps in grid]
    walks = []  # (eps, N(eps), limit - eps, limit + eps) of each window walked
    for eps, n0 in zip(grid, starts):
        lo = hi = None
        if grp is not None:
            lo, hi = grp.sub(cert.limit, eps), grp.op(cert.limit, eps)
            ends = shape_fact(cert.seq, "bounds", space, n0, horizon)
            if ends is not None and all(grp.lt(lo, x) and grp.lt(x, hi)
                                        for x in map(cert.seq, ends)):
                continue
        walks.append((eps, n0, lo, hi))
    reads = Counter(n for _, n0, _, _ in walks for n in range(n0, n0 + horizon + 1))
    out: list[Violation] = []
    for eps, n0, lo, hi in walks:
        for n in range(n0, n0 + horizon + 1):
            d = dists.get(n)
            if d is None:
                if grp is not None and reads[n] == 1:
                    x = cert.seq(n)
                    if grp.lt(lo, x) and grp.lt(x, hi):
                        continue
                d = dists[n] = space.distance(cert.seq(n), cert.limit)
            if not s.lt(d, eps):
                out.append(Violation(
                    "convergence.within",
                    (eps, n, d),
                    f"{cert.seq.name}: d at index {n} is {s.fmt(d)}, "
                    f"not below {s.fmt(eps)}",
                ))
    return out


def window_values(cert: CauchyCert, n: int, offs: Sequence[int]) -> list:
    """The values of cert.seq at n + o for the ascending offsets offs, from
    0.  On a space with an ordered abelian _group the distance is |x - y|,
    which a shift of every value leaves alone, so partial sums give them
    up to one shift (PartialSums.window); any other sequence or space gives
    the values themselves."""
    xs = shape_fact(cert.seq, "window", n, offs) if cert.space._group is not None else None
    return [cert.seq(n + o) for o in offs] if xs is None else xs


def verify_cauchy_cert(
    cert: CauchyCert,
    grid: Sequence[Element] | None = None,
    horizon: int = 64,
) -> list[Violation]:
    """Check d(seq(m), seq(n)) < eps over sampled index pairs in
    [N(eps), N(eps)+horizon] for every grid eps.

    On a space with an ordered abelian _group (absolute_value_metric on Q,
    Z, Z[1/2], Z[1/3], Z(X)) a window whose term shape names two indices
    that bound all its values (the fact bounds: falling powers, the sums
    of positive terms, the alternating sums of falling terms, condensed
    sums) passes when those two values are within eps, reading just them.
    Any other window reads its sampled values, which are pairwise within
    eps exactly when their min and max are, so a clean window costs one
    distance; a window that fails, and any other space, walks the pairs,
    and only the walk reports.  The values come from window_values, so a
    window of partial sums far past every known sum reads its gaps."""
    space, s = cert.space, cert.space.codomain
    grp = space._group
    out: list[Violation] = []
    offs = _offsets(horizon)
    for eps in _grid_for(space, grid):
        n0 = modulus_at(cert.modulus, eps)
        ends = shape_fact(cert.seq, "bounds", space, n0, horizon)
        if ends is not None:
            i, j = sorted(ends)
            if s.lt(space.distance(*window_values(cert, i, (0, j - i))), eps):
                continue
        xs = window_values(cert, n0, offs)
        if grp is not None:
            lo = hi = xs[0]
            for x in xs:
                if grp.lt(x, lo):
                    lo = x
                elif grp.lt(hi, x):
                    hi = x
            if s.lt(space.distance(lo, hi), eps):
                continue
        for a in range(len(offs)):
            for b in range(a, len(offs)):
                m, n = n0 + offs[a], n0 + offs[b]
                d = space.distance(xs[a], xs[b])
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


def split_max(
    s: StructureHandle,
    first: Callable[[Element], int],
    second: Callable[[Element], int],
) -> Callable[[Element], int]:
    """The modulus eps -> max(first(beta), second(gamma)) over the split
    eps -> (beta, gamma) of s's density witness, one part charged to each
    side of a triangle step; each eps is split once, however often it is
    read.  Raises CapabilityError now if s is not dense."""
    w = split_witness(s, None)
    found: dict = {}

    def modulus(eps: Element) -> int:
        n = found.get(eps)
        if n is None:
            beta, gamma = checked_split(s, w, eps)
            n = found[eps] = max(modulus_at(first, beta), modulus_at(second, gamma))
        return n

    return modulus


def constant_cert(space: MetricSpace, value: Element, name: str = "const") -> ConvCert:
    seq = Seq(name, lambda n: value)
    return ConvCert(space, seq, value, lambda eps: 1)


def conv_to_cauchy(cert: ConvCert) -> CauchyCert:
    """Convergent implies Cauchy over a dense codomain: route both sides of
    a pair through the limit, splitting eps into beta + gamma."""
    modulus = split_max(cert.space.codomain, cert.modulus, cert.modulus)
    return CauchyCert(cert.space, cert.seq, modulus)


def shift_cert(cert: ConvCert, k: int) -> ConvCert:
    """Certificate for the k-step left shift n -> seq(n+k)."""
    if k < 0:
        raise ValueError("shift must be nonnegative")
    shifted = Seq(f"{cert.seq.name}<<{k}", lambda n: cert.seq(n + k))
    return ConvCert(cert.space, shifted, cert.limit,
                    lambda eps: max(1, modulus_at(cert.modulus, eps) - k))


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
                    lambda eps: modulus_at(cert.modulus, eps) + k)


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
    modulus = split_max(space.codomain, cx.modulus, cy.modulus)
    return ConvCert(space, _sum_seq(cx, cy, carrier), carrier.op(cx.limit, cy.limit),
                    modulus)


def cauchy_sum(cx: CauchyCert, cy: CauchyCert, carrier: StructureHandle) -> CauchyCert:
    """Termwise sum of Cauchy sequences is Cauchy (same split pattern).

    As in add_certs, the density witness comes from the space's codomain
    and carrier only adds the terms."""
    space = _same_space(cx.space, cy.space)
    carrier.require("group", "commutative_add")
    modulus = split_max(space.codomain, cx.modulus, cy.modulus)
    return CauchyCert(space, _sum_seq(cx, cy, carrier), modulus)


def bounded_from_cert(cert: ConvCert | CauchyCert, eps0: Element) -> Element:
    """A bound R on all distances to the anchor (the limit, or for a bare
    Cauchy certificate the term at N(eps0)): join the finitely many head
    distances with eps0 itself.  Re-checked at the first 64 indices."""
    space, s = cert.space, cert.space.codomain
    if not s.is_positive(eps0):
        raise ValueError(f"{s.name}: eps0 {s.fmt(eps0)} must be positive")
    n0 = modulus_at(cert.modulus, eps0)
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
        return modulus_at(c_zero.modulus, e_l)

    def right_modulus(eps: Element) -> int:
        e_r = shrink(eps, bound)[1]
        return modulus_at(c_zero.modulus, e_r)

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
        return max(modulus_at(cy.modulus, k_r), modulus_at(cx.modulus, m_l))

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
    modulus = split_max(space.codomain, cauchy.modulus, csub.modulus)

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
    n0 = modulus_at(cauchy.modulus, beta)
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
    n = max(modulus_at(ca.modulus, beta), modulus_at(cb.modulus, gamma))
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
    s: StructureHandle,
    scan: Callable[[Element, int], int | None],
    message: Callable[[Element], str],
) -> Callable[[Element], int]:
    """A modulus that runs scan(eps, start) once per epsilon and caches the
    index it finds; an epsilon whose scan finds none raises
    ValueError(message(eps)).

    A window that is good for eps is good for every e >= eps, so the least
    window start for eps is at least the cached start of any such e: the
    scan resumes from the largest of them instead of from index 1.  The
    bound comes from s's order, since moduli are queried in any order."""
    cache: dict = {}

    def modulus(eps: Element) -> int:
        if eps not in cache:
            start = max((n for e, n in cache.items() if s.le(eps, e)), default=1)
            found = scan(eps, start)
            if found is None:
                raise ValueError(message(eps))
            cache[eps] = found
        return cache[eps]

    return modulus


def _power_tail(grp: StructureHandle, scale: Element, ratio: Element, d: Element,
                message: Callable[[Element], str]) -> Callable[[Element], int]:
    """The modulus whose N(eps) is the least N with scale * ratio^N <
    eps * d (scale >= 0, d > 0, 0 < ratio < 1): doubling from the start
    _scanned_modulus resumes at, then bisection; past _MAX_INDEX it raises
    ValueError(message(eps)).  d is not inverted: 2/3 is no unit of Z[1/3].

    Each probed power is kept: a doubling squares ratio^lo, and a bisection
    step multiplies ratio^lo by the power of its half-width, which from
    start 1 is a doubling's power."""
    def least(eps: Element, start: int) -> int | None:
        bound = grp.mul(eps, d)
        held = {start: nat_pow(grp, ratio, start)}

        def power(n: int) -> Element:
            return held[n] if n in held else nat_pow(grp, ratio, n)

        def holds(n: int) -> bool:
            return grp.lt(grp.mul(scale, held[n]), bound)

        lo, hi = start - 1, start
        while not holds(hi):
            if hi >= _MAX_INDEX:
                return None
            lo, hi = hi, min(2 * hi, _MAX_INDEX)
            held[hi] = grp.mul(held[lo], power(hi - lo))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            held[mid] = grp.mul(held[lo], power(mid - lo))
            if holds(mid):
                hi = mid
            else:
                lo = mid
        return hi

    return _scanned_modulus(grp, least, message)


def scan_window_start(
    space: MetricSpace,
    seq: Seq,
    limit: Element,
    eps: Element,
    horizon: int = 64,
    max_index: int = _MAX_INDEX,
    *,
    start: int = 1,
    dists: dict | None = None,
) -> int | None:
    """Least N with d(seq(n), limit) < eps across all of [N, N+horizon],
    or None when no such window starts at or below max_index.

    start is a known lower bound on N, where the scan begins.  On a space
    with an ordered abelian _group, |x_n - limit| >= eps exactly when
    x_n <= limit - eps or x_n >= limit + eps, so each index costs two
    compares against bounds made once per scan, and no distance.  Any other
    space takes d(seq(n), limit), cached by n across scans in dists."""
    _nonnegative_horizon(horizon)
    s = space.codomain
    grp = space._group
    if grp is not None:
        lo, hi = grp.sub(limit, eps), grp.op(limit, eps)
    elif dists is None:
        dists = {}
    last_bad = start - 1
    for n in range(start, max_index + horizon + 1):
        if grp is not None:
            x = seq(n)
            if grp.le(x, lo) or grp.le(hi, x):
                last_bad = n
        else:
            d = dists.get(n)
            if d is None:
                d = dists[n] = space.distance(seq(n), limit)
            if not s.lt(d, eps):
                last_bad = n
        if n - horizon > last_bad:
            return n - horizon
    return None


def _no_window(seq: Seq, s: StructureHandle) -> Callable[[Element], str]:
    return lambda eps: (f"{seq.name}: no index window up to {_MAX_INDEX} stays "
                        f"below {s.fmt(eps)}; the claimed limit fails at this scale")


def conv_cert(space: MetricSpace, seq: Seq, limit: Element, horizon: int) -> ConvCert:
    """Certificate for seq -> limit in space, with the modulus seq's shape
    proves (tail), else the scanned one with this horizon.  Either way an
    epsilon whose N would lie past _MAX_INDEX raises the scan's error."""
    modulus = shape_fact(seq, "tail", space, limit, horizon, _no_window(seq, space.codomain))
    if modulus is None:
        return scanned_conv_cert(space, seq, limit, horizon)
    return ConvCert(space, seq, limit, modulus)


def cauchy_cert(space: MetricSpace, seq: Seq, horizon: int) -> CauchyCert:
    """Cauchy certificate for seq in space, proved as in conv_cert (limit None)."""
    modulus = shape_fact(seq, "tail", space, None, horizon, _no_cluster(seq, space.codomain))
    if modulus is None:
        return scanned_cauchy_cert(space, seq, horizon)
    return CauchyCert(space, seq, modulus)


def scanned_conv_cert(
    space: MetricSpace, seq: Seq, limit: Element, horizon: int = 64
) -> ConvCert:
    """Certificate whose modulus is found by scanning, lazily per epsilon.

    Deterministic and exact, but desk-scale only: an epsilon whose window
    never clears within _MAX_INDEX raises ValueError at modulus time.  The
    scans and verify_conv_cert share one distance table, which only the
    verifier fills on a space with a _group; the modulus holds the table,
    not the certificate, so dropping the certificate frees both without the
    cycle collector.
    """
    s = space.codomain
    dists: dict = {}
    modulus = _scanned_modulus(
        s,
        lambda eps, start: scan_window_start(space, seq, limit, eps, horizon, _MAX_INDEX,
                                             start=start, dists=dists),
        _no_window(seq, s),
    )
    cert = ConvCert(space, seq, limit, modulus)
    object.__setattr__(cert, "_dists", dists)
    return cert


def scan_cauchy_window_start(
    space: MetricSpace,
    seq: Seq,
    eps: Element,
    horizon: int = 64,
    max_index: int = _MAX_INDEX,
    *,
    start: int = 1,
) -> int | None:
    """Least N such that every pair drawn from [N, N+horizon] has distance
    below eps, or None when no such window starts at or below max_index.

    Slides a left bound g from start, a known lower bound on N:
    after step n, all pairs inside [g, n] are known good, so the first
    window of width horizon is returned as soon as it fits.  A scan from 1
    takes its first step at n = 2, so at horizon 0 it returns 1 or 2; a
    scan resumed past 1 returns start at once, as the one from 1 would.

    On a space with an ordered abelian _group, x_a is too far from x_n
    exactly when x_a >= x_n + eps or x_a <= x_n - eps, so the last such a
    heads a deque of the suffix maxima or one of the suffix minima of
    [g, n): each step costs one add, one subtract and amortised O(1)
    compares, and no distance.  Any other space compares every pair."""
    _nonnegative_horizon(horizon)
    s = space.codomain
    grp = space._group
    g = start
    tops: deque = deque()  # (a, x_a), values strictly decreasing
    bottoms: deque = deque()  # (a, x_a), values strictly increasing

    def push(a, xa):
        while tops and grp.le(tops[-1][1], xa):
            tops.pop()
        tops.append((a, xa))
        while bottoms and grp.le(xa, bottoms[-1][1]):
            bottoms.pop()
        bottoms.append((a, xa))

    for n in range(max(2, g), max_index + horizon + 1):
        xn = seq(n)
        if grp is None:
            for a in range(g, n):
                if not s.lt(space.distance(seq(a), xn), eps):
                    g = a + 1
        else:
            if n == 2 and g == 1:  # a scan from 1 reads seq(1) after seq(2)
                push(1, seq(1))
            hi, lo = grp.op(xn, eps), grp.sub(xn, eps)
            # Pairs in [g, n) are good, so at most one side is bad.  The
            # other side's entries below the new g lie strictly beyond x_n
            # (each is within eps of a popped value), so pushing x_n drops them.
            while tops and grp.le(hi, tops[0][1]):
                g = tops.popleft()[0] + 1
            while bottoms and grp.le(bottoms[0][1], lo):
                g = bottoms.popleft()[0] + 1
            push(n, xn)
        if g > max_index:
            return None
        if n - g >= horizon:
            return g
    return None


def scanned_cauchy_cert(space: MetricSpace, seq: Seq, horizon: int = 64) -> CauchyCert:
    """Cauchy certificate whose modulus is found by scanning, lazily per
    epsilon and resumed from a larger epsilon's start; an epsilon whose
    window never clears raises at modulus time."""
    s = space.codomain
    modulus = _scanned_modulus(
        s,
        lambda eps, start: scan_cauchy_window_start(space, seq, eps, horizon, _MAX_INDEX,
                                                    start=start),
        _no_cluster(seq, s),
    )
    return CauchyCert(space, seq, modulus)


def _no_cluster(seq: Seq, s: StructureHandle) -> Callable[[Element], str]:
    return lambda eps: (f"{seq.name}: no index window up to {_MAX_INDEX} keeps "
                        f"pairwise gaps below {s.fmt(eps)}; the values fail to "
                        f"cluster at this scale")
