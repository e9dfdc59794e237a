"""Named property suites run against a registered structure.

Each suite turns library verifiers into CheckRecords, and so do the
`series` and `algebra` subcommands (run_series, run_algebra): every record
the workbench reports is built here, every certificate's through
_Collector.cert.  An epsilon with no modulus is a violation there, a term
that cannot be evaluated is bad input, and a missing capability makes the
affected check (or the whole suite, when nothing in it can run)
"unverifiable": not being able to pose a question is kept distinct from
answering it negatively.

Determinism: randomized sampling inside a suite draws from a generator
seeded with (seed, suite, structure), so reports are byte-stable for a
fixed configuration.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import algebra as _algebra
from . import metric as _metric
from .instances import lookup
from .order import (
    CapabilityError,
    Element,
    OrderResult,
    StructureHandle,
    Violation,
    betweenness,
    n_split,
    nat_mul,
    once,
    shrink_witness,
    split_witness,
    verify_archimedean,
    verify_compatibility,
    verify_density,
    verify_group,
    verify_hemiring,
    verify_monoid,
    verify_shrink,
)
from .report import PASS, UNVERIFIABLE, VIOLATION, CheckRecord, violation_values
from .sequences import (
    ApartFromZeroWitness,
    ConvCert,
    Seq,
    add_certs,
    apart_tail,
    constant_cert,
    conv_to_cauchy,
    power_seq,
    prod_certs,
    refute_distinct_limits,
    shift_cert,
    sums_cauchy_cert,
    sums_conv_cert,
    unshift_cert,
    verify_cauchy_cert,
    verify_conv_cert,
    zero_limit_cert,
)
from .series import (
    MonotoneKind,
    Series,
    alternating_cauchy,
    archimedean_power_modulus,
    bernoulli_check,
    check_monotone,
    condensation_inequalities,
    condense,
    geometric_cert,
    geometric_limit,
    power_limit_is_zero,
    squeeze_cauchy,
    tail_bound,
    terms_vanish,
)
from .termexpr import (
    EvalError,
    TermError,
    eval_term,
    mentions_index,
    parse_term_expr,
    seq_from_expr,
)


@dataclass(frozen=True)
class RunConfig:
    """One suite invocation: what to run, against what, how hard."""

    structure: str | None = None
    suite: str = "all"
    grid: tuple[str, ...] = ()
    horizon: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.suite != "all" and self.suite not in SUITE_NAMES:
            raise ValueError(
                f"unknown suite {self.suite!r}; available: all, "
                + ", ".join(SUITE_NAMES)
            )
        _check_horizon(self.horizon)
        # bool is an int subclass, but True is not a seed
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError("seed must be an integer")


def _check_horizon(horizon) -> None:
    """The rule for a window width given to `check` or `series`."""
    # bool is an int subclass, but True is not a horizon
    if isinstance(horizon, bool) or not isinstance(horizon, int) or horizon < 1:
        raise ValueError("horizon must be a positive integer")


def _grid_value(handle: StructureHandle, entry: str) -> Element:
    """The constant a grid entry denotes; an entry may not mention n."""
    try:
        node = parse_term_expr(entry)
    except TermError as exc:
        raise ValueError(f"grid entry {entry!r}: {exc}") from None
    if mentions_index(node):
        raise ValueError(f"grid entry {entry!r} mentions the index n; "
                         "grid entries are constants")
    try:
        return eval_term(node, handle, 1)
    except EvalError as exc:
        raise EvalError(f"grid entry {entry!r}: {exc.reason}") from None


def resolve_grid(handle: StructureHandle, raw: Sequence[str]) -> tuple:
    """Grid of positive, strictly decreasing epsilon values: parsed
    overrides or the default."""
    if raw:
        vals = tuple(_grid_value(handle, g) for g in raw)
    else:
        vals = tuple(handle.eps_grid)
    if not vals:
        raise CapabilityError(f"{handle.name} has no epsilon scale registered")
    for v in vals:
        if not handle.is_positive(v):
            raise ValueError(f"{handle.name}: grid value {handle.fmt(v)} is not positive")
    for i in range(1, len(raw)):
        if not handle.lt(vals[i], vals[i - 1]):
            raise ValueError(f"grid entry {raw[i]!r} is not below {raw[i - 1]!r}; "
                             "grid entries must strictly decrease")
    return vals


class _Collector:
    """Accumulates records for one suite run over one structure."""

    def __init__(self, suite: str, handle: StructureHandle):
        self.suite = suite
        self.handle = handle
        self.records: list[CheckRecord] = []

    def emit(self, check_id: str, anchor: str, violations, pass_values=(), fmt=None):
        fmt = fmt or self.handle.fmt
        violations = list(violations)
        if violations:
            status, values = VIOLATION, violation_values(violations, fmt)
        else:
            status, values = PASS, tuple(pass_values)
        self.records.append(CheckRecord(
            suite=self.suite, structure=self.handle.name, check_id=check_id,
            status=status, witness_values=values, paper_anchor=anchor,
        ))

    def unverifiable(self, check_id: str, anchor: str):
        self.records.append(CheckRecord(
            suite=self.suite, structure=self.handle.name, check_id=check_id,
            status=UNVERIFIABLE, witness_values=(), paper_anchor=anchor,
        ))

    def block(self, check_id: str, anchor: str, thunk, fmt):
        """thunk() -> (violations, pass_values).  A term that cannot be
        evaluated is bad input and propagates; a CapabilityError marks the
        check unverifiable, and a ValueError (a witness rejected the stock
        instance) is a violation."""
        try:
            violations, pass_values = thunk()
        except EvalError:
            raise
        except CapabilityError:
            self.unverifiable(check_id, anchor)
            return
        except ValueError as exc:
            self.emit(check_id, anchor,
                      [Violation("value.rejected", (str(exc),))], (), str)
            return
        self.emit(check_id, anchor, violations, pass_values, fmt)

    def cert(self, check_id: str, anchor: str, build, verify, grid, horizon: int,
             fmt, lead=()):
        """Build a certificate, echo its modulus at each grid epsilon after
        the lead values, and verify it there and over the window; a modulus
        that cannot be produced (a scan found no stable window) is a
        violation at its epsilon: the claim fails at that scale."""

        def thunk():
            c = build()
            violations: list[Violation] = []
            echoes: list[str] = []
            good = []
            for eps in grid:
                try:
                    n = c.modulus(eps)
                except EvalError:
                    raise
                except ValueError as exc:
                    violations.append(Violation("modulus.window", (eps,), str(exc)))
                    continue
                echoes.append(f"N({fmt(eps)})={n}")
                good.append(eps)
            if good:
                violations.extend(verify(c, good, horizon))
            return violations, tuple(lead) + tuple(echoes)

        self.block(check_id, anchor, thunk, fmt)


# ---------------------------------------------------------------------------
# individual suites


def _suite_axioms(handle: StructureHandle, cfg: RunConfig, rng: random.Random):
    col = _Collector("axioms", handle)
    if not handle.sample:
        raise CapabilityError(f"{handle.name} has no sample elements registered")
    sample = tuple(handle.sample)

    col.emit("axioms.magma", "magma.laws", verify_monoid(handle))
    if handle.flags.group:
        col.emit("axioms.group", "group.inverses", verify_group(handle))
    if handle.flags.hemiring and handle.second_op is not None:
        col.emit("axioms.hemiring", "hemiring.laws", verify_hemiring(handle))
    col.emit("axioms.order", "order.relation", _order_violations(handle, sample))
    col.emit(
        "axioms.compatibility", "order.compatibility",
        verify_compatibility(handle),
        pass_values=("strict" if handle.flags.group else "non-strict",),
    )
    if handle.join is not None:
        col.emit("axioms.join", "order.join", _join_violations(handle, sample))
    for p in handle.pnorms:
        col.emit(
            f"axioms.pseudonorm.{p.name}", "norm.ring-compatible",
            _algebra.verify_pseudonorm(p),
            fmt=p.codomain.fmt,
        )
    return col.records


def _order_violations(handle: StructureHandle, sample) -> list[Violation]:
    # each comparison once per pair of element objects; a < b exactly when
    # compare gives LESS, which total_compare keeps for the direct handles
    compare = once(handle.compare)
    out: list[Violation] = []
    mirror = {
        OrderResult.LESS: OrderResult.GREATER,
        OrderResult.GREATER: OrderResult.LESS,
        OrderResult.EQUAL: OrderResult.EQUAL,
        OrderResult.INCOMPARABLE: OrderResult.INCOMPARABLE,
    }
    for a in sample:
        if compare(a, a) is not OrderResult.EQUAL:
            out.append(Violation("order.reflexive", (a,)))
        for b in sample:
            r = compare(a, b)
            if compare(b, a) is not mirror[r]:
                out.append(Violation("order.mirror", (a, b)))
            if handle.flags.total_order and r is OrderResult.INCOMPARABLE:
                out.append(Violation("order.total", (a, b)))
    small = sample[:6]
    less = OrderResult.LESS
    for a in small:
        for b in small:
            for c in small:
                if compare(a, b) is less and compare(b, c) is less and compare(a, c) is not less:
                    out.append(Violation("order.transitive", (a, b, c)))
    return out


def _join_violations(handle: StructureHandle, sample) -> list[Violation]:
    out: list[Violation] = []
    join, le = handle.join, once(handle.le)
    for a in sample:
        for b in sample:
            j = join(a, b)
            if not (le(a, j) and le(b, j)):
                out.append(Violation("join.upper-bound", (a, b, j)))
                continue
            for c in sample:
                if le(a, c) and le(b, c) and not le(j, c):
                    out.append(Violation("join.least", (a, b, c, j)))
    return out


def _suite_density(handle: StructureHandle, cfg: RunConfig, rng: random.Random):
    col = _Collector("density", handle)
    w = split_witness(handle, None)
    grid = resolve_grid(handle, cfg.grid)
    for eps in grid:
        viols = verify_density(handle, w, (eps,))
        pair = () if viols else n_split(handle, eps, 2, w)
        col.emit(f"density.split[{handle.fmt(eps)}]", "order.dense-split",
                 viols, pass_values=tuple(map(handle.fmt, pair)))
    if handle.one is not None and handle.lt(handle.identity, handle.one):
        def between_block():
            mid = betweenness(handle, handle.identity, handle.one, w)
            return [], (handle.fmt(mid),)
        col.block("density.between", "order.dense-between", between_block, handle.fmt)
    return col.records


def _suite_shrink(handle: StructureHandle, cfg: RunConfig, rng: random.Random):
    col = _Collector("shrink", handle)
    w = shrink_witness(handle)
    if handle.second_op is None:
        raise CapabilityError(f"{handle.name} has no second operation")
    grid = resolve_grid(handle, cfg.grid)
    bounds = tuple(x for x in handle.sample if handle.is_positive(x))[:4]
    if not bounds:
        raise CapabilityError(f"{handle.name} has no positive sample elements")
    fmt = handle.fmt
    for alpha in grid:
        viols = verify_shrink(handle, (alpha,), bounds)
        produced = () if viols else ((m, *w(alpha, m)) for m in bounds)
        col.emit(f"shrink.bound[{fmt(alpha)}]", "order.shrink", viols,
                 pass_values=tuple(f"{fmt(m)}->({fmt(b)},{fmt(g)})" for m, b, g in produced))
    return col.records


def _suite_metric(handle: StructureHandle, cfg: RunConfig, rng: random.Random):
    col = _Collector("metric", handle)
    if not handle.metrics and not handle.norms:
        raise CapabilityError(f"{handle.name} has no metric or norm registered")
    for space in handle.metrics:
        pts = tuple(space.points)
        triples = list(itertools.product(pts[:4], pts[:4], pts[:4]))
        if pts:
            triples += _metric.sample_triples(pts, 48, rng)
        col.emit(f"metric.space.{space.name}", "metric.laws",
                 _metric.verify_metric(space, triples=triples),
                 pass_values=(f"points={len(pts)}", f"triples={len(triples)}"),
                 fmt=space.codomain.fmt)
    for ng in handle.norms:
        col.emit(f"metric.norm.{ng.name}", "norm.group-laws",
                 _metric.verify_norm(ng),
                 fmt=ng.codomain.fmt)
    return col.records


def _metric_grid(handle: StructureHandle, raw: Sequence[str]):
    """(handle's first metric space, the epsilon grid of its codomain)."""
    if not handle.metrics:
        raise CapabilityError(f"{handle.name} has no metric space registered")
    space = handle.metrics[0]
    return space, resolve_grid(space.codomain, raw)


def _suite_sequence(handle: StructureHandle, cfg: RunConfig, rng: random.Random):
    col = _Collector("sequence", handle)
    space, grid = _metric_grid(handle, cfg.grid)
    h = cfg.horizon
    # constants must be points of the metric space: a structure may carry
    # extra elements (a bottom, say) its registered distance does not cover
    pool = tuple(space.points) or tuple(handle.sample)
    if not pool:
        raise CapabilityError(f"{handle.name} has no sample points registered")
    v = pool[0]
    c = constant_cert(space, v)
    mfmt = space.codomain.fmt

    col.cert("sequence.constant", "cauchy.modulus", lambda: c,
             verify_conv_cert, grid, h, mfmt)
    col.cert("sequence.to-cauchy", "cauchy.from-limit", lambda: conv_to_cauchy(c),
             verify_cauchy_cert, grid, h, mfmt)
    col.cert("sequence.add", "cauchy.sum", lambda: add_certs(c, c, handle),
             verify_conv_cert, grid, h, mfmt)

    def shift_block():
        sh = shift_cert(c, 3)
        back = unshift_cert(sh, c.seq, 3)
        return verify_conv_cert(sh, grid, h) + verify_conv_cert(back, grid, h), ()
    col.block("sequence.shift", "cauchy.shift", shift_block, mfmt)

    def uniqueness_block():
        other = next((u for u in pool if not handle.eq(u, v)), None)
        if other is None:
            raise CapabilityError(f"{handle.name} sample has no two distinct points")
        bogus = ConvCert(space, c.seq, other, lambda eps: 1)
        rec = refute_distinct_limits(c, bogus)
        viols = [] if rec.refuted else [Violation(
            "limit.uniqueness", (rec.eps, rec.index),
            "distinct limits were not refuted")]
        return viols, (mfmt(rec.eps), mfmt(rec.beta), mfmt(rec.gamma), str(rec.index))
    col.block("sequence.uniqueness", "limit.uniqueness", uniqueness_block, mfmt)

    def product():
        if not handle.pnorms:
            raise CapabilityError(f"{handle.name} has no pseudonorm registered")
        return prod_certs(c, c, handle.pnorms[0])
    col.cert("sequence.product", "cauchy.product", product,
             verify_conv_cert, grid, h, mfmt)

    def apart_block():
        if not handle.norms:
            raise CapabilityError(f"{handle.name} has no norm registered")
        ng = handle.norms[0]
        w0 = next((u for u in pool if not handle.eq(u, handle.identity)), None)
        if w0 is None:
            raise CapabilityError("apartness needs a nonzero sample point")
        cc = conv_to_cauchy(constant_cert(space, w0, name="const-apart"))
        witness = ApartFromZeroWitness(eps=ng.norm(w0), selector=lambda n: n)
        gamma, n0 = apart_tail(cc, witness, ng)
        return [], (ng.codomain.fmt(gamma), str(n0))
    col.block("sequence.apart", "norm.apart-tail", apart_block, mfmt)

    return col.records


_SERIES_BASES = (Fraction(1, 2), Fraction(2, 3), Fraction(1, 3))


def _stock_ratio(handle: StructureHandle, space, grid):
    """The first stock ratio 0 < r < 1 whose terms' sizes vanish at every
    grid scale and whose (1 - r)^-1 exists.

    Rational bases q come first; structures whose order ranks every
    rational above some grid bound (an infinitesimal scale) fall through to
    inverses of their published symbols.  The terms are the powers r^n
    (power_seq).  Returns (r, terms, inverse, symbolic):
    symbolic terms double in representation size under index doubling,
    which callers use to keep windows small.
    """
    cands: list[tuple[str, object]] = []
    if handle.from_rational is not None:
        cands.extend(("rational", q) for q in _SERIES_BASES)
    if (handle.second_op is not None and handle.invert is not None
            and handle.one is not None and handle.negate is not None):
        cands.extend(("symbol", name) for name in sorted(handle.symbols))
    m = space.codomain
    for kind, payload in cands:
        try:
            if kind == "rational":
                label, r = str(payload), handle.from_rational(payload)
            else:
                r = handle.invert(handle.symbols[payload])
                label = handle.fmt(r)
            if not (handle.lt(handle.identity, r) and handle.lt(r, handle.one)):
                continue
            terms = power_seq(handle, r, f"geo-terms({label})")
            sizes = tuple(space.distance(terms(k), handle.identity) for k in range(1, 33))
            if not all(any(m.lt(d, eps) for d in sizes) for eps in grid):
                continue
            inv = geometric_limit(handle, r)
        except (ValueError, TypeError):
            continue
        return r, terms, inv, kind == "symbol"
    raise CapabilityError(
        f"{handle.name} hosts no stock ratio whose powers vanish at every grid scale"
    )


def _alternating(handle: StructureHandle, space, terms: Seq, h: int):
    """The alternating test's Cauchy certificate for terms, whose strict
    decrease is checked up to index 32 and whose zero limit is certified by
    zero_limit_cert."""
    handle.require("ring", "total_order")
    mono = check_monotone(handle, terms, MonotoneKind.STRICTLY_DECREASING_POSITIVE, 32)
    return alternating_cauchy(handle, space, mono, zero_limit_cert(handle, space, terms, h))


def _condensation(handle: StructureHandle, space, terms: Seq, h: int):
    """(forward, backward) condensation certificates for terms, whose
    decrease is checked up to index 32 and whose partial sums' Cauchy
    certificate has the scanned window starts (sums_cauchy_cert)."""
    handle.require("ring", "total_order")
    mono = check_monotone(handle, terms, MonotoneKind.DECREASING_POSITIVE, 32)
    partials = Series(handle, terms).partials
    base = sums_cauchy_cert(space, partials, terms, min(h, 16))
    fwd = condense(handle, space, terms, mono, base, "forward")
    return fwd, condense(handle, space, terms, mono, fwd, "backward")


def _suite_series(handle: StructureHandle, cfg: RunConfig, rng: random.Random):
    col = _Collector("series", handle)
    space, grid = _metric_grid(handle, cfg.grid)
    h = cfg.horizon
    r, terms, inv, _ = _stock_ratio(handle, space, grid)
    partials = Series(handle, terms).partials
    c = sums_conv_cert(space, partials, terms, handle.mul(r, inv), h)
    mfmt = space.codomain.fmt

    col.cert("series.partials-converge", "series.partial-sums", lambda: c,
             verify_conv_cert, grid, h, mfmt)
    col.cert("series.terms-vanish", "series.terms-vanish",
             lambda: terms_vanish(c, handle, terms), verify_conv_cert, grid, h, mfmt)

    def tail_block():
        cc = conv_to_cauchy(c)
        eps = grid[0]
        n0 = cc.modulus(eps)
        chk = tail_bound(cc, eps, n0, n0 + 5)
        viols = [] if chk.ok else [Violation(
            "series.tail", (eps, chk.m, chk.n, chk.tail_norm))]
        return viols, (mfmt(chk.tail_norm), f"N({mfmt(eps)})={n0}")
    col.block("series.tail-bound", "series.tail", tail_block, mfmt)

    col.cert("series.alternating", "series.alternating",
             lambda: _alternating(handle, space, terms, h),
             verify_cauchy_cert, grid, h, mfmt)

    def squeeze():
        zero = constant_cert(space, handle.identity, name="zero-sums")
        cx = conv_to_cauchy(zero)
        cz = conv_to_cauchy(c)
        return squeeze_cauchy(handle, space, cx, cz, 1, terms)
    col.cert("series.squeeze", "series.squeeze", squeeze, verify_cauchy_cert, grid, h, mfmt)

    return col.records


def _suite_condensation(handle: StructureHandle, cfg: RunConfig, rng: random.Random):
    col = _Collector("condensation", handle)
    # before the grid is read: without the ring the suite is unverifiable
    # whatever grid is given
    handle.require("ring", "total_order")
    space, grid = _metric_grid(handle, cfg.grid)
    _, terms, _, symbolic = _stock_ratio(handle, space, grid)
    fwd, back = _condensation(handle, space, terms, cfg.horizon)
    mfmt = space.codomain.fmt
    # condensed partial sums reach index 2^n; symbolic terms grow linearly in
    # representation with the index, so their windows stay narrow
    fwd_h = min(cfg.horizon, 3 if symbolic else 8)
    col.cert("condensation.forward", "series.condensation", lambda: fwd,
             verify_cauchy_cert, grid, fwd_h, mfmt)
    col.cert("condensation.backward", "series.condensation", lambda: back,
             verify_cauchy_cert, grid, cfg.horizon, mfmt)

    col.block("condensation.blocks", "series.condensation-blocks",
              lambda: (condensation_inequalities(
                  handle, terms, ns=range(1, 7),
                  kls=[(k, l) for k in range(0, 4) for l in range(k, 4)]), ()),
              handle.fmt)

    return col.records


def _suite_geometric(handle: StructureHandle, cfg: RunConfig, rng: random.Random):
    col = _Collector("geometric", handle)
    handle.require("ring", "total_order")
    if handle.from_rational is None or handle.invert is None:
        raise CapabilityError(f"{handle.name} cannot host the stock ratios")
    space, grid = _metric_grid(handle, cfg.grid)
    h = cfg.horizon
    mfmt = space.codomain.fmt
    r, terms, inv, _ = _stock_ratio(handle, space, grid)
    c0 = zero_limit_cert(handle, space, terms, h)

    col.cert("geometric.certificate", "series.geometric",
             lambda: geometric_cert(handle, space, r, c0, inv),
             verify_conv_cert, grid, h, mfmt, lead=(handle.fmt(inv),))
    col.block("geometric.power-limit", "series.power-limit",
              lambda: (power_limit_is_zero(handle, c0, r), ()), mfmt)
    # the modulus trusts the Archimedean witness, so the witness is checked too
    col.cert("geometric.power-modulus", "series.archimedean-power",
             lambda: archimedean_power_modulus(handle, space, r),
             lambda c, grid, h: verify_archimedean(handle) + verify_conv_cert(c, grid, h),
             grid, h, mfmt)

    return col.records


def _suite_bernoulli(handle: StructureHandle, cfg: RunConfig, rng: random.Random):
    col = _Collector("bernoulli", handle)
    handle.require("hemiring", "total_order")
    if handle.one is None:
        raise CapabilityError(f"{handle.name} has no multiplicative identity")
    grid = resolve_grid(handle, cfg.grid)

    def fmt_xs(xs):
        return tuple(handle.fmt(x) for x in xs)

    def semiring_block():
        pool = tuple(grid) + (handle.identity, handle.one)
        xs = [nat_mul(handle, rng.randint(0, 2), rng.choice(pool))
              if rng.random() < 0.8 else handle.identity
              for _ in range(4)]
        return bernoulli_check(handle, xs, "semiring"), fmt_xs(xs)
    col.block("bernoulli.semiring", "inequality.product-sum", semiring_block, handle.fmt)

    def ring_block():
        handle.require("ring")
        small = [u for u in grid if handle.le(u, handle.one)]
        pool = [handle.negate(u) for u in small] + [handle.identity]
        xs = [rng.choice(pool) for _ in range(4)]
        return bernoulli_check(handle, xs, "ring"), fmt_xs(xs)
    col.block("bernoulli.ring", "inequality.product-sum", ring_block, handle.fmt)

    def power_block():
        handle.require("ring")
        u = rng.choice(tuple(grid) + (handle.one,))
        n = rng.randint(2, 5)
        return bernoulli_check(handle, [u] * n, "power"), fmt_xs([u] * n) + (str(n),)
    col.block("bernoulli.power", "inequality.power", power_block, handle.fmt)

    return col.records


def _albert_record(alg, rng: random.Random, count: int) -> CheckRecord:
    """The scaled coefficient pseudonorm of alg, checked on count random
    coefficient vectors."""
    field = alg.field
    pn = _algebra.albert_pseudonorm(alg)
    pairs = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(alg.n))
             for _ in range(count)]
    bound = _algebra.structure_bound(alg)
    col = _Collector("albert", field)
    col.emit(f"albert.{alg.name}", "algebra.pseudonorm",
             _algebra.verify_pseudonorm(pn, pairs),
             pass_values=(f"bound={field.fmt(bound)}",
                          f"scale={field.fmt(nat_mul(field, alg.n, bound))}"))
    return col.records[0]


def _suite_albert(handle: StructureHandle, cfg: RunConfig, rng: random.Random):
    if handle.name != "Q":
        raise CapabilityError(
            "structure-constant tables are registered over Q only"
        )
    algs = _algebra.shipped_algebras()
    return [_albert_record(algs[name], rng, 24) for name in sorted(algs)]


def run_algebra(path: str, seed: int) -> list[CheckRecord]:
    """The `albert` record of the structure-constant table in the file at
    path, checked on 32 coefficient vectors drawn from seed."""
    alg = _algebra.load_algebra_table(path)
    return [_albert_record(alg, random.Random(f"{seed}:albert:{alg.name}"), 32)]


# suite name -> (runner, paper anchor of its capability record), in run order
_SUITES = {
    "axioms": (_suite_axioms, "magma.laws"),
    "density": (_suite_density, "order.dense-split"),
    "shrink": (_suite_shrink, "order.shrink"),
    "metric": (_suite_metric, "metric.laws"),
    "sequence": (_suite_sequence, "cauchy.modulus"),
    "series": (_suite_series, "series.partial-sums"),
    "condensation": (_suite_condensation, "series.condensation"),
    "geometric": (_suite_geometric, "series.geometric"),
    "bernoulli": (_suite_bernoulli, "inequality.product-sum"),
    "albert": (_suite_albert, "algebra.pseudonorm"),
}

SUITE_NAMES = tuple(_SUITES)
SERIES_TESTS = ("zero-limit", "condensation", "alternating", "geometric")


def run_suite(cfg: RunConfig) -> list[CheckRecord]:
    """Run the configured suite(s); records come back sorted by check id."""
    if not cfg.structure:
        raise ValueError("a structure key is required")
    handle = lookup(cfg.structure)
    names = SUITE_NAMES if cfg.suite == "all" else (cfg.suite,)
    records: list[CheckRecord] = []
    for name in names:
        run, anchor = _SUITES[name]
        rng = random.Random(f"{cfg.seed}:{name}:{handle.name}")
        try:
            records.extend(run(handle, cfg, rng))
        except CapabilityError:
            col = _Collector(name, handle)
            col.unverifiable(f"{name}.capability", anchor)
            records.extend(col.records)
    return sorted(records, key=lambda r: r.check_id)


def run_series(structure: str, expr: str, test: str, grid: Sequence[str],
               horizon: int) -> list[CheckRecord]:
    """One certificate test on the term expression expr over a structure
    (`ordalab series`); records come back sorted by check id."""
    _check_horizon(horizon)
    handle = lookup(structure)
    seq = seq_from_expr(expr, handle)
    space, grid = _metric_grid(handle, grid)
    mfmt = space.codomain.fmt
    col = _Collector("series", handle)

    if test == "zero-limit":
        c = zero_limit_cert(handle, space, seq, horizon)
        col.cert("series.zero-limit", "limit.zero", lambda: c,
                 verify_conv_cert, grid, horizon, mfmt)

    elif test == "condensation":
        fwd, back = _condensation(handle, space, seq, horizon)
        col.cert("series.condensation.forward", "series.condensation", lambda: fwd,
                 verify_cauchy_cert, grid, min(8, horizon), mfmt)
        col.cert("series.condensation.backward", "series.condensation", lambda: back,
                 verify_cauchy_cert, grid, horizon, mfmt)

    elif test == "alternating":
        c = _alternating(handle, space, seq, horizon)
        col.cert("series.alternating", "series.alternating", lambda: c,
                 verify_cauchy_cert, grid, horizon, mfmt)

    elif test == "geometric":
        handle.require("ring", "total_order")
        if handle.invert is None:
            raise CapabilityError(f"{handle.name} has no multiplicative inverses")
        r = seq(1)
        # an early departure from the powers of r is named before 1 - r is
        # inverted; geometric_cert checks every index up to 33
        for k in range(2, 7):
            if not handle.eq(seq(k), handle.mul(r, seq(k - 1))):
                raise ValueError(
                    f"{seq.name} is not the power sequence of {handle.fmt(r)} (index {k})"
                )
        inv = geometric_limit(handle, r)
        c = geometric_cert(handle, space, r, zero_limit_cert(handle, space, seq, horizon), inv)
        col.cert("series.geometric", "series.geometric", lambda: c,
                 verify_conv_cert, grid, horizon, mfmt)

    else:
        raise ValueError(f"unknown series test {test!r}")
    return sorted(col.records, key=lambda rec: rec.check_id)
