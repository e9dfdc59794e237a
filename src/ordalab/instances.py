"""The bundled structures: handles, witnesses, grids, and attached spaces.

Carriers, at a glance:

  Q        rationals (Fraction)
  Z        integers
  Z[1/2]   rationals with dyadic denominators (Fraction, membership-checked)
  Z[1/3]   rationals with denominators a power of three
  Z(X)     rational functions in one indeterminate, X above every rational
  trop     rationals plus a bottom element, combined by max
  lex      pairs (int, Fraction) with a doubling twist, ordered
           lexicographically; a non-abelian totally ordered group
  Q(i)     pairs of rationals with planar multiplication, ordered only along
           equal second coordinates (a partially ordered field)
  Id(Z)    nonnegative generators standing for the sets of multiples,
           combined by gcd (sum) and product, ordered by containment
  Q^2      pairs of rationals under componentwise order (an ordered module's
           additive group; dense on its positive cone by scalar slicing)
  G0       exponents with a bottom zero: addition is max, multiplication
           adds exponents (the value semiring of a valuation)
"""

from __future__ import annotations

import math
import operator
from dataclasses import replace
from functools import partial
from fractions import Fraction

from . import metric as _metric
from .order import (
    OrderResult,
    StructureHandle,
    demarr_density_witness,
    density_from_unit_interval,
    make_flags,
    total_compare,
)

F = Fraction


def _frac_floor_count(x: F, y: F) -> int:
    # least n >= 1 with n*x > y, for positive x in an archimedean carrier
    n = (y / x).__floor__() + 1
    return n if n >= 1 else 1


def _field_invert(x):
    # the inverse in Q and in Z(X), whose elements both divide the integer 1
    if x == 0:
        raise ValueError("0 has no multiplicative inverse")
    return 1 / x


def _two_fifths_shrink(zero, two_fifths):
    """Shrink witness of a totally ordered field: alpha shrinks against a
    bound to two fifths of alpha over the bound, on both sides."""

    def shrink(alpha, bound):
        if not zero < alpha:
            raise ValueError("target must be positive")
        if not zero < bound:
            raise ValueError("bound must be positive")
        part = two_fifths * alpha / bound
        return (part, part)

    return shrink


def _build_q() -> StructureHandle:
    base = StructureHandle(
        name="Q",
        flags=make_flags(field=True, total_order=True),
        op=operator.add,
        compare=total_compare,
        identity=F(0),
        negate=operator.neg,
        second_op=operator.mul,
        one=F(1),
        invert=_field_invert,
        shrink=_two_fifths_shrink(F(0), F(2, 5)),
        archimedean=_frac_floor_count,
        join=max,
        eps_grid=tuple(F(1, 2**k) for k in range(1, 13)),
        sample=(F(0), F(1), F(-1), F(1, 2), F(-3, 2), F(2), F(7, 3),
                F(-1, 7), F(5), F(-2)),
        from_rational=F,
        aliases=("rationals",),
    )
    return replace(base, density=demarr_density_witness(base))


def _build_z() -> StructureHandle:
    def invert(x):
        if x in (1, -1):
            return x
        raise ValueError(f"{x} has no inverse among the integers")

    return StructureHandle(
        name="Z",
        flags=make_flags(ring=True, semiring=True, total_order=True),
        op=operator.add,
        compare=total_compare,
        identity=0,
        negate=operator.neg,
        second_op=operator.mul,
        one=1,
        invert=invert,
        archimedean=lambda x, y: max(1, y // x + 1),
        join=max,
        eps_grid=(8, 4, 2, 1),
        sample=(0, 1, -1, 2, 3, -3, 5, -7, 12, 10),
        from_rational=_require_int,
        aliases=("integers",),
    )


def _require_int(q) -> int:
    q = F(q)
    if q.denominator != 1:
        raise ValueError(f"{q} is not an integer")
    return q.numerator


def _localized_contains(x: F, p: int) -> bool:
    den = x.denominator
    while den % p == 0:
        den //= p
    return den == 1


def _build_localized(p: int) -> StructureHandle:
    name = f"Z[1/{p}]"

    def member(q) -> F:
        q = F(q)
        if not _localized_contains(q, p):
            raise ValueError(f"{q} is not in {name}")
        return q

    def invert(x):
        if x == 0:
            raise ValueError("0 has no multiplicative inverse")
        y = 1 / x
        if not _localized_contains(y, p):
            raise ValueError(f"{x} has no inverse in {name}")
        return y

    def shrink(alpha, bound):
        if alpha <= 0:
            raise ValueError("target must be positive")
        if bound <= 0:
            raise ValueError("bound must be positive")
        k = 0
        while bound * F(1, p**k) >= alpha:
            k += 1
        part = F(1, p**k)
        return (part, part)

    base = StructureHandle(
        name=name,
        flags=make_flags(ring=True, semiring=True, total_order=True),
        op=operator.add,
        compare=total_compare,
        identity=F(0),
        negate=operator.neg,
        second_op=operator.mul,
        one=F(1),
        invert=invert,
        shrink=shrink,
        archimedean=_frac_floor_count,
        join=max,
        eps_grid=tuple(F(1, p**k) for k in range(1, 9)),
        sample=(F(0), F(1), F(-1), F(1, p), F(-1, p**2), F(p), F(3),
                F(5, p), F(-2), F(7)),
        from_rational=member,
        aliases=(f"Z1{p}", f"z[1/{p}]"),
    )
    return replace(base, density=density_from_unit_interval(base, F(1, p)))


def _build_ratfunc() -> StructureHandle:
    from .poly import RF_ONE, RF_ZERO, RatFunc, X

    two_fifths = RatFunc((2,), (5,))
    halves = tuple(RatFunc((1,), (2**k,)) for k in range(1, 7))
    inverse_powers = tuple(RF_ONE / X**k for k in range(1, 5))
    base = StructureHandle(
        name="Z(X)",
        flags=make_flags(field=True, total_order=True),
        op=operator.add,
        compare=total_compare,
        identity=RF_ZERO,
        negate=operator.neg,
        second_op=operator.mul,
        one=RF_ONE,
        invert=_field_invert,
        shrink=_two_fifths_shrink(RF_ZERO, two_fifths),
        join=max,
        eps_grid=halves + inverse_powers,
        sample=(RF_ZERO, RF_ONE, -RF_ONE, X, -X, RF_ONE / X, two_fifths,
                X + 1, (X * X - 1) / X, RatFunc((7,))),
        symbols={"X": X},
        from_rational=RatFunc.from_fraction,
        aliases=("ZX", "ratfunc"),
    )
    return replace(base, density=demarr_density_witness(base))


# trop and G0 adjoin a bottom element, None, below a totally ordered carrier;
# both add by max and split eps into eps - 1, twice.


def _bottom_max(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a if a >= b else b


def _bottom_compare(a, b):
    if a is None and b is None:
        return OrderResult.EQUAL
    if a is None:
        return OrderResult.LESS
    if b is None:
        return OrderResult.GREATER
    return total_compare(a, b)


def _drop_one(eps):
    return (eps - 1, eps - 1)


def _build_tropical() -> StructureHandle:
    return StructureHandle(
        name="trop",
        flags=make_flags(unital=True, associative=True, commutative_add=True,
                         total_order=True),
        op=_bottom_max,
        compare=_bottom_compare,
        identity=None,
        density=_drop_one,
        join=_bottom_max,
        eps_grid=(F(2), F(1), F(0), F(-1), F(-2), F(-4)),
        sample=(None, F(0), F(1), F(-1), F(1, 2), F(-7, 2), F(3)),
        fmt=lambda a: "-inf" if a is None else str(a),
        from_rational=F,
        aliases=("tropical",),
    )


def _build_lex() -> StructureHandle:
    def op(g, h):
        a, q = g
        b, r = h
        return (a + b, q * F(2) ** b + r)

    def negate(g):
        a, q = g
        return (-a, -(q * F(2) ** (-a)))

    def split(eps):
        a, q = eps
        if a > 0:
            part = (0, F(1))
        else:
            part = (0, q * F(2, 5))
        return (part, part)

    def fmt(g):
        return f"({g[0]}, {g[1]})"

    return StructureHandle(
        name="lex",
        flags=make_flags(group=True, total_order=True),
        op=op,
        compare=total_compare,
        identity=(0, F(0)),
        negate=negate,
        density=split,
        join=max,
        eps_grid=tuple((0, F(1, 2**k)) for k in range(1, 7)),
        sample=((0, F(0)), (1, F(0)), (0, F(1)), (-1, F(0)), (0, F(-1)),
                (1, F(1)), (-1, F(1, 2)), (2, F(-3)), (0, F(1, 3)), (1, F(-2))),
        fmt=fmt,
        aliases=("lexgroup",),
    )


def _build_gaussian() -> StructureHandle:
    def op(z, w):
        return (z[0] + w[0], z[1] + w[1])

    def mul(z, w):
        a, b = z
        c, d = w
        return (a * c - b * d, a * d + b * c)

    def invert(z):
        a, b = z
        n = a * a + b * b
        if n == 0:
            raise ValueError("0 has no multiplicative inverse")
        return (a / n, -b / n)

    def compare(z, w):
        if z[1] != w[1]:
            return OrderResult.INCOMPARABLE
        return total_compare(z[0], w[0])

    def fmt(z):
        a, b = z
        if b == 0:
            return str(a)
        if a == 0:
            return f"{b}i"
        return f"{a}{'+' if b > 0 else '-'}{abs(b)}i"

    base = StructureHandle(
        name="Q(i)",
        flags=make_flags(field=True),
        op=op,
        compare=compare,
        identity=(F(0), F(0)),
        negate=lambda z: (-z[0], -z[1]),
        second_op=mul,
        one=(F(1), F(0)),
        invert=invert,
        eps_grid=tuple((F(1, 2**k), F(0)) for k in range(1, 7)),
        sample=((F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(0), F(-1)),
                (F(1), F(1)), (F(3, 2), F(-1, 2)), (F(-2), F(0)),
                (F(0), F(1, 3)), (F(2), F(2)), (F(-1), F(-1))),
        fmt=fmt,
        from_rational=lambda q: (F(q), F(0)),
        aliases=("Qi", "gauss"),
    )
    return replace(base, density=demarr_density_witness(base))


def _build_ideals() -> StructureHandle:
    def compare(a, b):
        # containment of multiple-sets: aZ below bZ when b divides a
        if a == b:
            return OrderResult.EQUAL
        if b == 0:
            return OrderResult.GREATER if a != 0 else OrderResult.EQUAL
        if a == 0:
            return OrderResult.LESS
        if a % b == 0:
            return OrderResult.LESS
        if b % a == 0:
            return OrderResult.GREATER
        return OrderResult.INCOMPARABLE

    return StructureHandle(
        name="Id(Z)",
        flags=make_flags(hemiring=True, semiring=True, join_semilattice=True),
        op=math.gcd,
        compare=compare,
        identity=0,
        second_op=operator.mul,
        one=1,
        join=math.gcd,
        eps_grid=(2, 4, 8, 16),
        sample=(0, 1, 2, 3, 4, 6, 8, 12, 5, 30),
        fmt=lambda n: f"{n}Z",
        aliases=("IdZ", "ideals"),
    )


def _build_orthant(q: StructureHandle) -> StructureHandle:
    def op(x, y):
        return (x[0] + y[0], x[1] + y[1])

    def compare(x, y):
        dx, dy = y[0] - x[0], y[1] - x[1]
        if dx == 0 and dy == 0:
            return OrderResult.EQUAL
        if dx >= 0 and dy >= 0:
            return OrderResult.LESS
        if dx <= 0 and dy <= 0:
            return OrderResult.GREATER
        return OrderResult.INCOMPARABLE

    # Q's slice split at 1/2 on each coordinate: m -> (m/4, m/4)
    half = density_from_unit_interval(q, F(1, 2))

    return StructureHandle(
        name="Q^2",
        flags=make_flags(group=True, commutative_add=True, join_semilattice=True),
        op=op,
        compare=compare,
        identity=(F(0), F(0)),
        negate=lambda x: (-x[0], -x[1]),
        density=lambda m: tuple(zip(half(m[0]), half(m[1]))),
        join=lambda x, y: (max(x[0], y[0]), max(x[1], y[1])),
        eps_grid=((F(1), F(2)),) + tuple((F(1, 2**k), F(1, 2**k)) for k in range(1, 5)),
        sample=((F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1)),
                (F(-1), F(2)), (F(1, 2), F(3)), (F(-1), F(-1)),
                (F(2), F(1, 2)), (F(0), F(-2)), (F(5), F(5))),
        fmt=lambda x: f"({x[0]}, {x[1]})",
        aliases=("orthant", "Q2"),
    )


def _build_valuation() -> StructureHandle:
    def mul(a, b):
        if a is None or b is None:
            return None
        return a + b

    def invert(a):
        if a is None:
            raise ValueError("the zero element has no multiplicative inverse")
        return -a

    def shrink(alpha, bound):
        if alpha is None:
            raise ValueError("target must be positive")
        if bound is None:
            raise ValueError("bound must be positive")
        part = alpha - 1 - bound
        return (part, part)

    return StructureHandle(
        name="G0",
        flags=make_flags(semiring=True, total_order=True),
        op=_bottom_max,
        compare=_bottom_compare,
        identity=None,
        second_op=mul,
        one=0,
        invert=invert,
        density=_drop_one,
        shrink=shrink,
        join=_bottom_max,
        eps_grid=(3, 2, 1, 0, -1, -2),
        sample=(None, 0, 1, -1, 2, -3, 5),
        fmt=lambda a: "0" if a is None else f"g^{a}",
        aliases=("valuation",),
    )


def _attach_spaces(reg: dict[str, StructureHandle]) -> None:
    """Bolt metric spaces, group norms, and ring pseudonorms onto handles."""
    from .algebra import PseudonormedRing, padic_norm, padic_valuation
    from .metric import (
        MetricSpace,
        absolute_value_metric,
        absolute_value_norm,
        induced_metric,
        product_metric,
    )

    q = reg["Q"]
    g0 = reg["G0"]
    trop = reg["trop"]

    for key in ("Q", "Z", "Z[1/2]", "Z[1/3]", "Z(X)"):
        s = reg[key]
        norm = absolute_value_norm(s)
        reg[key] = replace(
            s,
            metrics=(absolute_value_metric(s),),
            norms=(norm,),
            pnorms=(PseudonormedRing(norm.name, s, s, norm.norm, strict=True),),
        )

    # p-adic pseudonorms on Q, valued in the exponent semiring
    padic_pnorms = tuple(
        PseudonormedRing(
            name=f"Q.{p}adic",
            ring=reg["Q"],
            codomain=g0,
            norm=partial(padic_norm, p=p),
            strict=True,
        )
        for p in (2, 3, 5)
    )
    reg["Q"] = replace(reg["Q"], pnorms=reg["Q"].pnorms + padic_pnorms)

    # lex: the order absolute value g v g^-1 is NOT subadditive under the
    # doubling twist (|(-1,0)| joined with |(0,-1)| falls short of |their
    # product|), so it induces no metric.  The head-magnitude norm -- tail
    # magnitude only once heads cancel -- is subadditive in every case split
    # and symmetric under inversion, so its induced distance is a metric.
    lex = reg["lex"]

    def lex_lead_norm(g):
        a, q = g
        return (abs(a), F(0)) if a else (0, abs(q))

    lex_ng = _metric.NormedGroup(
        name="lex.lead", group=lex, codomain=lex, norm=lex_lead_norm
    )
    reg["lex"] = replace(lex, metrics=(induced_metric(lex_ng),), norms=(lex_ng,))

    # Q(i): coefficient-sum norm into Q; its induced metric on the plane
    qi = reg["Q(i)"]

    def taxicab(z):
        return abs(z[0]) + abs(z[1])

    qi_norm = _metric.NormedGroup(
        name="Q(i).taxicab", group=qi, codomain=q, norm=taxicab
    )
    qi_pnorm = PseudonormedRing(
        name="Q(i).taxicab", ring=qi, codomain=q, norm=taxicab, strict=False
    )
    reg["Q(i)"] = replace(
        qi, metrics=(induced_metric(qi_norm),), norms=(qi_norm,), pnorms=(qi_pnorm,)
    )

    # ultrametrics: dyadic valuation distance on rational points
    dyadic_points = (F(0), F(1), F(2), F(8), F(1, 2), F(1, 8), F(3),
                     F(1, 3), F(-4), F(5, 16))

    def dyadic_trop(x, y):
        if x is None or y is None:
            raise ValueError("the dyadic distance covers rational points only")
        return None if x == y else F(-padic_valuation(x - y, 2))

    def dyadic_g0(x, y):
        if x is None or y is None:
            raise ValueError("the dyadic distance covers rational points only")
        return padic_norm(x - y, 2)

    reg["trop"] = replace(trop, metrics=(
        MetricSpace("trop.dyadic", trop, dyadic_trop, dyadic_points),
    ))
    reg["G0"] = replace(g0, metrics=(
        MetricSpace("G0.dyadic", g0, dyadic_g0, dyadic_points),
    ))

    # orthant: product of two copies of the rational line
    q_abs = reg["Q"].metrics[0]
    reg["Q^2"] = replace(
        reg["Q^2"], metrics=(product_metric("Q^2.product", (q_abs, q_abs)),)
    )


_REGISTRY: dict[str, StructureHandle] | None = None


def registry() -> dict[str, StructureHandle]:
    """All bundled structures, keyed by canonical name, built once."""
    global _REGISTRY
    if _REGISTRY is None:
        q = _build_q()
        reg = {
            "Q": q,
            "Z": _build_z(),
            "Z[1/2]": _build_localized(2),
            "Z[1/3]": _build_localized(3),
            "Z(X)": _build_ratfunc(),
            "trop": _build_tropical(),
            "lex": _build_lex(),
            "Q(i)": _build_gaussian(),
            "Id(Z)": _build_ideals(),
            "Q^2": _build_orthant(q),
            "G0": _build_valuation(),
        }
        _attach_spaces(reg)
        _REGISTRY = reg
    return _REGISTRY


def lookup(key: str) -> StructureHandle:
    reg = registry()
    if key in reg:
        return reg[key]
    folded = key.casefold()
    for name, handle in reg.items():
        if folded == name.casefold() or folded in (a.casefold() for a in handle.aliases):
            return handle
    raise KeyError(
        f"unknown structure {key!r}; available: {', '.join(sorted(reg))}"
    )
