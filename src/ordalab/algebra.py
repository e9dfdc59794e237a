"""Ring pseudonorms, structure-constant algebras, and valuation norms.

A PseudonormedRing is a ring together with a norm into an ordered carrier
that is definite, subadditive on differences, and (sub)multiplicative; the
strict flag upgrades submultiplicativity to exact multiplicativity.

A FinDimAlgebra is given purely by structure constants gamma[i][j][k] over a
base field: the product of basis vectors e_i e_j is sum_k gamma[i][j][k] e_k.
From the largest constant M (measured by the base norm) one gets a scaled
coefficient pseudonorm  a -> n*M*sum_i |a_i|  that is always submultiplicative;
the unscaled coefficient sum is not, and `coefficient_pseudonorm` exists to
demonstrate exactly that.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from .order import (
    Element,
    OrderResult,
    StructureHandle,
    Violation,
    make_flags,
    nat_mul,
)


@dataclass(frozen=True)
class PseudonormedRing:
    name: str
    ring: StructureHandle
    codomain: StructureHandle
    norm: Callable[[Element], Element]
    strict: bool = False


def verify_pseudonorm(p: PseudonormedRing, sample: Sequence | None = None) -> list[Violation]:
    """Exact check of definiteness, subadditivity, and (sub)multiplicativity;
    a coefficient norm over Q's own kernels is checked in integers."""
    r, m = p.ring, p.codomain
    sample = tuple(sample if sample is not None else r.sample)
    found = p.norm.verify_integers(p, sample) if type(p.norm) is _CoefficientNorm else None
    if found is not None:
        return found
    out: list[Violation] = []
    normed = []
    for a in sample:
        na = p.norm(a)
        normed.append((a, na))
        if not m.le(m.identity, na):
            out.append(Violation("pseudonorm.nonneg", (a, na)))
        if r.eq(a, r.identity) != m.eq(na, m.identity):
            out.append(Violation("pseudonorm.definite", (a, na)))
    for a, na in normed:
        for b, nb in normed:
            if r.negate is not None:
                diff = p.norm(r.sub(a, b))
                if not m.le(diff, m.op(na, nb)):
                    out.append(Violation("pseudonorm.subadditive", (a, b)))
            prod = p.norm(r.mul(a, b))
            bound = m.mul(na, nb)
            ok = m.eq(prod, bound) if p.strict else m.le(prod, bound)
            if not ok:
                law = "pseudonorm.multiplicative" if p.strict else "pseudonorm.submultiplicative"
                out.append(Violation(law, (a, b, prod, bound)))
    return out


# ---------------------------------------------------------------------------
# structure-constant algebras


@dataclass(frozen=True)
class FinDimAlgebra:
    """An algebra over `field` defined by structure constants.

    gamma[i][j][k] is the e_k coefficient of e_i * e_j.  Elements are
    coefficient tuples of length n.  No associativity or unit is assumed.
    """

    name: str
    field: StructureHandle
    codomain: StructureHandle
    base_norm: Callable[[Element], Element]
    gamma: tuple
    basis: tuple = ()

    @property
    def n(self) -> int:
        return len(self.gamma)

    def zero(self) -> tuple:
        return (self.field.identity,) * self.n

    def add(self, a, b):
        return tuple(self.field.op(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.field.negate(x) for x in a)

    @cached_property
    def _terms(self) -> tuple:
        """terms[i][j]: the (k, gamma[i][j][k]) with a nonzero constant."""
        f = self.field
        return tuple(
            tuple(tuple((k, g) for k, g in enumerate(row) if not f.eq(g, f.identity))
                  for row in plane)
            for plane in self.gamma
        )

    def multiply(self, a, b):
        f = self.field
        out = [f.identity] * self.n
        for i, ai in enumerate(a):
            if f.eq(ai, f.identity):
                continue
            for j, bj in enumerate(b):
                if f.eq(bj, f.identity):
                    continue
                scale = f.mul(ai, bj)
                for k, g in self._terms[i][j]:
                    out[k] = f.op(out[k], f.mul(scale, g))
        return tuple(out)

    def fmt(self, a) -> str:
        names = self.basis if self.basis else tuple(f"e{i+1}" for i in range(self.n))
        return "(" + ", ".join(f"{self.field.fmt(c)}{n}" for c, n in zip(a, names)) + ")"


class _CoefficientNorm:
    """a -> scale * sum_i |a_i| under alg's base norm; scale None (that
    is, 1) is the plain sum."""

    def __init__(self, alg: FinDimAlgebra, scale: Element):
        self.alg, self.scale = alg, scale

    def __call__(self, a):
        m = self.alg.codomain
        acc = m.identity
        for c in a:
            acc = m.op(acc, self.alg.base_norm(c))
        return acc if self.scale is None else m.mul(self.scale, acc)

    def verify_integers(self, p: PseudonormedRing, sample: tuple) -> list[Violation] | None:
        """verify_pseudonorm(p, sample) over integers; None unless the field has
        Q's kernels and Fraction constants, the base norm is abs, p's codomain
        is the field and the sample holds n-tuples of Fractions.  With a = x/D,
        b = y/D, gamma = g/d and s = sn/sd, |a| = s*X/D for X = sum|x_i| and
        |ab| = s*P/(D^2*d) for P = sum_k |sum_ij x_i*y_j*g_ijk|; each law
        scales to integers."""
        alg = self.alg
        consts = [g for plane in alg.gamma for row in plane for g in row]
        if not (alg.field._int_terms and all(type(g) is Fraction for g in consts)
                and alg.base_norm is abs
                and p.codomain is alg.codomain is alg.field
                and all(type(v) is tuple and len(v) == alg.n for v in sample)
                and all(type(c) is Fraction for v in sample for c in v)):
            return None
        # the nonzero constants as integers g over their common denominator d
        d = math.lcm(*(g.denominator for g in consts))
        terms = tuple(
            tuple(tuple((k, g.numerator * (d // g.denominator)) for k, g in row)
                  for row in plane)
            for plane in alg._terms
        )
        sn, sd = (1, 1) if self.scale is None else (self.scale.numerator, self.scale.denominator)
        # the sample as integer vectors over one denominator D
        big_d = math.lcm(*(c.denominator for v in sample for c in v))
        xs = [[c.numerator * (big_d // c.denominator) for c in v] for v in sample]
        sums = [sum(map(abs, x)) for x in xs]
        out: list[Violation] = []
        for a, t in zip(sample, sums):
            if sn * t < 0:
                out.append(Violation("pseudonorm.nonneg", (a, Fraction(sn * t, sd * big_d))))
            if (t == 0) != (sn * t == 0):
                out.append(Violation("pseudonorm.definite", (a, Fraction(sn * t, sd * big_d))))
        law = "pseudonorm.multiplicative" if p.strict else "pseudonorm.submultiplicative"
        # |ab| and |a|*|b| as integers over one denominator
        left, right, den = sn * sd, sn * sn * d, sd * sd * big_d * big_d * d
        for a, x, tx in zip(sample, xs, sums):
            for b, y, ty in zip(sample, xs, sums):
                if sn * sum(map(abs, map(operator.sub, x, y))) > sn * (tx + ty):
                    out.append(Violation("pseudonorm.subadditive", (a, b)))
                prod = left * sum(map(abs, self._products(terms, x, y)))
                bound = right * tx * ty
                if (prod != bound) if p.strict else (prod > bound):
                    out.append(Violation(law, (a, b, Fraction(prod, den), Fraction(bound, den))))
        return out

    def _products(self, terms, xs, ys) -> list:
        """For each k, the integer sum_ij xs[i]*ys[j]*g over (k, g) in terms[i][j]."""
        acc = [0] * self.alg.n
        for i, x in enumerate(xs):
            if not x:
                continue
            row = terms[i]
            for j, y in enumerate(ys):
                if not y:
                    continue
                scale = x * y
                for k, g in row[j]:
                    acc[k] += scale * g
        return acc


def element_handle(alg: FinDimAlgebra) -> StructureHandle:
    """The algebra's elements as a structure (trivially ordered)."""

    def compare(a, b):
        return OrderResult.EQUAL if a == b else OrderResult.INCOMPARABLE

    return StructureHandle(
        name=f"{alg.name}.elements",
        flags=make_flags(group=True, commutative_add=True),
        op=alg.add,
        compare=compare,
        identity=alg.zero(),
        negate=alg.neg,
        second_op=alg.multiply,
        sample=(),
        fmt=alg.fmt,
    )


def structure_bound(alg: FinDimAlgebra) -> Element:
    """M: the largest base norm among all structure constants."""
    m = alg.codomain
    m.require("total_order")
    values = [alg.base_norm(g) for plane in alg.gamma for row in plane for g in row]
    best = values[0]
    for v in values[1:]:
        if m.lt(best, v):
            best = v
    return best


def albert_pseudonorm(alg: FinDimAlgebra) -> PseudonormedRing:
    """The scaled coefficient pseudonorm  a -> n*M*sum_i |a_i|.

    M is the structure bound; the n*M scaling is what makes the norm
    submultiplicative for every structure-constant table.
    """
    m = alg.codomain
    m.require("total_order", "hemiring")
    big_m = structure_bound(alg)
    if m.eq(big_m, m.identity):
        raise ValueError(
            f"{alg.name}: all structure constants vanish; the product is "
            "trivial and the scaled norm would not be definite"
        )
    base = coefficient_pseudonorm(alg)
    return replace(base, name=f"{alg.name}.scaled-coefficient",
                   norm=_CoefficientNorm(alg, nat_mul(m, alg.n, big_m)))


def coefficient_pseudonorm(alg: FinDimAlgebra) -> PseudonormedRing:
    """The unscaled coefficient sum  a -> sum_i |a_i|  (not submultiplicative
    in general; kept as the designed counterexample to the scaling)."""
    return PseudonormedRing(
        name=f"{alg.name}.coefficient",
        ring=element_handle(alg),
        codomain=alg.codomain,
        norm=_CoefficientNorm(alg, None),
        strict=False,
    )


# an exact integer or rational entry, as text: "3", "-1/2"
_EXACT_TEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def load_algebra_table(source: str | dict) -> FinDimAlgebra:
    """Build an algebra over Q from a JSON table {name, n, gamma, basis?}.

    gamma is a flat row-major list of n^3 scalars (index i*n*n + j*n + k).
    Entries are exact rational strings or integers.  Raises ValueError on
    any shape or parse problem.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = source
    if not isinstance(data, dict):
        raise ValueError("algebra table must be a JSON object")
    unknown = set(data) - {"name", "n", "gamma", "basis"}
    if unknown:
        raise ValueError(f"unknown table keys: {sorted(unknown)}")
    name = data.get("name", "algebra")
    n = data.get("n")
    gamma = data.get("gamma")
    # bool is an int subclass, but true is not a dimension
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError("table key 'n' must be a positive integer")
    from .instances import lookup

    field = lookup("Q")

    def cell(v):
        # Fraction would also read "0.5", "1e3" and " 1/2 " as exact values
        if (isinstance(v, bool) or isinstance(v, float)
                or isinstance(v, str) and not _EXACT_TEXT.fullmatch(v)):
            raise ValueError("gamma entries must be exact (integer or rational string)")
        if isinstance(v, (int, str)):
            try:
                return field.from_rational(Fraction(v))
            except ZeroDivisionError:
                raise ValueError(f"gamma entry {v!r} has a zero denominator") from None
        raise ValueError(f"bad gamma entry {v!r}")

    if not isinstance(gamma, list):
        raise ValueError("gamma must be a flat list of n^3 scalars")
    if len(gamma) != n ** 3 or any(isinstance(v, list) for v in gamma):
        raise ValueError(f"gamma must hold n^3 = {n ** 3} scalars")
    flat = [cell(v) for v in gamma]
    table = tuple(
        tuple(tuple(flat[i * n * n + j * n + k] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    basis = data.get("basis", [])
    # a string is iterable, but "ab" is not the two names a and b
    if not (isinstance(basis, list) and all(isinstance(b, str) for b in basis)):
        raise ValueError("basis must be a list of name strings")
    basis = tuple(basis)
    if basis and len(basis) != n:
        raise ValueError("basis names must match n")
    # abs gives |c| as absolute_value(field, c) does, Fraction for Fraction
    return FinDimAlgebra(
        name=str(name),
        field=field,
        codomain=field,
        base_norm=abs,
        gamma=table,
        basis=basis,
    )


def _table_from_products(n: int, products: dict) -> list:
    """Flat gamma from {(i, j): {k: coeff}} (missing cells are 0)."""
    g = [0] * n ** 3
    for (i, j), cells in products.items():
        for k, c in cells.items():
            g[i * n * n + j * n + k] = c
    return g


def shipped_algebras() -> dict[str, FinDimAlgebra]:
    """The four bundled structure-constant tables over the rationals."""
    # complex-style plane: basis 1, i with i*i = -1
    gaussian = {
        "name": "Q(i)",
        "n": 2,
        "basis": ["1", "i"],
        "gamma": _table_from_products(2, {
            (0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: -1},
        }),
    }
    # quadratic extension with a large constant: basis 1, s with s*s = 10
    sqrt10 = {
        "name": "Q(sqrt10)",
        "n": 2,
        "basis": ["1", "s"],
        "gamma": _table_from_products(2, {
            (0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 10},
        }),
    }
    # 2x2 matrices: basis E11, E12, E21, E22; Eab*Ecd = [b=c] Ead
    idx = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
    prods = {}
    for (a, b), i in idx.items():
        for (c, d), j in idx.items():
            if b == c:
                prods[(i, j)] = {idx[(a, d)]: 1}
    m2 = {
        "name": "M2(Q)",
        "n": 4,
        "basis": ["E11", "E12", "E21", "E22"],
        "gamma": _table_from_products(4, prods),
    }
    # quaternions: basis 1, i, j, k
    quat = {
        "name": "H(Q)",
        "n": 4,
        "basis": ["1", "i", "j", "k"],
        "gamma": _table_from_products(4, {
            (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 1},
            (1, 0): {1: 1}, (1, 1): {0: -1}, (1, 2): {3: 1}, (1, 3): {2: -1},
            (2, 0): {2: 1}, (2, 1): {3: -1}, (2, 2): {0: -1}, (2, 3): {1: 1},
            (3, 0): {3: 1}, (3, 1): {2: 1}, (3, 2): {1: -1}, (3, 3): {0: -1},
        }),
    }
    return {
        spec["name"]: load_algebra_table(spec)
        for spec in (gaussian, sqrt10, m2, quat)
    }


# ---------------------------------------------------------------------------
# p-adic valuation norm into the exponent semiring


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _as_rational(r: Fraction | int, p: int) -> Fraction:
    """r as a Fraction, once p is known to be prime."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return r if type(r) is Fraction else Fraction(r)


def _valuation(r: Fraction, p: int) -> int:
    # the exponent of the prime p in the nonzero rational r
    def v(n: int) -> int:
        count = 0
        while n % p == 0:
            n //= p
            count += 1
        return count

    return v(abs(r.numerator)) - v(r.denominator)


def padic_valuation(r: Fraction | int, p: int) -> int:
    """The exponent of p in r (r nonzero)."""
    r = _as_rational(r, p)
    if r == 0:
        raise ValueError("the zero element has no valuation")
    return _valuation(r, p)


def padic_norm(r: Fraction | int, p: int):
    """|r|_p as an element of the exponent semiring: None for 0, else the
    negated valuation (larger exponent means larger norm)."""
    r = _as_rational(r, p)
    if r == 0:
        return None
    return -_valuation(r, p)
