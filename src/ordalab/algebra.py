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
    """Exact check of definiteness, subadditivity, and (sub)multiplicativity."""
    r, m = p.ring, p.codomain
    sample = tuple(sample if sample is not None else r.sample)
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

    @cached_property
    def _integer_terms(self) -> tuple | None:
        """(d, terms) with _terms' constants as integers over their common
        denominator d, or None when products must go through the handle.

        The integer path needs a field that compares with total_compare,
        whose elements are numbers under Python's own + and * (as in every
        such handle the registry holds), and constants and a zero that are
        Fractions, so that its results are the Fractions the handle's
        arithmetic would give.
        """
        f = self.field
        consts = [g for plane in self.gamma for row in plane for g in row]
        if not (f._direct and type(f.identity) is Fraction
                and all(type(g) is Fraction for g in consts)):
            return None
        d = math.lcm(*(g.denominator for g in consts))
        return d, tuple(
            tuple(tuple((k, g.numerator * (d // g.denominator)) for k, g in row)
                  for row in plane)
            for plane in self._terms
        )

    def multiply(self, a, b):
        table = self._integer_terms
        if (table is not None and all(type(c) is Fraction for c in a)
                and all(type(c) is Fraction for c in b)):
            return self._multiply_integers(table, a, b)
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

    def _multiply_integers(self, table, a, b) -> tuple:
        # a_i = x/da, b_j = ys[j]/db and gamma[i][j][k] = g/d, so every
        # coefficient of the product is an integer over d*da*db
        d, terms = table
        da = math.lcm(*(c.denominator for c in a))
        db = math.lcm(*(c.denominator for c in b))
        ys = [c.numerator * (db // c.denominator) for c in b]
        acc = [0] * self.n
        for i, ai in enumerate(a):
            x = ai.numerator * (da // ai.denominator)
            if not x:
                continue
            row = terms[i]
            for j, y in enumerate(ys):
                if not y:
                    continue
                scale = x * y
                for k, g in row[j]:
                    acc[k] += scale * g
        den = d * da * db
        return tuple(Fraction(v, den) for v in acc)

    def fmt(self, a) -> str:
        names = self.basis if self.basis else tuple(f"e{i+1}" for i in range(self.n))
        return "(" + ", ".join(f"{self.field.fmt(c)}{n}" for c, n in zip(a, names)) + ")"


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
    scale = nat_mul(m, alg.n, big_m)
    base = coefficient_pseudonorm(alg)
    return replace(base, name=f"{alg.name}.scaled-coefficient",
                   norm=lambda a: m.mul(scale, base.norm(a)))


def coefficient_pseudonorm(alg: FinDimAlgebra) -> PseudonormedRing:
    """The unscaled coefficient sum  a -> sum_i |a_i|  (not submultiplicative
    in general; kept as the designed counterexample to the scaling)."""
    m = alg.codomain

    def norm(a):
        acc = m.identity
        for c in a:
            acc = m.op(acc, alg.base_norm(c))
        return acc

    return PseudonormedRing(
        name=f"{alg.name}.coefficient",
        ring=element_handle(alg),
        codomain=m,
        norm=norm,
        strict=False,
    )


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
        if isinstance(v, bool) or isinstance(v, float):
            raise ValueError("gamma entries must be exact (integer or rational string)")
        if isinstance(v, (int, str)):
            return field.from_rational(Fraction(v))
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
    from .metric import absolute_value

    return FinDimAlgebra(
        name=str(name),
        field=field,
        codomain=field,
        base_norm=lambda c: absolute_value(field, c),
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
