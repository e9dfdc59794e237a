"""Integer polynomials and the ordered field of rational functions.

Polynomials are tuples of int coefficients, lowest degree first, with no
trailing zeros (the zero polynomial is the empty tuple).  A RatFunc is a
canonical quotient: contents reduced jointly, primitive parts coprime, and
the denominator's leading coefficient positive.  The order makes the
indeterminate larger than every rational constant: a quotient is positive
exactly when its numerator and denominator have leading coefficients of the
same sign.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Poly = tuple  # int coefficients, ascending, no trailing zeros


def _trim(cs: list) -> Poly:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly(coeffs) -> Poly:
    cs = list(coeffs)
    ints = list(map(int, cs))
    if ints != cs:
        bad = next(c for c, i in zip(cs, ints) if c != i)
        raise ValueError(f"polynomial coefficient {bad} is not an integer")
    return _trim(ints)


def poly_add(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return _trim(out)


def poly_neg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def poly_sub(p: Poly, q: Poly) -> Poly:
    return poly_add(p, poly_neg(q))


def poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    terms = [(j, b) for j, b in enumerate(q) if b]
    for i, a in enumerate(p):
        if a:
            for j, b in terms:
                out[i + j] += a * b
    return _trim(out)


def poly_scale(p: Poly, c: int) -> Poly:
    if c == 0:
        return ()
    if c == 1:
        return p
    return tuple(a * c for a in p)


def poly_lead(p: Poly) -> int:
    return p[-1] if p else 0


def poly_content(p: Poly) -> int:
    return gcd(*p)


def poly_primitive(p: Poly) -> Poly:
    c = poly_content(p)
    if c in (0, 1):
        return p
    return tuple(a // c for a in p)


def _valuation(p: Poly) -> int:
    # exponent of the lowest nonzero term: the power of X dividing p
    for i, c in enumerate(p):
        if c:
            return i
    return 0


def _is_monomial(p: Poly) -> bool:
    return p.count(0) == len(p) - 1


def _pseudo_rem(a: Poly, b: Poly) -> Poly:
    """The remainder of a by b over the rationals, times a nonzero integer.

    Each step scales a by lead(b) / g and subtracts lead(a) / g times a shift
    of b, where g = gcd(lead(a), lead(b)), so no fractions arise."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(r) > db:
        lr = r[-1]
        g = gcd(lr, lb)
        mr, mb = lb // g, lr // g
        if mr != 1:
            r = [c * mr for c in r]
        shift = len(r) - 1 - db
        for i in range(db):
            r[shift + i] -= mb * b[i]
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return tuple(r)


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Primitive gcd with positive leading coefficient.

    The common power of X is split off first; the rest is a primitive
    polynomial remainder sequence over the integers (Collins 1967, Brown 1971)
    that stops as soon as a remainder is a nonzero constant."""
    if not p or not q:
        g = poly_primitive(p or q)
    else:
        vp, vq = _valuation(p), _valuation(q)
        a, b = poly_primitive(p[vp:]), poly_primitive(q[vq:])
        if len(a) < len(b):
            a, b = b, a
        while len(b) > 1:
            a, b = b, poly_primitive(_pseudo_rem(a, b))
        g = (0,) * min(vp, vq) + (a if not b else (1,))
    return poly_neg(g) if poly_lead(g) < 0 else g


def poly_div_exact(p: Poly, q: Poly) -> Poly:
    """The integer polynomial p / q; ValueError unless q divides p in Z[X]."""
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    if not p:
        return ()
    v = _valuation(q)
    if _valuation(p) < v:
        raise ValueError("polynomial division is not exact")
    r, b = list(p[v:]), q[v:]
    db = len(b) - 1
    lb = b[-1]
    if len(r) <= db:
        raise ValueError("polynomial division is not exact")
    quo = [0] * (len(r) - db)
    for shift in range(len(quo) - 1, -1, -1):
        c, m = divmod(r[shift + db], lb)
        if m:
            exact = not _pseudo_rem(p, q)
            raise ValueError(
                "polynomial quotient is not integral" if exact
                else "polynomial division is not exact"
            )
        if c:
            quo[shift] = c
            for i in range(db):
                r[shift + i] -= c * b[i]
    if any(r[:db]):
        raise ValueError("polynomial division is not exact")
    return tuple(quo)


def poly_str(p: Poly) -> str:
    if not p:
        return "0"
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        if i == 0:
            body = str(abs(c))
        else:
            head = "" if abs(c) == 1 else f"{abs(c)}*"
            body = f"{head}X" + (f"^{i}" if i > 1 else "")
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


class RatFunc:
    """Canonical quotient of integer polynomials, totally ordered."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        if isinstance(num, RatFunc) or isinstance(den, RatFunc):
            raise TypeError("nested quotients are built with arithmetic, not the constructor")
        num = poly(num if not isinstance(num, int) else (num,))
        den = poly(den if not isinstance(den, int) else (den,))
        if not den:
            raise ZeroDivisionError("zero denominator")
        num, den = _canonical(num, den) if num else ((), (1,))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *_):
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def from_fraction(cls, q) -> "RatFunc":
        q = Fraction(q)
        return cls((q.numerator,), (q.denominator,))

    # -- arithmetic -----------------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        return RatFunc(
            poly_add(poly_mul(self.num, other.den), poly_mul(other.num, self.den)),
            poly_mul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return _make(poly_neg(self.num), self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(poly_mul(self.num, other.num), poly_mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(poly_mul(self.num, other.den), poly_mul(self.den, other.num))

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = RatFunc((1,))
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- order ----------------------------------------------------------
    def sign(self) -> int:
        # denominator lead is positive by canonical form
        lead = poly_lead(self.num)
        return (lead > 0) - (lead < 0)

    def _cmp_sign(self, other) -> int:
        # sign of self - other, read off the leading term of the cross
        # product a.num * b.den - b.num * a.den; denominators lead positive
        a, b = self.num, other.num
        size_a, size_b = len(a) + len(other.den), len(b) + len(self.den)
        if not a or not b:
            lead = a[-1] if a else -poly_lead(b)
        elif size_a != size_b:
            lead = a[-1] if size_a > size_b else -b[-1]
        else:
            lead = a[-1] * other.den[-1] - b[-1] * self.den[-1]
            if not lead and (a != b or self.den != other.den):
                lead = poly_lead(poly_sub(poly_mul(a, other.den), poly_mul(b, self.den)))
        return (lead > 0) - (lead < 0)

    def __lt__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._cmp_sign(other) < 0

    def __le__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._cmp_sign(other) <= 0

    def __gt__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._cmp_sign(other) > 0

    def __ge__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._cmp_sign(other) >= 0

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- rendering ------------------------------------------------------
    def __str__(self):
        if self.den == (1,):
            return poly_str(self.num)
        num_s = poly_str(self.num)
        den_s = poly_str(self.den)
        if _needs_parens(self.num):
            num_s = f"({num_s})"
        if _needs_parens(self.den):
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"


def _canonical(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Canonical form of num / den, both nonzero (see the module docstring)."""
    vn = _valuation(num)
    v = min(vn, _valuation(den)) if vn else 0
    if v:
        num, den = num[v:], den[v:]
    cn, cd = poly_content(num), poly_content(den)
    pn, pd = poly_primitive(num), poly_primitive(den)
    # with the common power of X gone, a monomial is coprime to the other side
    if not (_is_monomial(pn) or _is_monomial(pd)):
        g = poly_gcd(pn, pd)
        if g != (1,):
            pn = poly_div_exact(pn, g)
            pd = poly_div_exact(pd, g)
    c = gcd(cn, cd)
    num = poly_scale(pn, cn // c)
    den = poly_scale(pd, cd // c)
    if den[-1] < 0:
        num, den = poly_neg(num), poly_neg(den)
    return num, den


def _make(num: Poly, den: Poly) -> RatFunc:
    # wrap a pair that is already in canonical form
    out = object.__new__(RatFunc)
    object.__setattr__(out, "num", num)
    object.__setattr__(out, "den", den)
    return out


def _needs_parens(p: Poly) -> bool:
    terms = sum(1 for c in p if c != 0)
    return terms > 1 or poly_lead(p) < 0


def _coerce(value):
    if isinstance(value, RatFunc):
        return value
    if isinstance(value, int):
        # an integer over 1 is already canonical
        return _make((int(value),) if value else (), (1,))
    if isinstance(value, Fraction):
        return RatFunc.from_fraction(value)
    return NotImplemented


RF_ZERO = RatFunc(())
RF_ONE = RatFunc((1,))
X = RatFunc((0, 1))
