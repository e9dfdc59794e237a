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
from math import gcd, prod

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
    # a monomial c X^k factor (a constant among them) shifts and scales the
    # other; Z(X) terms are full of X^n, stored as n zeros and a 1
    if _is_monomial(q):
        return (0,) * (len(q) - 1) + poly_scale(p, q[-1])
    if _is_monomial(p):
        return (0,) * (len(p) - 1) + poly_scale(q, p[-1])
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


def poly_pow(p: Poly, k: int) -> Poly:
    """p^k for a natural k, by repeated squaring."""
    out = (1,)
    while k:
        if k & 1:
            out = poly_mul(out, p)
        k >>= 1
        if k:
            p = poly_mul(p, p)
    return out


def poly_eval(p: Poly, x: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


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
    # exponent of the lowest nonzero term of a nonzero p: the power of X
    # dividing p
    return p.index(next(filter(None, p)))


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


def _sturm_chain(p: Poly) -> list[Poly]:
    """A Sturm sequence for the squarefree part of p, of degree >= 1.

    p, p', then each remainder of the last two negated, until one divides
    the one before: that last member g is gcd(p, p') up to a factor, and
    every member is divided by it.  Members are scaled by positive factors
    only, which keeps every sign."""
    chain = [p, _derivative(p)]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        # each step of _pseudo_rem scales by lead(b); dividing by -b when
        # that lead is negative gives the same remainder times a positive factor
        r = _pseudo_rem(a, b if b[-1] > 0 else poly_neg(b))
        if not r:
            g = poly_primitive(b)
            return [poly_div_exact(q, g) for q in chain]
        chain.append(poly_neg(poly_primitive(r)))
    return chain


def _derivative(p: Poly) -> Poly:
    return tuple(i * p[i] for i in range(1, len(p)))


def _sign_changes(values: list[int]) -> int:
    # zeros skipped
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _variations(chain: list[Poly], x: int) -> int:
    return _sign_changes([poly_eval(q, x) for q in chain])


def real_root_floors(p: Poly):
    """For nonzero p, the integers k >= 0 such that p has a real root in
    (k, k+1], largest first.

    Sturm's theorem counts the distinct roots of p's squarefree part in
    (a, b] as the drop in sign changes of its chain from a to b, and the
    changes at +infinity are those of the leading coefficients.  The search
    doubles an integer bound until no root lies above it, then bisects the
    integers down to each interval: O(log r) chain evaluations a root, r
    the largest root."""
    if len(p) < 2:
        return
    chain = _sturm_chain(poly_primitive(p))
    v_inf = _sign_changes([q[-1] for q in chain])
    hi = 1
    while _variations(chain, hi) > v_inf:
        hi *= 2
    v_hi, v_zero = v_inf, _variations(chain, 0)
    while v_zero > v_hi:  # a root in (0, hi]
        lo, v_lo, top = 0, v_zero, hi
        while top - lo > 1:  # a root in (lo, top], none in (top, hi]
            mid = (lo + top) // 2
            v_mid = _variations(chain, mid)
            if v_mid > v_hi:
                lo, v_lo = mid, v_mid
            else:
                top = mid
        yield lo
        hi, v_hi = lo, v_lo


def tail_start(*factors: Poly) -> int:
    """The least N >= 1 with p(n) > 0 at every integer n >= N, for p the
    product of the factors, all nonzero, with a positive leading
    coefficient.

    The last integer m with p(m) <= 0 has p(m+1) > 0, so a real root of a
    factor lies in [m, m+1): m is k or k+1 for a root interval (k, k+1] of
    that factor.  Each factor's candidates are tested exactly, largest
    first, up to the first with p(m) <= 0."""
    def bad(m: int) -> bool:
        return m >= 1 and prod(poly_eval(f, m) for f in factors) <= 0

    last = 0
    for f in factors:
        last = max(last, next((m for k in real_root_floors(f) for m in (k + 1, k) if bad(m)), 0))
    return last + 1


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
    # Henrici's method (Knuth, TAOCP vol. 2, 4.5.1): sums, products and
    # powers of canonical pairs are put into canonical form without the
    # constructor.
    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == d:
            t, g, rest = poly_add(a, c), b, (1,)
        else:
            g = _zgcd(b, d)
            if g == (1,):
                # any factor of b d divides exactly one of b and d, and not a d + c b
                return _make(poly_add(poly_mul(a, d), poly_mul(c, b)), poly_mul(b, d))
            bg, dg = poly_div_exact(b, g), poly_div_exact(d, g)
            t, rest = poly_add(poly_mul(a, dg), poly_mul(c, bg)), poly_mul(bg, dg)
        if not t:
            return RF_ZERO
        # t / (rest g) with t coprime to b/g and to d/g: only g2 can cancel
        g2 = _zgcd(t, g)
        if g2 != (1,):
            t, g = poly_div_exact(t, g2), poly_div_exact(g, g2)
        return _make(t, poly_mul(rest, g))

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
        if not self.num or not other.num:
            return RF_ZERO
        return _product(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by the zero rational function")
        if not self.num:
            return self
        return _product(self.num, self.den, other.den, other.num)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        # powers of a coprime pair are coprime, and the denominator's lead
        # stays positive
        return _make(poly_pow(self.num, n), poly_pow(self.den, n))

    # -- order ----------------------------------------------------------
    def sign(self) -> int:
        # denominator lead is positive by canonical form
        lead = poly_lead(self.num)
        return (lead > 0) - (lead < 0)

    def _cmp_sign(self, other) -> int | None:
        # sign of self - other (None for a foreign operand), read off the
        # leading term of a.num * b.den - b.num * a.den; denominators lead positive
        other = _coerce(other)
        if other is NotImplemented:
            return None
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
        sign = self._cmp_sign(other)
        return NotImplemented if sign is None else sign < 0

    def __le__(self, other):
        sign = self._cmp_sign(other)
        return NotImplemented if sign is None else sign <= 0

    def __gt__(self, other):
        sign = self._cmp_sign(other)
        return NotImplemented if sign is None else sign > 0

    def __ge__(self, other):
        sign = self._cmp_sign(other)
        return NotImplemented if sign is None else sign >= 0

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a constant equals, and so must hash as, the Fraction it stands for
        if len(self.den) == 1 and len(self.num) <= 1:
            return hash(Fraction(self.num[0] if self.num else 0, self.den[0]))
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


def _zgcd(p: Poly, q: Poly) -> Poly:
    """gcd of nonzero p and q in Z[X]: the gcd of their contents times the
    primitive gcd; a constant side needs only the integer gcd."""
    c = gcd(poly_content(p), poly_content(q))
    if len(p) == 1 or len(q) == 1:
        return (c,)
    return poly_scale(poly_gcd(p, q), c)


def _product(a: Poly, b: Poly, c: Poly, d: Poly) -> RatFunc:
    """(a/b)(c/d) for coprime pairs a, b and c, d, all nonzero, with b's lead
    positive.  Cancelling a against d and c against b leaves a coprime pair
    (Gauss's lemma); a negative lead of d is moved to the numerator."""
    g = _zgcd(a, d)
    if g != (1,):
        a, d = poly_div_exact(a, g), poly_div_exact(d, g)
    g = _zgcd(c, b)
    if g != (1,):
        c, b = poly_div_exact(c, g), poly_div_exact(b, g)
    num, den = poly_mul(a, c), poly_mul(b, d)
    if den[-1] < 0:
        num, den = poly_neg(num), poly_neg(den)
    return _make(num, den)


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
