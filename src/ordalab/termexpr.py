"""Tiny expression language for sequence terms.

One fixed grammar serves every registered structure: rational arithmetic
plus the index variable `n`, natural-number exponents, `pow(expr, n)` for
index-dependent powers, and named constants a structure registers (for
example `X` in the rational-function field).  Evaluation is exact and goes
through the structure handle, so the same source text denotes a sequence
in any carrier that can interpret it.

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' (natural | 'n'))?
    atom   := integer | 'n' | 'pow' '(' expr ',' 'n' ')' | '(' expr ')' | symbol

'+'/'-' and '*'/'/' associate left; '^' binds tightest and does not chain.
Parentheses nest at most 100 deep, and a tree is at most 100 levels high.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Union

from .order import StructureHandle, nat_pow
from .poly import poly, poly_add, poly_eval, poly_mul, poly_pow, poly_sub, real_root_floors
from .sequences import PowerTerm, RationalTerm, Seq, power_term

Element = Any


class TermError(ValueError):
    """Syntax error with a 1-based source column."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


class EvalError(ValueError):
    """Runtime evaluation failure (bad symbol, division by zero, ...).

    The message names the index n the failure happened at, when given;
    reason is the message without it.
    """

    def __init__(self, reason: str, index: int | None = None):
        super().__init__(reason if index is None else f"{reason} at n={index}")
        self.reason = reason


# ---------------------------------------------------------------------------
# abstract syntax


@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class Index:
    pass


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Bin:
    op: str  # "+", "-", "*" or "/"
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int | None  # None: the index n


Node = Union[Lit, Index, Sym, Bin, Pow]


# ---------------------------------------------------------------------------
# lexer


@dataclass(frozen=True)
class _Token:
    kind: str  # "int" | "name" | one of "+-*/^(),", or "end"
    text: str
    column: int


# digits and names are ASCII only: str.isdigit would also read '¹' or '٣'
_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^(),])|\s+")

# The deepest parentheses and the highest tree (a leaf is 1, an operator or
# power adds 1) of a term: the parser, printer and compiler recurse on them.
_MAX_DEPTH = 100


def _lex(src: str) -> list[_Token]:
    out: list[_Token] = []
    i = depth = 0
    while i < len(src):
        m = _TOKEN.match(src, i)
        if m is None:
            raise TermError(f"unexpected character {src[i]!r}", i + 1)
        if m.lastgroup is not None:  # not whitespace
            kind = m.group() if m.lastgroup == "op" else m.lastgroup
            depth += (kind == "(") - (kind == ")")
            if depth > _MAX_DEPTH:
                raise TermError(f"parentheses nest more than {_MAX_DEPTH} deep", i + 1)
            out.append(_Token(kind, m.group(), i + 1))
        i = m.end()
    out.append(_Token("end", "", len(src) + 1))
    return out


# ---------------------------------------------------------------------------
# parser


class _Parser:  # each production returns its node and its height
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, what: str) -> _Token:
        t = self.peek()
        if t.kind != kind:
            got = repr(t.text) if t.kind != "end" else "end of input"
            raise TermError(f"expected {what}, got {got}", t.column)
        return self.take()

    def integer(self) -> int:
        t = self.take()
        # int() refuses longer digit strings (sys.get_int_max_str_digits)
        if len(t.text) > 4300:
            raise TermError("integer literal has more than 4300 digits", t.column)
        return int(t.text)

    def above(self, at: _Token, height: int) -> int:
        """The height of the node token at builds over a child this high."""
        if height >= _MAX_DEPTH:
            raise TermError(f"term is more than {_MAX_DEPTH} levels high", at.column)
        return height + 1

    def expr(self) -> tuple[Node, int]:
        node, h = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take()
            right, hr = self.term()
            node, h = Bin(op.kind, node, right), self.above(op, max(h, hr))
        return node, h

    def term(self) -> tuple[Node, int]:
        node, h = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.take()
            right, hr = self.factor()
            node, h = Bin(op.kind, node, right), self.above(op, max(h, hr))
        return node, h

    def factor(self) -> tuple[Node, int]:
        node, h = self.atom()
        if self.peek().kind == "^":
            op = self.take()
            t = self.peek()
            if t.kind == "int":
                return Pow(node, self.integer()), self.above(op, h)
            if t.kind == "name" and t.text == "n":
                self.take()
                return Pow(node, None), self.above(op, h)
            got = repr(t.text) if t.kind != "end" else "end of input"
            raise TermError(f"exponent must be a natural number or n, got {got}", t.column)
        return node, h

    def atom(self) -> tuple[Node, int]:
        t = self.peek()
        if t.kind == "int":
            return Lit(self.integer()), 1
        if t.kind == "name":
            self.take()
            if t.text == "n":
                return Index(), 1
            if t.text == "pow":
                self.expect("(", "'(' after pow")
                base, h = self.expr()
                self.expect(",", "',' in pow(base, n)")
                idx = self.expect("name", "the index variable n")
                if idx.text != "n":
                    raise TermError("pow's second argument must be n", idx.column)
                self.expect(")", "')'")
                return Pow(base, None), self.above(t, h)
            return Sym(t.text), 1
        if t.kind == "(":
            self.take()
            out = self.expr()
            self.expect(")", "')'")
            return out
        got = repr(t.text) if t.kind != "end" else "end of input"
        raise TermError(f"expected a value, got {got}", t.column)


def parse_term_expr(src: str) -> Node:
    """Parse source text into an AST; TermError carries the failing column."""
    p = _Parser(_lex(src))
    node, _ = p.expr()
    tail = p.peek()
    if tail.kind != "end":
        raise TermError(f"unexpected trailing input {tail.text!r}", tail.column)
    return node


# ---------------------------------------------------------------------------
# pretty printer (parse . pretty == identity on ASTs)

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4
_BIN_LEVEL = {"+": _LEVEL_ADD, "-": _LEVEL_ADD, "*": _LEVEL_MUL, "/": _LEVEL_MUL}


def _render(node: Node, level: int) -> str:
    if isinstance(node, Lit):
        return str(node.value)
    if isinstance(node, Index):
        return "n"
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, Bin):
        own = _BIN_LEVEL[node.op]
        text = f"{_render(node.left, own)}{node.op}{_render(node.right, own + 1)}"
    elif isinstance(node, Pow):
        exponent = "n" if node.exponent is None else node.exponent
        text = f"{_render(node.base, _LEVEL_ATOM)}^{exponent}"
        own = _LEVEL_POW
    else:
        raise TypeError(f"not a term node: {node!r}")
    return f"({text})" if own < level else text


def pretty(node: Node) -> str:
    return _render(node, _LEVEL_ADD)


# ---------------------------------------------------------------------------
# evaluation


def _raiser(reason: str) -> Callable[[int], Element]:
    def term(n: int) -> Element:
        raise EvalError(reason)
    return term


# The highest degree bound a node may have and still have a form
# (_Facts.form); a node past it has none, nor has any node above it.
_MAX_DEGREE = 32


class _Facts:
    """The facts of one term's nodes, by id, for one compile.

    One walk from the leaves up records in mentions whether each node
    mentions n.  A node's form (d, P, Q) is built by form only when asked
    for, and kept: its unreduced integer polynomials P and Q in n, P/Q its
    value at every n >= 1, and a bound d on both their degrees."""

    def __init__(self, root: Node):
        self.mentions: dict = {}
        self._forms: dict = {}
        self._walk(root)

    def _walk(self, node: Node) -> bool:
        if isinstance(node, Bin):
            mentions = self._walk(node.left) | self._walk(node.right)  # walks both, as or would not
        elif isinstance(node, Pow):
            mentions = self._walk(node.base) or node.exponent is None
        elif isinstance(node, (Lit, Index, Sym)):
            mentions = type(node) is Index
        else:
            raise TypeError(f"not a term node: {node!r}")
        self.mentions[id(node)] = mentions
        return mentions

    def form(self, node: Node) -> tuple | None:
        """node's form, or None.  A node has one when it is built from
        integer literals and n by + - * / and fixed natural exponents, no
        node in it has a bound past _MAX_DEGREE, and no divisor in it
        vanishes at a positive integer, where the general closures raise
        and name the index.  A Bin whose left side has no form does not
        build its right side's, and pow(b, n) does not build b's."""
        forms = self._forms
        if id(node) in forms:
            return forms[id(node)]
        form = None
        if isinstance(node, Lit):
            form = 0, poly((node.value,)), (1,)
        elif isinstance(node, Index):
            form = 1, (0, 1), (1,)
        elif isinstance(node, Pow) and node.exponent is not None:
            e, base = node.exponent, self.form(node.base)
            if base is not None and base[0] * e <= _MAX_DEGREE:
                form = base[0] * e, poly_pow(base[1], e), poly_pow(base[2], e)
        elif isinstance(node, Bin):
            left = self.form(node.left)
            right = None if left is None else self.form(node.right)
            if right is not None:
                form = _combine(node.op, left, right)
        forms[id(node)] = form
        return form


def _combine(op: str, left: tuple, right: tuple) -> tuple | None:
    """The form of left op right from the forms (d, P, Q) of its sides, or
    None when its bound passes _MAX_DEGREE or it divides by a P that is 0
    or vanishes at a positive integer."""
    (d1, a, b), (d2, c, d) = left, right
    if d1 + d2 > _MAX_DEGREE:
        return None
    if op == "*":
        return d1 + d2, poly_mul(a, c), poly_mul(b, d)
    if op == "/":
        if not c or any(poly_eval(c, k + 1) == 0 for k in real_root_floors(c)):
            return None
        return d1 + d2, poly_mul(a, d), poly_mul(b, c)
    cross = poly_add if op == "+" else poly_sub
    return d1 + d2, cross(poly_mul(a, d), poly_mul(c, b)), poly_mul(b, d)


def _power_term(node: Node, handle: StructureHandle, facts: _Facts) -> PowerTerm | None:
    """The term as a PowerTerm c*r^n, when its syntax is pow(b, n) or b^n,
    c*pow(b, n) or c/b^n, with c and b free of n and r = b, or r = 1/b
    after '/', that power_term builds for handle with c and r evaluated
    now.  Else None, and the term keeps the general closures and errors."""
    c, power, mentions = None, node, facts.mentions
    if isinstance(node, Bin) and node.op in ("*", "/") and not mentions[id(node.left)]:
        c, power = node.left, node.right
    if not isinstance(power, Pow) or power.exponent is not None or mentions[id(power.base)]:
        return None

    def parts() -> tuple[Element, Element]:
        r = _compile(power.base, handle, facts)(1)
        if c is not None and node.op == "/":
            r = handle.invert(r)
        return (handle.one if c is None else _compile(c, handle, facts)(1)), r

    try:
        return power_term(handle, parts)
    except Exception:  # whatever the closures raise, they raise again per index
        return None


def _compile(node: Node, handle: StructureHandle, facts: _Facts) -> Callable[[int], Element]:
    """The term as a function of the index n >= 1, built once from the root
    down, given the facts of its nodes (_Facts).

    The build stops at the highest node that mentions n and, over a handle
    with Q's own operations, has a form: a RationalTerm, which evaluates P
    and Q over ints into one Fraction; or at one whose syntax is c*r^n and
    whose c and r evaluate: a PowerTerm (_power_term).  Only such a node
    asks for its form, so an index-free subterm has none built unless a
    node above it needs it.  Below, literals are converted and symbols
    looked up here, and each operator is bound to its node; pow(b, n) takes
    b^n by square-and-multiply at each index.  A missing capability or
    symbol still raises EvalError only when the node is evaluated, so
    errors come at the same time, with the same message and in the same
    order as a walk of the tree at each index would give."""
    form = facts.form(node) if facts.mentions[id(node)] and handle._int_terms else None
    if form is not None:
        return RationalTerm(form[1], form[2])
    power = _power_term(node, handle, facts)
    if power is not None:
        return power
    name = handle.name
    if isinstance(node, (Lit, Index)):
        as_element = handle.from_rational
        if as_element is None:
            return _raiser(f"{name} cannot interpret rational literals")
        if isinstance(node, Index):
            return lambda n: as_element(Fraction(n))
        q = Fraction(node.value)
        try:
            value = as_element(q)
        except Exception:
            # a literal this carrier refuses fails when it is evaluated
            return lambda n: as_element(q)
        return lambda n: value
    if isinstance(node, Sym):
        if node.name not in handle.symbols:
            return _raiser(f"{name} does not define the symbol {node.name!r}")
        value = handle.symbols[node.name]
        return lambda n: value
    if isinstance(node, Pow):
        base, exponent = _compile(node.base, handle, facts), node.exponent
        if exponent is None:
            return lambda n: nat_pow(handle, base(n), n)
        return lambda n: nat_pow(handle, base(n), exponent)
    left, right = _compile(node.left, handle, facts), _compile(node.right, handle, facts)
    if node.op == "+":
        op = handle.op
        return lambda n: op(left(n), right(n))
    if node.op == "-":
        if handle.negate is None:
            return _raiser(f"{name} has no subtraction")
        op, neg = handle.op, handle.negate
        return lambda n: op(left(n), neg(right(n)))
    mul = handle.second_op
    if node.op == "*":
        if mul is None:
            return _raiser(f"{name} has no multiplication")
        return lambda n: mul(left(n), right(n))
    if mul is None or handle.invert is None:
        return _raiser(f"{name} has no division")
    eq, zero, invert = handle.eq, handle.identity, handle.invert

    def divide(n: int) -> Element:
        # the denominator first: a zero one is reported before the
        # numerator is evaluated
        den = right(n)
        if eq(den, zero):
            raise EvalError("division by zero", n)
        num = left(n)
        try:
            inverse = invert(den)
        except ValueError as exc:
            # a nonzero element without an inverse in this carrier
            raise EvalError(str(exc)) from exc
        return mul(num, inverse)

    return divide


def eval_term(node: Node, handle: StructureHandle, n: int) -> Element:
    """Evaluate at index n >= 1, exactly, through the structure handle.

    Compiles the term for this one call; seq_from_expr compiles once per
    sequence."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"index must be a positive integer, got {n!r}")
    return _compile(node, handle, _Facts(node))(n)


def mentions_index(node: Node) -> bool:
    """Whether the term depends on the index n: true of n and of pow(_, n)
    anywhere in it, read from the compiler's facts walk (_Facts).  A grid
    entry for which it is true exits 2."""
    return _Facts(node).mentions[id(node)]


def seq_from_expr(src: str, handle: StructureHandle) -> Seq:
    """Compile source text to a 1-indexed sequence over the structure."""
    ast = parse_term_expr(src)
    return Seq(pretty(ast), _compile(ast, handle, _Facts(ast)))
