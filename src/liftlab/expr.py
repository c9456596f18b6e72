"""Scalar expression trees over chart coordinates x1..xn.

Grammar: decimal literals, variables x1..xn, binary + - * /, unary -,
integer powers via ^, the functions sin, cos, exp, and parentheses.
Subtraction is lowered to addition of a negation at parse time.

Construction goes through smart constructors that fold constants and
drop additive zeros / multiplicative ones.  Folding is best effort and
never load-bearing: expression equality is always decided by sampled
evaluation, not by tree shape.
"""

from __future__ import annotations

import math

import numpy as np


class ParseError(ValueError):
    """Raised on malformed input; carries the 0-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SingularPointError(ArithmeticError):
    """Raised when evaluation hits a pole or overflow.

    The offending subtree is attached so callers can report which
    operation produced the non-finite value.
    """

    def __init__(self, subtree: "ScalarExpr", point):
        super().__init__(f"non-finite value from {subtree} at point {tuple(point)}")
        self.subtree = subtree


class ScalarExpr:
    """Base class for expression nodes.  Nodes are immutable once built."""

    __slots__ = ()
    children: tuple

    def value(self, coords):
        """Raw evaluation; coords has shape (..., n).  May return inf/nan."""
        raise NotImplementedError

    def deriv(self, axis: int) -> "ScalarExpr":
        raise NotImplementedError

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return add(self, neg(_coerce(other)))

    def __rsub__(self, other):
        return add(_coerce(other), neg(self))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, k):
        return ipow(self, k)

    def __repr__(self):
        return str(self)


def _coerce(v) -> ScalarExpr:
    if isinstance(v, ScalarExpr):
        return v
    if isinstance(v, (int, float)):
        return Const(float(v))
    raise TypeError(f"cannot use {type(v).__name__} as a scalar expression")


# Printing precedence, loosest to tightest.
_P_ADD, _P_MUL, _P_NEG, _P_POW, _P_ATOM = 1, 2, 3, 4, 5


class Const(ScalarExpr):
    __slots__ = ("c",)
    children = ()
    prec = _P_ATOM

    def __init__(self, c: float):
        self.c = float(c)

    def value(self, coords):
        coords = np.asarray(coords)
        if coords.ndim <= 1:
            return np.float64(self.c)
        return np.full(coords.shape[:-1], self.c)

    def deriv(self, axis: int) -> ScalarExpr:
        return Const(0.0)

    def __str__(self):
        # repr round-trips float precision; trim the ".0" of whole numbers
        # so folded integers print the way people write them.
        mag = -self.c if self.c < 0 else self.c
        text = repr(mag)
        if text.endswith(".0"):
            text = text[:-2]
        return f"-{text}" if self.c < 0 else text


class Var(ScalarExpr):
    """Coordinate variable x<axis>, axis counted from 1."""

    __slots__ = ("axis",)
    children = ()
    prec = _P_ATOM

    def __init__(self, axis: int):
        if axis < 1:
            raise ValueError(f"variable axis must be >= 1, got {axis}")
        self.axis = axis

    def value(self, coords):
        return np.asarray(coords, dtype=np.float64)[..., self.axis - 1]

    def deriv(self, axis: int) -> ScalarExpr:
        return Const(1.0 if axis == self.axis else 0.0)

    def __str__(self):
        return f"x{self.axis}"


class Add(ScalarExpr):
    __slots__ = ("a", "b")
    prec = _P_ADD

    def __init__(self, a: ScalarExpr, b: ScalarExpr):
        self.a, self.b = a, b

    @property
    def children(self):
        return (self.a, self.b)

    def value(self, coords):
        return self.a.value(coords) + self.b.value(coords)

    def deriv(self, axis: int) -> ScalarExpr:
        return add(self.a.deriv(axis), self.b.deriv(axis))

    def __str__(self):
        left = _wrap(self.a, _P_ADD)
        if isinstance(self.b, Neg):
            return f"{left} - {_wrap(self.b.a, _P_ADD + 1)}"
        return f"{left} + {_wrap(self.b, _P_ADD)}"


class Mul(ScalarExpr):
    __slots__ = ("a", "b")
    prec = _P_MUL

    def __init__(self, a: ScalarExpr, b: ScalarExpr):
        self.a, self.b = a, b

    @property
    def children(self):
        return (self.a, self.b)

    def value(self, coords):
        return self.a.value(coords) * self.b.value(coords)

    def deriv(self, axis: int) -> ScalarExpr:
        da, db = self.a.deriv(axis), self.b.deriv(axis)
        return add(mul(da, self.b), mul(self.a, db))

    def __str__(self):
        return f"{_wrap(self.a, _P_MUL)}*{_wrap(self.b, _P_MUL + 1)}"


class Div(ScalarExpr):
    __slots__ = ("a", "b")
    prec = _P_MUL

    def __init__(self, a: ScalarExpr, b: ScalarExpr):
        self.a, self.b = a, b

    @property
    def children(self):
        return (self.a, self.b)

    def value(self, coords):
        return self.a.value(coords) / self.b.value(coords)

    def deriv(self, axis: int) -> ScalarExpr:
        da, db = self.a.deriv(axis), self.b.deriv(axis)
        num = add(mul(da, self.b), neg(mul(self.a, db)))
        return div(num, ipow(self.b, 2))

    def __str__(self):
        return f"{_wrap(self.a, _P_MUL)}/{_wrap(self.b, _P_MUL + 1)}"


class Neg(ScalarExpr):
    __slots__ = ("a",)
    prec = _P_NEG

    def __init__(self, a: ScalarExpr):
        self.a = a

    @property
    def children(self):
        return (self.a,)

    def value(self, coords):
        return -self.a.value(coords)

    def deriv(self, axis: int) -> ScalarExpr:
        return neg(self.a.deriv(axis))

    def __str__(self):
        return f"-{_wrap(self.a, _P_ATOM)}"


class IntPow(ScalarExpr):
    """Integer power of a subexpression; the exponent is a literal."""

    __slots__ = ("a", "k")
    prec = _P_POW

    def __init__(self, a: ScalarExpr, k: int):
        self.a, self.k = a, int(k)

    @property
    def children(self):
        return (self.a,)

    def value(self, coords):
        return np.power(self.a.value(coords), self.k)

    def deriv(self, axis: int) -> ScalarExpr:
        # d(a^k) = k * a^(k-1) * da; stays inside the grammar for any k.
        da = self.a.deriv(axis)
        return mul(mul(Const(self.k), ipow(self.a, self.k - 1)), da)

    def __str__(self):
        return f"{_wrap(self.a, _P_ATOM)}^{self.k}"


class _Func(ScalarExpr):
    __slots__ = ("a",)
    prec = _P_ATOM
    name = ""
    fn = None

    def __init__(self, a: ScalarExpr):
        self.a = a

    @property
    def children(self):
        return (self.a,)

    def value(self, coords):
        return type(self).fn(self.a.value(coords))

    def __str__(self):
        return f"{self.name}({self.a})"


class Sin(_Func):
    __slots__ = ()
    name, fn = "sin", np.sin

    def deriv(self, axis: int) -> ScalarExpr:
        return mul(cos(self.a), self.a.deriv(axis))


class Cos(_Func):
    __slots__ = ()
    name, fn = "cos", np.cos

    def deriv(self, axis: int) -> ScalarExpr:
        return neg(mul(sin(self.a), self.a.deriv(axis)))


class Exp(_Func):
    __slots__ = ()
    name, fn = "exp", np.exp

    def deriv(self, axis: int) -> ScalarExpr:
        return mul(exp(self.a), self.a.deriv(axis))


def _wrap(e: ScalarExpr, minimum: int) -> str:
    s = str(e)
    return f"({s})" if e.prec < minimum else s


def _is_const(e: ScalarExpr, c: float | None = None) -> bool:
    if not isinstance(e, Const):
        return False
    return True if c is None else e.c == c


# ---------------------------------------------------------------------------
# Smart constructors


def const(c: float) -> ScalarExpr:
    return Const(c)


def var(axis: int) -> ScalarExpr:
    return Var(axis)


def add(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if _is_const(a) and _is_const(b):
        return Const(a.c + b.c)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def sub(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    return add(a, neg(b))


def neg(a: ScalarExpr) -> ScalarExpr:
    if _is_const(a):
        return Const(-a.c)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def mul(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if _is_const(a) and _is_const(b):
        return Const(a.c * b.c)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def div(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b) and b.c != 0.0:
        return Const(a.c / b.c)
    return Div(a, b)


def ipow(a: ScalarExpr, k: int) -> ScalarExpr:
    k = int(k)
    if k == 0:
        return Const(1.0)
    if k == 1:
        return a
    if _is_const(a) and not (a.c == 0.0 and k < 0):
        return Const(a.c**k)
    return IntPow(a, k)


def sin(a: ScalarExpr) -> ScalarExpr:
    return Const(math.sin(a.c)) if _is_const(a) else Sin(a)


def cos(a: ScalarExpr) -> ScalarExpr:
    return Const(math.cos(a.c)) if _is_const(a) else Cos(a)


def exp(a: ScalarExpr) -> ScalarExpr:
    return Const(math.exp(a.c)) if _is_const(a) else Exp(a)


# ---------------------------------------------------------------------------
# Parsing


_FUNCTIONS = {"sin": sin, "cos": cos, "exp": exp}


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return ("end", "", self.pos)
        ch = self.text[self.pos]
        if ch in "+-*/^()":
            return ("op", ch, self.pos)
        if ch.isdigit() or ch == ".":
            return self._number()
        if ch.isalpha() or ch == "_":
            return self._ident()
        raise ParseError(f"unexpected character {ch!r}", self.pos)

    def _number(self):
        start = self.pos
        i = start
        text = self.text
        while i < len(text) and (text[i].isdigit() or text[i] == "."):
            i += 1
        if i < len(text) and text[i] in "eE":
            j = i + 1
            if j < len(text) and text[j] in "+-":
                j += 1
            if j < len(text) and text[j].isdigit():
                i = j
                while i < len(text) and text[i].isdigit():
                    i += 1
        lexeme = text[start:i]
        try:
            float(lexeme)
        except ValueError:
            raise ParseError(f"malformed number {lexeme!r}", start) from None
        return ("num", lexeme, start)

    def _ident(self):
        start = self.pos
        i = start
        text = self.text
        while i < len(text) and (text[i].isalnum() or text[i] == "_"):
            i += 1
        return ("ident", text[start:i], start)

    def take(self):
        tok = self.peek()
        self.pos = tok[2] + len(tok[1])
        return tok


class _Parser:
    def __init__(self, text: str, dim: int):
        self.toks = _Tokenizer(text)
        self.dim = dim

    def parse(self) -> ScalarExpr:
        e = self.expression()
        kind, lexeme, pos = self.toks.peek()
        if kind != "end":
            raise ParseError(f"unexpected {lexeme!r}", pos)
        return e

    def expression(self) -> ScalarExpr:
        e = self.term()
        while True:
            kind, lexeme, _ = self.toks.peek()
            if kind == "op" and lexeme in "+-":
                self.toks.take()
                rhs = self.term()
                e = add(e, rhs) if lexeme == "+" else add(e, neg(rhs))
            else:
                return e

    def term(self) -> ScalarExpr:
        e = self.unary()
        while True:
            kind, lexeme, _ = self.toks.peek()
            if kind == "op" and lexeme in "*/":
                self.toks.take()
                rhs = self.unary()
                e = mul(e, rhs) if lexeme == "*" else div(e, rhs)
            else:
                return e

    def unary(self) -> ScalarExpr:
        kind, lexeme, _ = self.toks.peek()
        if kind == "op" and lexeme == "-":
            self.toks.take()
            return neg(self.unary())
        return self.power()

    def power(self) -> ScalarExpr:
        e = self.atom()
        while True:
            kind, lexeme, _ = self.toks.peek()
            if kind == "op" and lexeme == "^":
                self.toks.take()
                e = ipow(e, self.exponent())
            else:
                return e

    def exponent(self) -> int:
        sign = 1
        kind, lexeme, pos = self.toks.peek()
        if kind == "op" and lexeme == "-":
            self.toks.take()
            sign = -1
            kind, lexeme, pos = self.toks.peek()
        if kind != "num" or any(c in lexeme for c in ".eE"):
            raise ParseError("exponent must be an integer literal", pos)
        self.toks.take()
        return sign * int(lexeme)

    def atom(self) -> ScalarExpr:
        kind, lexeme, pos = self.toks.take()
        if kind == "num":
            return const(float(lexeme))
        if kind == "op" and lexeme == "(":
            e = self.expression()
            kind, lexeme, pos = self.toks.take()
            if lexeme != ")":
                raise ParseError("expected ')'", pos)
            return e
        if kind == "ident":
            return self.name(lexeme, pos)
        raise ParseError(f"unexpected {lexeme!r}" if lexeme else "unexpected end of input", pos)

    def name(self, lexeme: str, pos: int) -> ScalarExpr:
        if lexeme in _FUNCTIONS:
            kind, lex, p = self.toks.take()
            if lex != "(":
                raise ParseError(f"expected '(' after {lexeme}", p)
            arg = self.expression()
            kind, lex, p = self.toks.take()
            if lex != ")":
                raise ParseError("expected ')'", p)
            return _FUNCTIONS[lexeme](arg)
        if lexeme.startswith("x") and lexeme[1:].isdigit():
            axis = int(lexeme[1:])
            if axis < 1 or axis > self.dim:
                raise ParseError(
                    f"variable {lexeme} out of range for dimension {self.dim}", pos
                )
            return var(axis)
        raise ParseError(f"unknown identifier {lexeme!r}", pos)


def parse(text: str, dim: int) -> ScalarExpr:
    """Parse text into an expression over x1..x<dim>.

    Raises ParseError (with character position) on malformed input or a
    variable whose axis exceeds dim.
    """
    if not 1 <= dim:
        raise ValueError(f"dimension must be positive, got {dim}")
    return _Parser(text, dim).parse()


# ---------------------------------------------------------------------------
# Evaluation and differentiation


def max_axis(e: ScalarExpr) -> int:
    """Largest variable axis appearing in e (0 for constant expressions)."""
    if isinstance(e, Var):
        return e.axis
    return max((max_axis(c) for c in e.children), default=0)


def evaluate(e: ScalarExpr, point) -> float:
    """Evaluate e at a coordinate point (sequence of floats).

    Deterministic: the same expression at the same point always yields
    the identical float.  Raises SingularPointError naming the deepest
    offending subtree if any intermediate value is non-finite.
    """
    p = np.asarray(point, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("point must be a flat coordinate sequence")
    if not np.all(np.isfinite(p)):
        raise ValueError("point coordinates must be finite")
    if max_axis(e) > p.shape[0]:
        raise ValueError(
            f"expression uses x{max_axis(e)} but the point has {p.shape[0]} coordinates"
        )
    with np.errstate(all="ignore"):
        v = e.value(p)
        if math.isfinite(v):
            return float(v)
        # Walk down to the deepest node that itself evaluates non-finite.
        node = e
        while True:
            bad = None
            for child in node.children:
                if not math.isfinite(child.value(p)):
                    bad = child
                    break
            if bad is None:
                raise SingularPointError(node, p)
            node = bad


def diff(e: ScalarExpr, axis: int) -> ScalarExpr:
    """Exact partial derivative with respect to x<axis>; closed over the grammar."""
    if axis < 1:
        raise ValueError(f"axis must be >= 1, got {axis}")
    return e.deriv(axis)
