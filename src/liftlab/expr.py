"""Scalar expression trees over chart coordinates x1..xn.

Grammar: decimal literals, variables x1..xn, binary + - * /, unary -,
integer powers via ^, the functions sin, cos, exp, and parentheses.
Subtraction is lowered to addition of a negation at parse time.

Nodes are built only by the smart constructors (add, mul, ipow, ...),
which fold constants and drop additive zeros / multiplicative ones;
there is no Python arithmetic on nodes.  Folding is best effort and
never load-bearing: expression equality is always decided by sampled
evaluation, not by tree shape.

Evaluation goes through a Tape, compiled once from a list of
expressions.  Compiling merges structurally equal subtrees into one
slot and lists the slots children first, in array columns: an opcode,
two integer arguments, a constants list, and the output slots.  Running
the tape applies one NumPy operation per slot over the whole (..., n)
batch of points, so a subtree shared by many expressions, or repeated
inside one, is computed once.  The tables that find equal subtrees live
only while the tape is compiled, and the compile walks expressions with
an explicit stack, so nesting depth is not bounded by the interpreter's
recursion limit.

Derivatives are never built as expressions.  Tape.jets carries the
value, the gradient and the Hessian of every slot through the same
slot order (truncated Taylor propagation, one rule per opcode), so the
partials it returns are exact up to rounding.
"""

from __future__ import annotations

import math
import re
import struct
from array import array

import numpy as np

# Tape opcodes, in the order the evaluation loop tests them.
MUL, ADD, NEG, POW, DIV, CONST, VAR, SIN, COS, EXP = range(10)
# Flags on an opcode: after this slot, drop the value of argument a / b,
# which no later slot and no output reads.
_DROP_A, _DROP_B = 16, 32
_OP_MASK = 15


class ParseError(ValueError):
    """Raised on malformed input; carries the 0-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SingularPointError(ArithmeticError):
    """Raised on a pole or an overflow at a sample point.  subtree is the
    innermost non-finite subexpression of an input field's component, or
    None (an operator output, a residual)."""

    def __init__(self, message: str, subtree: "ScalarExpr | None" = None):
        super().__init__(message)
        self.subtree = subtree


def named(key: str, term):
    """term(), with key (a check, a residual) in front of the
    SingularPointError it raises; same type and subtree."""
    try:
        return term()
    except SingularPointError as exc:
        raise SingularPointError(f"{key}: {exc}", exc.subtree) from None


class ScalarExpr:
    """Base class for expression nodes, immutable once built.  Only the
    smart constructors below build them."""

    __slots__ = ()
    children: tuple = ()
    op: int  # tape opcode

    def __repr__(self):
        return str(self)


# Printing precedence, loosest to tightest.
_P_ADD, _P_MUL, _P_NEG, _P_POW, _P_ATOM = 1, 2, 3, 4, 5


class Const(ScalarExpr):
    __slots__ = ("c",)
    prec = _P_ATOM
    op = CONST

    def __init__(self, c: float):
        self.c = float(c)

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
    prec = _P_ATOM
    op = VAR

    def __init__(self, axis: int):
        if axis < 1:
            raise ValueError(f"variable axis must be >= 1, got {axis}")
        self.axis = axis

    def __str__(self):
        return f"x{self.axis}"


class _Binary(ScalarExpr):
    __slots__ = ("a", "b")
    prec = _P_MUL
    symbol = ""

    def __init__(self, a: ScalarExpr, b: ScalarExpr):
        self.a, self.b = a, b

    @property
    def children(self):
        return (self.a, self.b)

    def __str__(self):
        return f"{_wrap(self.a, _P_MUL)}{self.symbol}{_wrap(self.b, _P_MUL + 1)}"


class Add(_Binary):
    __slots__ = ()
    prec = _P_ADD
    op = ADD

    def __str__(self):
        left = _wrap(self.a, _P_ADD)
        if isinstance(self.b, Neg):
            return f"{left} - {_wrap(self.b.a, _P_ADD + 1)}"
        return f"{left} + {_wrap(self.b, _P_ADD)}"


class Mul(_Binary):
    __slots__ = ()
    op = MUL
    symbol = "*"


class Div(_Binary):
    __slots__ = ()
    op = DIV
    symbol = "/"


class _Unary(ScalarExpr):
    __slots__ = ("a",)

    def __init__(self, a: ScalarExpr):
        self.a = a

    @property
    def children(self):
        return (self.a,)


class Neg(_Unary):
    __slots__ = ()
    prec = _P_NEG
    op = NEG

    def __str__(self):
        return f"-{_wrap(self.a, _P_ATOM)}"


class IntPow(_Unary):
    """Integer power of a subexpression; the exponent is a literal."""

    __slots__ = ("k",)
    prec = _P_POW
    op = POW

    def __init__(self, a: ScalarExpr, k: int):
        self.a, self.k = a, int(k)

    def __str__(self):
        return f"{_wrap(self.a, _P_ATOM)}^{self.k}"


class _Func(_Unary):
    __slots__ = ()
    prec = _P_ATOM
    name = ""

    def __str__(self):
        return f"{self.name}({self.a})"


class Sin(_Func):
    __slots__ = ()
    op = SIN
    name = "sin"


class Cos(_Func):
    __slots__ = ()
    op = COS
    name = "cos"


class Exp(_Func):
    __slots__ = ()
    op = EXP
    name = "exp"


def _wrap(e: ScalarExpr, minimum: int) -> str:
    s = str(e)
    return f"({s})" if e.prec < minimum else s


# ---------------------------------------------------------------------------
# Smart constructors


def const(c: float) -> ScalarExpr:
    return Const(c)


def var(axis: int) -> ScalarExpr:
    return Var(axis)


def add(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    ca, cb = isinstance(a, Const), isinstance(b, Const)
    if ca and cb:
        return Const(a.c + b.c)
    if ca and a.c == 0.0:
        return b
    if cb and b.c == 0.0:
        return a
    return Add(a, b)


def sub(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    return add(a, neg(b))


def neg(a: ScalarExpr) -> ScalarExpr:
    if isinstance(a, Const):
        return Const(-a.c)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def mul(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    ca, cb = isinstance(a, Const), isinstance(b, Const)
    if ca and cb:
        return Const(a.c * b.c)
    if (ca and a.c == 0.0) or (cb and b.c == 0.0):
        return Const(0.0)
    if ca and a.c == 1.0:
        return b
    if cb and b.c == 1.0:
        return a
    return Mul(a, b)


def div(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    ca, cb = isinstance(a, Const), isinstance(b, Const)
    if cb and b.c == 1.0:
        return a
    if ca and cb and b.c != 0.0:
        return Const(a.c / b.c)
    return Div(a, b)


def ipow(a: ScalarExpr, k: int) -> ScalarExpr:
    k = int(k)
    if k == 0:
        return Const(1.0)
    if k == 1:
        return a
    if isinstance(a, Const) and not (a.c == 0.0 and k < 0):
        return Const(a.c**k)
    return IntPow(a, k)


def sin(a: ScalarExpr) -> ScalarExpr:
    return Const(math.sin(a.c)) if isinstance(a, Const) else Sin(a)


def cos(a: ScalarExpr) -> ScalarExpr:
    return Const(math.cos(a.c)) if isinstance(a, Const) else Cos(a)


def exp(a: ScalarExpr) -> ScalarExpr:
    return Const(math.exp(a.c)) if isinstance(a, Const) else Exp(a)


# ---------------------------------------------------------------------------
# Parsing


_FUNCTIONS = {"sin": sin, "cos": cos, "exp": exp}


# One token after optional whitespace: a number (ASCII digits and dots,
# then an exponent only when digits follow it), a name, an operator, or
# any other character, which is an error; nothing at the end of the text.
_TOKEN = re.compile(
    r"\s*(?:(?P<num>[0-9.]+(?:[eE][+-]?[0-9]+)?)|(?P<ident>[^\W\d]\w*)"
    r"|(?P<op>[-+*/^()])|(?P<bad>.))?",
    re.S,
)


class _Tokenizer:
    """The tokens of one text, scanned once.  A bad character or a
    malformed number is kept as an error token and raised only when the
    parser reaches it, so the first error in reading order is reported."""

    def __init__(self, text: str):
        self.toks = []
        self.i = 0
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            if kind is None:
                self.toks.append(("end", "", m.end()))
                break
            lexeme, start = m.group(kind), m.start(kind)
            if kind == "bad":
                kind, lexeme = "error", f"unexpected character {lexeme!r}"
            elif kind == "num":
                try:
                    if not math.isfinite(float(lexeme)):
                        kind, lexeme = "error", f"number {lexeme!r} out of float range"
                except ValueError:
                    kind, lexeme = "error", f"malformed number {lexeme!r}"
            self.toks.append((kind, lexeme, start))

    def peek(self):
        kind, lexeme, pos = tok = self.toks[self.i]
        if kind == "error":
            raise ParseError(lexeme, pos)
        return tok

    def take(self):
        tok = self.peek()
        self.i += tok[0] != "end"
        return tok


def _fold(combine, pos: int, *args) -> ScalarExpr:
    """combine(*args), which folds constants; a fold that leaves float
    range is a ParseError at pos, the operator's position."""
    try:
        e = combine(*args)
        if not isinstance(e, Const) or math.isfinite(e.c):
            return e
    except OverflowError:
        pass
    raise ParseError("constant out of float range", pos)


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

    def _chain(self, ops: str, operand, combine, right=None) -> ScalarExpr:
        """operand (op right)*, folded from the left; right defaults to
        operand."""
        e = operand()
        while True:
            kind, lexeme, pos = self.toks.peek()
            if kind != "op" or lexeme not in ops:
                return e
            self.toks.take()
            e = _fold(combine[lexeme], pos, e, (right or operand)())

    def expression(self) -> ScalarExpr:
        return self._chain("+-", self.term, {"+": add, "-": sub})

    def term(self) -> ScalarExpr:
        return self._chain("*/", self.unary, {"*": mul, "/": div})

    def unary(self) -> ScalarExpr:
        kind, lexeme, _ = self.toks.peek()
        if kind == "op" and lexeme == "-":
            self.toks.take()
            return neg(self.unary())
        return self._chain("^", self.atom, {"^": ipow}, self.exponent)

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
            return _fold(_FUNCTIONS[lexeme], pos, arg)
        if lexeme[0] == "x" and lexeme[1:].isdigit() and lexeme.isascii():
            axis = int(lexeme[1:])
            if axis < 1 or axis > self.dim:
                raise ParseError(
                    f"variable {lexeme} out of range for dimension {self.dim}", pos
                )
            return var(axis)
        raise ParseError(f"unknown identifier {lexeme!r}", pos)


def parse(text: str, dim: int) -> ScalarExpr:
    """Parse text into an expression over x1..x<dim>.

    A variable is x followed by ASCII digits.  Raises ParseError (with
    character position) on malformed input, on any other name, or on a
    variable whose axis exceeds dim.
    """
    if not 1 <= dim:
        raise ValueError(f"dimension must be positive, got {dim}")
    return _Parser(text, dim).parse()


# ---------------------------------------------------------------------------
# Evaluation and differentiation


def _postorder(root: ScalarExpr, done: dict):
    """The nodes under root that are not keys of done, each once, children
    first.  Iterative, so depth is not bounded by the recursion limit; the
    caller enters each node into done before asking for the next."""
    stack = [root]
    while stack:
        node = stack[-1]
        if node in done:
            stack.pop()
            continue
        ready = True
        for c in node.children:
            if c not in done:
                stack.append(c)
                ready = False
        if ready:
            stack.pop()
            yield node


class Tape:
    """A list of expressions compiled for batch evaluation.

    Slot i holds one structurally distinct subtree; its children sit in
    earlier slots.  ops[i] is the opcode (with drop flags), and args_a[i],
    args_b[i] its arguments: child slots (a unary op's in both), or for
    CONST an index into consts, for VAR the 0-based axis, for POW the
    child slot and the index of the exponent in consts.  Calling the tape on points of shape
    (..., n) returns shape (..., len(outputs)), column r the value of
    expression r.
    """

    __slots__ = ("ops", "args_a", "args_b", "consts", "outputs", "dim")

    def __init__(self, exprs):
        ops, args_a, args_b = array("B"), array("i"), array("i")
        consts: list = []
        # Compile scratch, freed on return.  slot_of is keyed by the nodes
        # themselves (identity hash); table by structure: an int packing
        # opcode and argument slots, or a tuple for CONST and POW.
        slot_of: dict[ScalarExpr, int] = {}
        table: dict = {}
        last_read = array("i")  # per slot, the last slot that reads it
        dim = 0
        for root in exprs:
            for node in _postorder(root, slot_of):
                kids = node.children
                op, b = node.op, 0
                if op == CONST:
                    # by bit pattern: 0.0 and -0.0 stay apart, and so do
                    # nan and inf of either sign
                    a, key = 0, (CONST, struct.pack("d", node.c))
                elif op == VAR:
                    a = node.axis - 1
                    key = a << 4 | VAR
                    dim = max(dim, node.axis)
                elif op == POW:
                    a = slot_of[kids[0]]
                    key = (POW, a, node.k)
                else:  # a unary op carries its argument in both columns
                    a = b = slot_of[kids[0]]
                    if len(kids) == 2:
                        b = slot_of[kids[1]]
                    key = (a << 32 | b) << 4 | op
                slot = table.get(key)
                if slot is None:
                    slot = table[key] = len(ops)
                    if op == CONST:
                        a = len(consts)
                        consts.append(np.float64(node.c))
                    elif op == POW:
                        last_read[a] = slot
                        b = len(consts)
                        consts.append(node.k)
                    elif op != VAR:
                        last_read[a] = last_read[b] = slot
                    ops.append(op)
                    args_a.append(a)
                    args_b.append(b)
                    last_read.append(-1)
                slot_of[node] = slot
        self.outputs = array("i", [slot_of[e] for e in exprs])
        # Drop flags: a slot's value goes after its last read, unless it
        # is an output.
        for s in self.outputs:
            last_read[s] = -1
        for s, i in enumerate(last_read):
            if i >= 0:
                ops[i] |= _DROP_A if args_a[i] == s else _DROP_B
        self.ops, self.args_a, self.args_b = ops, args_a, args_b
        self.consts, self.dim = consts, dim

    def __len__(self) -> int:
        return len(self.ops)

    def _slots(self, p: np.ndarray, order: int = 0, keep: bool = False) -> list:
        """(value, gradient, Hessian) of every slot at points p (..., n), to
        order <= 2, raw (inf/nan pass through).  Each opcode has one Taylor
        rule; None stands for a derivative that vanishes identically or is
        not asked for.  Values go through the ufuncs even for one point,
        whose NumPy scalar operators order NaN operands differently.
        Unless keep, a slot is dropped after its last read."""
        unit = np.eye(p.shape[-1]) if order else None
        consts, hess = self.consts, order == 2
        jet: list = [None] * len(self.ops)
        with np.errstate(all="ignore"):
            for i, (code, a, b) in enumerate(zip(self.ops, self.args_a, self.args_b)):
                op = code & _OP_MASK
                g = h = None
                if op == MUL:
                    (va, ga, ha), (vb, gb, hb) = jet[a], jet[b]
                    v = np.multiply(va, vb)
                    if order:
                        g = _plus(_scale(ga, vb, 1), _scale(gb, va, 1))
                        if hess:
                            h = _plus(_plus(_scale(ha, vb, 2), _scale(hb, va, 2)), _sym(ga, gb))
                elif op == ADD:
                    (va, ga, ha), (vb, gb, hb) = jet[a], jet[b]
                    v = np.add(va, vb)
                    if order:
                        g, h = _plus(ga, gb), _plus(ha, hb)
                elif op == CONST:
                    v = consts[a]
                elif op == VAR:
                    v, g = p[..., a], None if unit is None else unit[a]
                elif op == DIV:  # from a = v b: g = (ga - v gb) / b, and h likewise
                    (va, ga, ha), (vb, gb, hb) = jet[a], jet[b]
                    v = np.divide(va, vb)
                    if order:
                        inv = 1.0 / vb
                        g = _scale(_plus(ga, _scale(gb, -v, 1)), inv, 1)
                        if hess:
                            h = _plus(_plus(ha, _scale(hb, -v, 2)), _scale(_sym(g, gb), -1, 2))
                            h = _scale(h, inv, 2)
                else:  # f(a): g = f' ga and h = f' ha + f'' ga ga
                    va, ga, ha = jet[a]
                    v, d1, d2 = _unary(op, va, consts[b] if op == POW else 0, order)
                    if order:
                        g = _scale(ga, d1, 1)
                        if hess:
                            h = _plus(_scale(ha, d1, 2), _scale(_outer(ga, ga), d2, 2))
                jet[i] = (v, g, h)
                if code > _OP_MASK and not keep:
                    if code & _DROP_A:
                        jet[a] = None
                    if code & _DROP_B:
                        jet[b] = None
        return jet

    def non_finite_subtree(self, exprs, r: int, point, order: int) -> ScalarExpr:
        """The subtree of exprs[r], output r of the tape compiled from exprs,
        that makes its jet to order non-finite at one point (n,): the
        innermost one whose own jet is non-finite while its arguments'
        are finite.  Reruns the tape at that point; for error messages."""
        jet = self._slots(np.asarray(point, dtype=np.float64), order, keep=True)
        node, slot = exprs[r], self.outputs[r]
        while True:
            # the argument columns of a slot start with its children's slots
            args = (self.args_a[slot], self.args_b[slot])[: len(node.children)]
            bad = next((k for k, s in enumerate(args)
                        if not all(d is None or np.isfinite(d).all() for d in jet[s])), None)
            if bad is None:
                return node
            node, slot = node.children[bad], args[bad]

    def __call__(self, points) -> np.ndarray:
        return self.jets(points, 0)[0]

    def jets(self, points, order: int) -> list:
        """Values and partials of the outputs at points (..., n), to
        order <= 2: [(..., K)], then (..., n, K) and (..., n, n, K), the
        derivative axes right after the batch axes, each stored with the
        first axis fastest (order "F")."""
        if not 0 <= order <= 2:
            raise ValueError(f"tape jets go up to order 2, not {order}")
        p = np.asarray(points, dtype=np.float64)
        jet = self._slots(p, order)
        batch, n, k = p.shape[:-1], p.shape[-1], len(self.outputs)
        out = [np.empty(batch + (k,), order="F")]
        out += [np.zeros(batch + (n,) * d + (k,), order="F") for d in range(1, order + 1)]
        for d, arr in enumerate(out):
            for r, s in enumerate(self.outputs):
                part = jet[s][d]
                if part is not None:
                    arr[..., r] = part
        return out


def _plus(x, y):
    """Sum of two derivatives, where None stands for an identically zero one."""
    if x is None:
        return y
    return x if y is None else x + y


def _scale(d, s, k: int):
    """A gradient (k = 1) or Hessian (k = 2) times s, a number or one
    value per point; None for None."""
    if d is None or s is None:
        return None
    return d * (s.reshape(s.shape + (1,) * k) if np.ndim(s) else s)


def _outer(x, y):
    if x is None or y is None:
        return None
    return x[..., :, None] * y[..., None, :]


def _sym(x, y):
    """x y^T + y x^T, the mixed term of a product's Hessian."""
    return _plus(_outer(x, y), _outer(y, x))


def _unary(op: int, a, k: int, order: int):
    """f(a) of a unary opcode, with f'(a) and f''(a) (None for 0) when
    order; k is POW's exponent."""
    if op == NEG:
        return np.negative(a), -1.0, None
    if op == EXP:
        v = np.exp(a)
        return v, v, v
    if op == POW:
        v = np.power(a, k)
        if not order:
            return v, None, None
        d1 = k * np.power(a, k - 1) if k else None
        return v, d1, k * (k - 1) * np.power(a, k - 2) if k not in (0, 1) else None
    v = np.sin(a) if op == SIN else np.cos(a)
    if not order:
        return v, None, None
    return v, np.cos(a) if op == SIN else -np.sin(a), -v

