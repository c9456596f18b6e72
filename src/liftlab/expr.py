"""Scalar expression trees over chart coordinates x1..xn.

Grammar: decimal literals, variables x1..xn, binary + - * /, unary -,
integer powers via ^, the functions sin, cos, exp, and parentheses.
Subtraction is lowered to addition of a negation at parse time.

Construction goes through smart constructors that fold constants and
drop additive zeros / multiplicative ones.  Folding is best effort and
never load-bearing: expression equality is always decided by sampled
evaluation, not by tree shape.

Evaluation goes through a Tape, compiled once from a list of
expressions.  Compiling merges structurally equal subtrees into one
slot and lists the slots children first, in array columns: an opcode,
two integer arguments, a constants list, and the output slots.  Running
the tape applies one NumPy operation per slot over the whole (..., n)
batch of points, so a subtree shared by many expressions, or repeated
inside one, is computed once.  The tables that find equal subtrees live
only while the tape is compiled.

Derivatives are built with a memo keyed by node identity (diffs); a
subtree that appears once in memory is differentiated once and its
derivative is shared in turn, so a DAG stays a DAG under diff.  The
compile and diffs walk expressions with an explicit stack, so nesting
depth is not bounded by the interpreter's recursion limit.
"""

from __future__ import annotations

import math
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
    op: int  # tape opcode

    def value(self, coords):
        """Raw evaluation; coords has shape (..., n).  May return inf/nan."""
        return Tape([self])(coords)[..., 0][()]

    def deriv(self, axis: int, *d: "ScalarExpr") -> "ScalarExpr":
        """Partial along x<axis>, given d, the partials of the children."""
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
    op = CONST

    def __init__(self, c: float):
        self.c = float(c)

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
    op = VAR

    def __init__(self, axis: int):
        if axis < 1:
            raise ValueError(f"variable axis must be >= 1, got {axis}")
        self.axis = axis

    def deriv(self, axis: int) -> ScalarExpr:
        return Const(1.0 if axis == self.axis else 0.0)

    def __str__(self):
        return f"x{self.axis}"


class Add(ScalarExpr):
    __slots__ = ("a", "b")
    prec = _P_ADD
    op = ADD

    def __init__(self, a: ScalarExpr, b: ScalarExpr):
        self.a, self.b = a, b

    @property
    def children(self):
        return (self.a, self.b)

    def deriv(self, axis: int, da: ScalarExpr, db: ScalarExpr) -> ScalarExpr:
        return add(da, db)

    def __str__(self):
        left = _wrap(self.a, _P_ADD)
        if isinstance(self.b, Neg):
            return f"{left} - {_wrap(self.b.a, _P_ADD + 1)}"
        return f"{left} + {_wrap(self.b, _P_ADD)}"


class Mul(ScalarExpr):
    __slots__ = ("a", "b")
    prec = _P_MUL
    op = MUL

    def __init__(self, a: ScalarExpr, b: ScalarExpr):
        self.a, self.b = a, b

    @property
    def children(self):
        return (self.a, self.b)

    def deriv(self, axis: int, da: ScalarExpr, db: ScalarExpr) -> ScalarExpr:
        return add(mul(da, self.b), mul(self.a, db))

    def __str__(self):
        return f"{_wrap(self.a, _P_MUL)}*{_wrap(self.b, _P_MUL + 1)}"


class Div(ScalarExpr):
    __slots__ = ("a", "b")
    prec = _P_MUL
    op = DIV

    def __init__(self, a: ScalarExpr, b: ScalarExpr):
        self.a, self.b = a, b

    @property
    def children(self):
        return (self.a, self.b)

    def deriv(self, axis: int, da: ScalarExpr, db: ScalarExpr) -> ScalarExpr:
        num = add(mul(da, self.b), neg(mul(self.a, db)))
        return div(num, ipow(self.b, 2))

    def __str__(self):
        return f"{_wrap(self.a, _P_MUL)}/{_wrap(self.b, _P_MUL + 1)}"


class Neg(ScalarExpr):
    __slots__ = ("a",)
    prec = _P_NEG
    op = NEG

    def __init__(self, a: ScalarExpr):
        self.a = a

    @property
    def children(self):
        return (self.a,)

    def deriv(self, axis: int, da: ScalarExpr) -> ScalarExpr:
        return neg(da)

    def __str__(self):
        return f"-{_wrap(self.a, _P_ATOM)}"


class IntPow(ScalarExpr):
    """Integer power of a subexpression; the exponent is a literal."""

    __slots__ = ("a", "k")
    prec = _P_POW
    op = POW

    def __init__(self, a: ScalarExpr, k: int):
        self.a, self.k = a, int(k)

    @property
    def children(self):
        return (self.a,)

    def deriv(self, axis: int, da: ScalarExpr) -> ScalarExpr:
        # d(a^k) = k * a^(k-1) * da; stays inside the grammar for any k.
        return mul(mul(Const(self.k), ipow(self.a, self.k - 1)), da)

    def __str__(self):
        return f"{_wrap(self.a, _P_ATOM)}^{self.k}"


class _Func(ScalarExpr):
    __slots__ = ("a",)
    prec = _P_ATOM
    name = ""

    def __init__(self, a: ScalarExpr):
        self.a = a

    @property
    def children(self):
        return (self.a,)

    def __str__(self):
        return f"{self.name}({self.a})"


class Sin(_Func):
    __slots__ = ()
    op = SIN
    name = "sin"

    def deriv(self, axis: int, da: ScalarExpr) -> ScalarExpr:
        return mul(cos(self.a), da)


class Cos(_Func):
    __slots__ = ()
    op = COS
    name = "cos"

    def deriv(self, axis: int, da: ScalarExpr) -> ScalarExpr:
        return neg(mul(sin(self.a), da))


class Exp(_Func):
    __slots__ = ()
    op = EXP
    name = "exp"

    def deriv(self, axis: int, da: ScalarExpr) -> ScalarExpr:
        return mul(exp(self.a), da)


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
    if _is_const(a):
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


def max_axis(e: ScalarExpr) -> int:
    """Largest variable axis appearing in e (0 for constant expressions)."""
    seen: dict = {}
    top = 0
    for node in _postorder(e, seen):
        seen[node] = None
        if isinstance(node, Var):
            top = max(top, node.axis)
    return top


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

    def arguments(self, slot: int) -> tuple[int, ...]:
        """Child slots of a slot, in the order of the node's children."""
        op = self.ops[slot] & _OP_MASK
        if op in (CONST, VAR):
            return ()
        if op in (MUL, ADD, DIV):
            return (self.args_a[slot], self.args_b[slot])
        return (self.args_a[slot],)

    def _slots(self, p: np.ndarray, keep: bool) -> list:
        """Value of every slot at points p, raw (inf/nan pass through).
        Unless keep, a value is dropped after its last read."""
        consts = self.consts
        vals: list = [None] * len(self.ops)
        with np.errstate(all="ignore"):
            for i, (code, a, b) in enumerate(zip(self.ops, self.args_a, self.args_b)):
                op = code & _OP_MASK
                if op == MUL:
                    v = vals[a] * vals[b]
                elif op == ADD:
                    v = vals[a] + vals[b]
                elif op == NEG:
                    v = -vals[a]
                elif op == POW:
                    v = np.power(vals[a], consts[b])
                elif op == DIV:
                    v = vals[a] / vals[b]
                elif op == CONST:
                    v = consts[a]
                elif op == VAR:
                    v = p[..., a]
                elif op == SIN:
                    v = np.sin(vals[a])
                elif op == COS:
                    v = np.cos(vals[a])
                else:
                    v = np.exp(vals[a])
                vals[i] = v
                if code > _OP_MASK and not keep:
                    if code & _DROP_A:
                        vals[a] = None
                    if code & _DROP_B:
                        vals[b] = None
        return vals

    def __call__(self, points) -> np.ndarray:
        p = np.asarray(points, dtype=np.float64)
        vals = self._slots(p, keep=False)
        out = np.empty(p.shape[:-1] + (len(self.outputs),))
        for r, s in enumerate(self.outputs):
            out[..., r] = vals[s]
        return out


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
    tape = Tape([e])
    if tape.dim > p.shape[0]:
        raise ValueError(
            f"expression uses x{tape.dim} but the point has {p.shape[0]} coordinates"
        )
    vals = tape._slots(p, keep=True)
    node, slot = e, tape.outputs[0]
    if math.isfinite(vals[slot]):
        return float(vals[slot])
    # Walk down to the deepest node that itself evaluates non-finite; the
    # tape arguments of a slot line up with the node's children.
    while True:
        args = tape.arguments(slot)
        bad = next((k for k, s in enumerate(args) if not math.isfinite(vals[s])), None)
        if bad is None:
            raise SingularPointError(node, p)
        node, slot = node.children[bad], args[bad]


def diffs(exprs, axis: int) -> list[ScalarExpr]:
    """Exact partials of several expressions with respect to x<axis>.

    One derivative memo serves the whole list, so a node shared between
    or within the expressions is differentiated once.
    """
    if axis < 1:
        raise ValueError(f"axis must be >= 1, got {axis}")
    memo: dict = {}  # node -> its partial; nodes hash by identity
    for e in exprs:
        for node in _postorder(e, memo):
            memo[node] = node.deriv(axis, *[memo[c] for c in node.children])
    return [memo[e] for e in exprs]


def diff(e: ScalarExpr, axis: int) -> ScalarExpr:
    """Exact partial derivative with respect to x<axis>; closed over the grammar."""
    return diffs([e], axis)[0]
