"""Expression trees over chart coordinates x1..xn: the view of a tape.

A tape (liftlab.expr) is what the program builds and runs; a tree is
how an expression is shown.  Tape.tree renders a slot as a tree,
expr.parse returns the tree of a text, Field.comps the trees of a
field's components, and SingularPointError.subtree a node of them.  A
tree given to a Tape is added to it node for node.

Nodes are built only by the smart constructors (add, mul, ipow, ...),
by parse and by Tape.tree; there is no Python arithmetic on nodes.  The
smart constructors fold constants and drop additive zeros and
multiplicative ones by the rules of folded, the same rules the tape
builder applies to its slots.  Folding is best effort and never
load-bearing: expression equality is always decided by sampled
evaluation, not by tree shape.  Printing keeps its own stack, so a deep
tree prints without reaching the interpreter's recursion limit.
"""

from __future__ import annotations

import math

# Node kinds, which are also the tape's opcodes, in the order its
# evaluation loop tests them.
MUL, ADD, NEG, POW, DIV, CONST, VAR, SIN, COS, EXP = range(10)


class ScalarExpr:
    """Base class for expression nodes, immutable once built."""

    __slots__ = ()
    children: tuple = ()
    op: int  # tape opcode

    def __str__(self):
        # todo holds text pieces and (node, least precedence) pairs, each
        # node written as its _parts, in parentheses when its own
        # precedence is below the least its place allows
        out, todo = [], [(self, 0)]
        while todo:
            item = todo.pop()
            if type(item) is str:
                out.append(item)
                continue
            node, least = item
            if node.prec < least:
                todo += (")", (node, 0), "(")
            else:
                todo.extend(reversed(node._parts()))
        return "".join(out)

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

    def _parts(self):
        # repr round-trips float precision; trim the ".0" of whole numbers
        # so folded integers print the way people write them.
        mag = -self.c if self.c < 0 else self.c
        text = repr(mag)
        if text.endswith(".0"):
            text = text[:-2]
        return (f"-{text}" if self.c < 0 else text,)


class Var(ScalarExpr):
    """Coordinate variable x<axis>, axis counted from 1."""

    __slots__ = ("axis",)
    prec = _P_ATOM
    op = VAR

    def __init__(self, axis: int):
        if axis < 1:
            raise ValueError(f"variable axis must be >= 1, got {axis}")
        self.axis = axis

    def _parts(self):
        return (f"x{self.axis}",)


class _Binary(ScalarExpr):
    __slots__ = ("a", "b")
    prec = _P_MUL
    symbol = ""

    def __init__(self, a: ScalarExpr, b: ScalarExpr):
        self.a, self.b = a, b

    @property
    def children(self):
        return (self.a, self.b)

    def _parts(self):
        return ((self.a, _P_MUL), self.symbol, (self.b, _P_MUL + 1))


class Add(_Binary):
    __slots__ = ()
    prec = _P_ADD
    op = ADD

    def _parts(self):
        if isinstance(self.b, Neg):
            return ((self.a, _P_ADD), " - ", (self.b.a, _P_ADD + 1))
        return ((self.a, _P_ADD), " + ", (self.b, _P_ADD))


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

    def _parts(self):
        return ("-", (self.a, _P_ATOM))


class IntPow(_Unary):
    """Integer power of a subexpression; the exponent is a literal."""

    __slots__ = ("k",)
    prec = _P_POW
    op = POW

    def __init__(self, a: ScalarExpr, k: int):
        self.a, self.k = a, int(k)

    def _parts(self):
        return ((self.a, _P_ATOM), f"^{self.k}")


class _Func(_Unary):
    __slots__ = ()
    prec = _P_ATOM
    name = ""

    def _parts(self):
        return (f"{self.name}(", (self.a, 0), ")")


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


# The node class of each opcode but CONST, VAR and POW.
NODES = {cls.op: cls for cls in (Add, Mul, Div, Neg, Sin, Cos, Exp)}
_MATH = {NEG: float.__neg__, SIN: math.sin, COS: math.cos, EXP: math.exp}


# ---------------------------------------------------------------------------
# Folding, shared by the smart constructors and the tape builder

FIRST, SECOND = "first", "second"  # fold results: that operand


def folded(op: int, ca, cb, k: int = 0):
    """The folding rules of op over two operands (one for a unary op),
    whose constant values are ca and cb, None for an operand that is not
    a constant; k is POW's exponent.  Returns the float the result folds
    to, FIRST or SECOND when it is that operand, or None when nothing
    folds."""
    if op == ADD:
        if ca is not None and cb is not None:
            return ca + cb
        if ca == 0.0:
            return SECOND
        if cb == 0.0:
            return FIRST
    elif op == MUL:
        if ca is not None and cb is not None:
            return ca * cb
        if ca == 0.0 or cb == 0.0:
            return 0.0
        if ca == 1.0:
            return SECOND
        if cb == 1.0:
            return FIRST
    elif op == DIV:
        if cb == 1.0:
            return FIRST
        if ca is not None and cb is not None and cb != 0.0:
            return ca / cb
    elif op == POW:
        if k == 0:
            return 1.0
        if k == 1:
            return FIRST
        if ca is not None and not (ca == 0.0 and k < 0):
            return ca**k
    elif ca is not None:  # NEG, SIN, COS, EXP
        return _MATH[op](ca)
    return None


# ---------------------------------------------------------------------------
# Smart constructors


def _reduced(op: int, a: ScalarExpr, b: ScalarExpr | None = None, k: int = 0):
    """The node op(a, b) folds to, or None when nothing folds."""
    r = folded(op, a.c if type(a) is Const else None, b.c if type(b) is Const else None, k)
    if r is None:
        return None
    if r is FIRST or r is SECOND:
        return a if r is FIRST else b
    return Const(r)


def const(c: float) -> ScalarExpr:
    return Const(c)


def var(axis: int) -> ScalarExpr:
    return Var(axis)


def add(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    return _reduced(ADD, a, b) or Add(a, b)


def sub(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    return add(a, neg(b))


def neg(a: ScalarExpr) -> ScalarExpr:
    return a.a if type(a) is Neg else _reduced(NEG, a) or Neg(a)


def mul(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    return _reduced(MUL, a, b) or Mul(a, b)


def div(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    return _reduced(DIV, a, b) or Div(a, b)


def ipow(a: ScalarExpr, k: int) -> ScalarExpr:
    k = int(k)
    return _reduced(POW, a, None, k) or IntPow(a, k)


def sin(a: ScalarExpr) -> ScalarExpr:
    return _reduced(SIN, a) or Sin(a)


def cos(a: ScalarExpr) -> ScalarExpr:
    return _reduced(COS, a) or Cos(a)


def exp(a: ScalarExpr) -> ScalarExpr:
    return _reduced(EXP, a) or Exp(a)
