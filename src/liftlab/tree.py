"""Expression trees over chart coordinates x1..xn: the view of a tape.

A tape (liftlab.expr) is what the program builds and runs; a tree is
only how an expression is shown.  Tape.tree renders a slot as a tree,
expr.parse returns the tree of a text, Field.comps the trees of a
field's components, and SingularPointError.subtree a node of them.
Trees never go back into a tape except as text: a tree prints as text
that parses to the same slots, so str(e) is the way to compile one.

This module holds the node classes and their printing only; the opcodes
and the folding rules live in liftlab.expr.  There is no Python
arithmetic on nodes.  Printing keeps its own stack, so a deep tree
prints without reaching the interpreter's recursion limit, and it
writes what the parser reads back: a sum on the right of a sum and a
negative constant as a base are parenthesised, and a power of a power
is written as the chain x1^2^3, since ^ reads from the left.
"""

from __future__ import annotations

import math


class ScalarExpr:
    """Base class for expression nodes, immutable once built."""

    __slots__ = ()
    children: tuple = ()

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

    def __init__(self, c: float):
        self.c = float(c)

    @property
    def prec(self):
        # a negative constant reads back as a minus before its magnitude
        return _P_NEG if math.copysign(1.0, self.c) < 0 else _P_ATOM

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

    def _parts(self):
        if isinstance(self.b, Neg):
            return ((self.a, _P_ADD), " - ", (self.b.a, _P_ADD + 1))
        return ((self.a, _P_ADD), " + ", (self.b, _P_ADD + 1))


class Mul(_Binary):
    __slots__ = ()
    symbol = "*"


class Div(_Binary):
    __slots__ = ()
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

    def _parts(self):
        return ("-", (self.a, _P_ATOM))


class IntPow(_Unary):
    """Integer power of a subexpression; the exponent is a literal."""

    __slots__ = ("k",)
    prec = _P_POW

    def __init__(self, a: ScalarExpr, k: int):
        self.a, self.k = a, int(k)

    def _parts(self):
        # a power of a power prints as the chain a^j^k, read from the left
        return ((self.a, _P_POW), f"^{self.k}")


class _Func(_Unary):
    __slots__ = ()
    prec = _P_ATOM
    name = ""

    def _parts(self):
        return (f"{self.name}(", (self.a, 0), ")")


class Sin(_Func):
    __slots__ = ()
    name = "sin"


class Cos(_Func):
    __slots__ = ()
    name = "cos"


class Exp(_Func):
    __slots__ = ()
    name = "exp"
