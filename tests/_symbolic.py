"""Expression trees built on the test side: the smart constructors, and
symbolic differentiation as the exact reference for the Taylor rules of
Tape.jets.

The smart constructors (const, var, add, sub, neg, mul, div, ipow, sin,
cos, exp) build liftlab.tree nodes and fold constants, additive zeros
and multiplicative ones by liftlab.expr.folded, the rules the tape
builder applies to its slots, with neg(neg(a)) = a.  A folded tree
therefore prints as text whose tape has one slot per structurally
distinct node: a tree is compiled through its text, Tape([(str(e), n)]).

diff builds the partial of an expression as a new expression, one rule
per node type, through the smart constructors.  A memo keyed by node
identity differentiates a shared subtree once, and the walk keeps its
own stack, so deep expressions do not hit the recursion limit.
"""

from liftlab import expr as E
from liftlab.tree import Add, Const, Cos, Div, Exp, IntPow, Mul, Neg, Sin, Var


def tape(exprs, n: int) -> E.Tape:
    """The tape of trees over x1..xn, compiled through their text."""
    return E.Tape([(str(e), n) for e in exprs])


def _reduced(op: int, a, b=None, k: int = 0):
    """The node op(a, b) folds to, or None when nothing folds."""
    r = E.folded(op, a.c if type(a) is Const else None, b.c if type(b) is Const else None, k)
    if r is None:
        return None
    if r is E.FIRST or r is E.SECOND:
        return a if r is E.FIRST else b
    return Const(r)


def const(c: float):
    return Const(c)


def var(axis: int):
    return Var(axis)


def add(a, b):
    return _reduced(E.ADD, a, b) or Add(a, b)


def sub(a, b):
    return add(a, neg(b))


def neg(a):
    return a.a if type(a) is Neg else _reduced(E.NEG, a) or Neg(a)


def mul(a, b):
    return _reduced(E.MUL, a, b) or Mul(a, b)


def div(a, b):
    return _reduced(E.DIV, a, b) or Div(a, b)


def ipow(a, k: int):
    k = int(k)
    return _reduced(E.POW, a, None, k) or IntPow(a, k)


def sin(a):
    return _reduced(E.SIN, a) or Sin(a)


def cos(a):
    return _reduced(E.COS, a) or Cos(a)


def exp(a):
    return _reduced(E.EXP, a) or Exp(a)


def _rule(node, axis, d):
    """Partial of node along x<axis>, given d, the partials of its children."""
    kind = type(node)
    if kind is Const:
        return Const(0.0)
    if kind is Var:
        return Const(1.0 if node.axis == axis else 0.0)
    if kind is Add:
        return add(d[0], d[1])
    if kind is Mul:
        return add(mul(d[0], node.b), mul(node.a, d[1]))
    if kind is Div:
        num = add(mul(d[0], node.b), neg(mul(node.a, d[1])))
        return div(num, ipow(node.b, 2))
    if kind is Neg:
        return neg(d[0])
    if kind is IntPow:
        # d(a^k) = k * a^(k-1) * da; stays inside the grammar for any k
        return mul(mul(Const(node.k), ipow(node.a, node.k - 1)), d[0])
    if kind is Sin:
        return mul(cos(node.a), d[0])
    if kind is Cos:
        return neg(mul(sin(node.a), d[0]))
    if kind is Exp:
        return mul(exp(node.a), d[0])
    raise TypeError(f"no derivative rule for {kind.__name__}")


def diff(e, axis):
    """Exact partial derivative of e with respect to x<axis>."""
    if axis < 1:
        raise ValueError(f"axis must be >= 1, got {axis}")
    memo = {}  # node -> its partial; nodes hash by identity
    stack = [e]
    while stack:
        node = stack[-1]
        todo = [c for c in node.children if c not in memo]
        if todo:
            stack += todo
            continue
        stack.pop()
        memo[node] = _rule(node, axis, [memo[c] for c in node.children])
    return memo[e]
