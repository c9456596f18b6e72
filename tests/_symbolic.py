"""Symbolic differentiation of expression trees, kept on the test side
as the exact reference for the Taylor rules of Tape.jets.

diff builds the partial of an expression as a new expression, one rule
per node type, through the smart constructors of liftlab.expr.  A memo
keyed by node identity differentiates a shared subtree once, and the
walk is iterative, so deep expressions do not hit the recursion limit.
"""

from liftlab import expr as E


def _rule(node, axis, d):
    """Partial of node along x<axis>, given d, the partials of its children."""
    kind = type(node)
    if kind is E.Const:
        return E.Const(0.0)
    if kind is E.Var:
        return E.Const(1.0 if node.axis == axis else 0.0)
    if kind is E.Add:
        return E.add(d[0], d[1])
    if kind is E.Mul:
        return E.add(E.mul(d[0], node.b), E.mul(node.a, d[1]))
    if kind is E.Div:
        num = E.add(E.mul(d[0], node.b), E.neg(E.mul(node.a, d[1])))
        return E.div(num, E.ipow(node.b, 2))
    if kind is E.Neg:
        return E.neg(d[0])
    if kind is E.IntPow:
        # d(a^k) = k * a^(k-1) * da; stays inside the grammar for any k
        return E.mul(E.mul(E.Const(node.k), E.ipow(node.a, node.k - 1)), d[0])
    if kind is E.Sin:
        return E.mul(E.cos(node.a), d[0])
    if kind is E.Cos:
        return E.neg(E.mul(E.sin(node.a), d[0]))
    if kind is E.Exp:
        return E.mul(E.exp(node.a), d[0])
    raise TypeError(f"no derivative rule for {kind.__name__}")


def diff(e, axis):
    """Exact partial derivative of e with respect to x<axis>."""
    if axis < 1:
        raise ValueError(f"axis must be >= 1, got {axis}")
    memo = {}  # node -> its partial; nodes hash by identity
    for node in E._postorder(e, memo):
        memo[node] = _rule(node, axis, [memo[c] for c in node.children])
    return memo[e]
