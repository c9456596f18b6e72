"""Exact oracle: sympy differentiates the same expressions and evaluates
them at rational points, independently of the Taylor jets of the tape.

Every jet rule multiplies at most two jet entries, so its rounding error
scales with the square of the largest entry it reads.  The term scale T
of an expression at a point is the largest exact value, first or second
partial over all of its subexpressions (at least 1; expressions with an
exact pole anywhere inside are skipped), and the jets must agree with
sympy within 64 ulps of T^2.  Curvature and the Nijenhuis
tensor are products of first partials and values of their inputs, so
they get the same bound over the inputs' jets.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liftlab import expr as E
from liftlab.bundle import nijenhuis
from liftlab.expr import Tape
from liftlab.tensor import ConnectionField, EndomorphismField, curvature

sympy = pytest.importorskip("sympy")

X = sympy.symbols("x1:5")
ULPS = 64 * np.finfo(float).eps


def to_sympy(e):
    """The same expression in sympy, with its float constants exact."""
    kind = type(e)
    if kind is E.Const:
        return sympy.Rational(e.c)
    if kind is E.Var:
        return X[e.axis - 1]
    if kind is E.IntPow:
        return to_sympy(e.a) ** e.k
    if kind in (E.Neg, E.Sin, E.Cos, E.Exp):
        f = {E.Neg: lambda a: -a, E.Sin: sympy.sin, E.Cos: sympy.cos, E.Exp: sympy.exp}[kind]
        return f(to_sympy(e.a))
    a, b = to_sympy(e.a), to_sympy(e.b)
    return {E.Add: a + b, E.Mul: a * b, E.Div: a / b}[kind]


def exact_jets(s, point, n):
    """Value, gradient and Hessian of a sympy expression at a rational point."""
    at = dict(zip(X, point))

    def num(t):
        try:
            return float(t.subs(at).evalf(40))
        except TypeError:  # a pole of the exact expression (zoo, nan)
            return math.inf

    grad = [sympy.diff(s, X[a]) for a in range(n)]
    hess = [[num(sympy.diff(g, X[b])) for b in range(n)] for g in grad]
    return num(s), np.array([num(g) for g in grad]), np.array(hess)


def term_scale(e, point, n):
    seen, stack, top = set(), [e], 1.0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.children)
        v, g, h = exact_jets(to_sympy(node), point, n)
        top = max(top, abs(v), np.max(np.abs(g)), np.max(np.abs(h)))
    return top


def _extend(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        children.map(E.neg),
        children.map(E.Sin),
        children.map(E.Cos),
        children.map(E.Exp),
        st.tuples(children, st.integers(min_value=-3, max_value=3)).map(lambda t: E.IntPow(*t)),
        pairs.map(lambda ab: E.add(*ab)),
        pairs.map(lambda ab: E.mul(*ab)),
        pairs.map(lambda ab: E.div(*ab)),
    )


# dyadic constants and points are exact rationals in binary floating point
_dyadic = st.integers(min_value=-24, max_value=24).map(lambda k: k / 16)
_exprs = st.recursive(
    _dyadic.map(E.const) | st.integers(min_value=1, max_value=2).map(E.var), _extend, max_leaves=5
)
_points = st.tuples(*[st.integers(min_value=6, max_value=18).map(lambda k: k / 16)] * 2)


@given(e=_exprs, point=_points)
@settings(max_examples=40, deadline=None)
def test_jets_match_sympy_exactly(e, point):
    with np.errstate(all="ignore"):
        got = [a[..., 0] for a in Tape([e]).jets(np.array(point), 2)]
    assume(all(np.all(np.isfinite(a)) for a in got))
    scale = term_scale(e, point, 2)  # inf where a subexpression has a pole
    assume(scale < 1e4)
    want = exact_jets(to_sympy(e), point, 2)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= ULPS * scale**2


def _random_component(rng, n):
    """A dyadic polynomial of degree 2 plus a sine term, as text."""
    terms = [f"{rng.integers(-8, 9) / 8}"]
    terms += [f"{rng.integers(-8, 9) / 8}*x{i}" for i in range(1, n + 1)]
    i, j = rng.integers(1, n + 1, size=2)
    terms += [f"{rng.integers(-8, 9) / 8}*x{i}*x{j}", f"{rng.integers(-4, 5) / 8}*sin(x{j})"]
    return " + ".join(terms)


def _field_scale(field, point):
    """Largest exact value or first partial among a field's components."""
    top = 1.0
    for c in field.comps:
        v, g, _ = exact_jets(to_sympy(c), point, field.n)
        top = max(top, abs(v), np.max(np.abs(g)))
    return top


@pytest.mark.parametrize("n,seed", [(2, 1), (2, 2), (3, 3)])
def test_curvature_matches_sympy(n, seed):
    rng = np.random.default_rng(seed)
    comps = {}
    for h in range(1, n + 1):
        for j in range(1, n + 1):
            for i in range(j, n + 1):
                comps[(h, j, i)] = comps[(h, i, j)] = _random_component(rng, n)
    gamma = ConnectionField(n, comps)
    g = np.empty((n, n, n), dtype=object)
    for idx in np.ndindex(g.shape):
        g[idx] = to_sympy(gamma.comps[np.ravel_multi_index(idx, g.shape)])
    point = tuple(rng.integers(4, 24, size=n) / 16)
    at = dict(zip(X, point))
    got = curvature(gamma).evaluate(np.array(point))
    scale = _field_scale(gamma, point)
    r = range(n)
    for k, j, i, l in np.ndindex((n,) * 4):
        exact = (
            sympy.diff(g[l, j, i], X[k]) - sympy.diff(g[l, k, i], X[j])
            + sum(g[l, k, m] * g[m, j, i] - g[l, j, m] * g[m, k, i] for m in r)
        )
        want = float(exact.subs(at).evalf(40))
        assert abs(got[k, j, i, l] - want) <= ULPS * n * scale**2


@pytest.mark.parametrize("n,seed", [(2, 4), (3, 5)])
def test_nijenhuis_matches_sympy(n, seed):
    rng = np.random.default_rng(seed)
    phi = EndomorphismField(n, [[_random_component(rng, n) for _ in range(n)] for _ in range(n)])
    f = np.empty((n, n), dtype=object)
    for idx in np.ndindex(f.shape):
        f[idx] = to_sympy(phi.comps[np.ravel_multi_index(idx, f.shape)])
    point = tuple(rng.integers(4, 24, size=n) / 16)
    at = dict(zip(X, point))
    got = nijenhuis(phi).evaluate(np.array(point))
    scale = _field_scale(phi, point)
    r = range(n)
    for l, j, k in np.ndindex((n,) * 3):
        exact = sum(
            f[m, j] * sympy.diff(f[l, k], X[m]) - f[m, k] * sympy.diff(f[l, j], X[m])
            - f[l, m] * (sympy.diff(f[m, k], X[j]) - sympy.diff(f[m, j], X[k]))
            for m in r
        )
        want = float(exact.subs(at).evalf(40))
        assert abs(got[l, j, k] - want) <= ULPS * 4 * n * scale**2
