import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import _oracles
from liftlab import expr as E
from liftlab.expr import (
    ParseError,
    SingularPointError,
    Tape,
    add,
    const,
    cos,
    diff,
    div,
    evaluate,
    exp,
    ipow,
    max_axis,
    mul,
    neg,
    parse,
    sin,
    sub,
    var,
)


# ---------------------------------------------------------------------------
# parsing and printing


def test_parse_evaluate_basic():
    assert evaluate(parse("2*x1*x2", 2), [3.0, 4.0]) == 24.0
    assert evaluate(parse("x1^2 - x2", 2), [3.0, 4.0]) == 5.0
    assert evaluate(parse("sin(x1)^2 + cos(x1)^2", 1), [0.73]) == pytest.approx(1.0)
    assert evaluate(parse("exp(0)", 1), [5.0]) == 1.0


def test_constant_folding():
    assert str(parse("2*3 + x1 - 0", 2)) == "6 + x1"
    assert str(parse("1*x1", 1)) == "x1"
    assert str(parse("0*x1 + x2", 2)) == "x2"
    assert str(parse("x1^1", 1)) == "x1"
    assert str(parse("x1^0", 1)) == "1"


def test_print_forms():
    assert str(parse("x1^-2", 2)) == "x1^-2"
    assert str(parse("-x1^2 + 3", 2)) == "-(x1^2) + 3"
    assert str(parse("sin(x1)*cos(x2)/x1", 2)) == "sin(x1)*cos(x2)/x1"


@pytest.mark.parametrize(
    "text,pos",
    [
        ("x3", 0),
        ("x0", 0),
        ("2*", 2),
        ("sin(x1", 6),
        ("", 0),
        ("2**x1", 2),
        ("x1 + + x2", 5),
        ("foo(x1)", 0),
    ],
)
def test_parse_errors_carry_position(text, pos):
    with pytest.raises(ParseError) as err:
        parse(text, 2)
    assert err.value.position == pos


def test_scientific_notation_numbers():
    assert evaluate(parse("1.2e-05*x1", 1), [3.0]) == pytest.approx(3.6e-05)
    assert evaluate(parse("2E2", 1), [0.0]) == 200.0


def test_max_axis():
    assert max_axis(parse("x1 + sin(x2)*x1", 2)) == 2
    assert max_axis(parse("3.5", 4)) == 0


# ---------------------------------------------------------------------------
# evaluation semantics


def test_batch_value():
    e = parse("x1*x2", 2)
    got = e.value(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert got.tolist() == [2.0, 12.0]


def test_singular_point_reports_subtree():
    with pytest.raises(SingularPointError) as err:
        evaluate(parse("1/(x1-1)", 1), [1.0])
    assert str(err.value.subtree) == "1/(x1 + -1)"

    with pytest.raises(SingularPointError) as err:
        evaluate(parse("x1^-1 + x1", 1), [0.0])
    assert str(err.value.subtree) == "x1^-1"


def test_division_evaluates_away_from_poles():
    assert evaluate(parse("cos(x1)/sin(x1)", 1), [0.5]) == pytest.approx(
        1.0 / math.tan(0.5)
    )


# ---------------------------------------------------------------------------
# derivatives


def test_diff_frozen_rules():
    assert str(diff(parse("x1^3", 1), 1)) == "3*x1^2"
    assert str(diff(parse("sin(x1)", 1), 1)) == "cos(x1)"
    assert str(diff(parse("exp(x1^2)", 1), 1)) == "exp(x1^2)*(2*x1)"
    assert str(diff(parse("x1/x2", 2), 2)) == "-x1/x2^2"
    assert str(diff(parse("x1*x2", 2), 3)) == "0"


def test_diff_quotient_value():
    e = parse("sin(x1)/(x2 + 2)", 2)
    p = [0.8, 0.3]
    assert evaluate(diff(e, 1), p) == pytest.approx(math.cos(0.8) / 2.3)
    assert evaluate(diff(e, 2), p) == pytest.approx(-math.sin(0.8) / 2.3**2)


def test_deep_expressions_differentiate_and_evaluate():
    # 1501 terms nest 1501 Add nodes deep, past the interpreter's
    # recursion limit: diff and evaluation must not recurse per level
    e = parse("x1*x2" + " + x1*x2" * 1500, 2)
    assert evaluate(diff(e, 1), [0.5, 0.7]) == pytest.approx(1501 * 0.7)
    assert evaluate(e, [0.5, 0.7]) == pytest.approx(1501 * 0.35)


def test_numeric_partial_matches_symbolic():
    e = parse("exp(x1)*sin(x2) + x1^3", 2)
    p = [0.4, 1.1]
    for ax in (1, 2):
        sym = evaluate(diff(e, ax), p)
        assert _oracles.fd_partial(e.value, p, ax) == pytest.approx(sym, rel=1e-8)


# ---------------------------------------------------------------------------
# property-based checks

DIM = 2

_consts = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False).map(const)
_vars = st.integers(min_value=1, max_value=DIM).map(var)


def _extend(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        children.map(neg),
        children.map(sin),
        children.map(cos),
        children.map(lambda a: ipow(a, 2)),
        pairs.map(lambda ab: add(*ab)),
        pairs.map(lambda ab: sub(*ab)),
        pairs.map(lambda ab: mul(*ab)),
    )


_exprs = st.recursive(_consts | _vars, _extend, max_leaves=6)
_points = st.tuples(
    st.floats(min_value=0.4, max_value=1.1),
    st.floats(min_value=0.4, max_value=1.1),
).map(lambda t: np.asarray(t))


@given(e=_exprs, p=_points, ax=st.integers(min_value=1, max_value=DIM))
@settings(max_examples=150, deadline=None)
def test_symbolic_derivative_matches_finite_difference(e, p, ax):
    sym = evaluate(diff(e, ax), p)
    assume(abs(sym) < 1e4 and abs(evaluate(e, p)) < 1e4)
    fd = _oracles.fd_partial(e.value, p, ax)
    assert abs(sym - fd) <= 1e-6 * max(1.0, abs(sym))


@given(e=_exprs, p=_points)
@settings(max_examples=100, deadline=None)
def test_mixed_partials_commute(e, p):
    a = evaluate(diff(diff(e, 1), 2), p)
    b = evaluate(diff(diff(e, 2), 1), p)
    assume(abs(a) < 1e6)
    assert a == pytest.approx(b, rel=1e-10, abs=1e-10)


@given(e=_exprs, f=_exprs, p=_points, ax=st.integers(min_value=1, max_value=DIM))
@settings(max_examples=100, deadline=None)
def test_derivative_linearity(e, f, p, ax):
    lhs = evaluate(diff(add(e, f), ax), p)
    rhs = evaluate(diff(e, ax), p) + evaluate(diff(f, ax), p)
    assume(abs(rhs) < 1e6)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@given(e=_exprs, p=_points)
@settings(max_examples=100, deadline=None)
def test_printer_parse_round_trip(e, p):
    val = evaluate(e, p)
    assume(math.isfinite(val) and abs(val) < 1e8)
    again = evaluate(parse(str(e), DIM), p)
    assert again == pytest.approx(val, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# the compiled tape against a tree-walking reference


def _reference(e, p):
    """Evaluate e by walking its tree, one NumPy operation per node, as
    the tape must; p has shape (..., n)."""
    kind = type(e)
    if kind is E.Const:
        return np.float64(e.c)
    if kind is E.Var:
        return p[..., e.axis - 1]
    if kind is E.Neg:
        return -_reference(e.a, p)
    if kind is E.IntPow:
        return np.power(_reference(e.a, p), e.k)
    if kind in (E.Sin, E.Cos, E.Exp):
        return {E.Sin: np.sin, E.Cos: np.cos, E.Exp: np.exp}[kind](_reference(e.a, p))
    a, b = _reference(e.a, p), _reference(e.b, p)
    return {E.Add: np.add, E.Mul: np.multiply, E.Div: np.divide}[kind](a, b)


def _bits(values, shape):
    return np.broadcast_to(np.asarray(values, dtype=np.float64), shape).view(np.int64)


def _struct_key(e):
    payload = {"Const": lambda: struct.pack("d", e.c), "Var": lambda: e.axis,
               "IntPow": lambda: e.k}.get(type(e).__name__, lambda: None)()
    return (type(e).__name__, payload) + tuple(_struct_key(c) for c in e.children)


def _structurally_unique(exprs):
    seen = set()
    stack = list(exprs)
    while stack:
        node = stack.pop()
        seen.add(_struct_key(node))
        stack.extend(node.children)
    return len(seen)


_INF = mul(const(1e308), const(10.0))  # folds to Const(inf)
_SPECIAL = st.sampled_from(
    [const(0.0), const(-0.0), _INF, neg(_INF), add(_INF, neg(_INF))]
)


def _tape_extend(children):
    pairs = st.tuples(children, children)
    # sin, cos, exp and ^ through the node classes: their smart
    # constructors fold with math, which raises on some non-finite inputs
    return st.one_of(
        children.map(neg),
        children.map(E.Sin),
        children.map(E.Cos),
        children.map(E.Exp),
        st.tuples(children, st.integers(min_value=-3, max_value=3)).map(lambda t: E.IntPow(*t)),
        pairs.map(lambda ab: add(*ab)),
        pairs.map(lambda ab: mul(*ab)),
        pairs.map(lambda ab: div(*ab)),
        pairs.map(lambda ab: E.Add(*ab)),  # unfolded, constants may meet
        children.map(lambda a: mul(a, a)),  # one node in both argument slots
        pairs.map(lambda ab: mul(ab[0], add(ab[0], ab[1]))),  # shared subtree
    )


_tape_exprs = st.recursive(_consts | _vars | _SPECIAL, _tape_extend, max_leaves=8)
_batch_shapes = st.sampled_from([(), (3,), (2, 3)])


@given(
    exprs=st.lists(_tape_exprs, min_size=1, max_size=4),
    shape=_batch_shapes,
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=150, deadline=None)
def test_tape_matches_tree_walk_bit_for_bit(exprs, shape, seed):
    points = np.random.default_rng(seed).uniform(-1.5, 1.5, size=shape + (DIM,))
    tape = Tape(exprs)
    got = tape(points)
    assert got.shape == shape + (len(exprs),)
    with np.errstate(all="ignore"):
        for r, e in enumerate(exprs):
            assert np.array_equal(_bits(got[..., r], shape), _bits(_reference(e, points), shape))
    assert len(tape) == _structurally_unique(exprs)


def test_tape_shares_equal_subtrees():
    x1, x2 = var(1), var(2)
    s = sin(mul(x1, x2))
    again = sin(mul(var(1), var(2)))  # equal in structure, distinct objects
    exprs = [add(s, s), mul(s, x1), cos(again)]
    tape = Tape(exprs)
    # x1, x2, x1*x2, sin, s + s, s*x1, cos
    assert len(tape) == 7 == _structurally_unique(exprs)
    for shape in [(), (4,), (2, 3)]:
        points = np.random.default_rng(len(shape)).uniform(0.2, 1.5, size=shape + (2,))
        want = [_reference(e, points) for e in exprs]
        assert np.array_equal(_bits(tape(points), shape + (3,)),
                              _bits(np.stack(np.broadcast_arrays(*want), -1), shape + (3,)))


def test_tape_keeps_distinct_nodes_apart():
    x1, x2 = var(1), var(2)
    exprs = [ipow(x1, 2), ipow(x1, 3), mul(x1, x2), div(x1, x2), div(x2, x1),
             add(x1, x2), add(x2, x1), sin(x1), cos(x1), exp(x1), neg(x1)]
    tape = Tape(exprs)
    assert len(tape) == 2 + len(exprs) == _structurally_unique(exprs)
    points = np.random.default_rng(4).uniform(0.2, 1.5, size=(5, 2))
    got = tape(points)
    for r, e in enumerate(exprs):
        assert np.array_equal(_bits(got[:, r], (5,)), _bits(_reference(e, points), (5,)))


def test_tape_keeps_signed_zeros_and_non_finite_constants_apart():
    inf = _INF
    assert isinstance(inf, E.Const) and inf.c == math.inf
    nan = add(inf, neg(inf))
    assert isinstance(nan, E.Const) and math.isnan(nan.c)
    exprs = [const(0.0), const(-0.0), inf, neg(inf), nan, add(inf, neg(inf)), const(0.0)]
    tape = Tape(exprs)
    assert len(tape) == 5  # the repeated nan and 0.0 share a slot
    got = tape(np.zeros((3, 2)))
    for r, e in enumerate(exprs):
        assert np.array_equal(_bits(got[:, r], (3,)), _bits(e.c, (3,)))
    assert tape.outputs[0] != tape.outputs[1]


def test_tape_values_for_one_point_and_batches_agree():
    e = parse("sin(x1)*exp(x2)/(x1 + x2) - x1^-2", 2)
    points = np.random.default_rng(9).uniform(0.2, 1.5, size=(4, 3, 2))
    batch = Tape([e])(points)[..., 0]
    one = [[Tape([e])(p)[0] for p in row] for row in points]
    assert np.array_equal(batch, np.array(one))
