import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import _oracles
from liftlab.expr import (
    ParseError,
    SingularPointError,
    add,
    const,
    cos,
    diff,
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
