import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import _oracles
import _reference_parser as ref
import _symbolic as S
from _fields import generic_scenario, random_polynomial_expr
from _symbolic import add, const, cos, diff, div, exp, ipow, mul, neg, sin, sub, var
from liftlab import expr as E
from liftlab.expr import ParseError, SingularPointError, Tape, parse
from liftlab.tensor import CovariantField


def _at(e, point):
    """e at one point, through a tape of its text."""
    return float(S.tape([e], len(point))(point)[0])


# ---------------------------------------------------------------------------
# parsing and printing


def test_parse_evaluate_basic():
    assert _at(parse("2*x1*x2", 2), [3.0, 4.0]) == 24.0
    assert _at(parse("x1^2 - x2", 2), [3.0, 4.0]) == 5.0
    assert _at(parse("sin(x1)^2 + cos(x1)^2", 1), [0.73]) == pytest.approx(1.0)
    assert _at(parse("exp(0)", 1), [5.0]) == 1.0


def test_constant_folding():
    assert str(parse("2*3 + x1 - 0", 2)) == "6 + x1"
    assert str(parse("1*x1", 1)) == "x1"
    assert str(parse("0*x1 + x2", 2)) == "x2"
    assert str(parse("x1^1", 1)) == "x1"
    assert str(parse("x1^0", 1)) == "1"


def test_print_forms():
    assert str(parse("x1^-2", 2)) == "x1^-2"
    assert str(parse("-x1^2 + 3", 2)) == "-x1^2 + 3"
    assert str(parse("sin(x1)*cos(x2)/x1", 2)) == "sin(x1)*cos(x2)/x1"


@pytest.mark.parametrize(
    "build",
    [lambda x: x + 1, lambda x: 2 * x, lambda x: x - x, lambda x: x / 2, lambda x: -x,
     lambda x: x**2],
)
def test_nodes_have_no_python_arithmetic(build):
    # nodes have no Python arithmetic; trees are built by parse,
    # Tape.tree and the constructors of _symbolic
    with pytest.raises(TypeError):
        build(var(1))


def test_random_polynomial_probe_tree_is_pinned():
    # the tree probe is built by the smart constructors in this order; its
    # printed form pins the reference the closed-form probes of
    # liftlab.presets.random_probe are compared against, and through them
    # every report of a drawn probe
    e = random_polynomial_expr(np.random.default_rng(0), 3)
    assert str(e) == (
        "0.1369616873214543 + -0.2302132862361297*x1 + -0.4590264760638053*x2"
        " + -0.4834723644714709*x3 + 0.3132702392002724*(x1*x1)"
        " + 0.4127555772777217*(x1*x2) + 0.10663577576717986*(x1*x3)"
        " + 0.2294965609839984*(x2*x2) + 0.04362499146542287*(x2*x3)"
        " + 0.4350724237877682*(x3*x3)"
    )


def test_parse_builds_repeated_subtrees_as_distinct_nodes():
    # the tree keeps both factors as their own nodes; only the tape merges
    # them, and the benchmark's expression counts read that difference
    e = parse("(x1 + 1)*(x1 + 1)", 1)
    assert type(e) is E.Mul
    a, b = e.children
    assert type(a) is type(b) is E.Add
    assert a is not b and str(a) == str(b) == "x1 + 1"


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


@pytest.mark.parametrize("text,pos", [("x١ + 1", 0), ("x1²", 0), ("x²", 0), ("1 + x1²", 4)])
def test_variable_names_take_ascii_digits_only(text, pos):
    # x١ (an Arabic-Indic one) is not x1, and x1² is not a power
    with pytest.raises(ParseError) as err:
        parse(text, 2)
    assert err.value.position == pos
    assert "unknown identifier" in str(err.value)


@pytest.mark.parametrize("text,pos", [("x" + "1" * 5000, 0), ("2*x" + "1" * 5000 + " + x1", 2),
                                      ("x" + "0" * 5000, 0), ("x00", 0), ("x03", 0)],
                         ids=["x1*5000", "2*x1*5000+x1", "x0*5000", "x00", "x03"])
def test_long_variable_names_out_of_range_carry_position(text, pos):
    # the axis is read as a digit string, never by int() of more than
    # 4,300 digits, which would raise a bare ValueError
    with pytest.raises(ParseError) as err:
        parse(text, 2)
    assert err.value.position == pos
    assert "out of range for dimension 2" in str(err.value)


@pytest.mark.parametrize("text", ["x01", "x" + "0" * 5000 + "1", "x" + "0" * 5000 + "2*x01"],
                         ids=["x01", "x0*5000+1", "x0*5000+2*x01"])
def test_leading_zeros_in_a_variable_name_are_ignored(text):
    assert str(parse(text, 2)) == str(parse(text.replace("0", ""), 2))


@pytest.mark.parametrize("text,pos", [("١ + 1", 0), ("x1^١", 3), ("١٢.5", 0)])
def test_numbers_take_ascii_digits_only(text, pos):
    # ١ (an Arabic-Indic one) is no number, neither as an operand nor as an exponent
    with pytest.raises(ParseError) as err:
        parse(text, 1)
    assert err.value.position == pos
    assert "unexpected character" in str(err.value)


@pytest.mark.parametrize(
    "text,pos", [("10^400*x1", 2), ("exp(1000)*x1", 0), ("1e999*x1", 0), ("1e308*10", 5)]
)
def test_constant_out_of_float_range_is_a_parse_error(text, pos):
    # at the literal, or at the operator whose fold leaves float range
    with pytest.raises(ParseError) as err:
        parse(text, 1)
    assert err.value.position == pos
    assert "out of float range" in str(err.value)


@pytest.mark.parametrize(
    "text,pos,message",
    [
        ("x1 + + é", 5, "unexpected '+'"),
        ("2 * 1..5 é", 4, "malformed number '1..5'"),
        ("x1 $ 1..5", 3, "unexpected character '$'"),
    ],
)
def test_first_of_two_errors_is_reported(text, pos, message):
    with pytest.raises(ParseError) as err:
        parse(text, 2)
    assert err.value.position == pos
    assert str(err.value) == f"{message} (at position {pos})"


@pytest.mark.parametrize(
    "text,pos,message",
    [
        ("x1^1..2", 3, "malformed number '1..2'"),
        ("x1^-1..2", 4, "malformed number '1..2'"),
        ("x1^1e999", 3, "number '1e999' out of float range"),
        ("sin 1..2", 4, "malformed number '1..2'"),
        ("sin 1e999", 4, "number '1e999' out of float range"),
        ("x1^$", 3, "unexpected character '$'"),
        ("sin $", 4, "unexpected character '$'"),
        ("x1 ^ 2 1e999", 7, "number '1e999' out of float range"),
        ("  ", 2, "unexpected end of input"),
        ("x1 +\n", 5, "unexpected end of input"),
    ],
)
def test_a_bad_number_or_character_reports_itself_where_the_parser_stops(text, pos, message):
    # where the parser expects an exponent, a '(' or an operator, a token
    # that is no valid number or character names itself, not what was expected
    with pytest.raises(ParseError) as err:
        parse(text, 2)
    assert err.value.position == pos
    assert str(err.value) == f"{message} (at position {pos})"


@pytest.mark.parametrize("sign", ["", "-"])
def test_exponents_of_any_length_are_read(sign):
    # int() refuses more than 4,300 digits; leading zeros are not digits of the exponent
    assert str(parse(f"x1^{sign}" + "0" * 5000 + "2", 2)) == f"x1^{sign}2"
    with pytest.raises(ParseError) as err:
        parse(f"x1^{sign}" + "9" * 5000, 2)
    assert str(err.value) == f"number '{'9' * 5000}' out of float range (at position {3 + len(sign)})"


_NUMBERS = ["0", "1", "2", "3", "0.5", ".5", "2.", "3e2", "1e-3", "1E+2", "1e308", "1..2", "1e999",
            "007", "0002", "."]
_NAMES = ["x0", "x1", "x2", "x3", "x4", "x5", "x03", "x", "x١", "é", "foo", "sin", "cos", "exp"]
_GAPS = st.sampled_from(["", "", " ", "\t", "\n"])
# any run of lexemes, with or without whitespace between them: mostly errors
_token_texts = st.tuples(
    st.lists(st.tuples(_GAPS, st.sampled_from(_NUMBERS + _NAMES + list("+-*/^()$,"))).map("".join),
             max_size=12).map("".join),
    _GAPS,
).map("".join)
# expressions by the grammar, over mostly valid leaves
_VALID_LEAVES = st.sampled_from(["0", "1", "2", "0.5", ".5", "2.", "3e2", "1e-3", "1E+2", "1e308",
                                 "007", "x1", "x2", "x3", "x03"])
_operand_texts = st.recursive(
    _VALID_LEAVES | _VALID_LEAVES | st.sampled_from(_NUMBERS + _NAMES),
    lambda c: st.one_of(
        st.tuples(c, st.sampled_from(["+", "-", "*", "/"]), c).map(" ".join),
        c.map("-{}".format), c.map("({})".format),
        st.tuples(st.sampled_from(["sin", "cos", "exp"]), c).map("{0[0]}({0[1]})".format),
        st.tuples(c, st.sampled_from(["2", "-1", "0", "1", "3", "-2", "002", "2.5", "1..2"]))
        .map("({0[0]})^{0[1]}".format),
    ),
    max_leaves=10,
)


@given(text=st.one_of(_token_texts, _operand_texts), n=st.integers(min_value=1, max_value=4))
@settings(max_examples=300, deadline=None)
def test_the_parser_builds_the_slots_of_the_reference_parser(text, n):
    # the same slots and constant bits as the token-list parser it
    # replaced, or the same ParseError message and position
    got, want = E._Builder(), ref.ReferenceBuilder()
    try:
        expected = ref.parse(want, text, n)
    except ParseError as err:
        with pytest.raises(ParseError) as raised:
            E._parse(got, text, n)
        assert (str(raised.value), raised.value.position) == (str(err), err.position)
        return
    assert E._parse(got, text, n) == expected
    assert (got.ops, got.args_a, got.args_b) == (want.ops, want.args_a, want.args_b)
    assert [struct.pack("d", c) for c in got.consts] == [struct.pack("d", c) for c in want.consts]


def test_scientific_notation_numbers():
    assert _at(parse("1.2e-05*x1", 1), [3.0]) == pytest.approx(3.6e-05)
    assert _at(parse("2E2", 1), [0.0]) == 200.0


def test_a_tape_takes_text_and_numbers_only():
    # a tree goes in as its text
    with pytest.raises(TypeError, match="cannot use Var as an expression; give its text"):
        Tape([parse("x1", 1)])
    got = Tape([(str(parse("x1", 1)), 1), 2, 0.5])([0.25])
    assert got.tolist() == [0.25, 2.0, 0.5]


def test_a_right_nested_sum_prints_its_parentheses():
    # x1 + x2 + x3 adds from the left and rounds differently here
    text = "x1 + (x2 + x3)"
    e = parse(text, 3)
    assert str(e) == text
    p = [0.1, 0.2, 0.3]
    assert Tape([(str(e), 3)])(p).tobytes() == Tape([(text, 3)])(p).tobytes()
    assert Tape([("x1 + x2 + x3", 3)])(p).tobytes() != Tape([(text, 3)])(p).tobytes()


def test_printing_keeps_the_nesting_of_the_source():
    # -x1^2 reads as -(x1^2), so a negated power prints without
    # parentheses and the print nests no deeper than the text
    text = "-(" * 150 + "x1" + ")^2" * 150
    printed = str(parse(text, 1))
    assert printed.count("(") < 150
    assert str(parse(printed, 1)) == printed
    assert len(Tape([(printed, 1)])) == len(Tape([(text, 1)]))


@pytest.mark.parametrize("text", ["x1" + "^2" * 10_000, "x1^-1^2^-3", "(-0)^-2 + x1"],
                         ids=["chain of 10000", "negative exponents", "negative zero base"])
def test_powers_print_as_they_parse(text):
    # ^ reads from the left, so a power of a power needs no parentheses,
    # and a negative constant as a base keeps its own: -0^-2 is -(0^-2)
    e = parse(text, 1)
    assert str(e) == text
    assert len(Tape([(str(e), 1)])) == len(Tape([(text, 1)]))
    with np.errstate(all="ignore"):
        assert Tape([(str(e), 1)])([0.7]).tobytes() == Tape([(text, 1)])([0.7]).tobytes()


# ---------------------------------------------------------------------------
# evaluation semantics


def test_batch_value():
    got = Tape([("x1*x2", 2)])(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert got.tolist() == [[2.0], [12.0]]


def test_singular_point_reports_subtree():
    # the field's error names the innermost non-finite subtree of its component
    with pytest.raises(SingularPointError) as err:
        CovariantField(1, 1, ["1/(x1-1)"]).evaluate([1.0])
    assert str(err.value.subtree) == "1/(x1 + -1)"

    with pytest.raises(SingularPointError) as err:
        CovariantField(1, 1, ["x1^-1 + x1"]).evaluate([0.0])
    assert str(err.value.subtree) == "x1^-1"


def test_division_evaluates_away_from_poles():
    assert _at(parse("cos(x1)/sin(x1)", 1), [0.5]) == pytest.approx(
        1.0 / math.tan(0.5)
    )


# ---------------------------------------------------------------------------
# derivatives: the Taylor jets of the tape, and the symbolic reference


def _value(e, n):
    """e over x1..xn as a callable of one point, through its tape."""
    compiled = S.tape([e], n)
    return lambda p: compiled(p)[0]


def _partial(e, p, ax):
    """d e / d x<ax> at the point p, from the tape's first-order jets."""
    return float(S.tape([e], len(p)).jets(np.asarray(p, dtype=np.float64), 1)[1][ax - 1, 0])


def test_diff_frozen_rules():
    assert str(diff(parse("x1^3", 1), 1)) == "3*x1^2"
    assert str(diff(parse("sin(x1)", 1), 1)) == "cos(x1)"
    assert str(diff(parse("exp(x1^2)", 1), 1)) == "exp(x1^2)*(2*x1)"
    assert str(diff(parse("x1/x2", 2), 2)) == "-x1/x2^2"
    assert str(diff(parse("x1*x2", 2), 3)) == "0"


def test_diff_quotient_value():
    e = parse("sin(x1)/(x2 + 2)", 2)
    p = [0.8, 0.3]
    assert _partial(e, p, 1) == pytest.approx(math.cos(0.8) / 2.3)
    assert _partial(e, p, 2) == pytest.approx(-math.sin(0.8) / 2.3**2)


def test_deep_expressions_differentiate_and_evaluate():
    # 1501 terms nest 1501 Add nodes deep, past the interpreter's
    # recursion limit: jets and evaluation must not recurse per level
    e = parse("x1*x2" + " + x1*x2" * 1500, 2)
    assert _partial(e, [0.5, 0.7], 1) == pytest.approx(1501 * 0.7)
    assert _at(e, [0.5, 0.7]) == pytest.approx(1501 * 0.35)


_NESTED = {
    "parentheses": (lambda d: "(" * d + "x1" + ")" * d, 1),
    "calls": (lambda d: "sin(" * d + "x1" + ")" * d, 4),
}


@pytest.mark.parametrize("depth", [150, E.MAX_NESTING, E.MAX_NESTING + 1, 1000, 10_000])
@pytest.mark.parametrize("form", sorted(_NESTED))
def test_nesting_past_the_limit_is_a_parse_error(form, depth):
    assert E.MAX_NESTING >= 100
    write, width = _NESTED[form]
    if depth <= E.MAX_NESTING:
        e = parse(write(depth), 1)
        want = 0.7
        for _ in range(depth if form == "calls" else 0):
            want = math.sin(want)
        assert _at(e, [0.7]) == want
        assert str(parse(str(e), 1)) == str(e)
        return
    # at the token that opens one level more than the limit
    with pytest.raises(ParseError) as err:
        parse(write(depth), 1)
    assert str(err.value) == (
        f"expression nested too deeply (at position {width * E.MAX_NESTING})")


@pytest.mark.parametrize("depth", [150, 1000, 10_000])
def test_unary_minus_runs_of_any_length_parse(depth):
    e = parse("-" * depth + "x1", 1)  # neg(neg(a)) folds to a
    assert str(e) == ("-x1" if depth % 2 else "x1")
    assert str(parse("x2*" + "-" * depth + "(x1 + 1)", 2)) == str(
        parse(f"x2*{'-' if depth % 2 else ''}(x1 + 1)", 2))


_CHAINS = {
    "sums": "x1" + " + x1" * 10_000,
    "powers": "x1" + "^2" * 10_000,
    "differences": "-(" * 200 + "x1" + " - x2)" * 200,
    "calls of a sum": "sin(" * 256 + "x1*x2" + " + x1" * 5000 + ")" * 256,
}


@pytest.mark.parametrize("form", sorted(_CHAINS))
def test_deep_trees_render_and_print_without_recursion(form):
    # chains nest as deep as the text is long: rendering, printing,
    # parsing the print and releasing the tree keep their own stacks
    e = parse(_CHAINS[form], 2)
    printed = str(e)
    if form == "powers":  # a chain of powers prints as it is written
        assert printed == "x1" + "^2" * 10_000
    assert str(parse(printed, 2)) == printed
    assert len(Tape([(printed, 2)])) == len(Tape([(_CHAINS[form], 2)]))
    del e


def test_numeric_partial_matches_symbolic():
    e = parse("exp(x1)*sin(x2) + x1^3", 2)
    p = [0.4, 1.1]
    for ax in (1, 2):
        sym = _partial(e, p, ax)
        assert _oracles.fd_partial(_value(e, 2), p, ax) == pytest.approx(sym, rel=1e-8)


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
    sym = _partial(e, p, ax)
    assume(abs(sym) < 1e4 and abs(_at(e, p)) < 1e4)
    fd = _oracles.fd_partial(_value(e, DIM), p, ax)
    assert abs(sym - fd) <= 1e-6 * max(1.0, abs(sym))


@given(e=_exprs, p=_points)
@settings(max_examples=100, deadline=None)
def test_mixed_partials_commute(e, p):
    hess = S.tape([e], DIM).jets(p, 2)[2][..., 0]
    a, b = hess[0, 1], hess[1, 0]
    assume(abs(a) < 1e6)
    assert a == pytest.approx(b, rel=1e-10, abs=1e-10)


@given(e=_exprs, f=_exprs, p=_points, ax=st.integers(min_value=1, max_value=DIM))
@settings(max_examples=100, deadline=None)
def test_derivative_linearity(e, f, p, ax):
    lhs = _partial(add(e, f), p, ax)
    rhs = _partial(e, p, ax) + _partial(f, p, ax)
    assume(abs(rhs) < 1e6)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@given(e=_exprs, p=_points)
@settings(max_examples=100, deadline=None)
def test_printer_parse_round_trip(e, p):
    # printing a folded tree is a fixed point of parsing, and its tape
    # evaluates as the tree walk does, bit for bit
    assert str(parse(str(e), DIM)) == str(e)
    with np.errstate(all="ignore"):
        assert _bits(_at(e, p), ()) == _bits(_reference(e, p), ())


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


def tape_of(exprs):
    """The tape of trees over x1..x<DIM>, compiled through their text."""
    return S.tape(exprs, DIM)


def _bits(values, shape):
    return np.broadcast_to(np.asarray(values, dtype=np.float64), shape).view(np.int64)


def _struct_key(e):
    payload = {"Const": lambda: struct.pack("d", e.c), "Var": lambda: e.axis,
               "IntPow": lambda: e.k}.get(type(e).__name__, lambda: None)()
    return (type(e).__name__, payload) + tuple(_struct_key(c) for c in e.children)


def _nodes(exprs):
    """Every node of the trees, once per path to it."""
    stack = list(exprs)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


def _structurally_unique(exprs):
    return len({_struct_key(node) for node in _nodes(exprs)})


def _folding(build):
    """build over trees, None where an argument is None or where its
    constant fold leaves float range: a draw the test discards."""
    def built(*args):
        if any(a is None for a in args):
            return None
        try:
            e = build(*args)
        except OverflowError:
            return None
        finite = all(math.isfinite(n.c) for n in _nodes([e]) if type(n) is E.Const)
        return e if finite else None
    return built


def _tape_extend(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        children.map(_folding(neg)),
        children.map(_folding(sin)),
        children.map(_folding(cos)),
        children.map(_folding(exp)),
        st.tuples(children, st.integers(min_value=-3, max_value=3)).map(
            lambda t: _folding(ipow)(*t)),
        pairs.map(lambda ab: _folding(add)(*ab)),
        pairs.map(lambda ab: _folding(mul)(*ab)),
        pairs.map(lambda ab: _folding(div)(*ab)),
        children.map(lambda a: _folding(mul)(a, a)),  # one node in both argument slots
        pairs.map(lambda ab: _folding(lambda a, b: mul(a, add(a, b)))(*ab)),  # shared subtree
    )


_signed_zeros = st.sampled_from([const(0.0), const(-0.0)])
_tape_exprs = st.recursive(_consts | _vars | _signed_zeros, _tape_extend, max_leaves=8)
_batch_shapes = st.sampled_from([(), (3,), (2, 3)])


@given(
    exprs=st.lists(_tape_exprs, min_size=1, max_size=4),
    shape=_batch_shapes,
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=150, deadline=None)
def test_tape_matches_tree_walk_bit_for_bit(exprs, shape, seed):
    # trees of the test-side constructors, compiled through their text
    assume(None not in exprs)
    points = np.random.default_rng(seed).uniform(-1.5, 1.5, size=shape + (DIM,))
    tape = tape_of(exprs)
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
    tape = tape_of(exprs)
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
    tape = tape_of(exprs)
    assert len(tape) == 2 + len(exprs) == _structurally_unique(exprs)
    points = np.random.default_rng(4).uniform(0.2, 1.5, size=(5, 2))
    got = tape(points)
    for r, e in enumerate(exprs):
        assert np.array_equal(_bits(got[:, r], (5,)), _bits(_reference(e, points), (5,)))


def test_tape_keeps_signed_zeros_and_non_finite_constants_apart():
    # zeros as text, the non-finite constants as numbers: no text folds to one
    exprs = [("0", 2), ("-0", 2), math.inf, -math.inf, math.nan, math.nan, ("0", 2), ("-(0)", 2)]
    want = [0.0, -0.0, math.inf, -math.inf, math.nan, math.nan, 0.0, -0.0]
    tape = Tape(exprs)
    assert len(tape) == 5  # the repeated nan, 0 and -0 share a slot
    got = tape(np.zeros((3, 2)))
    for r, c in enumerate(want):
        assert np.array_equal(_bits(got[:, r], (3,)), _bits(c, (3,)))
    assert tape.outputs[0] != tape.outputs[1]


def test_tape_values_for_one_point_and_batches_agree():
    tape = Tape([("sin(x1)*exp(x2)/(x1 + x2) - x1^-2", 2)])
    points = np.random.default_rng(9).uniform(0.2, 1.5, size=(4, 3, 2))
    batch = tape(points)[..., 0]
    one = [[tape(p)[0] for p in row] for row in points]
    assert np.array_equal(batch, np.array(one))


# ---------------------------------------------------------------------------
# Taylor jets of the tape against the symbolic reference


# dyadic constants: the reference folds powers of constants with float **,
# which overflows on tiny bases
_jet_consts = st.integers(min_value=-24, max_value=24).map(lambda k: const(k / 16))
_jet_exprs = st.recursive(_jet_consts | _vars, _tape_extend, max_leaves=6)


@given(
    exprs=st.lists(_jet_exprs, min_size=1, max_size=3),
    shape=_batch_shapes,
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=100, deadline=None)
def test_jets_match_the_symbolic_reference(exprs, shape, seed):
    assume(None not in exprs)
    points = np.random.default_rng(seed).uniform(0.4, 1.1, size=shape + (DIM,))
    tape = tape_of(exprs)
    value, grad, hess = tape.jets(points, 2)
    assert grad.shape == shape + (DIM, len(exprs))
    assert hess.shape == shape + (DIM, DIM, len(exprs))
    with np.errstate(all="ignore"):
        assert np.array_equal(_bits(value, value.shape), _bits(tape(points), value.shape))
        want_g = np.stack([tape_of([diff(e, a) for e in exprs])(points) for a in (1, 2)], -2)
        want_h = np.stack(
            [np.stack([tape_of([diff(diff(e, b), a) for e in exprs])(points) for b in (1, 2)], -2)
             for a in (1, 2)],
            -3,
        )
    assume(np.all(np.isfinite(want_h)) and np.all(np.isfinite(want_g)))
    assume(np.max(np.abs(want_h)) < 1e6 and np.max(np.abs(value)) < 1e6)
    for got, want in ((grad, want_g), (hess, want_h)):
        assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))
    # the first partials do not depend on the order asked for
    assert np.array_equal(_bits(tape.jets(points, 1)[1], grad.shape), _bits(grad, grad.shape))


def test_jets_of_constants_and_linear_terms_are_exact():
    tape = Tape([("3", 2), ("2*x1 - x2", 2), ("x1*x2", 2)])
    value, grad, hess = tape.jets([0.5, 0.25], 2)
    assert value.tolist() == [3.0, 0.75, 0.125]
    assert grad.tolist() == [[0.0, 2.0, 0.25], [0.0, -1.0, 0.5]]
    assert hess[:, :, :2].tolist() == [[[0.0, 0.0]] * 2] * 2
    assert hess[:, :, 2].tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_jets_order_is_at_most_two():
    tape = Tape([("x1^2", 1)])
    assert len(tape.jets([0.5], 0)) == 1
    with pytest.raises(ValueError):
        tape.jets([0.5], 3)
    with pytest.raises(ValueError):
        tape.jets([0.5], -1)


# ---------------------------------------------------------------------------
# running a tape: the rules the grouped evaluation must keep


_NAN = -math.nan  # the NaN that x86 writes for an invalid operation
INF = math.inf
_POLE_POINTS = [[0.5, 0.25], [0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [-1.5, 2.0]]

def _slot_rules(e, p, order):
    """(value, gradient, Hessian) of tree e at points p (..., n) by the
    slot-by-slot evaluator the grouped tape replaced, node by node: None
    for a derivative that vanishes identically, a constant's value a
    scalar and a variable's gradient one unit row for all points."""
    def plus(x, y):
        return y if x is None else x if y is None else x + y

    def scale(d, v, k):
        return None if d is None or v is None else d * (
            v.reshape(v.shape + (1,) * k) if np.ndim(v) else v)

    def outer(x, y):
        return None if x is None or y is None else x[..., :, None] * y[..., None, :]

    def sym(x, y):
        return plus(outer(x, y), outer(y, x))

    done, todo = [], [e]
    while todo:
        node = todo.pop()
        if node is None:  # the next node on top of done's children
            node = todo.pop()
            args = [done.pop() for _ in node.children][::-1]
            (va, ga, ha), (vb, gb, hb) = args[0], args[-1]
            kind, g, h = type(node), None, None
            if kind is E.Mul:
                v, g = np.multiply(va, vb), plus(scale(ga, vb, 1), scale(gb, va, 1))
                h = plus(plus(scale(ha, vb, 2), scale(hb, va, 2)), sym(ga, gb))
            elif kind is E.Add:
                v, g, h = np.add(va, vb), plus(ga, gb), plus(ha, hb)
            elif kind is E.Div:
                v = np.divide(va, vb)
                inv = 1.0 / vb
                g = scale(plus(ga, scale(gb, -v, 1)), inv, 1)
                h = scale(plus(plus(ha, scale(hb, -v, 2)), scale(sym(g, gb), -1, 2)), inv, 2)
            else:
                k = getattr(node, "k", 0)
                v, d1, d2 = {
                    E.Neg: lambda: (np.negative(va), -1.0, None),
                    E.Exp: lambda: (np.exp(va),) * 3,
                    E.IntPow: lambda: (np.power(va, k), k * np.power(va, k - 1),
                                       k * (k - 1) * np.power(va, k - 2)),
                    E.Sin: lambda: (np.sin(va), np.cos(va), -np.sin(va)),
                    E.Cos: lambda: (np.cos(va), -np.sin(va), -np.cos(va)),
                }[kind]()
                g, h = scale(ga, d1, 1), plus(scale(ha, d1, 2), scale(outer(ga, ga), d2, 2))
            done.append((v, g if order else None, h if order == 2 else None))
        elif type(node) is E.Const:
            done.append((np.float64(node.c), None, None))
        elif type(node) is E.Var:
            done.append((p[..., node.axis - 1], np.eye(p.shape[-1])[node.axis - 1] if order else None,
                         None))
        else:
            todo += [node, None] + list(node.children)[::-1]
    return done[0]


# Squares, whose Hessian factor is the constant 2, and powers that keep one for each point
_POWERS = ["0.5 - 0.25*x1^2 + 0.75*x1*x2 - x2^2", "(x1 + x2)^2",
           "x1^3", "x1^-2", "sin(x1)^2", "(x1*x2)^2"]


def test_a_square_has_a_constant_hessian():
    # a polynomial of degree <= 2 has no Hessian row for each point
    assert Tape([(_POWERS[0], 2)])._plan[1] == [12, 9, 0]
    assert Tape([(_POWERS[1], 2)])._plan[1] == [4, 1, 0]
    for text in _POWERS[2:]:
        assert Tape([(text, 2)])._plan[1][2] > 0, text


@given(
    exprs=st.lists(_tape_exprs, min_size=1, max_size=4),
    shape=_batch_shapes,
    seed=st.integers(min_value=0, max_value=2**16),
    order=st.integers(min_value=0, max_value=2),
)
@example(exprs=[parse(t, DIM) for t in _POWERS], shape=(2, 3), seed=0, order=2)
@example(exprs=[parse(t, DIM) for t in _POWERS], shape=(), seed=1, order=1)
@settings(max_examples=150, deadline=None)
def test_grouped_jets_are_the_slot_rules_bit_for_bit(exprs, shape, seed, order):
    # NaN payloads aside, which NumPy's loops pick by position
    assume(None not in exprs)
    points = np.random.default_rng(seed).uniform(-1.5, 1.5, size=shape + (DIM,))
    got = tape_of(exprs).jets(points, order)
    with np.errstate(all="ignore"):
        for r, e in enumerate(exprs):
            for d, part in enumerate(_slot_rules(e, points, order)[: order + 1]):
                want = np.broadcast_to(0.0 if part is None else part, shape + (DIM,) * d)
                have = got[d][..., r]
                assert np.array_equal(have, want, equal_nan=True)
                assert (np.signbit(have) == np.signbit(want))[~np.isnan(want)].all()


# Constant subexpressions that do not fold (a pole, 1/0 or 0^-1) have no
# gradient and no Hessian: a zero derivative times their infinite value
# stays absent, not NaN.  Values, gradients and Hessians at _POLE_POINTS,
# then CovariantField([text, "x1"]).finite_rows at orders 0, 1 and 2.
_POLES = {
    "(1/0)*x1": (
        [INF, _NAN, INF, _NAN, -INF],
        [[INF, _NAN], [INF, _NAN], [INF, _NAN], [INF, _NAN], [INF, _NAN]],
        [[0.0] * 4] * 5,
        [[False] * 5] * 3,
    ),
    "x1 + 0^-1": (
        [INF] * 5,
        [[1.0, 0.0]] * 5,
        [[0.0] * 4] * 5,
        [[False] * 5] * 3,
    ),
    "exp(0^-1)*x2": (
        [INF, INF, _NAN, _NAN, INF],
        [[_NAN, INF]] * 5,
        [[0.0] * 4] * 5,
        [[False] * 5] * 3,
    ),
    "sin(1/0) + x1*x2": (
        [_NAN] * 5,
        [[0.25, 0.5], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [2.0, -1.5]],
        [[0.0, 1.0, 1.0, 0.0]] * 5,
        [[False] * 5] * 3,
    ),
    "exp(-(1/0))*x1 + x2/x1": (
        [0.5, INF, 0.0, _NAN, -1.3333333333333333],
        [[-1.0, 2.0], [-INF, _NAN], [0.0, 1.0], [math.nan, math.nan],
         [-0.8888888888888888, -0.6666666666666666]],
        [[4.0, -4.0, -4.0, -0.0], [INF, _NAN, _NAN, _NAN], [-0.0, -1.0, -1.0, -0.0],
         [math.nan] * 4, [-1.1851851851851851, -0.4444444444444444, -0.4444444444444444, -0.0]],
        [[True, False, True, False, True]] * 3,
    ),
}


@pytest.mark.parametrize("text", sorted(_POLES))
def test_constant_poles_have_no_derivatives(text):
    value, grad, hess, rows = _POLES[text]
    want = [np.array(value)[:, None], np.array(grad)[..., None],
            np.array(hess).reshape(5, 2, 2, 1)]
    tape = Tape([(text, 2)])
    for order in range(3):
        got = tape.jets(_POLE_POINTS, order)
        assert len(got) == order + 1
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
    field = CovariantField(2, 1, [text, "x1"])
    assert [field.finite_rows(_POLE_POINTS, k).tolist() for k in range(3)] == rows


@pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
def test_jets_of_a_batch_are_the_jets_of_each_point(shape):
    tape = Tape([("sin(x1)*exp(x2)/(x1 + x2) - x1^-2", 2), ("x1*x2^3 + cos(x1*x2)", 2),
                 ("(x1 - x2)^2/x2", 2), 2.5, ("x2", 2)])
    points = np.random.default_rng(11).uniform(0.2, 1.5, size=shape + (2,))
    batch = tape.jets(points, 2)
    for at in np.ndindex(shape):
        one = tape.jets(points[at], 2)
        for a, b in zip(batch, one):
            assert a[at].tobytes() == b.tobytes()


@pytest.mark.parametrize("text", ["x1" + "^2" * 10_000, "(x1*" * 256 + "x2" + ")" * 256],
                         ids=["chain of 10000 powers", "256 parentheses deep"])
def test_deep_tapes_run_to_order_two(text):
    tape = Tape([(text, 2)])
    with np.errstate(all="ignore"):
        value, grad, hess = tape.jets([[0.5, 1.0], [1.0, 1.0]], 2)
    assert value.shape == (2, 1) and grad.shape == (2, 2, 1) and hess.shape == (2, 2, 2, 1)
    assert value[1, 0] == 1.0


def test_jets_of_a_large_tape_keep_a_bounded_store():
    # xi at (n, q) = (4, 3): 64 components and some 3,400 slots, whose
    # order-2 jets at 64 points would take 36 MB if every slot's were kept
    xi = generic_scenario(5, 4, 3)["xi"]
    tape = Tape([(text, 4) for text in xi.values()])
    points = np.random.default_rng(3).uniform(-1.0, 1.0, size=(64, 4))
    tracemalloc.start()
    try:
        tape.jets(points, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


# ---------------------------------------------------------------------------
# compiled tapes kept for reuse


@pytest.mark.parametrize("c", [0.0, math.nan, math.inf], ids=["zero", "nan", "inf"])
def test_kept_tapes_keep_a_numbers_sign_apart(c):
    plus, minus = E.compiled([c, ("x1", 1)]), E.compiled([-c, ("x1", 1)])
    assert plus is not minus
    assert E.compiled([-c, ("x1", 1)]) is minus and E.compiled([c, ("x1", 1)]) is plus
    for tape, sign in ((plus, False), (minus, True)):
        assert np.signbit(tape.jets([[0.5], [0.7]], 2)[0][:, 0]).tolist() == [sign, sign]


def test_equal_numbers_share_a_kept_tape():
    tapes = [CovariantField(1, 1, [one]).tape for one in (1, 1.0, True)]
    assert tapes[0] is tapes[1] is tapes[2]
    assert len(E._TAPES) == 1


def test_a_text_at_two_dimensions_is_two_tapes():
    assert E.compiled([("x1*x2", 2)]) is not E.compiled([("x1*x2", 3)])
    assert E.compiled([("x1*x2", 2)]) is E.compiled([("x1*x2", 2)])
    assert len(E._TAPES) == 2


def test_a_text_and_a_number_keep_their_places():
    assert E.compiled([("x1", 1), 2.0]) is not E.compiled([2.0, ("x1", 1)])


@pytest.mark.parametrize("components, error, message", [
    (["x3", 10**400], ParseError, "variable x3 out of range for dimension 2 (at position 0)"),
    ([10**400, "x3"], OverflowError, "int too large to convert to float"),
    ([parse("x1", 2), "1"], TypeError, "cannot use Var as an expression; give its text"),
    (["x1", np.float32(0.5)], TypeError, "cannot use float32 as an expression; give its text"),
    (["x3", 1.0], ParseError, "variable x3 out of range for dimension 2 (at position 0)"),
])
def test_a_failing_list_raises_as_an_uncached_compile_and_is_not_kept(components, error, message,
                                                                      monkeypatch):
    compiles = []
    init = Tape.__init__
    monkeypatch.setattr(Tape, "__init__", lambda self, exprs: compiles.append(1) or init(self, exprs))
    for k in (1, 2):
        with pytest.raises(error) as raised:
            CovariantField(2, 1, components)
        assert str(raised.value) == message
        assert E._TAPES == {} and len(compiles) == k


def test_a_number_that_only_looks_like_one_is_never_served_a_kept_tape():
    E.compiled([("x1", 1), 0.5])
    with pytest.raises(TypeError, match="cannot use float32 as an expression"):
        E.compiled([("x1", 1), np.float32(0.5)])
    with pytest.raises(TypeError, match="cannot use list as an expression"):
        E.compiled([("x1", 1), [0.5]])


def test_at_most_max_tapes_are_kept_the_most_recently_used():
    lists = [[(f"x1 + {k}", 1)] for k in range(E.MAX_TAPES + 8)]
    tapes = []
    for k, exprs in enumerate(lists):
        tapes.append(E.compiled(exprs))
        assert len(E._TAPES) == min(k + 1, E.MAX_TAPES)
        assert E.compiled(lists[0]) is tapes[0]  # used last but one: kept
    kept = [any(t is tape for t in E._TAPES.values()) for tape in tapes]
    # the first was used all along; of the rest, the last MAX_TAPES - 1 survive
    assert kept == [True] + [False] * 8 + [True] * (E.MAX_TAPES - 1)
    assert E.compiled(lists[-1]) is tapes[-1] and E.compiled(lists[1]) is not tapes[1]


def _tape_state(tape):
    """Every column, constant and plan entry of a tape, as comparable data."""
    def plain(x):
        if isinstance(x, np.ndarray):
            return ("array", x.dtype.str, x.shape, x.tobytes())
        if isinstance(x, (list, tuple)):
            return tuple(map(plain, x))
        if isinstance(x, float):
            return ("float", struct.pack("d", x))
        return x if isinstance(x, (int, slice)) or x is None else ("bytes", bytes(x))
    return plain([tape.ops, tape.args_a, tape.args_b, tape.outputs, tape.consts, tape._plan])


def test_running_a_tape_leaves_it_as_compiled():
    # a kept tape is shared by every field with its components
    texts = ["sin(x1)*x2^2 - 3", "cos(x1)/sin(x1)", "exp(x2) + x1*x2 + 0.5", "x1^-2"]
    tape = E.compiled([(t, 2) for t in texts] + [1.0, -0.0, math.inf])
    before = _tape_state(tape)
    points = np.random.default_rng(12).uniform(-1.0, 1.0, size=(5, 2))
    with np.errstate(all="ignore"):
        for order in (0, 1, 2):
            tape.jets(points, order)
            tape.jets(points[0], order)
    assert _tape_state(tape) == before
