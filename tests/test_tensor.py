import gc
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
import _symbolic as S
from _fields import (
    DIM_RANK,
    random_covariant_field,
    random_polynomial_expr,
    random_symmetric_connection,
    random_vector_field,
    replace_slot,
)
from liftlab import bundle, connection_lift, expr, presets, sampling
from liftlab.presets import (
    flat_connection,
    sphere_chart_connection,
    sphere_chart_metric,
    standard_complex_r2,
)
from liftlab.tensor import (
    ConnectionField,
    CovariantField,
    CurvatureField,
    EndomorphismField,
    OneTwoTensorField,
    VectorField,
    apply_endo_cov,
    apply_endo_vec,
    compose_endo,
    contract_slot_endo,
    covariant_derivative_cov,
    curvature,
    lie_derivative_cov,
    lie_derivative_endo,
    one_case,
    rank_multi_index,
)

POINTS = sampling.sample_points(2, count=16)
POINTS3 = sampling.sample_points(3, count=16)


# ---------------------------------------------------------------------------
# multi-index bookkeeping


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_rank_unrank_bijection(n, q):
    # the ranks of the multi-indices in lexicographic order count 0..n^q - 1
    seen = [rank_multi_index(mi, n) for mi in itertools.product(range(1, n + 1), repeat=q)]
    assert seen == list(range(n**q))


def test_multi_index_order_is_lexicographic():
    got = sorted(itertools.product((1, 2), repeat=2), key=lambda mi: rank_multi_index(mi, 2))
    assert got == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_replace_slot():
    assert replace_slot((1, 2, 1), 1, 3) == (1, 3, 1)
    assert replace_slot((2,), 0, 1) == (1,)


# ---------------------------------------------------------------------------
# field containers


def test_covariant_field_sparse_dict():
    xi = CovariantField(2, 2, {(1, 2): "x1*x2"})
    arr = xi.evaluate([2.0, 3.0])
    assert arr.shape == (2, 2)
    assert arr[0, 1] == 6.0
    assert arr[0, 0] == 0.0 and arr[1, 0] == 0.0 and arr[1, 1] == 0.0


def test_covariant_field_flat_order_matches_rank():
    xi = CovariantField(2, 2, ["1", "2", "3", "4"])
    arr = xi.evaluate([0.5, 0.5])
    for mi in itertools.product((1, 2), repeat=2):
        r = rank_multi_index(mi, 2)
        assert arr[mi[0] - 1, mi[1] - 1] == float(r + 1)
    assert arr.reshape(-1).tolist() == [1.0, 2.0, 3.0, 4.0]


def test_covariant_field_batch_evaluate():
    xi = CovariantField(2, 1, ["x1", "x2^2"])
    pts = np.array([[1.0, 2.0], [3.0, 4.0]])
    arr = xi.evaluate(pts)
    assert arr.shape == (2, 2)
    assert arr.tolist() == [[1.0, 4.0], [3.0, 16.0]]


def test_covariant_field_validation():
    with pytest.raises(ValueError):
        CovariantField(2, 0, [])
    with pytest.raises(ValueError):
        CovariantField(5, 1, ["0"] * 5)
    with pytest.raises(ValueError):
        CovariantField(2, 1, ["x1"])  # wrong length
    with pytest.raises(expr.ParseError, match="variable x3 out of range for dimension 2"):
        CovariantField(2, 1, ["x3", "0"])  # axis out of range


def test_input_fields_compile_their_tape_once():
    xi = CovariantField(2, 1, ["x1", "x2^2"])
    assert len(xi.tape.outputs) == 2
    tape = xi.tape
    xi.evaluate([[1.0, 2.0]])
    xi.jets([[3.0, 4.0]], 2)
    assert xi.tape is tape
    assert xi.partials().tape is None  # an operator output has no comps


def test_a_component_is_text_or_a_number_never_a_tree():
    with pytest.raises(TypeError, match="cannot use Var as an expression; give its text"):
        CovariantField(1, 1, [expr.parse("x1", 1)])
    assert CovariantField(1, 1, [str(expr.parse("x1", 1))]).evaluate([0.5]).tolist() == [0.5]


@pytest.mark.parametrize("points", [[0.5], [[0.5], [0.7]], [0.5, 0.6, 0.7, 0.8], 0.5],
                         ids=["one point", "batch", "four coordinates", "0-d"])
def test_points_must_live_on_the_fields_chart(points):
    # a point of too few coordinates, or too many, is an error naming the
    # chart and the shape, never a bare IndexError or a silent truncation
    for field in (CovariantField(3, 1, ["x1", "1", "2"]), CovariantField(2, 1, ["x2", "1"])):
        n = field.n
        want = f"points on a chart of dimension {n} have shape (..., {n}), not {np.shape(points)}"
        for read in (field.evaluate, field.partials_at, lambda p: field.finite_rows(p, 0),
                     field.partials().evaluate):
            with pytest.raises(ValueError, match=re.escape(want)):
                read(points)


def test_comps_render_the_tape_once_per_field(monkeypatch):
    # a repeated text is parsed once; each component renders its own tree
    parsed = []
    parse = expr._parse
    monkeypatch.setattr(expr, "_parse", lambda b, text, n: parsed.append(text) or parse(b, text, n))
    xi = CovariantField(2, 2, ["(x1 + 1)*(x1 + 1)", "x2", "x2", "(x1 + 1)*(x1 + 1)"])
    assert parsed == ["(x1 + 1)*(x1 + 1)", "x2"]
    assert len(xi.tape) == 5 and xi.tape.outputs.tolist() == [3, 4, 4, 3]
    comps = xi.comps
    assert xi.comps is comps and comps[0] is not comps[3]
    assert [str(c) for c in comps] == ["(x1 + 1)*(x1 + 1)", "x2", "x2", "(x1 + 1)*(x1 + 1)"]
    assert xi.partials().comps == ()


def _build(texts) -> None:
    """Build a covariant field on the plane from texts and read its comps;
    a ParseError is swallowed without binding it."""
    try:
        CovariantField(2, 1, texts).comps
    except expr.ParseError:
        pass


def test_building_fields_leaves_no_cyclic_garbage():
    # a field, its tape and a parse that fails go by reference counting
    # alone: a cycle per parse would hold its tokens until a collection
    gamma = random_symmetric_connection(np.random.default_rng(3), 3, 1)
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            _build(["sin(x1)*x2 + x1*x2", "x1 - -x2^2/(1 + x1)"])
            _build(["x1 + + x2", "1"])
            _build(["10^400*x1", "1"])
            _build(["(" * 1000 + "x1" + ")" * 1000, "1"])
            ConnectionField(3, np.reshape([str(c) for c in gamma.comps], (3, 3, 3)))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_partials_derivative_axis_first():
    xi = CovariantField(2, 2, {(1, 2): "x1*x2"})
    d = xi.partials()
    assert d.q == 3
    # d_1 xi_{12} = x2 lives at multi-index (1, 1, 2)
    assert d.evaluate([5.0, 7.0])[0, 0, 1] == 7.0
    assert d.evaluate([5.0, 7.0])[1, 0, 1] == 5.0


def test_singular_point_raises():
    xi = CovariantField(2, 1, ["1/x1", "0"])
    with pytest.raises(expr.SingularPointError):
        xi.evaluate([0.0, 1.0])


def test_non_finite_names_kind_order_component_and_point():
    xi = CovariantField(2, 2, {(2, 1): "x1^3", (1, 2): "1/(x2 - 1)"})
    pts = np.array([[0.5, 0.5], [0.7, 1.0]])
    with pytest.raises(expr.SingularPointError) as err:
        xi.evaluate(pts)
    assert str(err.value) == (
        "tensor field values evaluated non-finite at component (1, 2), "
        "point (0.7, 1.0), from 1/(x2 + -1); the point is singular"
    )
    assert err.value.subtree is xi.comps[1]
    gamma = ConnectionField(2, {(2, 1, 1): "x1*x2", (1, 2, 2): "x2^-1"})
    with pytest.raises(expr.SingularPointError) as err:
        gamma.jets(np.array([[0.3, 0.0]]), 2)
    assert str(err.value) == (
        "connection values evaluated non-finite at component (1, 2, 2), point (0.3, 0.0), "
        "from x2^-1; the point is singular"
    )
    # finite values, overflowing first partials: the derivative axis is named
    steep = CovariantField(1, 1, ["exp(709*x1)*1e-300"])
    with pytest.raises(expr.SingularPointError) as err:
        steep.jets([1.0], 1)
    assert str(err.value) == (
        "tensor field partials evaluated non-finite at component (1,) along x1, "
        "point (1.0,), from exp(709*x1); the point is singular"
    )
    # finite values and first partials, overflowing second partials: the
    # derivative axes are named, and the subtree is the innermost one
    # whose second-order jet overflows
    overflow = CovariantField(1, 1, ["exp(700*x1)*1e-300"])
    assert np.isfinite(overflow.jets([1.0], 1)[1]).all()
    with pytest.raises(expr.SingularPointError) as err:
        overflow.jets([1.0], 2)
    assert str(err.value) == (
        "tensor field second partials evaluated non-finite at component (1,) along x1 x1, "
        "point (1.0,), from exp(700*x1); the point is singular"
    )
    assert str(err.value.subtree) == "exp(700*x1)"


def test_non_finite_operator_output_names_no_subtree():
    # the operands are finite and their product overflows: an operator
    # output has no expression to name
    f = EndomorphismField(2, {(1, 1): "1e200*x1", (2, 2): "1"})
    with pytest.raises(expr.SingularPointError) as err:
        compose_endo(f, f).evaluate(np.array([[1.0, 1.0]]))
    assert err.value.subtree is None
    assert str(err.value) == (
        "endomorphism field values evaluated non-finite at component (1, 1), "
        "point (1.0, 1.0); the point is singular"
    )


def test_jets_layout_and_orders():
    xi = CovariantField(2, 2, {(1, 2): "x1*x2^2"})
    pts = np.array([[0.5, 2.0], [1.0, 3.0], [2.0, 1.0]])
    value, grad, hess = xi.jets(pts, 2)
    assert (value.shape, grad.shape, hess.shape) == ((3, 2, 2), (3, 2, 2, 2), (3, 2, 2, 2, 2))
    assert grad[1, :, 0, 1].tolist() == [9.0, 6.0]
    assert hess[1, :, :, 0, 1].tolist() == [[0.0, 6.0], [6.0, 2.0]]
    assert not value.flags.writeable
    assert np.array_equal(xi.partials_at(pts), grad)
    assert np.array_equal(xi.partials().partials().evaluate(pts), hess)
    for order in (-1, 3):
        with pytest.raises(ValueError):
            xi.jets(pts, order)
    # an operator output carries first partials, by the product rule
    flat = flat_connection(2)
    nabla = covariant_derivative_cov(flat, xi)
    assert np.array_equal(nabla.jets(pts, 1)[1], hess)
    for order in (-1, 2):
        with pytest.raises(ValueError):
            nabla.jets(pts, order)


def test_connection_field_layout():
    gamma = ConnectionField(2, {(1, 2, 2): "x1"})
    g = gamma.evaluate([3.0, 0.0])
    assert g[0, 1, 1] == 3.0
    assert g.sum() == 3.0
    connection_lift.require_symmetric(gamma, POINTS)


def test_connection_symmetry_residual_detects():
    # the connection functions measure the symmetry they need
    gamma = ConnectionField(2, {(1, 1, 2): "1"})
    with pytest.raises(connection_lift.TorsionError, match=r"asymmetry 1\.000e\+00 exceeds"):
        connection_lift.require_symmetric(gamma, POINTS)


def test_one_two_tensor_layout():
    t = OneTwoTensorField(2, [[["1", "2"], ["3", "4"]], [["5", "6"], ["7", "8"]]])
    arr = t.evaluate([0.0, 0.0])
    assert arr[0, 1, 0] == 3.0  # l=1, j=2, k=1
    assert arr[1, 0, 1] == 6.0


def _nested(n, rank, text):
    """Nested component lists of the given rank with distinct entries."""
    if rank == 0:
        return text
    return [_nested(n, rank - 1, f"{text}*x{i} + {i}") for i in range(1, n + 1)]


@pytest.mark.parametrize(
    "make",
    [
        lambda: CovariantField(3, 2, [f"sin(x1)*x2^{k} + exp(x3/{k + 1})" for k in range(9)]),
        lambda: VectorField(3, ["x1*x2", "cos(x3)/(x1 + 1)", "exp(x2)"]),
        lambda: EndomorphismField(3, _nested(3, 2, "sin(x2)")),
        lambda: OneTwoTensorField(3, _nested(3, 3, "cos(x1*x3)")),
        lambda: ConnectionField(3, _nested(3, 3, "x1/(x2 + 2)")),
        lambda: CurvatureField(3, _nested(3, 4, "exp(x1 - x3)")),
    ],
    ids=["covariant", "vector", "endomorphism", "one_two", "connection", "curvature"],
)
def test_batch_evaluate_stacks_single_points(make):
    field = make()
    batch = field.evaluate(POINTS3)
    assert batch.shape == (len(POINTS3),) + (3,) * len(field.shape)
    single = np.stack([field.evaluate(p) for p in POINTS3])
    assert np.array_equal(batch, single)
    assert batch.tobytes() == single.tobytes()


# ---------------------------------------------------------------------------
# endomorphism actions and purity


def test_standard_complex_actions():
    phi = standard_complex_r2()
    assert phi.evaluate([0.0, 0.0]).tolist() == [[0.0, -1.0], [1.0, 0.0]]

    v = VectorField(2, ["x1", "x2"])
    fv = apply_endo_vec(phi, v).evaluate([2.0, 5.0])
    assert fv.tolist() == [-5.0, 2.0]

    a = CovariantField(2, 1, ["x1", "x2"])
    fa = apply_endo_cov(phi, a).evaluate([2.0, 5.0])
    assert fa.tolist() == [5.0, -2.0]

    sq = compose_endo(phi, phi).evaluate(POINTS) + np.eye(2)
    assert np.max(np.abs(sq)) == 0.0


def test_contract_slot_endo_slots_differ_on_impure():
    phi = standard_complex_r2()
    delta = CovariantField(2, 2, {(1, 1): 1.0, (2, 2): 1.0})
    s1 = contract_slot_endo(delta, phi, 1).evaluate([0.3, 0.4])
    s2 = contract_slot_endo(delta, phi, 2).evaluate([0.3, 0.4])
    assert s1.tolist() == [[0.0, 1.0], [-1.0, 0.0]]
    assert s2.tolist() == [[0.0, -1.0], [1.0, 0.0]]
    assert np.max(np.abs(s1 - s2)) == 2.0


# ---------------------------------------------------------------------------
# Lie derivatives


def test_lie_derivative_rotation_kills_radial_covector():
    v = VectorField(2, ["x2", "-x1"])
    xi = CovariantField(2, 1, ["x1", "x2"])
    out = lie_derivative_cov(v, xi).evaluate(POINTS)
    assert np.max(np.abs(out)) == 0.0


FLOW_CASES = {
    2: (VectorField(2, ["x2", "x1*x1"]), POINTS),
    3: (VectorField(3, ["x2*x3", "x1*x1", "sin(x2)"]), POINTS3),
}


@pytest.mark.parametrize(
    "xi",
    [
        CovariantField(2, 1, ["x1*x2", "sin(x1)"]),
        CovariantField(2, 2, {(1, 1): "x2^2", (1, 2): "x1", (2, 1): "cos(x2)"}),
        CovariantField(3, 1, ["x1*x3", "cos(x2)", "x2^2"]),
        CovariantField(3, 2, {(1, 2): "x3^2", (2, 3): "x1*x2", (3, 1): "sin(x3)", (3, 3): "x1"}),
    ],
)
def test_lie_derivative_matches_flow_oracle(xi):
    v, points = FLOW_CASES[xi.n]
    sym_field = lie_derivative_cov(v, xi)
    for p in points[:4]:
        sym = sym_field.evaluate(p)
        flow = _oracles.flow_lie_derivative(v, xi, p)
        assert np.max(np.abs(sym - flow)) < 3e-5


def test_lie_derivative_endo_frozen():
    v = VectorField(2, ["x1", "0"])
    phi = standard_complex_r2()
    out = lie_derivative_endo(v, phi).evaluate([1.0, 1.0])
    assert out.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_lie_derivative_endo_matches_bracket_oracle():
    v = VectorField(2, ["x1*x2", "sin(x2)"])
    phi = EndomorphismField(2, [["x2", "0"], ["x1^2", "1"]])
    sym_field = lie_derivative_endo(v, phi)
    probes = [VectorField(2, ["1", "0"]), VectorField(2, ["0", "1"])]
    for p in POINTS[:4]:
        sym = sym_field.evaluate(p)
        for j, probe in enumerate(probes):
            oracle = _oracles.bracket_lie_endo(v, phi, p, probe)
            assert np.max(np.abs(sym[:, j] - oracle)) < 1e-6


# ---------------------------------------------------------------------------
# covariant derivative and curvature


def test_flat_covariant_derivative_is_partial():
    xi = CovariantField(2, 2, {(1, 2): "x1*x2^2"})
    flat = flat_connection(2)
    nabla = covariant_derivative_cov(flat, xi)
    grid = xi.partials()
    for p in POINTS[:4]:
        assert np.array_equal(nabla.evaluate(p), grid.evaluate(p))


def test_sphere_metric_is_parallel():
    gamma = sphere_chart_connection()
    g = sphere_chart_metric()
    out = covariant_derivative_cov(gamma, g).evaluate(POINTS)
    assert np.max(np.abs(out)) < 1e-12


def test_sphere_connection_is_levi_civita_of_metric():
    gamma = sphere_chart_connection()
    g = sphere_chart_metric()
    for p in POINTS[:6]:
        oracle = _oracles.levi_civita_at(g, p)
        assert np.max(np.abs(gamma.evaluate(p) - oracle)) < 1e-6


def test_sphere_curvature_frozen_components():
    r = curvature(sphere_chart_connection())
    for p in POINTS[:6]:
        x1 = p[0]
        rv = r.evaluate(p)
        assert rv[0, 1, 1, 0] == pytest.approx(np.sin(x1) ** 2, rel=1e-12)
        assert rv[0, 1, 0, 1] == pytest.approx(-1.0, rel=1e-12)
        # antisymmetry in the first index pair
        assert np.max(np.abs(rv + rv.transpose(1, 0, 2, 3))) < 1e-12


def test_flat_curvature_vanishes():
    r = curvature(flat_connection(3))
    assert np.max(np.abs(r.evaluate([0.4, 0.9, 1.3]))) == 0.0


def test_curvature_matches_fd_oracle():
    rng = np.random.default_rng(7)
    gamma = random_symmetric_connection(rng, 2)
    r = curvature(gamma)
    for p in POINTS[:4]:
        oracle = _oracles.fd_curvature(gamma, p)
        assert np.max(np.abs(r.evaluate(p) - oracle)) < 1e-6
    sphere = sphere_chart_connection()
    for p in POINTS[:4]:
        oracle = _oracles.fd_curvature(sphere, p)
        assert np.max(np.abs(curvature(sphere).evaluate(p) - oracle)) < 1e-6
    gamma3 = random_symmetric_connection(rng, 3)
    for p in POINTS3[:4]:
        oracle = _oracles.fd_curvature(gamma3, p)
        assert np.max(np.abs(curvature(gamma3).evaluate(p) - oracle)) < 1e-6


def test_first_bianchi_identity():
    rng = np.random.default_rng(11)
    gamma = random_symmetric_connection(rng, 3)
    rv = curvature(gamma).evaluate([0.5, 0.8, 1.1])
    cyc = rv + rv.transpose(1, 2, 0, 3) + rv.transpose(2, 0, 1, 3)
    assert np.max(np.abs(cyc)) < 1e-12


def test_curvature_partials_match_fd():
    r = curvature(sphere_chart_connection())
    for p in POINTS[:3]:
        dr = r.partials_at(p)
        for m in (1, 2):
            fd = _oracles.fd_partial(r.evaluate, p, m)
            assert np.max(np.abs(dr[m - 1] - fd)) < 1e-6


@pytest.mark.parametrize("q", [1, 2, 3])
def test_ricci_identity(q):
    # (nabla_k nabla_j - nabla_j nabla_k) xi = -sum_s R_{k j h_s}^l xi_{..l..}
    rng = np.random.default_rng(100 + q)
    gamma = random_symmetric_connection(rng, 2)
    xi = random_covariant_field(rng, 2, q)
    dd_field = covariant_derivative_cov(gamma, covariant_derivative_cov(gamma, xi))
    r_field = curvature(gamma)
    for p in POINTS[:6]:
        dd = dd_field.evaluate(p)
        rv = r_field.evaluate(p)
        xiv = xi.evaluate(p)
        anti = dd - np.swapaxes(dd, 0, 1)
        correction = np.zeros_like(anti)
        for slot in range(q):
            # contract R over the tensor slot, deposit on (k, j) up front
            contr = np.tensordot(rv, xiv, axes=([3], [slot]))  # [k,j,h_s,rest]
            correction += np.moveaxis(contr, 2, 2 + slot)
        assert np.max(np.abs(anti + correction)) < 1e-10


def test_ricci_identity_against_fd_curvature():
    rng = np.random.default_rng(23)
    gamma = random_symmetric_connection(rng, 2)
    xi = random_covariant_field(rng, 2, 1)
    dd_field = covariant_derivative_cov(gamma, covariant_derivative_cov(gamma, xi))
    p = POINTS[0]
    dd = dd_field.evaluate(p)
    rv = _oracles.fd_curvature(gamma, p)
    xiv = xi.evaluate(p)
    anti = dd - np.swapaxes(dd, 0, 1)
    correction = np.tensordot(rv, xiv, axes=([3], [0]))
    assert np.max(np.abs(anti + correction)) < 1e-6


# ---------------------------------------------------------------------------
# hypothesis: linearity of the Lie derivative in the tensor argument

_coeffs = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@given(c=_coeffs)
@settings(max_examples=25, deadline=None)
def test_lie_derivative_linear_in_tensor(c):
    v = VectorField(2, ["x2", "x1"])
    a = CovariantField(2, 1, ["x1^2", "x2"])
    b = CovariantField(2, 1, ["sin(x1)", "x1*x2"])
    combo = CovariantField(
        2,
        1,
        [
            str(S.add(S.mul(a.comps[i], S.const(c)), b.comps[i]))
            for i in (0, 1)
        ],
    )
    p = POINTS[3]
    lhs = lie_derivative_cov(v, combo).evaluate(p)
    rhs = c * lie_derivative_cov(v, a).evaluate(p) + lie_derivative_cov(v, b).evaluate(p)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# ---------------------------------------------------------------------------
# sharing within a case


def _builders():
    """Every shared builder, named, with operands to build from."""
    rng = np.random.default_rng(31)
    gamma = random_symmetric_connection(rng, 2)
    xi = random_covariant_field(rng, 2, 2)
    v = random_vector_field(rng, 2)
    phi = EndomorphismField(2, {(1, 2): "-1", (2, 1): "x1"})
    t = OneTwoTensorField(2, {(1, 1, 2): "x2"})
    return {
        "curvature": lambda: curvature(gamma),
        "covariant_derivative_cov": lambda: covariant_derivative_cov(gamma, xi),
        "lie_derivative_cov": lambda: lie_derivative_cov(v, xi),
        "lie_derivative_endo": lambda: lie_derivative_endo(v, phi),
        "apply_endo_cov": lambda: apply_endo_cov(phi, xi),
        "apply_endo_vec": lambda: apply_endo_vec(phi, v),
        "compose_endo": lambda: compose_endo(phi, phi),
        "contract_slot_endo": lambda: contract_slot_endo(xi, phi, 2),
        "nijenhuis": lambda: bundle.nijenhuis(phi),
        "tachibana_field": lambda: bundle._tachibana_field(phi, xi),
        "contract_one_two_cov": lambda: bundle.contract_one_two_cov(t, xi),
        "gauss_second_fundamental": lambda: connection_lift.gauss_second_fundamental(gamma, xi),
    }


@pytest.mark.parametrize("name", list(_builders()))
def test_builder_shares_its_output_only_inside_a_case(name):
    build = _builders()[name]
    assert build() is not build()
    with one_case():
        first = build()
        assert build() is first
        with one_case():  # a case opened inside another has a table of its own
            assert build() is not first
        assert build() is first
    assert build() is not build()


def test_case_keys_outputs_by_every_operand():
    rng = np.random.default_rng(32)
    gamma, other = (random_symmetric_connection(rng, 2) for _ in range(2))
    xi = random_covariant_field(rng, 2, 2)
    phi = EndomorphismField(2, {(1, 2): "-1", (2, 1): "1"})
    with one_case():
        assert curvature(gamma) is not curvature(other)
        assert contract_slot_endo(xi, phi, 1) is not contract_slot_endo(xi, phi, 2)
        once = covariant_derivative_cov(gamma, xi)
        assert covariant_derivative_cov(gamma, once) is not once


# ---------------------------------------------------------------------------
# the jets cache: one tape run per point set


def _lower_orders_match(tape, pts):
    """The order-0 and order-1 outputs of an order-2 run are those of the
    lower-order runs, byte for byte (so NaN payloads and signed zeros
    count): the premise of serving any lower order from a cached run."""
    top = [a.tobytes() for a in tape.jets(pts, 2)]
    for order in (0, 1):
        assert [a.tobytes() for a in tape.jets(pts, order)] == top[: order + 1]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_order_two_run_holds_the_lower_order_runs_of_random_polynomials(n):
    rng = np.random.default_rng(40 + n)
    tape = S.tape([random_polynomial_expr(rng, n, degree) for degree in (0, 1, 2, 2)], n)
    _lower_orders_match(tape, sampling.sample_points(n, count=16))


TRANSCENDENTAL = ["sin(x1)*exp(x2)/(x1 - x2)", "x1^-3 + x2^-2*cos(x1)",
                  "exp(-x1^2)/x2", "(x1 + x2)^-1*sin(x2/x1)", "1/x1 - x2^-1"]


def test_order_two_run_holds_the_lower_order_runs_of_transcendental_text():
    tape = expr.Tape([(t, 2) for t in TRANSCENDENTAL])
    _lower_orders_match(tape, POINTS)


def test_order_two_run_holds_the_lower_order_runs_where_jets_are_not_finite():
    # poles in values and partials (1/x1 at x1 = 0, 0/0 in sin(x2/x1)),
    # signed zeros, coordinates that are themselves inf or NaN, and
    # overflow in the first or only the second partials
    pts = np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, 0.0], [1.0, -0.0], [0.0, 0.0],
                    [np.inf, 1.0], [1.0, -np.inf], [np.nan, 2.0], [1.0, 1.0]])
    texts = TRANSCENDENTAL + ["exp(709*x1)*1e-300", "exp(700*x2)*1e-300", "x1^-2*0", "1e308*x1*x2"]
    tape = expr.Tape([(t, 2) for t in texts])
    jets = tape.jets(pts, 2)
    assert not all(np.isfinite(a).all() for a in jets)  # the case is not vacuous
    _lower_orders_match(tape, pts)


# A pole in the values where x1 = 2, overflow in the first partials only
# where x2 = 1, and in the second partials only where x3 = 1.
STEEP = ["1/(x1 - 2)", "exp(709*x2)*1e-300", "exp(700*x3)*1e-300"]
STEEP_POINTS = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def test_finite_rows_masks_by_order_and_never_raises():
    v = VectorField(3, STEEP)
    want = {0: [True, False, True, True], 1: [True, False, False, True],
            2: [True, False, False, False]}
    for order, rows in want.items():
        assert v.finite_rows(STEEP_POINTS, order).tolist() == rows
    assert v.finite_rows(STEEP_POINTS[0], 2).tolist() is True  # one point (n,)
    with pytest.raises(ValueError, match="up to order 2, not 3"):
        v.finite_rows(STEEP_POINTS, 3)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("rows", [[0, 1, 2, 3], [0, 2, 3], [0, 3]], ids=["value", "first", "second"])
def test_jets_after_finite_rows_raise_as_a_fresh_field(rows, order):
    # the cache holds the screen's non-finite jets: each order raises, or
    # not, as the first jets call of a field that was never screened
    pts = STEEP_POINTS[rows]
    screened = VectorField(3, STEEP)
    screened.finite_rows(pts, 0, 2)
    fresh = VectorField(3, STEEP)
    try:
        want = fresh.jets(pts, order)
    except expr.SingularPointError as exc:
        with pytest.raises(expr.SingularPointError) as err:
            screened.jets(pts, order)
        assert str(err.value) == str(exc)
        assert str(err.value.subtree) == str(exc.subtree)
    else:
        assert [a.tobytes() for a in screened.jets(pts, order)] == [a.tobytes() for a in want]


def test_finite_rows_fills_the_cache_to_the_order_asked(monkeypatch):
    runs = []
    tape_jets = expr.Tape.jets
    monkeypatch.setattr(expr.Tape, "jets",
                        lambda tape, p, k: runs.append((len(p), k)) or tape_jets(tape, p, k))
    xi = CovariantField(2, 2, {(1, 2): "x1*x2^2", (2, 1): "sin(x1)"})
    xi.finite_rows(POINTS, 0)  # no fill: only the order screened
    assert runs == [(16, 0)]
    xi.finite_rows(POINTS, 0, 2)
    for order in (2, 0, 1):
        xi.jets(POINTS, order)
    assert runs == [(16, 0), (16, 2)]
    # a fill below order is order; any other miss computes only the order
    # asked, and an upgrade too
    xi.finite_rows(POINTS[:8], 1, 0)
    xi.jets(POINTS[:4], 0)
    xi.jets(POINTS[:4], 1)
    assert runs == [(16, 0), (16, 2), (8, 1), (4, 0), (4, 1)]
    with pytest.raises(ValueError, match="up to order 2, not 3"):
        xi.finite_rows(POINTS, 0, 3)


# ---------------------------------------------------------------------------
# the characterization probes in closed form


@DIM_RANK
@pytest.mark.parametrize("seed", [0, 1, 2, 42, 1005])
def test_closed_form_probe_is_the_tree_probe_byte_for_byte(n, q, seed):
    # the same draws from the same stream, and the same jets as the tape
    # of the polynomial built as a tree, at 64 points, in a grid of
    # points and at one point
    tree_rng, rng = np.random.default_rng([seed, 1005]), np.random.default_rng([seed, 1005])
    pts = sampling.sample_points(n, seed=seed, count=64)
    pairs = [(random_vector_field(tree_rng, n), presets.random_probe(rng, n)),
             (random_covariant_field(tree_rng, n, q), presets.random_probe(rng, n, q))]
    assert tree_rng.bit_generator.state == rng.bit_generator.state
    for tree, probe in pairs:
        assert type(probe).__mro__[1] is type(tree) and probe.tape is None
        for p in (pts, pts.reshape(8, 8, n), pts[5]):
            for order in (0, 1):
                want, got = tree.jets(p, order), probe.jets(p, order)
                assert len(got) == order + 1
                for a, b in zip(want, got):
                    assert (a.shape, a.strides, a.tobytes()) == (b.shape, b.strides, b.tobytes())
