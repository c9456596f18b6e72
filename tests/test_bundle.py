import itertools

import numpy as np
import pytest

import _oracles
from _fields import (
    DIM_RANK,
    polynomial_text,
    random_covariant_field,
    random_polynomial_expr,
    random_vector_field,
)
from liftlab import sampling
from liftlab.bundle import (
    AdaptedFrame,
    BundlePoint,
    NotPureError,
    _tachibana_field,
    adapted_frame,
    bundle_dim,
    check_rank,
    complete_lift_endo_on_section,
    complete_lift_vector_on_section,
    contract_one_two_cov,
    cross_section_point,
    is_almost_analytic,
    nijenhuis,
    purity_residual,
    tachibana,
    verify_characterization,
    verify_theorem1,
    vertical_lift,
)
from liftlab.presets import standard_complex_r2
from liftlab.tensor import (
    CovariantField,
    EndomorphismField,
    VectorField,
    apply_endo_cov,
    apply_endo_vec,
    contract_slot_endo,
    lie_derivative_cov,
    lie_derivative_endo,
)

POINTS = sampling.sample_points(2, count=16)

ANALYTIC_XI = CovariantField(2, 1, ["x1", "-x2"])
NECESSITY_XI = CovariantField(2, 1, ["x1^2", "0"])
ANALYTIC_PAIR_Q2 = CovariantField(
    2, 2, {(1, 1): "x1", (1, 2): "-x2", (2, 1): "-x2", (2, 2): "-x1"}
)


def test_dimensions_and_rank_guard():
    assert bundle_dim(2, 3) == 10
    assert check_rank(3) == 3
    with pytest.raises(ValueError):
        check_rank(0)
    with pytest.raises(ValueError):
        check_rank(4)


def test_bundle_point_validation():
    BundlePoint(2, 1, np.array([0.5, 0.5]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        BundlePoint(2, 2, np.array([0.5, 0.5]), np.array([1.0, 2.0]))


def test_cross_section_point():
    at = cross_section_point(ANALYTIC_XI, [0.3, 0.7])
    assert at.fibre.tolist() == [0.3, -0.7]
    assert at.fibre.shape == (2,)


# ---------------------------------------------------------------------------
# adapted frame


def test_frame_inverse_is_exact():
    for q, xi in [(1, ANALYTIC_XI), (2, ANALYTIC_PAIR_Q2)]:
        for p in POINTS[:6]:
            fr = adapted_frame(xi, p)
            prod = fr.frame_matrix() @ fr.coframe_matrix()
            assert np.max(np.abs(prod - np.eye(bundle_dim(2, q)))) == 0.0


def test_frame_slope_placement():
    xi = CovariantField(2, 1, ["x2", "0"])
    fr = adapted_frame(xi, [0.0, 0.0])
    # d_2 xi_1 = 1 lands in the fibre row of xi_1 under horizontal leg 2
    assert fr.b[2].tolist() == [0.0, 1.0]
    assert fr.b[3].tolist() == [0.0, 0.0]
    assert fr.b[:2].tolist() == np.eye(2).tolist()
    assert fr.c[:2].tolist() == np.zeros((2, 2)).tolist()


def test_frame_round_trip():
    fr = adapted_frame(ANALYTIC_PAIR_Q2, POINTS[0])
    rng = np.random.default_rng(3)
    vec = rng.normal(size=6)
    back = fr.frame_matrix() @ (fr.coframe_matrix() @ vec)
    assert np.max(np.abs(back - vec)) < 1e-14


# ---------------------------------------------------------------------------
# lifts of vector fields


def test_vertical_lift_components():
    lifted = vertical_lift(ANALYTIC_XI, [0.4, 0.9])
    assert lifted[:2].tolist() == [0.0, 0.0]
    assert lifted[2:].tolist() == [0.4, -0.9]


def test_complete_lift_rotation_on_radial_section():
    v = VectorField(2, ["x2", "-x1"])
    xi = CovariantField(2, 1, ["x1", "x2"])
    lifted = complete_lift_vector_on_section(v, xi, [0.8, 0.3])
    assert lifted[2:].tolist() == [0.0, 0.0]
    assert lifted[:2].tolist() == [0.3, -0.8]


@pytest.mark.parametrize("xi", [ANALYTIC_XI, ANALYTIC_PAIR_Q2])
def test_natural_and_adapted_complete_lifts_agree(xi):
    # the natural-frame formula pushed through the coframe must equal the
    # closed on-section form (V, -L_V xi)
    rng = np.random.default_rng(17)
    v = random_vector_field(rng, 2)
    for p in POINTS[:6]:
        natural = _oracles.complete_lift_vector_natural(v, p, xi.evaluate(p))
        via_frame = adapted_frame(xi, p).coframe_matrix() @ natural
        direct = complete_lift_vector_on_section(v, xi, p)
        assert np.max(np.abs(via_frame - direct)) < 1e-12


# ---------------------------------------------------------------------------
# purity and the Tachibana operator


def _purity(phi, xi, points=POINTS):
    return sampling.sampled_check(points, purity_residual(phi, xi, points), 0.0)


def test_purity_rank_one_is_trivial():
    phi = standard_complex_r2()
    residual = purity_residual(phi, NECESSITY_XI, POINTS)
    assert residual.shape == (len(POINTS), 1, 1, 2)
    assert not residual.any()
    assert _purity(phi, NECESSITY_XI) == sampling.SampledCheck(True, 0.0, 0.0, tuple(POINTS[0]))


def test_purity_frozen_residuals():
    phi = standard_complex_r2()
    delta = CovariantField(2, 2, {(1, 1): 1.0, (2, 2): 1.0})
    split = CovariantField(2, 2, {(1, 1): 1.0, (2, 2): -1.0})
    assert _purity(phi, delta).residual == 2.0
    assert _purity(phi, split).residual == 0.0
    assert _purity(phi, ANALYTIC_PAIR_Q2).residual == 0.0


@pytest.mark.parametrize("q", [2, 3])
def test_purity_residual_is_every_pairwise_slot_difference(q):
    rng = np.random.default_rng(700 + q)
    phi = EndomorphismField(
        2, [[str(random_polynomial_expr(rng, 2)) for _ in range(2)] for _ in range(2)]
    )
    xi = random_covariant_field(rng, 2, q)
    residual = purity_residual(phi, xi, POINTS)
    assert residual.shape == (len(POINTS), q, q) + (2,) * q
    slots = [contract_slot_endo(xi, phi, s).evaluate(POINTS) for s in range(1, q + 1)]
    for a, b in itertools.product(range(q), repeat=2):
        np.testing.assert_array_equal(residual[:, a, b], slots[a] - slots[b])
    pairwise = max(np.max(np.abs(a - b)) for a, b in itertools.combinations(slots, 2))
    assert _purity(phi, xi).residual == pairwise > 0.0


def test_purity_worst_point_is_where_the_impurity_peaks():
    # phi = J moves the first and last slot of x1 * delta apart by 2 x1
    phi = standard_complex_r2()
    xi = CovariantField(2, 2, {(1, 1): "x1", (2, 2): "x1"})
    peak = tuple(POINTS[int(np.argmax(POINTS[:, 0]))])
    check = _purity(phi, xi)
    assert check.residual == pytest.approx(2.0 * POINTS[:, 0].max(), rel=1e-15)
    assert check.worst_point == peak
    verdict = is_almost_analytic(phi, xi, POINTS)
    assert not verdict.passed and verdict.detail == {"reason": "tensor is not pure"}
    assert (verdict.residual, verdict.worst_point) == (check.residual, peak)
    with pytest.raises(NotPureError) as err:
        tachibana(phi, xi, POINTS)
    assert err.value.residual == check.residual


def test_tachibana_zero_for_analytic_pair():
    phi = standard_complex_r2()
    assert np.max(np.abs(tachibana(phi, ANALYTIC_XI, POINTS).evaluate(POINTS))) == 0.0
    assert np.max(np.abs(tachibana(phi, ANALYTIC_PAIR_Q2, POINTS).evaluate(POINTS))) == 0.0


def test_tachibana_frozen_obstruction():
    phi = standard_complex_r2()
    tach = tachibana(phi, NECESSITY_XI, POINTS).evaluate([1.0, 0.5])
    assert tach.tolist() == [[0.0, 2.0], [-2.0, 0.0]]
    tach = tachibana(phi, NECESSITY_XI, POINTS).evaluate([0.7, 1.3])
    assert tach[0, 1] == pytest.approx(1.4)
    assert tach[1, 0] == pytest.approx(-1.4)


def test_tachibana_rejects_impure():
    phi = standard_complex_r2()
    delta = CovariantField(2, 2, {(1, 1): 1.0, (2, 2): 1.0})
    with pytest.raises(NotPureError) as err:
        tachibana(phi, delta, POINTS)
    assert err.value.residual == 2.0
    assert err.value.tol == sampling.DEFAULT_TOL


def test_is_almost_analytic_verdicts():
    phi = standard_complex_r2()
    good = is_almost_analytic(phi, ANALYTIC_XI, POINTS)
    assert good.passed and good.residual == 0.0
    bad = is_almost_analytic(phi, NECESSITY_XI, POINTS)
    assert not bad.passed
    assert bad.residual > 1.0
    assert bad.residual == pytest.approx(2.0 * np.max(POINTS[:, 0]))


# ---------------------------------------------------------------------------
# Nijenhuis tensor


def test_nijenhuis_constant_structures_vanish():
    assert np.max(np.abs(nijenhuis(standard_complex_r2()).evaluate(POINTS))) == 0.0
    blocks = [
        [0, -1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, -1],
        [0, 0, 1, 0],
    ]
    phi4 = EndomorphismField(4, blocks)
    p4 = sampling.sample_points(4, count=4)
    assert np.max(np.abs(nijenhuis(phi4).evaluate(p4))) == 0.0


def test_nijenhuis_frozen_component():
    phi = EndomorphismField(2, [["x2", "0"], ["0", "x1"]])
    n_field = nijenhuis(phi)
    for p in POINTS[:4]:
        nv = n_field.evaluate(p)
        assert nv[0, 0, 1] == pytest.approx(p[1] - p[0], rel=1e-12)
        assert nv[0, 1, 0] == pytest.approx(p[0] - p[1], rel=1e-12)
        # antisymmetry in the lower pair
        assert np.max(np.abs(nv + nv.transpose(0, 2, 1))) < 1e-12


@pytest.mark.parametrize(
    "phi",
    [
        EndomorphismField(2, [["x2", "0"], ["x1^2", "x1"]]),
        EndomorphismField(2, [["sin(x1)", "x2"], ["1", "x1*x2"]]),
    ],
)
def test_nijenhuis_matches_bracket_oracle(phi):
    n_field = nijenhuis(phi)
    e1 = VectorField(2, ["1", "0"])
    e2 = VectorField(2, ["0", "1"])
    for p in POINTS[:4]:
        nv = n_field.evaluate(p)
        oracle = _oracles.bracket_nijenhuis(phi, e1, e2, p)
        assert np.max(np.abs(nv[:, 0, 1] - oracle)) < 1e-8


def test_nijenhuis_oracle_three_dimensional():
    phi = EndomorphismField(
        3, [["x2", "0", "x3"], ["0", "x1", "0"], ["1", "x1*x2", "0"]]
    )
    n_field = nijenhuis(phi)
    probes = [
        VectorField(3, ["1", "0", "0"]),
        VectorField(3, ["0", "1", "0"]),
        VectorField(3, ["0", "0", "1"]),
    ]
    p = np.array([0.5, 0.9, 1.2])
    nv = n_field.evaluate(p)
    for j in range(3):
        for k in range(3):
            oracle = _oracles.bracket_nijenhuis(phi, probes[j], probes[k], p)
            assert np.max(np.abs(nv[:, j, k] - oracle)) < 1e-8


def test_contract_one_two_frozen():
    phi = EndomorphismField(2, [["x2", "0"], ["0", "x1"]])
    xi = CovariantField(2, 1, ["1", "0"])
    out = contract_one_two_cov(nijenhuis(phi), xi)
    arr = out.evaluate([0.4, 1.1])
    assert arr[0, 1] == pytest.approx(0.7)
    assert arr[1, 0] == pytest.approx(-0.7)
    assert arr[0, 0] == 0.0 and arr[1, 1] == 0.0


# ---------------------------------------------------------------------------
# the lifted endomorphism


def _generic_phi_xi(rng, n, q):
    """A degree-2 polynomial phi and a generic (impure) degree-2 xi."""
    phi = EndomorphismField(n, [[polynomial_text(rng, n, 2, 0.5) for _ in range(n)]
                                for _ in range(n)])
    xi = CovariantField(n, q, {tuple(i + 1 for i in k): polynomial_text(rng, n, 2, 0.5)
                               for k in np.ndindex((n,) * q)})
    return phi, xi


@DIM_RANK
def test_lift_has_an_exactly_zero_horizontal_from_fibre_block(n, q):
    phi, xi = _generic_phi_xi(np.random.default_rng(900 + 10 * n + q), n, q)
    points = sampling.sample_points(n, count=5, seed=n + q)
    for x in (points, points[2]):
        lift = complete_lift_endo_on_section(phi, xi, x)
        assert lift.shape == x.shape[:-1] + (bundle_dim(n, q),) * 2
        assert np.all(lift[..., :n, n:] == 0.0)
        assert np.any(lift[..., n:, :n] != 0.0)  # the coupling below is not


@pytest.mark.parametrize("n,q", [(2, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
def test_natural_endo_lift_through_the_frame_is_the_lift_on_section(n, q):
    # the natural-frame lift at t = xi(x), written entry by entry, seen in
    # the adapted frame; purity is not needed for this agreement
    phi, xi = _generic_phi_xi(np.random.default_rng(950 + 10 * n + q), n, q)
    points = sampling.sample_points(n, count=4, seed=10 + n + q)
    frame = adapted_frame(xi, points)
    natural = _oracles.complete_lift_endo_natural(phi, points, xi.evaluate(points))
    got = frame.coframe_matrix() @ natural @ frame.frame_matrix()
    want = complete_lift_endo_on_section(phi, xi, points)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_lift_matrix_frozen_analytic():
    phi = standard_complex_r2()
    lift = complete_lift_endo_on_section(phi, ANALYTIC_XI, [0.6, 1.2])
    expected = np.array(
        [
            [0.0, -1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0, 0.0],
        ]
    )
    assert np.array_equal(lift, expected)
    assert np.max(np.abs(lift @ lift + np.eye(4))) == 0.0


def test_lift_matrix_frozen_necessity():
    # the Tachibana block is nonzero, yet the square still closes: the
    # off-diagonal couplings cancel exactly for a constant structure
    phi = standard_complex_r2()
    lift = complete_lift_endo_on_section(phi, NECESSITY_XI, [1.0, 0.5])
    expected = np.array(
        [
            [0.0, -1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 2.0, 0.0, 1.0],
            [-2.0, 0.0, -1.0, 0.0],
        ]
    )
    assert np.array_equal(lift, expected)
    assert np.max(np.abs(lift @ lift + np.eye(4))) == 0.0


def test_lift_q2_square_closes():
    phi = standard_complex_r2()
    for p in POINTS[:6]:
        lift = complete_lift_endo_on_section(phi, ANALYTIC_PAIR_Q2, p)
        assert lift.shape == (6, 6)
        assert np.max(np.abs(lift @ lift + np.eye(6))) < 1e-12


def test_lift_applies_to_vectors():
    phi = standard_complex_r2()
    p = POINTS[0]
    lift = complete_lift_endo_on_section(phi, ANALYTIC_XI, p)
    vec = complete_lift_vector_on_section(VectorField(2, ["x2", "x1"]), ANALYTIC_XI, p)
    twice = lift @ (lift @ vec)
    assert np.max(np.abs(twice + vec)) < 1e-14


# ---------------------------------------------------------------------------
# the characterization identities and the lift theorem


@pytest.mark.parametrize("xi", [ANALYTIC_XI, NECESSITY_XI, ANALYTIC_PAIR_Q2])
def test_characterization_identities(xi):
    # both identities hold along any pure section, analytic or not
    phi = standard_complex_r2()
    rng = np.random.default_rng(29)
    v = random_vector_field(rng, 2)
    a = random_covariant_field(rng, 2, xi.q)
    report = verify_characterization(phi, xi, v, a, POINTS)
    assert report.passed
    assert report.detail["complete_residual"] < 1e-9
    assert report.detail["vertical_residual"] < 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_characterization_nonconstant_structure(n):
    # a non-constant phi exercises the d phi term of the Tachibana block,
    # which every constant structure above leaves at zero
    rng = np.random.default_rng(31)
    phi = EndomorphismField(
        n, [[f"{i - j + 0.5}*x{(i + j) % n + 1}" for j in range(n)] for i in range(n)]
    )
    xi = random_covariant_field(rng, n, 1)
    v = random_vector_field(rng, n)
    a = random_covariant_field(rng, n, 1)
    report = verify_characterization(phi, xi, v, a, sampling.sample_points(n, count=8))
    assert report.detail["complete_residual"] < 1e-9
    assert report.detail["vertical_residual"] < 1e-9


def test_characterization_rejects_rank_mismatch():
    phi = standard_complex_r2()
    v = VectorField(2, ["1", "0"])
    a = CovariantField(2, 2, {(1, 1): "1"})
    with pytest.raises(ValueError):
        verify_characterization(phi, ANALYTIC_XI, v, a, POINTS)


def test_theorem_analytic_instance_passes():
    report = verify_theorem1(standard_complex_r2(), ANALYTIC_XI, POINTS, tol=1e-12)
    assert report.detail["hypotheses_hold"] and report.residual <= report.tol and report.passed
    assert report.detail["square_residual"] == 0.0
    assert report.detail["purity_residual"] == 0.0
    assert report.detail["tachibana_residual"] == 0.0
    assert report.detail["nijenhuis_residual"] == 0.0
    assert report.detail["lift_square_residual"] == 0.0


def test_theorem_q2_instance_passes():
    report = verify_theorem1(standard_complex_r2(), ANALYTIC_PAIR_Q2, POINTS, tol=1e-12)
    assert report.detail["hypotheses_hold"] and report.residual <= report.tol and report.passed


def test_theorem_necessity_instance_reports_hypothesis_failure():
    report = verify_theorem1(standard_complex_r2(), NECESSITY_XI, POINTS, tol=1e-9)
    assert not report.detail["hypotheses_hold"]
    assert report.detail["tachibana_residual"] > 1.0
    # the conclusion happens to hold anyway: the structure is constant, so
    # the lift squares to minus the identity for every section
    assert report.residual <= report.tol
    assert report.passed
    assert report.detail["lift_square_residual"] == 0.0


def test_theorem_detects_non_complex_structure():
    phi = EndomorphismField(2, [["0", "-2"], ["1", "0"]])  # squares to -2 I
    report = verify_theorem1(phi, ANALYTIC_XI, POINTS, tol=1e-9)
    assert not report.detail["hypotheses_hold"]
    assert report.detail["square_residual"] == 1.0


# ---------------------------------------------------------------------------
# a batch of points: the stack of single-point results, one code path

BATCH_SHAPES = pytest.mark.parametrize("n,q", [(2, 1), (2, 3), (3, 2), (4, 1)])
# a batch and a single point may sum in different orders
BATCH_ATOL = 1e-13
CHECK_RTOL = 1e-12


def _batch_inputs(n, q):
    rng = np.random.default_rng(600 + 10 * n + q)
    phi = EndomorphismField(
        n, [[str(random_polynomial_expr(rng, n)) for _ in range(n)] for _ in range(n)]
    )
    xi = random_covariant_field(rng, n, q)
    v = random_vector_field(rng, n)
    a = random_covariant_field(rng, n, q)
    return phi, xi, v, a, sampling.sample_points(n, count=5, seed=n + q)


def test_bundle_point_batch_validation():
    at = BundlePoint(2, 2, np.full((3, 2), 0.5), np.zeros((3, 4)))
    assert at.fibre.shape == (3, 4)
    with pytest.raises(ValueError):
        BundlePoint(2, 2, np.full((3, 2), 0.5), np.zeros((2, 4)))
    with pytest.raises(ValueError):
        BundlePoint(2, 1, 0.5, np.zeros(2))


@BATCH_SHAPES
def test_bundle_batch_stacks_single_points(n, q):
    # evaluation, placement and products with 0 and 1 only: bit for bit
    phi, xi, _, _, points = _batch_inputs(n, q)
    fibre = np.random.default_rng(1).uniform(-1.0, 1.0, size=(len(points), n**q))
    at = BundlePoint(n, q, points, fibre)
    section = cross_section_point(xi, points)
    frame = adapted_frame(xi, points)
    lift = complete_lift_endo_on_section(phi, xi, points)
    for i, p in enumerate(points):
        assert np.array_equal(at.fibre[i], BundlePoint(n, q, p, fibre[i]).fibre)
        one = cross_section_point(xi, p)
        assert np.array_equal(section.base[i], one.base)
        assert np.array_equal(section.fibre[i], one.fibre)
        single = adapted_frame(xi, p)
        for name in ("b", "c", "b_inv", "c_inv", "frame_matrix", "coframe_matrix"):
            got, want = getattr(frame, name), getattr(single, name)
            got, want = (got(), want()) if callable(got) else (got, want)
            assert np.array_equal(got[i], want), name
        assert np.array_equal(lift[i], complete_lift_endo_on_section(phi, xi, p))


def _lift_matrix_by_blocks(phi, xi, p):
    """Reference for the lifted endomorphism at one point: the blocks
    written out, the first-slot block as a Kronecker product."""
    n, q = xi.n, xi.q
    nf = n**q
    phi_mat = phi.evaluate(p)
    mat = np.zeros((n + nf, n + nf))
    mat[:n, :n] = phi_mat
    mat[n:, :n] = -_tachibana_field(phi, xi).evaluate(p).reshape(n, nf).T
    mat[n:, n:] = np.kron(phi_mat.T, np.eye(n ** (q - 1)))
    return mat


def _characterization_residual_at(phi, xi, v, a, p):
    """Reference for one point of verify_characterization."""
    n = xi.n
    lift = _lift_matrix_by_blocks(phi, xi, p)
    cl_v = np.concatenate([v.evaluate(p), -lie_derivative_cov(v, xi).evaluate(p).reshape(-1)])
    phi_v = apply_endo_vec(phi, v)
    rhs_c = np.concatenate(
        [
            phi_v.evaluate(p),
            -lie_derivative_cov(phi_v, xi).evaluate(p).reshape(-1)
            + apply_endo_cov(lie_derivative_endo(v, phi), xi).evaluate(p).reshape(-1),
        ]
    )
    vl_a = np.concatenate([np.zeros(n), a.evaluate(p).reshape(-1)])
    rhs_v = np.concatenate([np.zeros(n), apply_endo_cov(phi, a).evaluate(p).reshape(-1)])
    return max(np.max(np.abs(lift @ cl_v - rhs_c)), np.max(np.abs(lift @ vl_a - rhs_v)))


def _assert_matches_reference(got_each, whole, points, want):
    """Per-point residuals of the batched code (one-point batches) against
    the reference loop, and the whole batch's verdict point."""
    np.testing.assert_allclose(got_each, want, rtol=CHECK_RTOL, atol=BATCH_ATOL)
    assert whole.residual == pytest.approx(max(want), rel=CHECK_RTOL, abs=BATCH_ATOL)
    if max(want) > 1e-6:  # well above rounding, so the worst point is unambiguous
        assert whole.worst_point == tuple(points[int(np.argmax(want))])


@BATCH_SHAPES
def test_characterization_matches_per_point_reference(n, q):
    phi, xi, v, a, points = _batch_inputs(n, q)
    got = [
        verify_characterization(phi, xi, v, a, points[i : i + 1]).residual
        for i in range(len(points))
    ]
    want = [_characterization_residual_at(phi, xi, v, a, p) for p in points]
    _assert_matches_reference(got, verify_characterization(phi, xi, v, a, points), points, want)


@BATCH_SHAPES
def test_theorem1_lift_square_matches_per_point_reference(n, q):
    phi, xi, _, _, points = _batch_inputs(n, q)
    got = [verify_theorem1(phi, xi, points[i : i + 1]) for i in range(len(points))]
    want = []
    for p in points:
        mat = _lift_matrix_by_blocks(phi, xi, p)
        want.append(np.max(np.abs(mat @ mat + np.eye(len(mat)))))
    whole = verify_theorem1(phi, xi, points)
    np.testing.assert_allclose(
        [r.detail["lift_square_residual"] for r in got], want, rtol=CHECK_RTOL, atol=BATCH_ATOL
    )
    assert whole.detail["lift_square_residual"] == pytest.approx(max(want), rel=CHECK_RTOL)
    # the worst point is that of the conclusions, the lift's square and the
    # Nijenhuis contraction together, and a check at it alone attains the residual
    nij = contract_one_two_cov(nijenhuis(phi), xi).evaluate(points)
    conclusions = np.maximum(want, np.abs(nij).reshape(len(points), -1).max(axis=1))
    worst = int(np.argmax(conclusions))
    assert whole.worst_point == tuple(points[worst])
    assert whole.residual == pytest.approx(conclusions[worst], rel=CHECK_RTOL)
    assert got[worst].residual == pytest.approx(whole.residual, rel=CHECK_RTOL)


def test_theorem1_worst_point_attains_the_conclusions_residual():
    # a random pair whose Nijenhuis contraction peaks where the lift's
    # square does not and outweighs it there
    rng = np.random.default_rng(2)
    phi = EndomorphismField(
        2, [[str(random_polynomial_expr(rng, 2)) for _ in range(2)] for _ in range(2)]
    )
    xi = random_covariant_field(rng, 2, 1)
    points = sampling.sample_points(2, count=5, seed=2)
    whole = verify_theorem1(phi, xi, points)
    nij = np.abs(contract_one_two_cov(nijenhuis(phi), xi).evaluate(points)).max(axis=(1, 2))
    worst = int(np.argmax(nij))
    lift = [verify_theorem1(phi, xi, p[None]).detail["lift_square_residual"] for p in points]
    assert int(np.argmax(lift)) != worst
    assert whole.residual == whole.detail["nijenhuis_residual"] == nij[worst]
    assert whole.worst_point == tuple(points[worst])
    assert verify_theorem1(phi, xi, points[worst : worst + 1]).residual == whole.residual


VECTOR_SHAPES = pytest.mark.parametrize("n,q", [(2, 1), (3, 2), (4, 3)])


def _apply(mat, vec):
    """Each matrix of a batch applied to its vector."""
    return np.matmul(mat, vec[..., None])[..., 0]


@VECTOR_SHAPES
def test_vector_lifts_batch_stacks_single_points(n, q):
    phi, xi, v, a, points = _batch_inputs(n, q)
    fibre = np.random.default_rng(2).uniform(-1.0, 1.0, size=(len(points), n**q))
    tensors = fibre.reshape((len(points),) + (n,) * q)
    frame = adapted_frame(xi, points)
    natural = _oracles.complete_lift_vector_natural(v, points, tensors)
    on_section = complete_lift_vector_on_section(v, xi, points)
    batched = {
        "vertical": vertical_lift(a, points),
        "on_section": on_section,
        "natural": natural,
        "to_adapted": _apply(frame.coframe_matrix(), natural),
        "round_trip": _apply(frame.frame_matrix(), _apply(frame.coframe_matrix(), natural)),
        "apply": _apply(complete_lift_endo_on_section(phi, xi, points), on_section),
    }
    for i, p in enumerate(points):
        one_frame = adapted_frame(xi, p)
        one_natural = _oracles.complete_lift_vector_natural(v, p, tensors[i])
        one_on_section = complete_lift_vector_on_section(v, xi, p)
        singles = {
            "vertical": vertical_lift(a, p),
            "on_section": one_on_section,
            "natural": one_natural,
            "to_adapted": one_frame.coframe_matrix() @ one_natural,
            "round_trip": one_frame.frame_matrix() @ (one_frame.coframe_matrix() @ one_natural),
            "apply": complete_lift_endo_on_section(phi, xi, p) @ one_on_section,
        }
        for name, one in singles.items():
            got = batched[name]
            assert got.shape == (len(points), n + n**q), name
            assert np.max(np.abs(got[i] - one)) <= BATCH_ATOL, name
    back = batched["round_trip"]
    assert np.max(np.abs(back - natural)) <= BATCH_ATOL


@VECTOR_SHAPES
def test_natural_complete_lift_on_a_batch_of_section_points(n, q):
    # the natural-frame formula through the coframe, against (V, -L_V xi)
    _, xi, v, _, points = _batch_inputs(n, q)
    natural = _oracles.complete_lift_vector_natural(v, points, xi.evaluate(points))
    via_frame = _apply(adapted_frame(xi, points).coframe_matrix(), natural)
    direct = complete_lift_vector_on_section(v, xi, points)
    assert np.max(np.abs(via_frame - direct)) <= BATCH_ATOL
