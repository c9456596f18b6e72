import contextlib
import itertools
import math
import re

import numpy as np
import pytest

import _oracles
from _fields import (
    DIM_RANK,
    flipped_curvature,
    random_covariant_field,
    random_symmetric_connection,
    read_only,
    replace_slot,
)
from liftlab import connection_lift, sampling, tensor
from liftlab.bundle import BundlePoint, adapted_frame, cross_section_point
from liftlab.cli import _check_lift_zeros
from liftlab.connection_lift import (
    LiftedConnectionCoeffs,
    TorsionError,
    _curvature_cov_derivative,
    _frame_and_slope_arrays,
    _slot_apply,
    complete_lift_connection,
    curvature_tangency,
    gauss_consistency,
    gauss_second_fundamental,
    induced_connection,
    is_totally_geodesic,
    require_symmetric,
)
from liftlab.presets import (
    flat_connection,
    sphere_chart_connection,
    sphere_chart_metric,
)
from liftlab.tensor import (
    ConnectionField,
    CovariantField,
    covariant_derivative_cov,
    curvature,
    kept,
    one_case,
    rank_multi_index,
)

POINTS = sampling.sample_points(2, count=16)
POINTS_BY_DIM = {n: sampling.sample_points(n, count=16) for n in (3, 4)} | {2: POINTS}

FLAT = flat_connection(2)
SPHERE = sphere_chart_connection()
METRIC = sphere_chart_metric()
QUADRATIC_XI = CovariantField(2, 2, {(1, 2): "x1*x2"})
AFFINE_XI = CovariantField(2, 1, ["2*x1 + 3*x2 + 1", "x1 - x2"])


def _random_fibre(rng, n, q):
    return rng.uniform(-1.0, 1.0, size=n**q)


_dense = _oracles.lifted_connection_dense


def _mixed_blocks(full, n):
    """The (base, fibre) and (fibre, base) mixed blocks of a dense lift."""
    return full[..., n:, :n, n:], full[..., n:, n:, :n]


# ---------------------------------------------------------------------------
# the lifted connection coefficients


def test_flat_lift_vanishes():
    rng = np.random.default_rng(5)
    for q in (1, 2):
        at = BundlePoint(2, q, POINTS[0], _random_fibre(rng, 2, q))
        coeffs = complete_lift_connection(flat_connection(2), at)
        assert np.max(np.abs(_dense(coeffs))) == 0.0


def test_fibre_block_vanishes_at_zero_fibre():
    at = BundlePoint(2, 1, POINTS[1], np.zeros(2))
    coeffs = complete_lift_connection(SPHERE, at)
    assert np.max(np.abs(coeffs.fibre_bb)) == 0.0
    mixed_bf, _ = _mixed_blocks(_dense(coeffs), 2)
    assert np.max(np.abs(mixed_bf)) > 0.1  # base coupling survives


def test_lift_linear_in_fibre_coordinate():
    rng = np.random.default_rng(8)
    for q in (1, 2):
        t = _random_fibre(rng, 2, q)
        p = POINTS[2]
        one = complete_lift_connection(SPHERE, BundlePoint(2, q, p, t))
        two = complete_lift_connection(SPHERE, BundlePoint(2, q, p, 2.0 * t))
        assert np.max(np.abs(two.fibre_bb - 2.0 * one.fibre_bb)) < 1e-12
        for a, b in zip(_mixed_blocks(_dense(two), 2), _mixed_blocks(_dense(one), 2)):
            assert np.array_equal(a, b)
        assert np.array_equal(two.base, one.base)


def test_lift_block_placement():
    rng = np.random.default_rng(9)
    at = BundlePoint(2, 1, POINTS[3], _random_fibre(rng, 2, 1))
    coeffs = complete_lift_connection(SPHERE, at)
    full = _dense(coeffs)
    n = 2
    assert np.array_equal(full[:n, :n, :n], coeffs.base)
    mixed_bf, mixed_fb = _mixed_blocks(full, n)
    assert np.array_equal(mixed_fb, mixed_bf.transpose(0, 2, 1))
    # the mixed blocks reshuffle Gamma: x -> a in the one fibre slot
    assert np.array_equal(mixed_bf, -coeffs.base.transpose(2, 1, 0))
    assert np.array_equal(full[n:, :n, :n], coeffs.fibre_bb)
    # no horizontal output from fibre legs, no fibre-fibre legs
    assert np.max(np.abs(full[:n, n:, :])) == 0.0
    assert np.max(np.abs(full[:n, :, n:])) == 0.0
    assert np.max(np.abs(full[n:, n:, n:])) == 0.0


def test_lift_symmetric_in_lower_pair():
    for q in (1, 2, 3):
        # the check draws its fibre from the generator it is given
        check = _check_lift_zeros(SPHERE, q, POINTS[4:5], np.random.default_rng(12 + q), 1e-12)
        fib = np.random.default_rng(12 + q).uniform(-1.0, 1.0, size=(1, 2**q))
        dense = _dense(complete_lift_connection(SPHERE, BundlePoint(2, q, POINTS[4:5], fib)))
        asym = np.max(np.abs(dense - np.swapaxes(dense, -1, -2)))
        assert check.passed and asym <= check.residual < 1e-12


# (1,1,2) set and its mirror (1,2,1) left zero: Gamma^1_{12} - Gamma^1_{21} = x1
ASYMMETRIC = ConnectionField(2, {(1, 1, 2): "x1"})
XI_Q1 = CovariantField(2, 1, ["x1", "0"])


def test_lift_rejects_torsion():
    # measured, not declared: the plain constructor takes any Gamma, and
    # every function that needs symmetry finds the asymmetry at its points
    pts = POINTS[:2]
    calls = [
        lambda: complete_lift_connection(ASYMMETRIC, BundlePoint(2, 1, pts, np.zeros((2, 2)))),
        lambda: induced_connection(ASYMMETRIC, XI_Q1, pts),
        lambda: gauss_consistency(ASYMMETRIC, XI_Q1, pts),
        lambda: is_totally_geodesic(ASYMMETRIC, XI_Q1, pts),
        lambda: curvature_tangency(ASYMMETRIC, XI_Q1, pts),
        lambda: gauss_second_fundamental(ASYMMETRIC, XI_Q1).evaluate(pts),
    ]
    for call in calls:
        with pytest.raises(TorsionError, match="must be symmetric") as err:
            call()
        assert f"asymmetry {np.max(pts[:, 0]):.3e}" in str(err.value)


@pytest.mark.parametrize("shape", [(2,), (1, 2), (16, 2), (4, 4, 2)], ids=str)
def test_require_symmetric_takes_one_point_or_any_batch(shape):
    pts = POINTS[: math.prod(shape[:-1])].reshape(shape)
    want = np.max(pts[..., 0])  # Gamma^1_{12} - Gamma^1_{21} = x1
    with pytest.raises(TorsionError, match=re.escape(f"asymmetry {want:.3e} exceeds 1.0e-12")):
        require_symmetric(ASYMMETRIC, pts)
    require_symmetric(SPHERE, pts)


def test_require_symmetric_reads_the_cached_jets(monkeypatch):
    # at one point or a batch, the gate reads the jets its caller took and
    # leaves them in the case table for the next reader
    gamma = ConnectionField(2, {(1, 1, 2): "x1*x2", (1, 2, 1): "x2*x1"})
    evaluated = []
    tape_jets = type(gamma.tape).jets
    monkeypatch.setattr(type(gamma.tape), "jets",
                        lambda tape, p, k: evaluated.append(p.shape) or tape_jets(tape, p, k))
    with one_case():
        for pts in (read_only(POINTS), read_only(POINTS[3])):
            gamma.jets(pts, 1)
            require_symmetric(gamma, pts)
            gamma.jets(pts, 1)
    assert evaluated == [(16, 2), (2,)]


def test_require_symmetric_in_a_case_passes_again_only_where_it_passed(monkeypatch):
    # Gamma^1_{12} - Gamma^1_{21} = x1 - x2 vanishes on the diagonal only
    gamma = ConnectionField(2, {(1, 1, 2): "x1", (1, 2, 1): "x2"})
    diagonal = read_only(np.repeat(POINTS[:4, :1], 2, axis=1))
    off_diagonal = read_only(POINTS[:4])
    reductions = []
    check = sampling.sampled_check
    monkeypatch.setattr(sampling, "sampled_check",
                        lambda *args: reductions.append(args[1].shape) or check(*args))
    with one_case():
        require_symmetric(gamma, diagonal)
        require_symmetric(gamma, diagonal)
        assert len(reductions) == 1
        require_symmetric(gamma, diagonal.copy())  # a writable array is looked at afresh
        assert len(reductions) == 2
        with pytest.raises(TorsionError):
            require_symmetric(gamma, off_diagonal)
        with pytest.raises(TorsionError):
            require_symmetric(gamma, off_diagonal)
        assert len(reductions) == 4
    require_symmetric(gamma, diagonal)  # the case is over: a fresh look
    assert len(reductions) == 5


def test_the_section_lift_a_case_shares_isread_only():
    # induced_connection and gauss_consistency read the one lift of the
    # case, so neither may be handed an array it could write into
    x = read_only(POINTS[:8])
    with one_case():
        out = kept(connection_lift._lift_along_section, SPHERE, AFFINE_XI, x)
        assert kept(connection_lift._lift_along_section, SPHERE, AFFINE_XI, x) is out
        assert all(isinstance(a, np.ndarray) and tensor._fixed(a) for a in out)


def test_mirrored_entries_written_differently_are_symmetric():
    gamma = ConnectionField(2, {(1, 1, 2): "x1*x2", (1, 2, 1): "x2*x1"})
    require_symmetric(gamma, POINTS)
    complete_lift_connection(gamma, BundlePoint(2, 1, POINTS, np.zeros((16, 2))))
    assert gauss_consistency(gamma, XI_Q1, POINTS).passed
    curvature_tangency(gamma, XI_Q1, POINTS)


def _lift_blocks_by_entry(gamma, at):
    """Reference for complete_lift_connection: every block filled entry by
    entry, one multi-index and one replaced slot at a time."""
    n, q = at.n, at.q
    nf = n**q
    t = at.fibre.reshape((n,) * q)
    g = gamma.evaluate(at.base)
    dg = gamma.partials_at(at.base)
    r4 = curvature(gamma).evaluate(at.base)
    mixed_bf = _oracles.mixed_block_by_entry(g, q)
    fibre_bb = np.zeros((nf, n, n))
    for mi in itertools.product(range(1, n + 1), repeat=q):
        row = rank_multi_index(mi, n)
        for c in range(q):
            x = mi[c] - 1
            for a in range(n):
                rep = replace_slot(mi, c, a + 1)
                val = t[tuple(k - 1 for k in rep)]
                for m in range(n):
                    for s in range(n):
                        term = -dg[m, a, s, x] + r4[x, s, m, a]
                        for r in range(n):
                            term += g[r, m, x] * g[a, s, r] + g[r, m, s] * g[a, r, x]
                        fibre_bb[row, m, s] += term * val
        for b in range(q):
            for c in range(q):
                if b == c:
                    continue
                for rb in range(n):
                    for rc in range(n):
                        two = replace_slot(replace_slot(mi, b, rb + 1), c, rc + 1)
                        val = t[tuple(k - 1 for k in two)]
                        fibre_bb[row] += val * np.outer(g[rb, :, mi[b] - 1], g[rc, :, mi[c] - 1])
    return g, mixed_bf, mixed_bf.transpose(0, 2, 1), fibre_bb


@pytest.mark.parametrize("n,q", [(2, 3), (3, 1), (3, 2), (3, 3)])
def test_lift_blocks_match_entrywise_reference(n, q):
    rng = np.random.default_rng(400 + 10 * n + q)
    gamma = random_symmetric_connection(rng, n)
    at = BundlePoint(n, q, POINTS_BY_DIM[n][5], _random_fibre(rng, n, q))
    got = complete_lift_connection(gamma, at)
    want = _lift_blocks_by_entry(gamma, at)
    # the library's own mixed block, against the entrywise one
    mixed = got._mixed_times(np.eye(n**q))
    blocks = (got.base, mixed, np.swapaxes(mixed, -1, -2), got.fibre_bb)
    for block, ref in zip(blocks, want):
        assert np.max(np.abs(block - ref)) < 1e-12


# ---------------------------------------------------------------------------
# induced connection


@DIM_RANK
def test_induced_connection_equals_base(n, q):
    rng = np.random.default_rng(200 + q if n == 2 else 210 + q)
    for _ in range(5):
        gamma = random_symmetric_connection(rng, n)
        xi = random_covariant_field(rng, n, q)
        worst = 0.0
        for p in POINTS_BY_DIM[n][:8]:
            got = induced_connection(gamma, xi, p)
            worst = max(worst, np.max(np.abs(got - gamma.evaluate(p))))
        assert worst < 1e-12


@pytest.mark.parametrize("n,q", [(2, 1), (3, 2), (4, 3)])
def test_induced_connection_is_the_base_bit_for_bit(n, q):
    # exact by construction: the coframe's horizontal rows are [I 0], the
    # base rows of d_j B^A_i are zero and those of along_section are the
    # stored base block, so nothing of the fibre blocks reaches the result
    rng = np.random.default_rng(230 + 10 * n + q)
    gamma = random_symmetric_connection(rng, n)
    xi = random_covariant_field(rng, n, q)
    points = sampling.sample_points(n, count=64)
    assert np.array_equal(induced_connection(gamma, xi, points), gamma.evaluate(points))


def test_induced_connection_sphere_metric():
    for p in POINTS[:8]:
        got = induced_connection(SPHERE, METRIC, p)
        assert np.max(np.abs(got - SPHERE.evaluate(p))) < 1e-12


# ---------------------------------------------------------------------------
# Gauss tensor and totally geodesic sections


def test_gauss_flat_quadratic_frozen():
    h = gauss_second_fundamental(FLAT, QUADRATIC_XI)
    for p in POINTS[:6]:
        arr = h.evaluate(p)
        # only the mixed second derivative of xi_{12} survives
        expected = np.zeros((2, 2, 2, 2))
        expected[0, 1, 0, 1] = 1.0
        expected[1, 0, 0, 1] = 1.0
        assert np.array_equal(arr, expected)


def test_gauss_flat_affine_vanishes():
    h = gauss_second_fundamental(FLAT, AFFINE_XI)
    assert np.max(np.abs(h.evaluate(POINTS))) == 0.0


def test_gauss_sphere_metric_frozen_component():
    h = gauss_second_fundamental(SPHERE, METRIC)
    for p in POINTS[:6]:
        x1 = p[0]
        val = h.evaluate(p)
        assert val[1, 1, 0, 0] == pytest.approx(2.0 * np.sin(x1) ** 2, rel=1e-12)
        assert val[0, 1, 1, 0] == pytest.approx(-np.sin(x1) ** 2, rel=1e-12)


def test_gauss_symmetric_in_derivative_pair():
    rng = np.random.default_rng(31)
    xi = random_covariant_field(rng, 2, 2)
    h = gauss_second_fundamental(SPHERE, xi)
    arr = h.evaluate(POINTS[:8])
    assert np.max(np.abs(arr - arr.transpose(0, 2, 1, 3, 4))) < 1e-12


def test_totally_geodesic_verdicts():
    good = is_totally_geodesic(FLAT, AFFINE_XI, POINTS)
    assert good.passed and good.residual == 0.0

    bad = is_totally_geodesic(FLAT, QUADRATIC_XI, POINTS)
    assert not bad.passed
    assert bad.residual == 1.0

    sphere = is_totally_geodesic(SPHERE, METRIC, POINTS)
    assert not sphere.passed
    assert sphere.residual == pytest.approx(2.0 * np.sin(POINTS[:, 0].max()) ** 2)


# ---------------------------------------------------------------------------
# Gauss consistency: frame derivative vs H, two independent assemblies


def test_gauss_consistency_flat_and_sphere():
    assert gauss_consistency(FLAT, QUADRATIC_XI, POINTS, tol=1e-12).passed
    check = gauss_consistency(SPHERE, METRIC, POINTS, tol=1e-9)
    assert check.passed
    assert check.residual < 1e-12


@DIM_RANK
def test_gauss_consistency_random(n, q):
    rng = np.random.default_rng(300 + q if n == 2 else 310 + q)
    gamma = random_symmetric_connection(rng, n)
    xi = random_covariant_field(rng, n, q)
    points = POINTS_BY_DIM[n][:8]
    assert gauss_consistency(gamma, xi, points, tol=1e-9).passed
    other = SPHERE if n == 2 else flat_connection(n)  # the sphere chart is 2d
    assert gauss_consistency(other, xi, points, tol=1e-9).passed


def test_gauss_consistency_rank_three():
    rng = np.random.default_rng(303)
    xi = random_covariant_field(rng, 2, 3)
    assert gauss_consistency(SPHERE, xi, POINTS[:4], tol=1e-9).passed


def test_gauss_consistency_flipped_curvature_fails():
    with flipped_curvature():
        check = gauss_consistency(SPHERE, METRIC, POINTS, tol=1e-9)
    assert not check.passed
    assert check.residual > 1e-2


# ---------------------------------------------------------------------------
# curvature variation tangent to the cross-section


def test_tangency_flat():
    rng = np.random.default_rng(41)
    for q in (1, 2):
        xi = random_covariant_field(rng, 2, q)
        check = curvature_tangency(FLAT, xi, POINTS[:8], tol=1e-12)
        assert check.passed and check.residual == 0.0


def test_tangency_sphere_metric():
    check = curvature_tangency(SPHERE, METRIC, POINTS, tol=1e-12)
    assert check.passed


def test_sphere_curvature_is_parallel():
    # the tangency identity for the metric section rests on nabla R = 0
    for p in POINTS[:6]:
        assert np.max(np.abs(_curvature_cov_derivative(SPHERE, p))) < 1e-12


def test_tangency_sphere_generic_fails():
    rng = np.random.default_rng(43)
    xi = random_covariant_field(rng, 2, 2)
    check = curvature_tangency(SPHERE, xi, POINTS, tol=1e-3)
    assert not check.passed
    assert check.residual > 1e-3
    assert len(check.worst_point) == 2


def _tangency_residual_by_entry(gamma, xi, p):
    """Reference for one point of curvature_tangency: both sides summed
    entry by entry."""
    n, q = xi.n, xi.q
    r4 = curvature(gamma).evaluate(p)
    dr = _curvature_cov_derivative(gamma, p)
    xiv = xi.evaluate(p)
    dxi = covariant_derivative_cov(gamma, xi).evaluate(p)
    worst = 0.0
    for k in range(n):
        for j in range(n):
            for i in range(n):
                for mi in itertools.product(range(1, n + 1), repeat=q):
                    h = tuple(v - 1 for v in mi)
                    lhs = 0.0
                    rhs = sum(r4[k, j, i, l] * dxi[(l,) + h] for l in range(n))
                    for slot in range(q):
                        hs = h[slot]
                        for l in range(n):
                            rep = replace_slot(h, slot, l)
                            lhs += (dr[k, hs, i, j, l] - dr[j, hs, i, k, l]) * xiv[rep]
                            rhs += r4[k, j, hs, l] * dxi[(i,) + rep]
                            rhs -= r4[hs, i, j, l] * dxi[(k,) + rep]
                            rhs += r4[hs, i, k, l] * dxi[(j,) + rep]
                    worst = max(worst, abs(lhs - rhs))
    return worst


@pytest.mark.parametrize("n,q", [(2, 2), (3, 1), (3, 2)])
def test_tangency_matches_entrywise_reference(n, q):
    rng = np.random.default_rng(500 + 10 * n + q)
    gamma = random_symmetric_connection(rng, n)
    xi = random_covariant_field(rng, n, q)
    points = POINTS_BY_DIM[n][:3]
    check = curvature_tangency(gamma, xi, points, tol=1e-3)
    want = max(_tangency_residual_by_entry(gamma, xi, p) for p in points)
    assert check.residual > 1e-3
    assert check.residual == pytest.approx(want, rel=1e-12)


def test_tangency_rejects_mismatched_chart():
    xi = CovariantField(3, 1, ["x1", "0", "0"])
    with pytest.raises(ValueError):
        curvature_tangency(SPHERE, xi, POINTS[:2])


# ---------------------------------------------------------------------------
# a batch of points: the stack of single-point results, one code path

BATCH_SHAPES = pytest.mark.parametrize("n,q", [(2, 1), (2, 3), (3, 2), (4, 1)])
# a batch and a single point may sum in different orders
BATCH_ATOL = 1e-13
CHECK_RTOL = 1e-12
BLOCKS = ("base", "fibre_bb")


def _batch_inputs(n, q):
    rng = np.random.default_rng(700 + 10 * n + q)
    gamma = random_symmetric_connection(rng, n)
    xi = random_covariant_field(rng, n, q)
    points = POINTS_BY_DIM[n][:5]
    return gamma, xi, points, rng.uniform(-1.0, 1.0, size=(len(points), n**q))


def _lift_zeros_on_blocks(monkeypatch, coeffs, points):
    """The lift_connection_zeros check run on given blocks: the lift
    returns coeffs and the fibre block at 2t returns 2 fibre_bb, so the
    check reads the lower-pair asymmetry of the blocks alone."""
    with monkeypatch.context() as m:
        m.setattr(connection_lift, "complete_lift_connection", lambda gamma, at: coeffs)
        m.setattr(connection_lift, "t_linear_block", lambda *args: 2.0 * coeffs.fibre_bb)
        gamma = flat_connection(coeffs.n)
        return _check_lift_zeros(gamma, coeffs.q, points, np.random.default_rng(0), 0.0)


def _kron_slot_operator(mats, slot, q):
    """Reference for one slot action: each n x n matrix of the batch as the
    n^q x n^q operator I (x) mats (x) I on rank-ordered fibre coordinates."""
    n = mats.shape[-1]
    ops = np.empty(mats.shape[:-2] + (n**q, n**q))
    for i in np.ndindex(mats.shape[:-2]):
        ops[i] = np.kron(np.kron(np.eye(n**slot), mats[i]), np.eye(n ** (q - 1 - slot)))
    return ops


@BATCH_SHAPES
def test_slot_operator_batch_matches_kron(n, q):
    rng = np.random.default_rng(750 + 10 * n + q)
    mats = rng.normal(size=(5, n, n))
    t = rng.normal(size=(5, n**q))
    for slot in range(q):
        applied = np.einsum("...ij,...j->...i", _kron_slot_operator(mats, slot, q), t)
        assert np.max(np.abs(_slot_apply(mats, slot, q, t) - applied)) <= BATCH_ATOL


def _t_linear_block_dense(g, dg, r4, t, q):
    """The fibre_bb block through dense slot operators built by np.kron:
    each fibre slot replacement is an n^q x n^q matrix applied to t, and the
    quadratic part applies one such matrix to the vector another has moved."""
    replace = np.einsum("...amx->...mxa", g)
    single = (
        -np.einsum("...masx->...msxa", dg)
        + np.einsum("...rmx,...asr->...msxa", g, g)
        + np.einsum("...rms,...arx->...msxa", g, g)
        + np.einsum("...xsma->...msxa", r4)
    )
    apply = "...ij,...j->...i"
    t = t[..., None, None, :]
    fibre_bb = sum(
        np.moveaxis(np.einsum(apply, _kron_slot_operator(single, c, q), t), -1, -3)
        for c in range(q)
    )
    coupling = [_kron_slot_operator(replace, c, q) for c in range(q)]  # [.., m, row, col]
    moved = [np.einsum(apply, op, t[..., 0, :, :]) for op in coupling]  # [.., s, row]
    for b, c in itertools.permutations(range(q), 2):
        fibre_bb += np.einsum("...mrk,...sk->...rms", coupling[b], moved[c])
    return fibre_bb


@pytest.mark.parametrize("n,q", [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 3)])
def test_t_linear_block_matches_dense_slot_operators(n, q):
    rng = np.random.default_rng(790 + 10 * n + q)
    g, dg, r4 = (rng.normal(size=(3,) + (n,) * k) for k in (3, 4, 4))
    t = rng.normal(size=(3, n**q))
    got = connection_lift.t_linear_block(g, dg, r4, t, q)
    want = _t_linear_block_dense(g, dg, r4, t, q)
    assert got.shape == (3, n**q, n, n)
    if n == 2:  # two products per entry, which any summation order adds alike
        assert np.array_equal(got, want)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@BATCH_SHAPES
def test_lift_batch_stacks_single_points(n, q, monkeypatch):
    gamma, xi, points, fibre = _batch_inputs(n, q)
    lifted = complete_lift_connection(gamma, BundlePoint(n, q, points, fibre))
    full = _dense(lifted)
    asym = []
    induced = induced_connection(gamma, xi, points)
    dr = _curvature_cov_derivative(gamma, points)
    _, slopes, dframe = _frame_and_slope_arrays(xi, points)
    for i, p in enumerate(points):
        one = complete_lift_connection(gamma, BundlePoint(n, q, p, fibre[i]))
        for block in BLOCKS:
            assert np.max(np.abs(getattr(lifted, block)[i] - getattr(one, block))) <= BATCH_ATOL
        # placement and swaps alone, given the same blocks: bit for bit
        sliced = LiftedConnectionCoeffs(n, q, *(getattr(lifted, b)[i] for b in BLOCKS))
        dense = _dense(sliced)
        assert np.array_equal(full[i], dense)
        asym.append(np.max(np.abs(dense - dense.transpose(0, 2, 1))))
        one = LiftedConnectionCoeffs(n, q, *(getattr(lifted, b)[i : i + 1] for b in BLOCKS))
        assert _lift_zeros_on_blocks(monkeypatch, one, points[i : i + 1]).residual == asym[i]
        assert np.max(np.abs(induced[i] - induced_connection(gamma, xi, p))) <= BATCH_ATOL
        assert np.max(np.abs(dr[i] - _curvature_cov_derivative(gamma, p))) <= BATCH_ATOL
        _, one_slopes, one_dframe = _frame_and_slope_arrays(xi, p)
        assert np.array_equal(slopes[i], one_slopes)
        assert np.array_equal(dframe[i], one_dframe)
    assert _lift_zeros_on_blocks(monkeypatch, lifted, points).residual == max(asym)


@BATCH_SHAPES
def test_symmetry_residual_matches_dense_array(n, q, monkeypatch):
    # arbitrary blocks, so both stored blocks carry an asymmetry; the mixed
    # blocks derived from base are each other's transpose all the same, and
    # the lift_connection_zeros check reads exactly the dense asymmetry
    rng = np.random.default_rng(770 + 10 * n + q)
    shapes = ((5, n, n, n), (5, n**q, n, n))
    coeffs = LiftedConnectionCoeffs(n, q, *(rng.normal(size=s) for s in shapes))
    dense = _dense(coeffs)
    want = np.abs(dense - dense.transpose(0, 1, 3, 2)).max(axis=(1, 2, 3))
    points = POINTS_BY_DIM[n][:5]
    check = _lift_zeros_on_blocks(monkeypatch, coeffs, points)
    assert check.residual == want.max() and not check.passed
    assert check.worst_point == tuple(points[int(np.argmax(want))])


def _frame_terms_by_point(gamma, xi, p):
    """Reference for one point: the dense lifted coefficients contracted
    with the whole horizontal frame, d_j B^A_i + L^A_{CB} B^C_j B^B_i, as
    [A, j, i]."""
    n, q = xi.n, xi.q
    nf = n**q
    bmat = adapted_frame(xi, p).b
    dd = xi.partials().partials().evaluate(p).reshape(n, n, nf)
    db = np.zeros((n + nf, n, n))
    db[n:] = dd.transpose(2, 0, 1)
    at = cross_section_point(xi, p)
    lifted = _dense(complete_lift_connection(gamma, at))
    return db + np.einsum("ACB,Cj,Bi->Aji", lifted, bmat, bmat), bmat


def _gauss_residual_at(gamma, xi, p):
    n = xi.n
    total, bmat = _frame_terms_by_point(gamma, xi, p)
    lhs = total - np.einsum("hji,Ah->Aji", gamma.evaluate(p), bmat)
    rhs = np.zeros_like(lhs)
    rhs[n:] = gauss_second_fundamental(gamma, xi).evaluate(p).reshape(n, n, -1).transpose(2, 0, 1)
    return np.max(np.abs(lhs - rhs))


def _assert_matches_reference(got_each, whole, points, want):
    """Per-point residuals of the batched code (one-point batches) against
    the reference loop, and the whole batch's verdict point."""
    np.testing.assert_allclose(got_each, want, rtol=CHECK_RTOL, atol=BATCH_ATOL)
    assert whole.residual == pytest.approx(max(want), rel=CHECK_RTOL, abs=BATCH_ATOL)
    assert whole.worst_point is not None
    if max(want) > 1e-6:  # well above rounding, so the worst point is unambiguous
        assert whole.worst_point == tuple(points[int(np.argmax(want))])


@BATCH_SHAPES
@pytest.mark.parametrize("spoiler", [contextlib.nullcontext, flipped_curvature],
                         ids=["lift", "flipped"])
def test_gauss_consistency_matches_per_point_reference(n, q, spoiler):
    gamma, xi, points, _ = _batch_inputs(n, q)
    with spoiler():
        got = [
            gauss_consistency(gamma, xi, points[i : i + 1]).residual
            for i in range(len(points))
        ]
        want = [_gauss_residual_at(gamma, xi, p) for p in points]
        whole = gauss_consistency(gamma, xi, points)
    _assert_matches_reference(got, whole, points, want)


@BATCH_SHAPES
def test_induced_connection_matches_per_point_reference(n, q):
    gamma, xi, points, _ = _batch_inputs(n, q)
    induced = induced_connection(gamma, xi, points)
    for i, p in enumerate(points):
        total, _ = _frame_terms_by_point(gamma, xi, p)
        want = total[:n]  # the coframe legs b_inv = [I | 0] pick the base rows
        assert np.max(np.abs(induced[i] - want)) <= BATCH_ATOL


@BATCH_SHAPES
def test_tangency_matches_per_point_reference(n, q):
    gamma, xi, points, _ = _batch_inputs(n, q)
    points = points[:3]
    got = [curvature_tangency(gamma, xi, points[i : i + 1]).residual for i in range(3)]
    want = [_tangency_residual_by_entry(gamma, xi, p) for p in points]
    _assert_matches_reference(got, curvature_tangency(gamma, xi, points), points, want)


def _lift_zeros_by_point(gamma, q, points, rng):
    """Reference for the lift_connection_zeros check: one fibre draw, one
    lift and one dense array per point."""
    n = gamma.n
    out = []
    for p in points:
        fib = rng.uniform(-1.0, 1.0, size=n**q)
        lift = complete_lift_connection(gamma, BundlePoint(n, q, p, fib))
        doubled = complete_lift_connection(gamma, BundlePoint(n, q, p, 2.0 * fib))
        full, doubled_full = _dense(lift), _dense(doubled)
        zeros = full.copy()
        zeros[:n, :n, :n] = zeros[n:, :n, n:] = zeros[n:, n:, :n] = zeros[n:, :n, :n] = 0.0
        out.append(
            max(
                np.max(np.abs(zeros)),
                np.max(np.abs(full - full.transpose(0, 2, 1))),
                np.max(np.abs(doubled.fibre_bb - 2.0 * lift.fibre_bb)),
                *(np.max(np.abs(a - b)) for a, b in
                  zip(_mixed_blocks(doubled_full, n), _mixed_blocks(full, n))),
                np.max(np.abs(doubled.base - lift.base)),
            )
        )
    return out


@BATCH_SHAPES
def test_lift_zeros_check_matches_per_point_reference(n, q):
    gamma, _, points, _ = _batch_inputs(n, q)
    want = _lift_zeros_by_point(gamma, q, points, np.random.default_rng(7))
    # one generator across the one-point calls draws the same fibres as the
    # whole batch's single block draw
    rng = np.random.default_rng(7)
    got = [_check_lift_zeros(gamma, q, points[i : i + 1], rng, 1e-12).residual for i in range(5)]
    whole = _check_lift_zeros(gamma, q, points, np.random.default_rng(7), 1e-12)
    _assert_matches_reference(got, whole, points, want)
    assert whole.passed


def test_lift_zeros_check_names_a_point_at_zero_residual():
    check = _check_lift_zeros(FLAT, 2, POINTS, np.random.default_rng(7), 1e-12)
    assert check.residual == 0.0
    assert check.worst_point == tuple(POINTS[0])  # ties go to the earliest draw


def test_lift_zeros_check_flags_a_fibre_block_not_linear_in_t(monkeypatch):
    linear = connection_lift.t_linear_block

    def quadratic(g, dg, r4, t, q, *rest):
        # a term in t^2, the same in every entry, so still symmetric
        return linear(g, dg, r4, t, q, *rest) + t[..., :1, None, None] ** 2

    gamma = random_symmetric_connection(np.random.default_rng(41), 2)
    assert _check_lift_zeros(gamma, 2, POINTS[:4], np.random.default_rng(7), 1e-12).passed
    monkeypatch.setattr(connection_lift, "t_linear_block", quadratic)
    check = _check_lift_zeros(gamma, 2, POINTS[:4], np.random.default_rng(7), 1e-12)
    assert not check.passed and check.residual > 1e-3
