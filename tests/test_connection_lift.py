import numpy as np
import pytest

import _oracles
from liftlab import sampling
from liftlab.bundle import BundlePoint, cross_section_point
from liftlab.connection_lift import (
    TorsionError,
    _curvature_cov_derivative,
    complete_lift_connection,
    curvature_tangency,
    gauss_consistency,
    gauss_second_fundamental,
    induced_connection,
    is_totally_geodesic,
)
from liftlab.presets import (
    flat_connection,
    random_covariant_field,
    random_symmetric_connection,
    sphere_chart_connection,
    sphere_chart_metric,
)
from liftlab.tensor import (
    ConnectionField,
    CovariantField,
    covariant_derivative_cov,
    curvature,
    iter_multi_indices,
    rank_multi_index,
    replace_slot,
)

POINTS = sampling.sample_points(2, count=16)
POINTS_BY_DIM = {n: sampling.sample_points(n, count=16) for n in (3, 4)} | {2: POINTS}
# (n, q) cases up to the top of the supported envelope; the ids of the
# n=2 cases are their q alone
DIM_RANK = pytest.mark.parametrize(
    "n,q",
    [(2, 1), (2, 2), (3, 1), (3, 2), (4, 3)],
    ids=["1", "2", "n3-1", "n3-2", "n4-3"],
)

FLAT = flat_connection(2)
SPHERE = sphere_chart_connection()
METRIC = sphere_chart_metric()
QUADRATIC_XI = CovariantField(2, 2, {(1, 2): "x1*x2"})
AFFINE_XI = CovariantField(2, 1, ["2*x1 + 3*x2 + 1", "x1 - x2"])


def _random_fibre(rng, n, q):
    return rng.uniform(-1.0, 1.0, size=n**q)


# ---------------------------------------------------------------------------
# the lifted connection coefficients


def test_flat_lift_vanishes():
    rng = np.random.default_rng(5)
    for q in (1, 2):
        at = BundlePoint(2, q, POINTS[0], _random_fibre(rng, 2, q))
        coeffs = complete_lift_connection(flat_connection(2), at)
        assert np.max(np.abs(coeffs.full_array())) == 0.0


def test_fibre_block_vanishes_at_zero_fibre():
    at = BundlePoint(2, 1, POINTS[1], np.zeros(2))
    coeffs = complete_lift_connection(SPHERE, at)
    assert np.max(np.abs(coeffs.fibre_bb)) == 0.0
    assert np.max(np.abs(coeffs.mixed_bf)) > 0.1  # base coupling survives


def test_lift_linear_in_fibre_coordinate():
    rng = np.random.default_rng(8)
    for q in (1, 2):
        t = _random_fibre(rng, 2, q)
        p = POINTS[2]
        one = complete_lift_connection(SPHERE, BundlePoint(2, q, p, t))
        two = complete_lift_connection(SPHERE, BundlePoint(2, q, p, 2.0 * t))
        assert np.max(np.abs(two.fibre_bb - 2.0 * one.fibre_bb)) < 1e-12
        assert np.array_equal(two.mixed_bf, one.mixed_bf)
        assert np.array_equal(two.mixed_fb, one.mixed_fb)
        assert np.array_equal(two.base, one.base)


def test_lift_block_placement():
    rng = np.random.default_rng(9)
    at = BundlePoint(2, 1, POINTS[3], _random_fibre(rng, 2, 1))
    coeffs = complete_lift_connection(SPHERE, at)
    full = coeffs.full_array()
    n = 2
    assert np.array_equal(full[:n, :n, :n], coeffs.base)
    assert np.array_equal(full[n:, :n, n:], coeffs.mixed_bf)
    assert np.array_equal(full[n:, n:, :n], coeffs.mixed_fb)
    assert np.array_equal(full[n:, :n, :n], coeffs.fibre_bb)
    # no horizontal output from fibre legs, no fibre-fibre legs
    assert np.max(np.abs(full[:n, n:, :])) == 0.0
    assert np.max(np.abs(full[:n, :, n:])) == 0.0
    assert np.max(np.abs(full[n:, n:, n:])) == 0.0


def test_lift_symmetric_in_lower_pair():
    rng = np.random.default_rng(12)
    for q in (1, 2, 3):
        at = BundlePoint(2, q, POINTS[4], _random_fibre(rng, 2, q))
        coeffs = complete_lift_connection(SPHERE, at)
        assert coeffs.symmetry_residual() < 1e-12


def test_lift_rejects_torsion():
    gamma = ConnectionField.from_dict(2, {(1, 1, 2): "x1"}, symmetric=False)
    at = BundlePoint(2, 1, POINTS[0], np.zeros(2))
    with pytest.raises(TorsionError):
        complete_lift_connection(gamma, at)
    with pytest.raises(TorsionError):
        gauss_consistency(gamma, CovariantField(2, 1, ["x1", "0"]), POINTS[:2])


def _lift_blocks_by_entry(gamma, at):
    """Reference for complete_lift_connection: every block filled entry by
    entry, one multi-index and one replaced slot at a time."""
    n, q = at.n, at.q
    nf = n**q
    t = at.fibre_tensor()
    g = gamma.evaluate(at.base)
    dg = gamma.partials_at(at.base)
    r4 = curvature(gamma).evaluate(at.base)
    mixed_bf = np.zeros((nf, n, nf))
    fibre_bb = np.zeros((nf, n, n))
    for mi in iter_multi_indices(n, q):
        row = rank_multi_index(mi, n)
        for c in range(q):
            x = mi[c] - 1
            for a in range(n):
                rep = replace_slot(mi, c, a + 1)
                mixed_bf[row, :, rank_multi_index(rep, n)] -= g[a, :, x]
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
    for block, ref in zip((got.base, got.mixed_bf, got.mixed_fb, got.fibre_bb), want):
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
    check = gauss_consistency(SPHERE, METRIC, POINTS, tol=1e-9, curvature_sign=-1.0)
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
                for mi in iter_multi_indices(n, q):
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
