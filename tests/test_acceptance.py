"""Acceptance suite: one test per promised behavior, each emitting a
single PASS/FAIL line into the terminal summary.

Tolerances are restated literally here rather than imported from the
library, so a change of library defaults cannot quietly relax the gate.
"""

import time
from pathlib import Path

import numpy as np

import _acceptance_log
import _oracles
from _fields import (
    flipped_curvature,
    random_covariant_field,
    random_symmetric_connection,
    random_vector_field,
)
from liftlab import sampling
from liftlab.bundle import (
    adapted_frame,
    complete_lift_endo_on_section,
    contract_one_two_cov,
    nijenhuis,
    purity_residual,
    tachibana,
    verify_theorem1,
)
from liftlab.connection_lift import (
    _curvature_cov_derivative,
    curvature_tangency,
    gauss_consistency,
    gauss_second_fundamental,
    induced_connection,
    is_totally_geodesic,
)
from liftlab.expr import Tape, parse
from liftlab.presets import (
    flat_connection,
    sphere_chart_connection,
    sphere_chart_metric,
    standard_complex_r2,
)
from liftlab.tensor import (
    CovariantField,
    EndomorphismField,
    VectorField,
    covariant_derivative_cov,
    curvature,
)
from liftlab.cli import run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
POINTS64 = sampling.sample_points(2, seed=42, count=64)


def test_criterion_1_theorem_instance():
    t0 = time.perf_counter()
    phi = standard_complex_r2()
    xi = CovariantField(2, 1, ["x1", "-x2"])

    purity = float(np.max(np.abs(purity_residual(phi, xi, POINTS64))))
    tach = float(np.max(np.abs(tachibana(phi, xi, POINTS64).evaluate(POINTS64))))
    nij = float(
        np.max(np.abs(contract_one_two_cov(nijenhuis(phi), xi).evaluate(POINTS64)))
    )
    lift_sq = 0.0
    for p in POINTS64:
        m = complete_lift_endo_on_section(phi, xi, p)
        lift_sq = max(lift_sq, float(np.max(np.abs(m @ m + np.eye(4)))))
    elapsed = time.perf_counter() - t0

    ok = purity == 0.0 and tach <= 1e-12 and nij <= 1e-12 and lift_sq <= 1e-9
    ok = ok and elapsed < 1.0
    _acceptance_log.record(
        "1 theorem instance q=1",
        ok,
        f"purity={purity:.1e} tachibana={tach:.1e} nijenhuis={nij:.1e} "
        f"lift^2+I={lift_sq:.1e} in {elapsed:.2f}s",
    )
    assert purity == 0.0
    assert tach <= 1e-12
    assert nij <= 1e-12
    assert lift_sq <= 1e-9
    assert elapsed < 1.0


def test_criterion_2_necessity_control():
    t0 = time.perf_counter()
    phi = standard_complex_r2()
    xi = CovariantField(2, 1, ["x1^2", "0"])

    tach_field = tachibana(phi, xi, POINTS64)
    tach_res = float(np.max(np.abs(tach_field.evaluate(POINTS64))))

    # brute-force matrix squares, against the hand-expanded block
    # -(Phi_{mk} phi^m_l + phi^r_k Phi_{lr}); for this constant structure the
    # two composition orders cancel, so the expected block is exactly twice
    # the (identically zero) vertical Nijenhuis path
    nij_path = contract_one_two_cov(nijenhuis(phi), xi)
    nij_max = float(np.max(np.abs(nij_path.evaluate(POINTS64))))
    brute_vs_hand = 0.0
    block_max = 0.0
    one_sided_ok = True
    for p in POINTS64:
        phimat = phi.evaluate(p)
        tach = tach_field.evaluate(p)
        m = complete_lift_endo_on_section(phi, xi, p)
        brute = (m @ m + np.eye(4))[2:, :2]
        term1 = np.einsum("mk,ml->kl", tach, phimat)  # Phi then phi
        term2 = np.einsum("rk,lr->kl", phimat, tach)  # phi then Phi
        hand = -(term1 + term2)
        brute_vs_hand = max(brute_vs_hand, float(np.max(np.abs(brute - hand))))
        block_max = max(block_max, float(np.max(np.abs(brute))))
        # the obstruction is visible in either one-sided composition alone
        expected_one_sided = np.diag([2.0 * p[0], 2.0 * p[0]])
        if np.max(np.abs(-term1 - expected_one_sided)) > 1e-12:
            one_sided_ok = False
    elapsed = time.perf_counter() - t0

    ok = (
        tach_res >= 1.0
        and brute_vs_hand <= 1e-12
        and block_max <= 2.0 * nij_max + 1e-12
        and one_sided_ok
        and elapsed < 1.0
    )
    _acceptance_log.record(
        "2 necessity control",
        ok,
        f"tachibana={tach_res:.3f} lower-left={block_max:.1e} "
        f"(= 2x nijenhuis path {nij_max:.1e}; one-sided defect 2*x1 confirmed) "
        f"in {elapsed:.2f}s",
    )
    assert tach_res >= 1.0
    assert brute_vs_hand <= 1e-12
    # the constant structure is integrable, so the decomposition-path defect
    # is zero and the brute-forced block must match it exactly
    assert nij_max == 0.0
    assert block_max <= 1e-12
    assert one_sided_ok
    assert elapsed < 1.0


def test_criterion_3_induced_connection():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for q in (1, 2):
        for _ in range(10):
            gamma = random_symmetric_connection(rng, 2)
            xi = random_covariant_field(rng, 2, q)
            for p in POINTS64:
                got = induced_connection(gamma, xi, p)
                worst = max(worst, float(np.max(np.abs(got - gamma.evaluate(p)))))
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-9 and elapsed < 30.0
    _acceptance_log.record(
        "3 induced connection = base",
        ok,
        f"max|induced-base|={worst:.1e} over 20 random pairs in {elapsed:.2f}s",
    )
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_criterion_4_gauss_consistency():
    t0 = time.perf_counter()
    flat = flat_connection(2)
    sphere = sphere_chart_connection()
    metric = sphere_chart_metric()
    rng = np.random.default_rng(4242)

    residuals = {
        "flat": gauss_consistency(
            flat, CovariantField(2, 2, {(1, 2): "x1*x2"}), POINTS64, tol=1e-9
        ),
        "sphere": gauss_consistency(sphere, metric, POINTS64, tol=1e-9),
    }
    for q in (1, 2):
        gamma = random_symmetric_connection(rng, 2)
        xi = random_covariant_field(rng, 2, q)
        residuals[f"random q={q}"] = gauss_consistency(gamma, xi, POINTS64, tol=1e-9)
    with flipped_curvature():
        flipped = gauss_consistency(sphere, metric, POINTS64, tol=1e-9)
    elapsed = time.perf_counter() - t0

    direct_ok = all(c.passed for c in residuals.values())
    ok = direct_ok and flipped.residual >= 1e-2 and elapsed < 30.0
    worst = max(c.residual for c in residuals.values())
    _acceptance_log.record(
        "4 Gauss consistency",
        ok,
        f"direct max={worst:.1e}; sign-flipped control={flipped.residual:.2f} "
        f"in {elapsed:.2f}s",
    )
    assert direct_ok
    assert flipped.residual >= 1e-2
    assert elapsed < 30.0


def test_criterion_5_totally_geodesic():
    t0 = time.perf_counter()
    flat = flat_connection(2)
    affine = CovariantField(2, 1, ["2*x1 + 3*x2 + 1", "x1 - x2"])
    quad = CovariantField(2, 2, {(1, 2): "x1*x2"})

    geodesic = is_totally_geodesic(flat, affine, POINTS64, tol=1e-12)
    h = gauss_second_fundamental(flat, quad).evaluate(POINTS64)
    per_point = np.abs(h).reshape(len(POINTS64), -1).max(axis=1)
    elapsed = time.perf_counter() - t0

    exact_one = bool(np.all(per_point == 1.0))
    ok = geodesic.passed and geodesic.residual <= 1e-12 and exact_one
    ok = ok and elapsed < 5.0
    _acceptance_log.record(
        "5 totally geodesic dichotomy",
        ok,
        f"affine residual={geodesic.residual:.1e}; quadratic residual=1.0 "
        f"exactly at all {len(POINTS64)} points in {elapsed:.2f}s",
    )
    assert geodesic.passed and geodesic.residual <= 1e-12
    assert exact_one
    assert elapsed < 5.0


def test_criterion_6_curvature_tangency():
    t0 = time.perf_counter()
    flat = flat_connection(2)
    sphere = sphere_chart_connection()
    metric = sphere_chart_metric()
    rng = np.random.default_rng(606)

    xi_flat = random_covariant_field(rng, 2, 2)
    flat_check = curvature_tangency(flat, xi_flat, POINTS64, tol=1e-12)
    # both sides vanish identically on a flat chart
    flat_ingredients = float(np.max(np.abs(curvature(flat).evaluate(POINTS64))))

    sphere_check = curvature_tangency(sphere, metric, POINTS64, tol=1e-12)
    nabla_g = float(
        np.max(np.abs(covariant_derivative_cov(sphere, metric).evaluate(POINTS64)))
    )
    nabla_r = max(
        float(np.max(np.abs(_curvature_cov_derivative(sphere, p)))) for p in POINTS64[:8]
    )

    generic = curvature_tangency(sphere, random_covariant_field(rng, 2, 2), POINTS64)
    elapsed = time.perf_counter() - t0

    ok = (
        flat_check.passed
        and flat_ingredients == 0.0
        and sphere_check.passed
        and nabla_g <= 1e-12
        and nabla_r <= 1e-12
        and generic.residual > 1e-3
        and elapsed < 10.0
    )
    _acceptance_log.record(
        "6 curvature tangency",
        ok,
        f"flat={flat_check.residual:.1e}; sphere metric={sphere_check.residual:.1e} "
        f"(nabla g={nabla_g:.1e}, nabla R={nabla_r:.1e}); "
        f"generic={generic.residual:.2f}>1e-3 in {elapsed:.2f}s",
    )
    assert flat_check.passed and flat_ingredients == 0.0
    assert sphere_check.passed
    assert nabla_g <= 1e-12 and nabla_r <= 1e-12
    assert generic.residual > 1e-3
    assert elapsed < 10.0


def test_criterion_7_cross_module_oracles():
    t0 = time.perf_counter()

    # Taylor-jet vs finite-difference derivatives
    family = [
        "-sin(x1)*cos(x1)",
        "cos(x1)/sin(x1)",
        "sin(x1)^2",
        "x1^3 - 2*x2",
        "exp(x1)*sin(x2)",
        "x1*x2^2/(1 + x1^2)",
        "cos(x1*x2)",
    ]
    fd_worst = 0.0
    for text in family:
        tape = Tape([parse(text, 2)])
        for ax in (1, 2):
            for p in POINTS64[:16]:
                sym = float(tape.jets(p, 1)[1][ax - 1, 0])
                fd = _oracles.fd_partial(lambda x: tape(x)[0], p, ax)
                fd_worst = max(fd_worst, abs(sym - fd) / max(1.0, abs(sym)))

    # Nijenhuis formula vs bracket oracle
    phi = EndomorphismField(2, [["x2", "0"], ["x1^2", "x1"]])
    n_field = nijenhuis(phi)
    e1 = VectorField(2, ["1", "0"])
    e2 = VectorField(2, ["0", "1"])
    nij_worst = 0.0
    for p in POINTS64[:8]:
        nv = n_field.evaluate(p)
        oracle = _oracles.bracket_nijenhuis(phi, e1, e2, p)
        nij_worst = max(nij_worst, float(np.max(np.abs(nv[:, 0, 1] - oracle))))

    # Ricci identity for q in {1, 2, 3}
    ricci_worst = 0.0
    for q in (1, 2, 3):
        rng = np.random.default_rng(700 + q)
        gamma = random_symmetric_connection(rng, 2)
        xi = random_covariant_field(rng, 2, q)
        dd_field = covariant_derivative_cov(gamma, covariant_derivative_cov(gamma, xi))
        r_field = curvature(gamma)
        for p in POINTS64[:8]:
            dd = dd_field.evaluate(p)
            rv = r_field.evaluate(p)
            xiv = xi.evaluate(p)
            anti = dd - np.swapaxes(dd, 0, 1)
            corr = np.zeros_like(anti)
            for slot in range(q):
                contr = np.tensordot(rv, xiv, axes=([3], [slot]))
                corr += np.moveaxis(contr, 2, 2 + slot)
            ricci_worst = max(ricci_worst, float(np.max(np.abs(anti + corr))))

    # frame inverse product
    frame_worst = 0.0
    rng = np.random.default_rng(77)
    for q in (1, 2, 3):
        xi = random_covariant_field(rng, 2, q)
        for p in POINTS64[:8]:
            fr = adapted_frame(xi, p)
            prod = fr.frame_matrix() @ fr.coframe_matrix()
            frame_worst = max(
                frame_worst, float(np.max(np.abs(prod - np.eye(prod.shape[0]))))
            )
    elapsed = time.perf_counter() - t0

    ok = (
        fd_worst <= 1e-6
        and nij_worst <= 1e-8
        and ricci_worst <= 1e-10
        and frame_worst <= 1e-12
        and elapsed < 60.0
    )
    _acceptance_log.record(
        "7 cross-module oracles",
        ok,
        f"fd={fd_worst:.1e}<=1e-6 nijenhuis={nij_worst:.1e}<=1e-8 "
        f"ricci={ricci_worst:.1e}<=1e-10 frame={frame_worst:.1e}<=1e-12 "
        f"in {elapsed:.2f}s",
    )
    assert fd_worst <= 1e-6
    assert nij_worst <= 1e-8
    assert ricci_worst <= 1e-10
    assert frame_worst <= 1e-12
    assert elapsed < 60.0


def test_criterion_8_determinism():
    t0 = time.perf_counter()
    identical = True
    for path in sorted(SCENARIOS.glob("*.json")):
        first = run_scenario(str(path)).to_json()
        second = run_scenario(str(path)).to_json()
        if first != second:
            identical = False
    elapsed = time.perf_counter() - t0

    _acceptance_log.record(
        "8 deterministic reports",
        identical,
        f"two runs of {len(list(SCENARIOS.glob('*.json')))} scenarios "
        f"byte-identical in {elapsed:.2f}s",
    )
    assert identical
