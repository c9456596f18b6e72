"""Scenario-driven command line front end.

A scenario is a JSON file naming chart dimensions, input fields (inline
sparse components or presets), and a list of checks to run.  Reports are
deterministic for a fixed seed: byte-identical JSON, no timestamps.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import bundle, connection_lift, presets, sampling
from .expr import ParseError, Tape
from .tensor import (
    ConnectionField,
    CovariantField,
    EndomorphismField,
    VectorField,
    curvature,
)

DEFAULT_TOL = 1e-9
STRUCTURAL_TOL = 1e-12

CHECK_IDS = (
    "purity",
    "tachibana_zero",
    "nijenhuis_zero",
    "theorem1",
    "characterization",
    "lift_connection_zeros",
    "induced_equals_base",
    "gauss_consistency",
    "totally_geodesic",
    "curvature_tangency",
)

# Fields each check needs beyond n and q.
_REQUIRES = {
    "purity": ("phi", "xi"),
    "tachibana_zero": ("phi", "xi"),
    "nijenhuis_zero": ("phi",),
    "theorem1": ("phi", "xi"),
    "characterization": ("phi", "xi"),
    "lift_connection_zeros": ("gamma",),
    "induced_equals_base": ("gamma", "xi"),
    "gauss_consistency": ("gamma", "xi"),
    "totally_geodesic": ("gamma", "xi"),
    "curvature_tangency": ("gamma", "xi"),
}


class ScenarioError(ValueError):
    """Malformed scenario file or incompatible field data."""


def _is_int(v) -> bool:
    """A JSON integer; JSON true and false parse to bool, an int subclass."""
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass
class Scenario:
    name: str
    n: int
    q: int
    checks: list[str]
    phi: EndomorphismField | None = None
    xi: CovariantField | None = None
    gamma: ConnectionField | None = None
    v: VectorField | None = None
    a: CovariantField | None = None
    seed: int | None = None
    count: int | None = None
    box: tuple[float, float] | None = None


@dataclass
class CheckResult:
    check: str
    passed: bool
    residual: float
    tolerance: float
    worst_point: tuple | None = None
    detail: dict = field(default_factory=dict)


@dataclass
class Report:
    scenario: str
    n: int
    q: int
    seed: int
    count: int
    box: tuple[float, float]
    results: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "n": self.n,
            "q": self.q,
            "seed": self.seed,
            "points": self.count,
            "box": list(self.box),
            "passed": self.passed,
            "checks": [
                {
                    "id": r.check,
                    "status": "pass" if r.passed else "fail",
                    "residual": r.residual,
                    "tolerance": r.tolerance,
                    "worst_point": list(r.worst_point) if r.worst_point else None,
                    "detail": r.detail,
                }
                for r in self.results
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Scenario loading


def _parse_key(key: str, length: int, n: int, what: str) -> tuple[int, ...]:
    parts = [s.strip() for s in key.split(",")]
    if len(parts) != length:
        raise ScenarioError(
            f"{what}: index key {key!r} must have {length} comma-separated entries"
        )
    try:
        idx = tuple(int(s) for s in parts)
    except ValueError:
        raise ScenarioError(f"{what}: non-integer index in key {key!r}") from None
    for i in idx:
        if not 1 <= i <= n:
            raise ScenarioError(f"{what}: index {i} in key {key!r} outside 1..{n}")
    return idx


def _parse_entries(raw: dict, length: int, n: int, what: str) -> dict:
    if not isinstance(raw, dict):
        raise ScenarioError(f"{what}: expected an object of index-keyed components")
    out = {}
    for key, text in raw.items():
        idx = _parse_key(key, length, n, what)
        if idx in out:
            raise ScenarioError(f"{what}: duplicate index key {key!r}")
        if isinstance(text, bool) or not isinstance(text, (str, int, float)):
            raise ScenarioError(f"{what}: component {key!r} must be a string or number")
        out[idx] = text
    return out


def _resolve_preset(kind: str, name: str, n: int, q: int):
    known = presets.PRESETS.get(name)
    if known is None or kind not in known:
        raise ScenarioError(f"no preset {name!r} provides field {kind!r}")
    if name == "flat":
        return presets.flat_connection(n)
    if n != 2:
        raise ScenarioError(f"preset {name!r} requires n=2, scenario has n={n}")
    if name == "sphere_chart" and kind == "xi" and q != 2:
        raise ScenarioError("preset sphere_chart provides a (0,2) field, scenario has q="
                            f"{q}")
    return known[kind]()


def _build_field(kind: str, raw, n: int, q: int):
    if isinstance(raw, str):
        return _resolve_preset(kind, raw, n, q)
    try:
        if kind == "phi":
            return EndomorphismField(n, _parse_entries(raw, 2, n, "phi"))
        if kind == "gamma":
            return ConnectionField(n, _parse_entries(raw, 3, n, "gamma"))
        if kind in ("xi", "a"):
            return CovariantField(n, q, _parse_entries(raw, q, n, kind))
        if kind == "v":
            return VectorField(n, _parse_entries(raw, 1, n, "v"))
    except ParseError as exc:
        raise ScenarioError(f"{kind}: bad component expression: {exc}") from None
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"{kind}: {exc}") from None
    raise ScenarioError(f"unknown field kind {kind!r}")


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")

    unknown = set(data) - {
        "name", "n", "q", "phi", "xi", "gamma", "v", "a",
        "checks", "seed", "points", "box",
    }
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {', '.join(sorted(unknown))}")

    n = data.get("n")
    if not _is_int(n) or not 1 <= n <= 4:
        raise ScenarioError("scenario needs integer n in 1..4")
    q = data.get("q", 1)
    if not _is_int(q) or not 1 <= q <= 3:
        raise ScenarioError("scenario needs integer q in 1..3")

    checks = data.get("checks")
    if not isinstance(checks, list) or not checks:
        raise ScenarioError("scenario needs a non-empty list of checks")
    for c in checks:
        if c not in CHECK_IDS:
            raise ScenarioError(
                f"unknown check {c!r}; valid checks: {', '.join(CHECK_IDS)}"
            )

    name = data.get("name")
    if name is None:
        name = os.path.splitext(os.path.basename(path))[0]
    if not isinstance(name, str):
        raise ScenarioError("scenario name must be a string")

    seed = data.get("seed")
    if seed is not None and not _is_int(seed):
        raise ScenarioError("seed must be an integer")
    count = data.get("points")
    if count is not None and (not _is_int(count) or count < 1):
        raise ScenarioError("points must be a positive integer")
    box = data.get("box")
    if box is not None:
        if (
            not isinstance(box, list)
            or len(box) != 2
            or not all(
                isinstance(b, (int, float)) and not isinstance(b, bool) and math.isfinite(b)
                for b in box
            )
            or not box[0] < box[1]
        ):
            raise ScenarioError("box must be [lo, hi], both finite, with lo < hi")
        box = (float(box[0]), float(box[1]))

    sc = Scenario(name=name, n=n, q=q, checks=list(checks), seed=seed, count=count, box=box)
    for kind in ("phi", "xi", "gamma", "v", "a"):
        if kind in data:
            setattr(sc, kind, _build_field(kind, data[kind], n, q))

    for c in checks:
        for req in _REQUIRES[c]:
            if getattr(sc, req) is None:
                raise ScenarioError(f"check {c!r} requires scenario field {req!r}")
    return sc


# ---------------------------------------------------------------------------
# Check execution


def _field_exprs(sc: Scenario):
    for f in (sc.phi, sc.xi, sc.v, sc.a, sc.gamma):
        if f is not None:
            yield from f.comps
    if sc.gamma is not None:
        # curvature enters most connection checks; screen its poles too
        yield from curvature(sc.gamma).comps


def _sample_scenario_points(sc: Scenario, seed: int, count: int, box) -> np.ndarray:
    screen = Tape(list(_field_exprs(sc)))

    def reject(p: np.ndarray) -> bool:
        return not np.all(np.isfinite(screen(p)))

    try:
        return sampling.sample_points(sc.n, seed=seed, count=count, box=box, reject=reject)
    except RuntimeError as exc:
        raise ScenarioError(str(exc)) from None


def _probe_fields(sc: Scenario, seed: int):
    """Probe vector and tensor for the characterization check, taken from
    the scenario when given, else seeded random polynomials."""
    rng = np.random.default_rng([seed, 1005])
    v = sc.v or VectorField(
        sc.n, [presets.random_polynomial_expr(rng, sc.n) for _ in range(sc.n)]
    )
    a = sc.a or presets.random_covariant_field(rng, sc.n, sc.q)
    return v, a


def _check_lift_zeros(gamma: ConnectionField, q: int, points, rng, tol) -> CheckResult:
    n = gamma.n
    worst = 0.0
    worst_p = None
    for p in points:
        fib = rng.uniform(-1.0, 1.0, size=n**q)
        lift = connection_lift.complete_lift_connection(gamma, bundle.BundlePoint(n, q, p, fib))
        doubled = connection_lift.complete_lift_connection(
            gamma, bundle.BundlePoint(n, q, p, 2.0 * fib)
        )
        zeros = lift.full_array()
        zeros[:n, :n, :n] = 0.0
        zeros[n:, :n, n:] = 0.0
        zeros[n:, n:, :n] = 0.0
        zeros[n:, :n, :n] = 0.0
        r = max(
            float(np.max(np.abs(zeros))),
            lift.symmetry_residual(),
            float(np.max(np.abs(doubled.fibre_bb - 2.0 * lift.fibre_bb))),
            float(np.max(np.abs(doubled.mixed_bf - lift.mixed_bf))),
            float(np.max(np.abs(doubled.mixed_fb - lift.mixed_fb))),
            float(np.max(np.abs(doubled.base - lift.base))),
        )
        if r > worst:
            worst, worst_p = r, tuple(p)
    return CheckResult("lift_connection_zeros", worst <= tol, worst, tol, worst_p)


def _execute_check(check: str, sc: Scenario, points, seed: int, tol: float) -> CheckResult:
    if check == "purity":
        r = bundle.purity_residual(sc.phi, sc.xi, points)
        return CheckResult(check, r <= tol, r, tol)
    if check == "theorem1":
        rep = bundle.verify_theorem1(sc.phi, sc.xi, points, tol)
        detail = {
            "square_residual": rep.square_residual,
            "purity_residual": rep.purity_residual,
            "tachibana_residual": rep.tachibana_residual,
            "nijenhuis_residual": rep.nijenhuis_residual,
            "lift_square_residual": rep.lift_square_residual,
            "hypotheses_hold": rep.hypotheses_hold,
        }
        residual = max(rep.nijenhuis_residual, rep.lift_square_residual)
        return CheckResult(check, rep.passed, residual, tol, rep.worst_point, detail)
    if check == "characterization":
        v, a = _probe_fields(sc, seed)
        rep = bundle.verify_characterization(sc.phi, sc.xi, v, a, points, tol)
        detail = {
            "complete_residual": rep.complete_residual,
            "vertical_residual": rep.vertical_residual,
        }
        return CheckResult(check, rep.passed, rep.residual, tol, rep.worst_point, detail)
    if check == "lift_connection_zeros":
        rng = np.random.default_rng([seed, 2003])
        return _check_lift_zeros(sc.gamma, sc.q, points, rng, min(tol, STRUCTURAL_TOL))
    # the rest are sampled checks with one residual per point
    if check == "tachibana_zero":
        purity = bundle.purity_residual(sc.phi, sc.xi, points)
        if purity > tol:
            return CheckResult(
                check, False, purity, tol, detail={"reason": "tensor is not pure"}
            )
        out = bundle.is_almost_analytic(sc.phi, sc.xi, points, tol)
    elif check == "nijenhuis_zero":
        per_point = sampling.max_per_point(bundle.nijenhuis(sc.phi).evaluate(points))
        out = sampling.sampled_check(points, per_point, tol)
    elif check == "induced_equals_base":
        per_point = []
        for p in points:
            induced = connection_lift.induced_connection(sc.gamma, sc.xi, p)
            per_point.append(np.max(np.abs(induced - sc.gamma.evaluate(p))))
        out = sampling.sampled_check(points, per_point, tol)
    elif check == "gauss_consistency":
        out = connection_lift.gauss_consistency(sc.gamma, sc.xi, points, tol)
    elif check == "totally_geodesic":
        out = connection_lift.is_totally_geodesic(sc.gamma, sc.xi, points, tol)
    elif check == "curvature_tangency":
        out = connection_lift.curvature_tangency(sc.gamma, sc.xi, points, tol)
    else:
        raise ScenarioError(f"unknown check {check!r}")
    return CheckResult(check, out.passed, out.residual, tol, out.worst_point)


def run_scenario(
    path: str,
    seed: int | None = None,
    count: int | None = None,
    tol: float | None = None,
) -> Report:
    """Load a scenario file, run its checks, and return the report.

    Seed precedence: explicit argument, then the LIFTLAB_SEED
    environment variable, then the scenario file, then 42.
    """
    sc = load_scenario(path)
    if seed is None:
        env = os.environ.get("LIFTLAB_SEED")
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise ScenarioError(f"LIFTLAB_SEED must be an integer, got {env!r}") from None
    if seed is None:
        seed = sc.seed if sc.seed is not None else sampling.DEFAULT_SEED
    count = count if count is not None else (sc.count or sampling.DEFAULT_COUNT)
    box = sc.box or sampling.DEFAULT_BOX
    tol = tol if tol is not None else DEFAULT_TOL

    if sc.gamma is not None:
        probe = sampling.sample_points(sc.n, seed=seed, count=min(count, 16), box=box)
        if sc.gamma.symmetry_residual(probe) > STRUCTURAL_TOL:
            raise ScenarioError("gamma must be symmetric in its lower indices")

    points = _sample_scenario_points(sc, seed, count, box)
    results = [_execute_check(c, sc, points, seed, tol) for c in sc.checks]
    return Report(sc.name, sc.n, sc.q, seed, count, box, results)


# ---------------------------------------------------------------------------
# Commands


_EXPLAIN = {
    "purity": """\
A (0,q) tensor xi is pure with respect to an endomorphism phi when every
slot contraction agrees with every other:

    phi^m_{j1} xi_{m j2..jq} = phi^m_{ja} xi_{j1..m..jq}   for each slot a.

The check reports the largest sampled disagreement between two slot
contractions.  Rank-1 tensors are pure by definition (residual 0).""",
    "tachibana_zero": """\
For xi pure with respect to phi, the Tachibana image is

    (Phi xi)_{l k1..kq} = phi^m_l d_m xi_{k1..kq}
                          - d_l (phi^m_{k1} xi_{m k2..kq})
                          + sum_a (d_{ka} phi^m_l) xi_{k1..m..kq}.

xi is almost analytic when this vanishes; the check reports the largest
sampled component.  An impure xi fails the check outright.""",
    "nijenhuis_zero": """\
The Nijenhuis tensor of phi,

    N^l_{jk} = phi^m_j d_m phi^l_k - phi^m_k d_m phi^l_j
               - phi^l_m (d_j phi^m_k - d_k phi^m_j),

measures non-integrability.  The check reports its largest sampled
component.""",
    "theorem1": """\
Hypotheses, sampled: phi^2 = -id, xi pure with respect to phi, and the
Tachibana image of xi vanishes (xi almost analytic).  Conclusions: the
Nijenhuis contraction N^m_{j i1} xi_{m i2..iq} vanishes, and the
complete lift of phi along the cross-section of xi squares to minus the
identity on the tensor bundle.  The check passes when the hypotheses
force the conclusions on the sampled points (vacuously, if a hypothesis
fails); the report carries every residual.""",
    "characterization": """\
The lifted endomorphism is pinned down by its action on lifts:

    lift(phi)(complete lift of V) = complete lift of (phi V)
                                    + vertical lift of ((L_V phi) xi)
    lift(phi)(vertical lift of A) = vertical lift of (phi A)

with first-slot contractions throughout.  V and A come from the
scenario when given, else from seeded random polynomial probes.""",
    "lift_connection_zeros": """\
At a bundle point (x, t) the lifted connection has exactly four kinds of
nonzero coefficients: the base coefficients on horizontal indices, two
mixed blocks that reshuffle base coefficients (independent of t), and a
fibre block linear in t built from derivatives of the base
coefficients, their quadratic combinations, and a curvature
contraction.  The check verifies the structural zeros, the lower-index
symmetry, and the linearity in t.""",
    "induced_equals_base": """\
Differentiating the adapted frame along the cross-section with the
lifted connection and projecting to the base reproduces the base
connection: induced coefficients = Gamma^h_{ji} at every sampled
point.""",
    "gauss_consistency": """\
The frame derivative identity along the cross-section:

    d_j B^A_i + L^A_{CB} B^C_j B^B_i - Gamma^h_{ji} B^A_h
        = H_{ji,(h1..hq)} C^A_{(h1..hq)},

with B, C the adapted frame legs, L the lifted connection, and

    H_{ji,(h1..hq)} = nabla_j nabla_i xi_{h1..hq}
                      + sum_s xi_{h1..l..hq} R_{hs i j}^l.

The two sides are computed through independent code paths.""",
    "totally_geodesic": """\
The cross-section is totally geodesic exactly when the second
fundamental form analogue H vanishes (see gauss_consistency).  The
check reports the largest sampled component of H.""",
    "curvature_tangency": """\
Curvature variation along the cross-section is tangent to it when

    sum_s (nabla_k R_{hs i j}^l - nabla_j R_{hs i k}^l) xi_{h1..l..hq}
      = R_{kji}^l nabla_l xi_{h1..hq}
        + sum_s R_{kj hs}^l nabla_i xi_{h1..l..hq}
        - sum_s R_{hs i j}^l nabla_k xi_{h1..l..hq}
        + sum_s R_{hs i k}^l nabla_j xi_{h1..l..hq}.

Holds identically for a locally symmetric connection with parallel xi;
the check reports the largest sampled residual.""",
}


def _print_report(report: Report) -> None:
    print(
        f"scenario {report.scenario} (n={report.n}, q={report.q}, "
        f"seed={report.seed}, points={report.count})"
    )
    for r in report.results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status} {r.check:<22} residual={r.residual:.3e}  tol={r.tolerance:.1e}"
        if r.worst_point is not None:
            coords = ", ".join(f"{c:.4f}" for c in r.worst_point)
            line += f"  worst=({coords})"
        print(line)
    done = sum(1 for r in report.results if r.passed)
    print(f"{done}/{len(report.results)} checks passed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="liftlab",
        description="Verify tensor and connection lifts to the (0,q)-tensor bundle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the checks of a scenario file")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument("--json", metavar="PATH", help="also write the JSON report here")
    run_p.add_argument("--seed", type=int, help="sampling seed (overrides LIFTLAB_SEED)")
    run_p.add_argument("--points", type=int, help="number of sample points")
    run_p.add_argument("--tol", type=float, help="override every check tolerance")

    sub.add_parser("presets", help="list the built-in named inputs")

    exp_p = sub.add_parser("explain", help="print the formula behind a check")
    exp_p.add_argument("check", help="one of: " + ", ".join(CHECK_IDS))

    args = parser.parse_args(argv)

    if args.command == "presets":
        for line in presets.describe_presets():
            print(line)
        return 0

    if args.command == "explain":
        text = _EXPLAIN.get(args.check)
        if text is None:
            print(
                f"unknown check {args.check!r}; valid checks: {', '.join(CHECK_IDS)}",
                file=sys.stderr,
            )
            return 2
        print(text)
        return 0

    try:
        report = run_scenario(args.scenario, seed=args.seed, count=args.points, tol=args.tol)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _print_report(report)
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(report.to_json())
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    return 0 if report.passed else 1
