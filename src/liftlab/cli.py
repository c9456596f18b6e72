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
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import bundle, connection_lift, presets, sampling
from .expr import ParseError, named
from .tensor import (
    ConnectionField,
    CovariantField,
    EndomorphismField,
    VectorField,
    curvature,
    one_case,
)

DEFAULT_TOL = sampling.DEFAULT_TOL
STRUCTURAL_TOL = sampling.STRUCTURAL_TOL


class ScenarioError(ValueError):
    """Malformed scenario file or incompatible field data."""


def _is_int(v) -> bool:
    """A JSON integer; JSON true and false parse to bool, an int subclass."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, float) or _is_int(v)


def ascii_int(text: str) -> int:
    """int(text) of ASCII digits after an optional minus; int() alone also
    reads the digits of other scripts and underscores."""
    digits = text.strip().removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)


def ascii_float(text: str) -> float:
    """float(text) of ASCII text without underscores, as ascii_int."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII number: {text!r}")
    return float(text)


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
class Report:
    scenario: str
    n: int
    q: int
    seed: int
    count: int
    box: tuple[float, float]
    results: list[tuple[str, sampling.SampledCheck]]

    @property
    def passed(self) -> bool:
        return all(r.passed for _, r in self.results)

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
                    "id": check,
                    "status": "pass" if r.passed else "fail",
                    "residual": r.residual,
                    "tolerance": r.tol,
                    "worst_point": list(r.worst_point),
                    "detail": r.detail,
                }
                for check, r in self.results
            ],
        }

    def to_json(self) -> str:
        """to_dict() as json.dumps(..., sort_keys=True, indent=2) writes it,
        plus a newline, byte for byte, written by the report's fixed
        layout: json's indented form runs its pure-Python encoder."""
        d = self.to_dict()
        checks = ",\n".join(
            "    {\n"
            f'      "detail": {_json_detail(c["detail"])},\n'
            f'      "id": {_json_value(c["id"])},\n'
            f'      "residual": {_json_value(c["residual"])},\n'
            f'      "status": {_json_value(c["status"])},\n'
            f'      "tolerance": {_json_value(c["tolerance"])},\n'
            f'      "worst_point": {_json_list(c["worst_point"], "      ")}\n'
            "    }" for c in d["checks"])
        checks = f"[\n{checks}\n  ]" if checks else "[]"
        return (
            "{\n"
            f'  "box": {_json_list(d["box"], "  ")},\n'
            f'  "checks": {checks},\n'
            f'  "n": {_json_value(d["n"])},\n'
            f'  "passed": {_json_value(d["passed"])},\n'
            f'  "points": {_json_value(d["points"])},\n'
            f'  "q": {_json_value(d["q"])},\n'
            f'  "scenario": {_json_value(d["scenario"])},\n'
            f'  "seed": {_json_value(d["seed"])}\n'
            "}\n"
        )


def _json_value(v) -> str:
    """A float, str, None, bool or int as json.dumps writes it."""
    if isinstance(v, float):
        text = float.__repr__(v)
        return _FLOAT_NAMES.get(text, text)
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's, for float's repr


def _json_list(values, pad: str) -> str:
    """A list of values as json.dumps(indent=2) writes it on a line indented by pad."""
    if not values:
        return "[]"
    sep = ",\n" + pad + "  "
    return "[\n" + pad + "  " + sep.join(map(_json_value, values)) + "\n" + pad + "]"


def _json_detail(detail: dict) -> str:
    """A check's detail, its keys sorted, as json.dumps(sort_keys=True,
    indent=2) writes it at a check's depth."""
    if not detail:
        return "{}"
    items = ",\n        ".join(f"{encode_basestring_ascii(k)}: {_json_value(v)}"
                               for k, v in sorted(detail.items()))
    return "{\n        " + items + "\n      }"


# ---------------------------------------------------------------------------
# Scenario loading


def _parse_key(key: str, length: int, n: int, what: str) -> tuple[int, ...]:
    parts = [s.strip() for s in key.split(",")]
    if len(parts) != length:
        raise ScenarioError(
            f"{what}: index key {key!r} must have {length} comma-separated entries"
        )
    try:
        idx = tuple(ascii_int(s) for s in parts)
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
        if not (isinstance(text, str) or _is_number(text)):
            raise ScenarioError(f"{what}: component {key!r} must be a string or number")
        if isinstance(text, float) and not math.isfinite(text):
            raise ScenarioError(f"{what}: component {key!r} is not a finite number")
        out[idx] = text
    return out


def _resolve_preset(kind: str, name: str, n: int, q: int):
    entry = presets.PRESETS.get(name, {}).get(kind)
    if entry is None:
        raise ScenarioError(f"no preset {name!r} provides field {kind!r}")
    build, need_n, need_q, _ = entry
    if need_n is None:
        return build(n)
    if n != need_n:
        raise ScenarioError(f"preset {name!r} requires n={need_n}, scenario has n={n}")
    if need_q is not None and q != need_q:
        raise ScenarioError(f"preset {name} provides a (0,{need_q}) field, scenario has q={q}")
    return build()


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
    except ArithmeticError as exc:  # a constant folded out of float range
        raise ScenarioError(f"{kind}: component constant out of range: {exc}") from None
    raise ScenarioError(f"unknown field kind {kind!r}")


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from None
    except ValueError as exc:  # bad JSON, not UTF-8, or an integer past the digit limit
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
    for i, c in enumerate(checks):
        if c not in CHECK_IDS:
            raise ScenarioError(f"unknown check {c!r}; valid checks: {', '.join(CHECK_IDS)}")
        if c in checks[:i]:
            raise ScenarioError(f"duplicate check {c!r}")

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
        numbers = isinstance(box, list) and len(box) == 2 and all(map(_is_number, box))
        try:
            box = (float(box[0]), float(box[1])) if numbers else None
        except OverflowError:
            raise ScenarioError("box ends must be within float range") from None
        if box is None or not (math.isfinite(box[1] - box[0]) and box[0] < box[1]):
            raise ScenarioError("box must be [lo, hi] with lo < hi and a finite width hi - lo")

    sc = Scenario(name=name, n=n, q=q, checks=list(checks), seed=seed, count=count, box=box)
    for kind in ("phi", "xi", "gamma", "v", "a"):
        if kind in data:
            setattr(sc, kind, _build_field(kind, data[kind], n, q))

    for c in checks:
        for req in _CHECKS[c][0]:
            if req not in ("v", "a") and getattr(sc, req) is None:
                raise ScenarioError(f"check {c!r} requires scenario field {req!r}")
    return sc


# ---------------------------------------------------------------------------
# Check execution


def _sample_scenario_points(sc: Scenario, seed: int, count: int, box) -> np.ndarray:
    # rows whose values are finite, and for gamma its first partials too:
    # curvature enters most connection checks, and its poles are those of
    # gamma's partials.  The first block, count rows, is the case's point
    # set when the screen keeps it whole, so there each field's jets go as
    # far as the checks read them; after a later block, each field the
    # checks read runs once more, on the points.
    reads = {"gamma": 0}  # the symmetry gate reads gamma's values
    for c in sc.checks:
        for kind, order in _CHECKS[c][0].items():
            reads[kind] = max(reads.get(kind, 0), order)
    screened = [(getattr(sc, kind), int(kind == "gamma"), reads.get(kind))
                for kind in ("phi", "xi", "v", "a", "gamma") if getattr(sc, kind) is not None]

    def screen(block: np.ndarray) -> np.ndarray:
        block.flags.writeable = False  # so that a block kept whole is held by identity
        bad = np.zeros(len(block), dtype=bool)
        for f, order, fill in screened:
            bad |= ~f.finite_rows(block, order, fill if len(block) == count else None)
        return bad

    try:
        points = sampling.sample_points(sc.n, seed=seed, count=count, box=box, screen=screen)
    except RuntimeError as exc:
        raise ScenarioError(str(exc)) from None
    except (MemoryError, ValueError) as exc:
        # numpy refuses a point array it cannot hold with one or the other
        raise ScenarioError(f"points: cannot hold that many sample points ({exc})") from None
    points.flags.writeable = False  # so that its jets, and what the checks share, are kept
    for f, order, fill in screened:
        if fill is not None:
            f.finite_rows(points, order, fill)  # a table hit when the first block was kept
    return points


def _characterization(sc: Scenario, points, seed: int, tol: float) -> sampling.SampledCheck:
    """The probe vector and tensor come from the scenario when given,
    else they are seeded random quadratics, evaluated in closed form."""
    rng = np.random.default_rng([seed, 1005])
    v = sc.v or presets.random_probe(rng, sc.n)
    a = sc.a or presets.random_probe(rng, sc.n, sc.q)
    return bundle.verify_characterization(sc.phi, sc.xi, v, a, points, tol)


def _check_lift_zeros(gamma: ConnectionField, q: int, points, rng, tol) -> sampling.SampledCheck:
    n = gamma.n
    fib = rng.uniform(-1.0, 1.0, size=(len(points), n**q))
    lift = connection_lift.complete_lift_connection(gamma, bundle.BundlePoint(n, q, points, fib))
    # the structural zeros hold by the block storage, and only fibre_bb
    # depends on t; test symmetry and linearity in t.  The mixed blocks
    # are each other's transpose by construction, so only base and
    # fibre_bb can carry an asymmetry.
    g, dg = gamma.jets(points, 1)
    doubled = connection_lift.t_linear_block(
        g, dg, curvature(gamma).jets(points, 0)[0], 2.0 * fib, q
    )
    asym = [a - np.swapaxes(a, -1, -2) for a in (lift.base, lift.fibre_bb)]
    return sampling.sampled_check(points, asym + [doubled - 2.0 * lift.fibre_bb], tol)


# Every check, in report order: the scenario fields it reads, each with
# the highest jet order it reads of it, and run(scenario, points, seed,
# tol) -> SampledCheck.  It needs every field it reads but the probes v
# and a, which it draws when the scenario gives none.  Each run looks its
# functions up in their modules when it is called, so that a function
# replaced on its module (by a tracer, say) is the one that runs.
_CHECKS = {
    "purity": ({"phi": 0, "xi": 0}, lambda sc, pts, seed, tol: sampling.sampled_check(
        pts, bundle.purity_residual(sc.phi, sc.xi, pts), tol)),
    "tachibana_zero": ({"phi": 1, "xi": 1}, lambda sc, pts, seed, tol: bundle.is_almost_analytic(
        sc.phi, sc.xi, pts, tol)),
    "nijenhuis_zero": ({"phi": 1}, lambda sc, pts, seed, tol: sampling.sampled_check(
        pts, bundle.nijenhuis(sc.phi).evaluate(pts), tol)),
    "theorem1": ({"phi": 1, "xi": 1}, lambda sc, pts, seed, tol: bundle.verify_theorem1(
        sc.phi, sc.xi, pts, tol)),
    "characterization": ({"phi": 1, "xi": 1, "v": 1, "a": 0}, _characterization),
    "lift_connection_zeros": ({"gamma": 1}, lambda sc, pts, seed, tol: _check_lift_zeros(
        sc.gamma, sc.q, pts, np.random.default_rng([seed, 2003]), min(tol, STRUCTURAL_TOL))),
    "induced_equals_base": ({"gamma": 1, "xi": 2}, lambda sc, pts, seed, tol: sampling.sampled_check(
        pts, connection_lift.induced_connection(sc.gamma, sc.xi, pts) - sc.gamma.evaluate(pts),
        tol)),
    "gauss_consistency": ({"gamma": 1, "xi": 2}, lambda sc, pts, seed, tol: (
        connection_lift.gauss_consistency(sc.gamma, sc.xi, pts, tol))),
    "totally_geodesic": ({"gamma": 1, "xi": 2}, lambda sc, pts, seed, tol: (
        connection_lift.is_totally_geodesic(sc.gamma, sc.xi, pts, tol))),
    "curvature_tangency": ({"gamma": 2, "xi": 1}, lambda sc, pts, seed, tol: (
        connection_lift.curvature_tangency(sc.gamma, sc.xi, pts, tol))),
}
CHECK_IDS = tuple(_CHECKS)


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
                seed = ascii_int(env)
            except ValueError:
                raise ScenarioError(f"LIFTLAB_SEED must be an integer, got {env!r}") from None
    if seed is None:
        seed = sc.seed if sc.seed is not None else sampling.DEFAULT_SEED
    if seed < 0:
        raise ScenarioError(f"seed must be non-negative, got {seed}")
    count = count if count is not None else (sc.count or sampling.DEFAULT_COUNT)
    box = sc.box or sampling.DEFAULT_BOX
    tol = tol if tol is not None else DEFAULT_TOL
    if count < 1:
        raise ScenarioError(f"points must be at least 1, got {count}")
    if not math.isfinite(tol) or tol < 0:
        raise ScenarioError(f"tolerance must be finite and non-negative, got {tol!r}")

    with np.errstate(all="ignore"), one_case():  # non-finite values are caught where made
        points = _sample_scenario_points(sc, seed, count, box)
        if sc.gamma is not None:
            # where the screen found gamma regular, by the connection functions' rule
            try:
                connection_lift.require_symmetric(sc.gamma, points)
            except connection_lift.TorsionError as exc:
                raise ScenarioError(f"gamma: {exc}") from None
        results = [(c, named(c, lambda: _CHECKS[c][1](sc, points, seed, tol)))
                   for c in sc.checks]
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
scenario when given, else from seeded random quadratic probes.""",
    "lift_connection_zeros": """\
At a bundle point (x, t) the lifted connection has exactly four kinds of
nonzero coefficients: the base coefficients on horizontal indices, two
mixed blocks that reshuffle base coefficients (independent of t), and a
fibre block linear in t built from derivatives of the base
coefficients, their quadratic combinations, and a curvature
contraction.  The lift stores the base and fibre blocks and derives the
two mixed blocks from the base coefficients, so the remaining
coefficients are zero by construction, and only the fibre block depends
on t.  The check tests the lower-index symmetry of the blocks and the
linearity of the fibre block in t: fibre_bb(2t) = 2 fibre_bb(t).""",
    "induced_equals_base": """\
Differentiating the adapted frame along the cross-section with the
lifted connection and projecting to the base reproduces the base
connection: induced coefficients = Gamma^h_{ji} at every sampled
point.  This holds exactly, by construction: the coframe's horizontal
rows are [I 0], the base rows of d_j B^A_i are zero, and those of the
lifted connection along the section are the stored Gamma, so the
residual reads exactly 0.""",
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
    for check, r in report.results:
        status = "PASS" if r.passed else "FAIL"
        coords = ", ".join(f"{c:.4f}" for c in r.worst_point)
        print(f"{status} {check:<22} residual={r.residual:.3e}  tol={r.tol:.1e}  worst=({coords})")
    done = sum(1 for _, r in report.results if r.passed)
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
    run_p.add_argument("--seed", type=ascii_int, help="sampling seed (overrides LIFTLAB_SEED)")
    run_p.add_argument("--points", type=ascii_int, help="number of sample points")
    run_p.add_argument("--tol", type=ascii_float, help="override every check tolerance")

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
