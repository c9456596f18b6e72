"""Seeded inputs for the liftlab benchmark.

A workload is a fixed list of case shapes.  One round runs every shape
once; the timed loop runs whole rounds, so each run sees the same mix of
shapes whatever its length.  Every generated case draws fresh
coefficients from the workload seed, and every case records the verdict
each of its checks must reach, known from how the case is constructed
and never from running liftlab.

The generator writes expressions as plain strings and uses no liftlab
code, so a change to the program cannot change its own inputs.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED_DIR = os.path.join(ROOT, "scenarios")

PASS, FAIL = True, False


@dataclass(frozen=True)
class Case:
    """One scenario file run to its report."""

    path: str
    seed: int  # sampling seed handed to run_scenario
    expected: dict  # check id -> True (must pass) / False (must fail)


# ---------------------------------------------------------------------------
# Random fields as expression strings


def poly(rng: np.random.Generator, n: int, degree: int, scale: float) -> str:
    """Dense random polynomial in x1..xn with uniform(-scale, scale)
    coefficients, printed to six decimals."""
    monomials = [""]
    if degree >= 1:
        monomials += [f"x{i}" for i in range(1, n + 1)]
    if degree >= 2:
        monomials += [
            f"x{i}^2" if i == j else f"x{i}*x{j}"
            for i in range(1, n + 1)
            for j in range(i, n + 1)
        ]
    coefs = rng.uniform(-scale, scale, size=len(monomials))
    text = f"{coefs[0]:.6f}"
    for c, m in zip(coefs[1:], monomials[1:]):
        text += f" {'-' if c < 0 else '+'} {abs(c):.6f}*{m}"
    return text


def covariant(rng, n: int, q: int, degree: int = 2, scale: float = 0.5) -> dict:
    """Every component of a (0,q) field, keyed "i1,..,iq"."""
    return {
        ",".join(map(str, mi)): poly(rng, n, degree, scale)
        for mi in itertools.product(range(1, n + 1), repeat=q)
    }


def symmetric_connection(rng, n: int, degree: int = 1, scale: float = 0.4) -> dict:
    """Gamma^h_{ji} = Gamma^h_{ij}: one draw per unordered lower pair,
    written under both keys."""
    out = {}
    for h in range(1, n + 1):
        for j in range(1, n + 1):
            for i in range(j, n + 1):
                out[f"{h},{j},{i}"] = out[f"{h},{i},{j}"] = poly(rng, n, degree, scale)
    return out


def block_complex(n: int) -> dict:
    """Constant J: 2x2 rotation blocks down the diagonal, and a trailing 1
    when n is odd (there J^2 = -I fails on the last axis)."""
    out = {}
    for b in range(1, n, 2):
        out[f"{b + 1},{b}"] = "1"
        out[f"{b},{b + 1}"] = "-1"
    if n % 2:
        out[f"{n},{n}"] = "1"
    return out


# ---------------------------------------------------------------------------
# Workloads


CONNECTION_CHECKS = ("totally_geodesic", "gauss_consistency", "curvature_tangency")
DENSE_CHECKS = (
    "purity",
    "tachibana_zero",
    "nijenhuis_zero",
    "theorem1",
    "characterization",
    "lift_connection_zeros",
    "induced_equals_base",
)

# The six shipped files in README order.  Exit codes 0, 0, 1, 0, 0, 1:
# the two negative controls fail exactly the check the README names.
SHIPPED = (
    ("theorem1_analytic", ()),
    ("analytic_pair_q2", ()),
    ("theorem1_necessity", ("tachibana_zero",)),
    ("sphere_cross_section", ()),
    ("flat_affine_geodesic", ()),
    ("flat_quadratic", ("totally_geodesic",)),
)


def _shipped_round(rng, size):
    for name, failing in SHIPPED:
        path = os.path.join(SHIPPED_DIR, name + ".json")
        with open(path, encoding="utf-8") as fh:
            checks = json.load(fh)["checks"]
        yield name, path, {c: c not in failing for c in checks}


def _connection_round(rng, size):
    """A generic symmetric connection (degree 1) with a generic (0,q)
    field (degree 2) satisfies the Gauss identity but is neither totally
    geodesic nor curvature-tangent.  On the flat chart the curvature
    vanishes, so tangency holds, and H is the Hessian of xi: zero for an
    affine xi, not for a quadratic one."""
    shapes, flat_shape, points = size
    for n, q in shapes:
        scenario = {
            "n": n, "q": q, "points": points, "checks": list(CONNECTION_CHECKS),
            "gamma": symmetric_connection(rng, n), "xi": covariant(rng, n, q),
        }
        yield f"generic-{n}x{q}", scenario, {
            "totally_geodesic": FAIL, "gauss_consistency": PASS, "curvature_tangency": FAIL,
        }
    n, q = flat_shape
    for kind, degree, geodesic in (("affine", 1, PASS), ("quadratic", 2, FAIL)):
        scenario = {
            "n": n, "q": q, "points": points, "checks": list(CONNECTION_CHECKS),
            "gamma": "flat", "xi": covariant(rng, n, q, degree),
        }
        yield f"flat-{kind}-{n}x{q}", scenario, {
            "totally_geodesic": geodesic, "gauss_consistency": PASS, "curvature_tangency": PASS,
        }


def _dense_round(rng, size):
    """Constant J, a generic degree-2 xi and a generic degree-1 connection.

    Pass by construction: nijenhuis_zero (J is constant), the connection
    identities, purity and characterization at q=1, and theorem1, whose
    hypotheses fail because a generic xi is not almost analytic.  Fail by
    construction: tachibana_zero, and purity and characterization at
    q>=2, where a generic xi is impure."""
    for n, q, points in size:
        scenario = {
            "n": n, "q": q, "points": points, "checks": list(DENSE_CHECKS),
            "phi": block_complex(n), "xi": covariant(rng, n, q),
            "gamma": symmetric_connection(rng, n),
        }
        expected = dict.fromkeys(DENSE_CHECKS, PASS)
        expected["tachibana_zero"] = FAIL
        if q >= 2:
            expected["purity"] = expected["characterization"] = FAIL
        yield f"dense-{n}x{q}@{points}", scenario, expected


@dataclass(frozen=True)
class Workload:
    name: str
    index: int  # mixed into the seed so workloads never share draws
    make_round: Callable
    size: object
    small: object  # a quick size for the smoke test


WORKLOADS = {
    w.name: w
    for w in (
        Workload("shipped", 0, _shipped_round, None, None),
        Workload(
            "connection_grid", 1, _connection_round,
            (((2, 3), (3, 2), (4, 1)), (3, 2), 8),
            (((2, 1),), (2, 1), 4),
        ),
        Workload(
            "dense_points", 2, _dense_round,
            ((2, 1, 256), (2, 2, 256), (2, 3, 64), (3, 1, 64), (3, 2, 64)),
            ((2, 1, 8), (2, 2, 8)),
        ),
    )
}


class Inputs:
    """Writes a workload's rounds into workdir on demand, in seed order."""

    def __init__(self, workload: Workload, seed: int, workdir: str, small: bool = False):
        self.workload = workload
        self.size = workload.small if small else workload.size
        self.rng = np.random.default_rng([seed, workload.index])
        self.workdir = workdir
        self.written = 0

    def next_round(self) -> list[Case]:
        cases = []
        for label, scenario, expected in self.workload.make_round(self.rng, self.size):
            seed = int(self.rng.integers(0, 2**31))
            if isinstance(scenario, str):
                path = scenario
            else:
                path = os.path.join(self.workdir, f"case{self.written:05d}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"name": label, **scenario}, fh)
                self.written += 1
            cases.append(Case(path, seed, expected))
        return cases
