"""Named example inputs, plus seeded random fields used as probes."""

from __future__ import annotations

import numpy as np

from . import expr
from .tensor import (
    ConnectionField,
    CovariantField,
    EndomorphismField,
    VectorField,
)


def standard_complex_r2() -> EndomorphismField:
    """The constant rotation-by-90-degrees structure on a 2d chart:
    phi^2_1 = 1, phi^1_2 = -1, squares to minus the identity."""
    return EndomorphismField(2, [[0.0, -1.0], [1.0, 0.0]])


def sphere_chart_connection() -> ConnectionField:
    """Levi-Civita coefficients of the unit round metric in polar
    coordinates (x1 = colatitude, x2 = longitude)."""
    return ConnectionField(
        2,
        {
            (1, 2, 2): "-sin(x1)*cos(x1)",
            (2, 1, 2): "cos(x1)/sin(x1)",
            (2, 2, 1): "cos(x1)/sin(x1)",
        },
    )


def sphere_chart_metric() -> CovariantField:
    """The round metric itself as a (0,2) field: diag(1, sin(x1)^2)."""
    return CovariantField(2, 2, {(1, 1): 1.0, (2, 2): "sin(x1)^2"})


def flat_connection(n: int) -> ConnectionField:
    """All coefficients zero."""
    return ConnectionField(n, {})


# What each named preset provides, by scenario field: the builder, the n
# it requires (None: any n, passed to the builder), the q it requires
# (None: any), and a description.
PRESETS = {
    "standard_complex_r2": {
        "phi": (standard_complex_r2, 2, None, "rotation structure, phi^2 = -id"),
    },
    "sphere_chart": {
        "gamma": (sphere_chart_connection, 2, None, "round-sphere polar-chart connection"),
        "xi": (sphere_chart_metric, 2, 2, "round metric diag(1, sin(x1)^2)"),
    },
    "flat": {"gamma": (flat_connection, None, None, "zero connection")},
}


def describe_presets() -> list[str]:
    return [
        f"{name:<20} {kind:<6} "
        + (f"n={n} {text}" if n else f"{text} (any n)")
        + (f", q={q}" if q else "")
        for name, fields in PRESETS.items()
        for kind, (_, n, q, text) in fields.items()
    ]


# ---------------------------------------------------------------------------
# Seeded random polynomial fields (probes and fuzz inputs)


def random_polynomial_expr(rng: np.random.Generator, n: int, degree: int = 2,
                           scale: float = 0.5) -> expr.ScalarExpr:
    """Random polynomial in x1..xn with uniform(-scale, scale) coefficients."""
    axes = range(1, n + 1)
    monomials = [expr.var(i) for i in axes] if degree >= 1 else []
    if degree >= 2:
        monomials += [expr.mul(expr.var(i), expr.var(j)) for i in axes for j in range(i, n + 1)]
    e = expr.const(rng.uniform(-scale, scale))
    for m in monomials:
        e = expr.add(e, expr.mul(expr.const(rng.uniform(-scale, scale)), m))
    return e


def random_covariant_field(rng: np.random.Generator, n: int, q: int,
                           degree: int = 2, scale: float = 0.5) -> CovariantField:
    return CovariantField(
        n, q, [random_polynomial_expr(rng, n, degree, scale) for _ in range(n**q)]
    )


def random_vector_field(rng: np.random.Generator, n: int,
                        degree: int = 2, scale: float = 0.5) -> VectorField:
    return VectorField(n, [random_polynomial_expr(rng, n, degree, scale) for _ in range(n)])
