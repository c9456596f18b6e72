"""Named example inputs, and the seeded probes the characterization
check draws when a scenario gives no v or a: random quadratic fields,
operator outputs of no operands whose jets to order 1 are evaluated in
closed form from the coefficients, bit for bit as a tape of the same
polynomial would evaluate them.  No tree and no tape is built."""

from __future__ import annotations

import numpy as np

from .tensor import ConnectionField, CovariantField, EndomorphismField, Jets, VectorField


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
# Seeded probes, evaluated in closed form


class ProbeVectorField(VectorField):
    __slots__ = ()
    kind = "probe vector field"


class ProbeTensorField(CovariantField):
    __slots__ = ()
    kind = "probe tensor field"


def random_probe(rng: np.random.Generator, n: int, q: int = 0) -> VectorField | CovariantField:
    """The probe vector field (q = 0) or (0,q) tensor field of rng's next
    draws: each component c + sum_i c_i x_i + sum_{i<=j} c_ij x_i x_j, its
    coefficients drawn from uniform(-0.5, 0.5) in that order."""
    cls, shape = (ProbeTensorField, (n,) * q) if q else (ProbeVectorField, (n,))
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    coefs = rng.uniform(-0.5, 0.5, (n ** max(q, 1), 1 + n + len(pairs))).T

    def rule(p, k):
        # (components,) + the batch axes reversed, so that the transposes
        # at the end store the points fastest; each term is added as a
        # tape adds it
        x, c = np.ascontiguousarray(p.T), coefs.reshape(coefs.shape + (1,) * (p.ndim - 1))
        v, g = c[0], list(c[1 : n + 1])
        for i in range(n):
            v = np.add(v, np.multiply(c[1 + i], x[i]))
        for m, (i, j) in enumerate(pairs, 1 + n):
            v = np.add(v, np.multiply(c[m], np.multiply(x[i], x[j])))
            for a, b in {(i, j), (j, i)} if k else ():  # d_a (x_a x_b) = x_b, or x_a + x_a
                g[a] = np.add(g[a], np.multiply(np.add(x[b], x[b]) if i == j else x[b], c[m]))
        jets = [v, np.stack(g, axis=1)] if k else [v]
        return Jets(a.T.reshape(p.shape[:-1] + (n,) * d + shape) for d, a in enumerate(jets))

    return cls._of(n, shape, rule)
