"""Seeded random fields that only the tests use."""

import numpy as np

from liftlab.presets import random_polynomial_expr
from liftlab.tensor import ConnectionField


def random_symmetric_connection(rng: np.random.Generator, n: int,
                                degree: int = 1, scale: float = 0.4) -> ConnectionField:
    """Random polynomial coefficients, symmetrized in the lower pair."""
    grid = [[[None] * n for _ in range(n)] for _ in range(n)]
    for h in range(n):
        for j in range(n):
            for i in range(j, n):
                e = random_polynomial_expr(rng, n, degree, scale)
                grid[h][j][i] = e
                grid[h][i][j] = e
    return ConnectionField(n, grid, symmetric=True)
