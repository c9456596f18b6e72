"""Seeded random fields, a spoiled lift, the (n, q) grid and read-only
arrays that only the tests use.  The random polynomials are built
as trees through the smart constructors of _symbolic, and a field takes
each as its text; the characterization probes of
liftlab.presets.random_probe are the same polynomials in closed form."""

import contextlib

import numpy as np
import pytest

import _symbolic as S
from liftlab import connection_lift
from liftlab.tree import ScalarExpr
from liftlab.tensor import ConnectionField, CovariantField, VectorField

# (n, q) cases up to the top of the supported envelope; the ids of the
# n=2 cases are their q alone
DIM_RANK = pytest.mark.parametrize(
    "n,q",
    [(2, 1), (2, 2), (3, 1), (3, 2), (4, 3)],
    ids=["1", "2", "n3-1", "n3-2", "n4-3"],
)


def read_only(a: np.ndarray) -> np.ndarray:
    """A read-only copy of a: a caller's array, which a case copies on
    entry like any other."""
    a = a.copy()
    a.flags.writeable = False
    return a


def read_only_chain(a) -> bool:
    """Whether a is an array that is read-only, and so is every array up
    its base chain."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return True


def replace_slot(mi: tuple[int, ...], slot: int, value: int) -> tuple[int, ...]:
    """Copy of mi with 0-based slot replaced, for the reference loops."""
    return mi[:slot] + (value,) + mi[slot + 1 :]


def random_polynomial_expr(rng: np.random.Generator, n: int, degree: int = 2,
                           scale: float = 0.5) -> ScalarExpr:
    """Random polynomial in x1..xn with uniform(-scale, scale) coefficients."""
    axes = range(1, n + 1)
    monomials = [S.var(i) for i in axes] if degree >= 1 else []
    if degree >= 2:
        monomials += [S.mul(S.var(i), S.var(j)) for i in axes for j in range(i, n + 1)]
    e = S.const(rng.uniform(-scale, scale))
    for m in monomials:
        e = S.add(e, S.mul(S.const(rng.uniform(-scale, scale)), m))
    return e


def random_covariant_field(rng: np.random.Generator, n: int, q: int,
                           degree: int = 2, scale: float = 0.5) -> CovariantField:
    return CovariantField(
        n, q, [str(random_polynomial_expr(rng, n, degree, scale)) for _ in range(n**q)]
    )


def random_vector_field(rng: np.random.Generator, n: int,
                        degree: int = 2, scale: float = 0.5) -> VectorField:
    return VectorField(n, [str(random_polynomial_expr(rng, n, degree, scale)) for _ in range(n)])


def random_symmetric_connection(rng: np.random.Generator, n: int,
                                degree: int = 1, scale: float = 0.4) -> ConnectionField:
    """Random polynomial coefficients, symmetrized in the lower pair."""
    grid = [[[None] * n for _ in range(n)] for _ in range(n)]
    for h in range(n):
        for j in range(n):
            for i in range(j, n):
                e = str(random_polynomial_expr(rng, n, degree, scale))
                grid[h][j][i] = e
                grid[h][i][j] = e
    return ConnectionField(n, grid)


@contextlib.contextmanager
def flipped_curvature():
    """Inside the block, the complete lift of a connection negates the
    curvature term of its fibre block: a deliberate spoiler, so that the
    Gauss consistency check has a negative control.  The lift looks up
    connection_lift.t_linear_block when it is called, so replacing that
    name is enough; the values are bit-identical to a lift written with
    -R."""
    original = connection_lift.t_linear_block
    connection_lift.t_linear_block = lambda g, dg, r4, t, q: original(g, dg, -r4, t, q)
    try:
        yield
    finally:
        connection_lift.t_linear_block = original


def generic_scenario(seed: int, n: int, q: int) -> dict:
    """Scenario fields with every verdict known by construction: constant
    block J, a generic degree-2 xi and a generic degree-1 symmetric gamma,
    as index-keyed component strings."""
    rng = np.random.default_rng(seed)
    xi = {",".join(str(i + 1) for i in k): polynomial_text(rng, n, 2, 0.5) for k in np.ndindex((n,) * q)}
    gamma = {}
    for h in range(1, n + 1):
        for j in range(1, n + 1):
            for i in range(j, n + 1):
                gamma[f"{h},{j},{i}"] = gamma[f"{h},{i},{j}"] = polynomial_text(rng, n, 1, 0.4)
    phi = {f"{b + 2},{b + 1}": "1" for b in range(0, n - 1, 2)}
    phi.update({f"{b + 1},{b + 2}": "-1" for b in range(0, n - 1, 2)})
    return {"n": n, "q": q, "phi": phi, "xi": xi, "gamma": gamma}


def polynomial_text(rng: np.random.Generator, n: int, degree: int, scale: float) -> str:
    """A dense random polynomial in x1..xn as an expression string."""
    monomials = [""] + [f"*x{i}" for i in range(1, n + 1)]
    if degree >= 2:
        monomials += [f"*x{i}*x{j}" for i in range(1, n + 1) for j in range(i, n + 1)]
    coefs = rng.uniform(-scale, scale, len(monomials))
    return " + ".join(f"({c:.6f}){m}" for c, m in zip(coefs, monomials))
