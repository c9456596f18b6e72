"""Tensor fields on an n-dimensional chart, with symbolic components.

Every field is a Field: a chart dimension n, an index shape, and comps,
a flat tuple of component expressions in row-major order over that
shape.  One layout serves every kind of field:

- evaluate(points) returns an array of shape points.shape[:-1] + shape,
  so one point gives the bare component array and an (m, n) batch puts
  the point axis first;
- partials() is the grid d_m (component) of shape (n,) + shape, with the
  derivative axis first, and partials_at(points) evaluates it.

The named kinds differ only in how their constructors read components
and in the index order of component(...), which is the storage order.
Indices count from 1 and coordinates are x1..xn.

- CovariantField, a (0,q) field: A_{j1..jq} at A.component((j1, .., jq)),
  ranked by rank_multi_index, which is also the fibre-coordinate order
  used by the bundle machinery;
- VectorField: V^i at V.component(i);
- EndomorphismField: phi^i_j at phi.component(i, j), rows indexing the
  upper slot, so the evaluated matrix acts on column vectors;
- OneTwoTensorField: T^l_{jk} at T.component(l, j, k);
- ConnectionField: Gamma^h_{ji} at gamma.component(h, j, i), with the
  derivative (first lower) subscript j;
- CurvatureField: R_{kji}^l at R.component(k, j, i, l), lower indices
  first, following
  R_{kji}^l = d_k Gamma^l_{ji} - d_j Gamma^l_{ki}
              + Gamma^l_{km} Gamma^m_{ji} - Gamma^l_{jm} Gamma^m_{ki}.

Operators are written as np.einsum over object arrays of expressions;
the smart constructors of expr fold the zeros.  Components are validated
once, where a caller hands them to a public constructor; operator
outputs are assembled from already validated inputs and skip that walk.

A field compiles its components into an expr.Tape on first evaluation
and keeps it in _cache, so every later evaluate or partials_at call runs
the tape: each structurally distinct subexpression once per call, over
the whole batch of points.  partials() differentiates all components
along one axis with one derivative memo (expr.diffs), scoped to that
build: a node shared between components is differentiated once, and
the grid comes out sharing as much as its source.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import expr
from .expr import ScalarExpr, Tape

MAX_DIM = 4

MultiIndex = tuple[int, ...]

# einsum letters for tensor slots; "m" is kept for the summed index.
SLOTS = "ABCDEFGH"


def rank_multi_index(mi: Sequence[int], n: int) -> int:
    """Row-major position of a multi-index (entries 1..n) in 0..n^q - 1."""
    q = len(mi)
    r = 0
    for slot, j in enumerate(mi, start=1):
        if not 1 <= j <= n:
            raise ValueError(f"multi-index entry {j} outside 1..{n}")
        r += (j - 1) * n ** (q - slot)
    return r


def unrank_multi_index(r: int, n: int, q: int) -> MultiIndex:
    """Inverse of rank_multi_index for fixed n, q."""
    if not 0 <= r < n**q:
        raise ValueError(f"rank {r} outside 0..{n ** q - 1}")
    out = []
    for slot in range(q):
        out.append(r // n ** (q - 1 - slot) % n + 1)
    return tuple(out)


def iter_multi_indices(n: int, q: int) -> Iterator[MultiIndex]:
    """All multi-indices in rank order (lexicographic, last slot fastest)."""
    return itertools.product(range(1, n + 1), repeat=q)


def replace_slot(mi: MultiIndex, slot: int, value: int) -> MultiIndex:
    """Copy of mi with 0-based slot replaced."""
    return mi[:slot] + (value,) + mi[slot + 1 :]


def slot_einsum(spec: str, q: int, *operands, slot: int = 0) -> np.ndarray:
    """np.einsum with a subscript template over the q slots of a tensor.

    In spec, {S} stands for the slot letters, {s} for the letter of the
    given 0-based slot, and {R} for the slot letters with that one
    replaced by the summed index m.  Works alike on object arrays of
    expressions and on float arrays.
    """
    letters = SLOTS[:q]
    swapped = letters[:slot] + "m" + letters[slot + 1 :]
    return np.einsum(spec.format(S=letters, s=letters[slot], R=swapped), *operands)


def sum_over_slots(spec: str, q: int, *operands) -> np.ndarray:
    """slot_einsum summed over every slot, as in sum_s A_{j1..m..jq} (..)."""
    return sum(slot_einsum(spec, q, *operands, slot=s) for s in range(q))


def _as_expr(v, n: int) -> ScalarExpr:
    if isinstance(v, str):
        return expr.parse(v, n)
    if isinstance(v, (int, float)):
        return expr.Const(float(v))
    if isinstance(v, ScalarExpr):
        if expr.max_axis(v) > n:
            raise ValueError(
                f"component uses x{expr.max_axis(v)} but the chart has dimension {n}"
            )
        return v
    raise TypeError(f"cannot use {type(v).__name__} as a field component")


def _check_dim(n: int) -> int:
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"chart dimension must be in 1..{MAX_DIM}, got {n}")
    return n


def _same_chart(a: "Field", b: "Field", what: str) -> None:
    if a.n != b.n:
        raise ValueError(f"{what} live on different charts")


def _object_array(items, shape: tuple[int, ...]) -> np.ndarray:
    grid = np.empty(len(items), dtype=object)
    grid[:] = items
    return grid.reshape(shape)


class Field:
    """Symbolic components of one index shape on an n-dimensional chart."""

    __slots__ = ("n", "shape", "comps", "_cache")
    kind = "field"  # names the field in a singular-point error

    def __init__(self, n: int, shape: tuple[int, ...], components):
        """components: nested sequences (or an array) of the given shape,
        or a Mapping of 1-based index tuples with every other component
        zero; each component a string, number or expression."""
        self.n = _check_dim(n)
        if isinstance(components, Mapping):
            grid = np.zeros(shape, dtype=object)
            for idx, v in components.items():
                if len(idx) != len(shape):
                    raise ValueError(f"index {idx} needs {len(shape)} entries")
                grid.flat[rank_multi_index(idx, n)] = v
        else:
            grid = np.array(components, dtype=object)
        if grid.shape != shape:
            raise ValueError(f"expected a {' x '.join(map(str, shape))} component grid")
        self.shape = shape
        self.comps = tuple(_as_expr(v, n) for v in grid.flat)
        self._cache = {}

    @classmethod
    def _of(cls, n: int, grid: np.ndarray) -> "Field":
        """Operator output: an object array of expressions built from
        validated inputs, taken as it is."""
        f = object.__new__(cls)
        f.n, f.shape, f.comps, f._cache = n, grid.shape, tuple(grid.flat), {}
        return f

    def component(self, *idx: int) -> ScalarExpr:
        if len(idx) != len(self.shape):
            raise IndexError(f"expected {len(self.shape)} indices, got {len(idx)}")
        return self.comps[rank_multi_index(idx, self.n)]

    def array(self) -> np.ndarray:
        """Components as an object array of the field's shape."""
        return _object_array(self.comps, self.shape)

    def evaluate(self, points) -> np.ndarray:
        """Component values, shape points.shape[:-1] + shape."""
        return self._values(points, self.kind)

    def partials(self) -> "Field":
        """Plain partial-derivative grid d_m (component), derivative axis
        first; not itself a tensor.  The grid of a (0,q) field is a
        (0,q+1) CovariantField, that of any other kind a bare Field."""
        if "partials" not in self._cache:
            grid = _object_array(
                [d for m in range(1, self.n + 1) for d in expr.diffs(self.comps, m)],
                (self.n,) + self.shape,
            )
            cls = type(self) if isinstance(self, CovariantField) else Field
            self._cache["partials"] = cls._of(self.n, grid)
        return self._cache["partials"]

    def partials_at(self, points) -> np.ndarray:
        """Values of partials(), shape points.shape[:-1] + (n,) + shape."""
        return self.partials()._values(points, self.kind + " partials")

    def _values(self, points, what: str) -> np.ndarray:
        tape = self._cache.get("tape")
        if tape is None:
            tape = self._cache["tape"] = Tape(self.comps)
        p = np.asarray(points, dtype=np.float64)
        out = tape(p)
        if not np.all(np.isfinite(out)):
            raise ArithmeticError(f"{what} evaluated non-finite; point is singular")
        return out.reshape(p.shape[:-1] + self.shape)


def derivative_grid(f: Field) -> np.ndarray:
    """Partial-derivative grid of a field as an object array, derivative
    axis first."""
    return f.partials().array()


class CovariantField(Field):
    """A (0,q) tensor field with one symbolic component per multi-index.

    Built from a flat sequence in rank order, or from a Mapping of
    multi-index to component with the rest zero.  q >= 1 always; ranks
    above 3 only occur as outputs of derivative operators.
    """

    __slots__ = ()
    kind = "tensor field"

    def __init__(self, n: int, q: int, components):
        _check_dim(n)
        if q < 1:
            raise ValueError(f"covariant rank must be >= 1, got {q}")
        if not isinstance(components, Mapping):
            flat = list(components)
            if len(flat) != n**q:
                raise ValueError(f"expected {n ** q} components, got {len(flat)}")
            components = _object_array(flat, (n,) * q)
        super().__init__(n, (n,) * q, components)

    @property
    def q(self) -> int:
        return len(self.shape)

    @classmethod
    def zeros(cls, n: int, q: int) -> "CovariantField":
        return cls(n, q, {})

    def component(self, mi: Sequence[int]) -> ScalarExpr:
        return super().component(*mi)


class VectorField(Field):
    __slots__ = ()
    kind = "vector field"

    def __init__(self, n: int, components):
        super().__init__(n, (n,), components)


class EndomorphismField(Field):
    """A (1,1) tensor field phi^i_j; rows index the upper slot."""

    __slots__ = ()
    kind = "endomorphism field"

    def __init__(self, n: int, components):
        super().__init__(n, (n, n), components)


class OneTwoTensorField(Field):
    """A (1,2) tensor field T^l_{jk}, upper index first."""

    __slots__ = ()
    kind = "(1,2) tensor field"

    def __init__(self, n: int, components):
        super().__init__(n, (n, n, n), components)


class ConnectionField(Field):
    """Affine connection coefficients Gamma^h_{ji} on the chart.

    The symmetric flag asserts Gamma^h_{ji} = Gamma^h_{ij}; operators
    that require a torsion-free connection check it.
    """

    __slots__ = ("symmetric",)
    kind = "connection"

    def __init__(self, n: int, components, symmetric: bool = True):
        super().__init__(n, (n, n, n), components)
        self.symmetric = bool(symmetric)

    @classmethod
    def zeros(cls, n: int) -> "ConnectionField":
        return cls(n, {}, symmetric=True)

    @classmethod
    def from_dict(cls, n: int, entries: Mapping, symmetric: bool = True) -> "ConnectionField":
        """entries maps (h, j, i) to a component; unset entries are zero."""
        return cls(n, entries, symmetric=symmetric)

    def symmetry_residual(self, points) -> float:
        g = self.evaluate(points)
        return float(np.max(np.abs(g - np.swapaxes(g, -2, -1))))


class CurvatureField(Field):
    """Curvature components R_{kji}^l of a connection, lower indices first."""

    __slots__ = ()
    kind = "curvature"

    def __init__(self, n: int, components):
        super().__init__(n, (n, n, n, n), components)


# ---------------------------------------------------------------------------
# Operators


def lie_derivative_cov(v: VectorField, a: CovariantField) -> CovariantField:
    """(L_V A)_{j1..jq} = V^m d_m A_{j1..jq} + sum_s A_{j1..m..jq} d_{js} V^m."""
    _same_chart(v, a, "vector field and tensor field")
    q = a.q
    transport = slot_einsum("m,m{S}->{S}", q, v.array(), derivative_grid(a))
    out = transport + sum_over_slots("{s}m,{R}->{S}", q, derivative_grid(v), a.array())
    return CovariantField._of(a.n, out)


def lie_derivative_endo(v: VectorField, phi: EndomorphismField) -> EndomorphismField:
    """(L_V phi)^i_j = V^m d_m phi^i_j - phi^m_j d_m V^i + phi^i_m d_j V^m."""
    _same_chart(v, phi, "vector field and endomorphism")
    f, dv = phi.array(), derivative_grid(v)
    out = (
        np.einsum("m,mij->ij", v.array(), derivative_grid(phi))
        - np.einsum("mj,mi->ij", f, dv)
        + np.einsum("im,jm->ij", f, dv)
    )
    return EndomorphismField._of(phi.n, out)


def apply_endo_cov(phi: EndomorphismField, a: CovariantField) -> CovariantField:
    """First-slot action (phi A)_{j1..jq} = phi^m_{j1} A_{m j2..jq}."""
    _same_chart(phi, a, "endomorphism and tensor field")
    return CovariantField._of(a.n, slot_einsum("m{s},{R}->{S}", a.q, phi.array(), a.array()))


def apply_endo_vec(phi: EndomorphismField, v: VectorField) -> VectorField:
    """(phi V)^i = phi^i_m V^m."""
    _same_chart(phi, v, "endomorphism and vector field")
    return VectorField._of(v.n, np.einsum("im,m->i", phi.array(), v.array()))


def compose_endo(f: EndomorphismField, g: EndomorphismField) -> EndomorphismField:
    """(f g)^i_j = f^i_m g^m_j."""
    _same_chart(f, g, "endomorphisms")
    return EndomorphismField._of(f.n, np.einsum("im,mj->ij", f.array(), g.array()))


def contract_slot_endo(a: CovariantField, phi: EndomorphismField, slot: int) -> CovariantField:
    """Contraction of phi into one lower slot:
    out_{j1..jq} = phi^m_{j(slot)} A_{j1..m..jq}, slot counted from 1."""
    _same_chart(phi, a, "endomorphism and tensor field")
    if not 1 <= slot <= a.q:
        raise ValueError(f"slot {slot} outside 1..{a.q}")
    out = slot_einsum("m{s},{R}->{S}", a.q, phi.array(), a.array(), slot=slot - 1)
    return CovariantField._of(a.n, out)


def covariant_derivative_cov(gamma: ConnectionField, a: CovariantField) -> CovariantField:
    """(nabla A)_{i j1..jq} = d_i A_{j1..jq} - sum_s Gamma^m_{i js} A_{j1..m..jq}.

    The derivative index comes first in the result's multi-index.
    """
    _same_chart(gamma, a, "connection and tensor field")
    out = derivative_grid(a) - sum_over_slots("mi{s},{R}->i{S}", a.q, gamma.array(), a.array())
    return CovariantField._of(a.n, out)


def curvature(gamma: ConnectionField) -> CurvatureField:
    """Curvature of the connection, cached on the connection instance."""
    if "curvature" not in gamma._cache:
        g, dg = gamma.array(), derivative_grid(gamma)  # dg[m, h, j, i] = d_m Gamma^h_{ji}
        r = (
            np.einsum("klji->kjil", dg)
            - np.einsum("jlki->kjil", dg)
            + np.einsum("lkm,mji->kjil", g, g)
            - np.einsum("ljm,mki->kjil", g, g)
        )
        gamma._cache["curvature"] = CurvatureField._of(gamma.n, r)
    return gamma._cache["curvature"]
