"""The (0,q)-tensor bundle over a chart and lifts along a cross-section.

A point of the bundle is (x, t): a base point together with the n^q
fibre coordinates of a covariant tensor, ordered by multi-index rank.
A (0,q) field xi determines the cross-section x -> (x, xi(x)); the
machinery here builds the adapted frame along it, lifts vectors,
tensors, and endomorphisms, and verifies the structure-preservation
statements about those lifts on sampled points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import sampling
from .tensor import (
    CovariantField,
    EndomorphismField,
    OneTwoTensorField,
    VectorField,
    apply_endo_cov,
    apply_endo_vec,
    compose_endo,
    contract_slot_endo,
    derivative_grid,
    lie_derivative_cov,
    lie_derivative_endo,
    slot_einsum,
    sum_over_slots,
)

MAX_RANK = 3


class NotPureError(ValueError):
    """Raised when an operator that requires a pure tensor gets an impure one."""

    def __init__(self, residual: float, tol: float):
        super().__init__(
            f"tensor is not pure: slot-contraction residual {residual:.3e} exceeds {tol:.1e}"
        )
        self.residual = residual
        self.tol = tol


def fibre_dim(n: int, q: int) -> int:
    return n**q


def bundle_dim(n: int, q: int) -> int:
    return n + n**q


def check_rank(q: int) -> int:
    if not 1 <= q <= MAX_RANK:
        raise ValueError(f"bundle rank must be in 1..{MAX_RANK}, got {q}")
    return q


def _default_points(n: int):
    return sampling.sample_points(n)


@dataclass(frozen=True)
class BundlePoint:
    """A point (x, t) of the bundle; fibre coordinates in rank order."""

    n: int
    q: int
    base: np.ndarray
    fibre: np.ndarray

    def __post_init__(self):
        check_rank(self.q)
        base = np.asarray(self.base, dtype=np.float64)
        fibre = np.asarray(self.fibre, dtype=np.float64)
        if base.shape != (self.n,):
            raise ValueError(f"base point must have {self.n} coordinates")
        if fibre.shape != (self.n**self.q,):
            raise ValueError(f"fibre must have {self.n ** self.q} coordinates")
        if not (np.all(np.isfinite(base)) and np.all(np.isfinite(fibre))):
            raise ValueError("bundle point coordinates must be finite")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "fibre", fibre)

    def fibre_tensor(self) -> np.ndarray:
        """Fibre coordinates reshaped to an (n,)*q array."""
        return self.fibre.reshape((self.n,) * self.q)


def cross_section_point(xi: CovariantField, x) -> BundlePoint:
    """The point (x, xi(x)) on the cross-section determined by xi."""
    check_rank(xi.q)
    return BundlePoint(xi.n, xi.q, np.asarray(x, dtype=np.float64), xi.evaluate(x).reshape(-1))


@dataclass(frozen=True)
class BundleVector:
    """Tangent vector to the bundle, tagged with the frame of its components."""

    n: int
    q: int
    frame: str
    horizontal: np.ndarray
    fibre: np.ndarray

    def __post_init__(self):
        if self.frame not in ("natural", "adapted"):
            raise ValueError(f"unknown frame {self.frame!r}")
        hor = np.asarray(self.horizontal, dtype=np.float64)
        fib = np.asarray(self.fibre, dtype=np.float64)
        if hor.shape != (self.n,) or fib.shape != (self.n**self.q,):
            raise ValueError("component shapes do not match (n, n^q)")
        object.__setattr__(self, "horizontal", hor)
        object.__setattr__(self, "fibre", fib)

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.horizontal, self.fibre])


@dataclass(frozen=True)
class AdaptedFrame:
    """Frame along the cross-section adapted to it, plus its coframe.

    Columns of b and c span the tangent space at (x, xi(x)); rows of
    b_inv and c_inv are the dual coframe.  Stacked, they are exact
    matrix inverses of each other by construction.
    """

    n: int
    q: int
    b: np.ndarray
    c: np.ndarray
    b_inv: np.ndarray
    c_inv: np.ndarray

    def frame_matrix(self) -> np.ndarray:
        """Columns [b | c], shape (n + n^q, n + n^q)."""
        return np.hstack([self.b, self.c])

    def coframe_matrix(self) -> np.ndarray:
        """Rows [b_inv ; c_inv], the inverse of frame_matrix()."""
        return np.vstack([self.b_inv, self.c_inv])

    def to_adapted(self, vec: BundleVector) -> BundleVector:
        if vec.frame == "adapted":
            return vec
        comps = self.coframe_matrix() @ vec.as_array()
        return BundleVector(self.n, self.q, "adapted", comps[: self.n], comps[self.n :])

    def to_natural(self, vec: BundleVector) -> BundleVector:
        if vec.frame == "natural":
            return vec
        comps = self.frame_matrix() @ vec.as_array()
        return BundleVector(self.n, self.q, "natural", comps[: self.n], comps[self.n :])


def adapted_frame(xi: CovariantField, x) -> AdaptedFrame:
    """Adapted frame at (x, xi(x)).

    The horizontal legs carry the slopes d_j xi below an identity; the
    fibre legs are the bare fibre directions.  The coframe is written
    in closed form, so the inverse relation holds exactly.
    """
    n, q = xi.n, check_rank(xi.q)
    nf = n**q
    slopes = xi.partials().evaluate(x).reshape(n, nf)  # slopes[j, fibre-rank]
    b = np.vstack([np.eye(n), slopes.T])
    c = np.vstack([np.zeros((n, nf)), np.eye(nf)])
    b_inv = np.hstack([np.eye(n), np.zeros((n, nf))])
    c_inv = np.hstack([-slopes.T, np.eye(nf)])
    return AdaptedFrame(n, q, b, c, b_inv, c_inv)


def vertical_lift(a: CovariantField, x) -> BundleVector:
    """Vertical lift of a (0,q) tensor field: no horizontal part, the
    tensor's components as fibre part.  Components agree in the natural
    and adapted frames."""
    check_rank(a.q)
    return BundleVector(
        a.n, a.q, "adapted", np.zeros(a.n), a.evaluate(x).reshape(-1)
    )


def complete_lift_vector_natural(v: VectorField, at: BundlePoint) -> BundleVector:
    """Complete lift of a vector field at any bundle point, natural frame:
    horizontal part V^j, fibre part -sum_s t_{j1..m..jq} d_{js} V^m."""
    if v.n != at.n:
        raise ValueError("vector field and bundle point have different dimensions")
    dv = v.partials_at(at.base)  # dv[a, m] = d_a V^m
    fib = -sum_over_slots("{s}m,{R}->{S}", at.q, dv, at.fibre_tensor())
    return BundleVector(at.n, at.q, "natural", v.evaluate(at.base), fib.reshape(-1))


def complete_lift_vector_on_section(v: VectorField, xi: CovariantField, x) -> BundleVector:
    """Complete lift evaluated on the cross-section, adapted frame:
    (V^j, -(L_V xi)_{j1..jq})."""
    if v.n != xi.n:
        raise ValueError("vector field and tensor field live on different charts")
    check_rank(xi.q)
    lie = lie_derivative_cov(v, xi)
    return BundleVector(
        xi.n, xi.q, "adapted", v.evaluate(x), -lie.evaluate(x).reshape(-1)
    )


# ---------------------------------------------------------------------------
# Purity, the Tachibana operator, and the Nijenhuis tensor


def purity_residual(phi: EndomorphismField, xi: CovariantField, points=None) -> float:
    """Largest sampled disagreement among the q slot contractions of phi
    into xi.  A rank-1 tensor is pure by definition (residual 0)."""
    if phi.n != xi.n:
        raise ValueError("endomorphism and tensor field live on different charts")
    if xi.q == 1:
        return 0.0
    if points is None:
        points = _default_points(xi.n)
    contractions = [
        contract_slot_endo(xi, phi, slot).evaluate(points) for slot in range(1, xi.q + 1)
    ]
    return max(
        sampling.max_abs_difference(a, b) for a, b in itertools.combinations(contractions, 2)
    )


def _tachibana_field(phi: EndomorphismField, xi: CovariantField) -> CovariantField:
    """The (0,q+1) field
    Phi_{l k1..kq} = phi^m_l d_m xi_{k1..kq} - d_l (phi xi)_{k1..kq}
                     + sum_a (d_{ka} phi^m_l) xi_{k1..m..kq},
    with (phi xi) the first-slot action.  No purity gate here."""
    q = xi.q
    starred = apply_endo_cov(phi, xi)
    out = (
        slot_einsum("ml,m{S}->l{S}", q, phi.array(), derivative_grid(xi))
        - derivative_grid(starred)
        + sum_over_slots("{s}ml,{R}->l{S}", q, derivative_grid(phi), xi.array())
    )
    return CovariantField._of(xi.n, out)


def tachibana(
    phi: EndomorphismField,
    xi: CovariantField,
    points=None,
    tol: float = sampling.SYMBOLIC_RTOL,
) -> CovariantField:
    """Tachibana operator of phi applied to a pure tensor xi.

    The purity of xi is enforced by sampled residual; NotPureError
    carries the offending residual.  The new (derivative) index of the
    result comes first.
    """
    check_rank(xi.q)
    if points is None:
        points = _default_points(xi.n)
    residual = purity_residual(phi, xi, points)
    if residual > tol:
        raise NotPureError(residual, tol)
    return _tachibana_field(phi, xi)


def is_almost_analytic(
    phi: EndomorphismField,
    xi: CovariantField,
    points=None,
    tol: float = sampling.SYMBOLIC_RTOL,
) -> "sampling.SampledCheck":
    """Pure with vanishing Tachibana image, on sampled points."""
    if points is None:
        points = _default_points(xi.n)
    purity = purity_residual(phi, xi, points)
    if purity > tol:
        return sampling.SampledCheck(False, purity, None)
    per_point = sampling.max_per_point(_tachibana_field(phi, xi).evaluate(points))
    return sampling.sampled_check(points, per_point, tol)


def nijenhuis(phi: EndomorphismField) -> OneTwoTensorField:
    """N^l_{jk} = phi^m_j d_m phi^l_k - phi^m_k d_m phi^l_j
                 - phi^l_m (d_j phi^m_k - d_k phi^m_j)."""
    f, df = phi.array(), derivative_grid(phi)  # df[m, l, k] = d_m phi^l_k
    # the terms of N^l_{jk} with j before k; the rest is its j <-> k mirror
    half = np.einsum("mj,mlk->ljk", f, df) - np.einsum("lm,jmk->ljk", f, df)
    return OneTwoTensorField._of(phi.n, half - half.transpose(0, 2, 1))


def contract_one_two_cov(t: OneTwoTensorField, xi: CovariantField) -> CovariantField:
    """(T xi)_{j i1..iq} = T^m_{j i1} xi_{m i2..iq}."""
    if t.n != xi.n:
        raise ValueError("fields live on different charts")
    return CovariantField._of(xi.n, slot_einsum("mj{s},{R}->j{S}", xi.q, t.array(), xi.array()))


# ---------------------------------------------------------------------------
# Complete lift of an endomorphism along the cross-section


@dataclass(frozen=True)
class BundleEndomorphism:
    """Endomorphism of the tangent space at a cross-section point, in the
    adapted frame.  The horizontal-from-fibre block is structurally zero."""

    n: int
    q: int
    matrix: np.ndarray

    def __post_init__(self):
        dim = bundle_dim(self.n, self.q)
        mat = np.asarray(self.matrix, dtype=np.float64)
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix must be {dim} x {dim}")
        if np.any(mat[: self.n, self.n :] != 0.0):
            raise ValueError("upper-right block must be exactly zero")
        object.__setattr__(self, "matrix", mat)

    def apply(self, vec: BundleVector) -> BundleVector:
        if vec.frame != "adapted":
            raise ValueError("bundle endomorphisms act on adapted components")
        out = self.matrix @ vec.as_array()
        return BundleVector(self.n, self.q, "adapted", out[: self.n], out[self.n :])


def complete_lift_endo_on_section(
    phi: EndomorphismField, xi: CovariantField, x
) -> BundleEndomorphism:
    """Complete lift of phi at (x, xi(x)), adapted frame.

    Blocks: phi itself on horizontal legs, minus the Tachibana image as
    the fibre-from-horizontal coupling, and the first-slot action of phi
    on fibre legs.  The Tachibana formula is applied as written; purity
    of xi is the caller's hypothesis, checked by the verification entry
    points rather than here.
    """
    if phi.n != xi.n:
        raise ValueError("endomorphism and tensor field live on different charts")
    check_rank(xi.q)
    return _lift_endo(phi, _tachibana_field(phi, xi), x)


def _lift_endo(phi: EndomorphismField, tach: CovariantField, x) -> BundleEndomorphism:
    """complete_lift_endo_on_section with the Tachibana field of (phi, xi)
    already built, so a check builds it once for all its points."""
    n, q = tach.n, tach.q - 1
    nf = n**q
    x = np.asarray(x, dtype=np.float64)
    phi_mat = phi.evaluate(x)
    mat = np.zeros((n + nf, n + nf))
    mat[:n, :n] = phi_mat
    mat[n:, :n] = -tach.evaluate(x).reshape(n, nf).T  # from tach[l, k1, .., kq]
    # first-slot action on rank-ordered fibre coordinates: phi^m_{k1} on the
    # leading slot, the identity on the other q - 1
    mat[n:, n:] = np.kron(phi_mat.T, np.eye(n ** (q - 1)))
    return BundleEndomorphism(n, q, mat)


# ---------------------------------------------------------------------------
# Verification of the lift identities


@dataclass(frozen=True)
class CharacterizationReport:
    """Sampled residuals for the two identities that pin down the lift:
    the action on complete lifts and the action on vertical lifts."""

    complete_residual: float
    vertical_residual: float
    residual: float
    worst_point: tuple
    passed: bool
    tol: float


def verify_characterization(
    phi: EndomorphismField,
    xi: CovariantField,
    v: VectorField,
    a: CovariantField,
    points=None,
    tol: float = sampling.SYMBOLIC_RTOL,
) -> CharacterizationReport:
    """Check, on sampled points, that the lifted endomorphism satisfies

      lift(phi) (complete lift of V) = complete lift of (phi V)
                                       + vertical lift of ((L_V phi) xi)
      lift(phi) (vertical lift of A) = vertical lift of (phi A)

    with (L_V phi) xi and phi A the first-slot actions.
    """
    if a.n != xi.n or a.q != xi.q:
        raise ValueError("probe tensor must match xi in dimension and rank")
    if points is None:
        points = _default_points(xi.n)
    phi_v = apply_endo_vec(phi, v)
    lie_xi = lie_derivative_cov(v, xi)
    lie_phi_v_xi = lie_derivative_cov(phi_v, xi)
    lie_phi_on_xi = apply_endo_cov(lie_derivative_endo(v, phi), xi)
    phi_a = apply_endo_cov(phi, a)
    tach = _tachibana_field(phi, xi)
    n = xi.n
    res_c = np.zeros(len(points))
    res_v = np.zeros(len(points))
    for idx, p in enumerate(points):
        lift = _lift_endo(phi, tach, p)
        cl_v = np.concatenate([v.evaluate(p), -lie_xi.evaluate(p).reshape(-1)])
        rhs_c = np.concatenate(
            [
                phi_v.evaluate(p),
                -lie_phi_v_xi.evaluate(p).reshape(-1) + lie_phi_on_xi.evaluate(p).reshape(-1),
            ]
        )
        res_c[idx] = np.max(np.abs(lift.matrix @ cl_v - rhs_c))
        vl_a = np.concatenate([np.zeros(n), a.evaluate(p).reshape(-1)])
        rhs_v = np.concatenate([np.zeros(n), phi_a.evaluate(p).reshape(-1)])
        res_v[idx] = np.max(np.abs(lift.matrix @ vl_a - rhs_v))
    per_point = np.maximum(res_c, res_v)
    worst = sampling.worst_point(points, per_point)
    residual = float(per_point.max())
    return CharacterizationReport(
        complete_residual=float(res_c.max()),
        vertical_residual=float(res_v.max()),
        residual=residual,
        worst_point=tuple(worst),
        passed=residual <= tol,
        tol=tol,
    )


@dataclass(frozen=True)
class TheoremOneReport:
    """Sampled residuals for the almost-complex lift statement.

    Hypotheses: phi squares to minus the identity, xi is pure, and the
    Tachibana image vanishes.  Conclusions: the Nijenhuis contraction
    into xi vanishes and the lifted endomorphism squares to minus the
    identity on the bundle.  The theorem passes when the hypotheses,
    taken at face value on the sampled points, force the conclusions.
    """

    square_residual: float
    purity_residual: float
    tachibana_residual: float
    nijenhuis_residual: float
    lift_square_residual: float
    hypotheses_hold: bool
    conclusions_hold: bool
    passed: bool
    worst_point: tuple
    tol: float


def verify_theorem1(
    phi: EndomorphismField,
    xi: CovariantField,
    points=None,
    tol: float = 1e-9,
) -> TheoremOneReport:
    """Verify on sampled points: for an almost-complex phi and an
    almost-analytic pure xi, the complete lift of phi is an almost-complex
    structure along the cross-section (its square is minus the identity),
    and the Nijenhuis contraction into xi vanishes."""
    if points is None:
        points = _default_points(xi.n)
    n, q = xi.n, check_rank(xi.q)
    dim = bundle_dim(n, q)

    phi_sq = compose_endo(phi, phi).evaluate(points) + np.eye(n)
    square_res = float(np.max(np.abs(phi_sq)))
    purity_res = purity_residual(phi, xi, points)
    tach = _tachibana_field(phi, xi)
    tach_res = float(np.max(np.abs(tach.evaluate(points))))
    nij_res = float(
        np.max(np.abs(contract_one_two_cov(nijenhuis(phi), xi).evaluate(points)))
    )

    per_point = np.zeros(len(points))
    for idx, p in enumerate(points):
        mat = _lift_endo(phi, tach, p).matrix
        per_point[idx] = np.max(np.abs(mat @ mat + np.eye(dim)))
    lift_res = float(per_point.max())
    worst = tuple(sampling.worst_point(points, per_point))

    hypotheses = max(square_res, purity_res, tach_res) <= tol
    conclusions = max(nij_res, lift_res) <= tol
    return TheoremOneReport(
        square_residual=square_res,
        purity_residual=purity_res,
        tachibana_residual=tach_res,
        nijenhuis_residual=nij_res,
        lift_square_residual=lift_res,
        hypotheses_hold=hypotheses,
        conclusions_hold=conclusions,
        passed=(not hypotheses) or conclusions,
        worst_point=worst,
        tol=tol,
    )
