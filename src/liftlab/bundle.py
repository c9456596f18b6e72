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
    Jets,
    OneTwoTensorField,
    VectorField,
    apply_endo_cov,
    apply_endo_vec,
    compose_endo,
    contract_slot_endo,
    contraction,
    einsum,
    jet_einsum,
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


def bundle_dim(n: int, q: int) -> int:
    return n + n**q


def check_rank(q: int) -> int:
    if not 1 <= q <= MAX_RANK:
        raise ValueError(f"bundle rank must be in 1..{MAX_RANK}, got {q}")
    return q


@dataclass(frozen=True)
class BundlePoint:
    """A point (x, t) of the bundle, or a batch: base (..., n), fibre (..., n^q)."""

    n: int
    q: int
    base: np.ndarray
    fibre: np.ndarray

    def __post_init__(self):
        check_rank(self.q)
        base = np.asarray(self.base, dtype=np.float64)
        fibre = np.asarray(self.fibre, dtype=np.float64)
        if base.ndim < 1 or base.shape[-1] != self.n:
            raise ValueError(f"base point must have {self.n} coordinates")
        if fibre.shape != base.shape[:-1] + (self.n**self.q,):
            raise ValueError(f"fibre must have {self.n ** self.q} coordinates")
        if not (np.all(np.isfinite(base)) and np.all(np.isfinite(fibre))):
            raise ValueError("bundle point coordinates must be finite")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "fibre", fibre)

    def fibre_tensor(self) -> np.ndarray:
        """Fibre coordinates reshaped to (..., n, .., n), q slots."""
        return self.fibre.reshape(self.base.shape[:-1] + (self.n,) * self.q)


def cross_section_point(xi: CovariantField, x) -> BundlePoint:
    """The point (x, xi(x)) on the cross-section determined by xi."""
    check_rank(xi.q)
    return BundlePoint(xi.n, xi.q, x, xi.evaluate(x).reshape(np.shape(x)[:-1] + (-1,)))


@dataclass(frozen=True)
class BundleVector:
    """Tangent vector to the bundle, tagged with the frame of its components,
    or a batch of them: horizontal (..., n), fibre (..., n^q)."""

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
        if hor.shape[-1:] != (self.n,) or fib.shape != hor.shape[:-1] + (self.n**self.q,):
            raise ValueError("component shapes do not match (..., n), (..., n^q)")
        object.__setattr__(self, "horizontal", hor)
        object.__setattr__(self, "fibre", fib)

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.horizontal, self.fibre], axis=-1)


def _mapped(matrix: np.ndarray, vec: BundleVector, frame: str) -> BundleVector:
    """The components of vec multiplied by matrix (..., dim, dim), in frame."""
    out = np.matmul(matrix, vec.as_array()[..., None])[..., 0]
    return BundleVector(vec.n, vec.q, frame, out[..., : vec.n], out[..., vec.n :])


@dataclass(frozen=True)
class AdaptedFrame:
    """Frame along the cross-section adapted to it, plus its coframe.

    Columns of b and c span the tangent space at (x, xi(x)); rows of
    b_inv and c_inv are the dual coframe.  Stacked, they are exact matrix
    inverses of each other by construction; a batch puts its axes first.
    """

    n: int
    q: int
    b: np.ndarray
    c: np.ndarray
    b_inv: np.ndarray
    c_inv: np.ndarray

    def frame_matrix(self) -> np.ndarray:
        """Columns [b | c], shape (..., n + n^q, n + n^q)."""
        return np.concatenate([self.b, self.c], axis=-1)

    def coframe_matrix(self) -> np.ndarray:
        """Rows [b_inv ; c_inv], the inverse of frame_matrix()."""
        return np.concatenate([self.b_inv, self.c_inv], axis=-2)

    def to_adapted(self, vec: BundleVector) -> BundleVector:
        if vec.frame == "adapted":
            return vec
        return _mapped(self.coframe_matrix(), vec, "adapted")

    def to_natural(self, vec: BundleVector) -> BundleVector:
        if vec.frame == "natural":
            return vec
        return _mapped(self.frame_matrix(), vec, "natural")


def adapted_frame(xi: CovariantField, x) -> AdaptedFrame:
    """Adapted frame at (x, xi(x)), or at each point of a batch.

    The horizontal legs carry the slopes d_j xi below an identity; the
    fibre legs are the bare fibre directions.  The coframe is written
    in closed form, so the inverse relation holds exactly.
    """
    n, q = xi.n, check_rank(xi.q)
    nf = n**q
    batch = np.shape(x)[:-1]
    slopes = xi.jets(x, 1)[1].reshape(batch + (n, nf))  # [.., j, fibre-rank]
    eye = np.broadcast_to(np.eye(n + nf), batch + (n + nf, n + nf))
    b, c_inv = eye[..., :n].copy(), eye[..., n:, :].copy()
    b[..., n:, :] = np.swapaxes(slopes, -1, -2)
    c_inv[..., :n] = -b[..., n:, :]
    return AdaptedFrame(n, q, b, eye[..., n:], eye[..., :n, :], c_inv)


def vertical_lift(a: CovariantField, x) -> BundleVector:
    """Vertical lift of a (0,q) tensor field at x, or at each point of a
    batch: no horizontal part, the tensor's components as fibre part.
    Components agree in the natural and adapted frames."""
    check_rank(a.q)
    batch = np.shape(x)[:-1]
    return BundleVector(
        a.n, a.q, "adapted", np.zeros(batch + (a.n,)), a.evaluate(x).reshape(batch + (-1,))
    )


def complete_lift_vector_natural(v: VectorField, at: BundlePoint) -> BundleVector:
    """Complete lift of a vector field at any bundle point, or a batch,
    natural frame: horizontal part V^j, fibre part
    -sum_s t_{j1..m..jq} d_{js} V^m."""
    if v.n != at.n:
        raise ValueError("vector field and bundle point have different dimensions")
    # the slot term of the Lie derivative, on the Jets d_a V^m and t
    dv, t = v.jets(at.base, 1).d, Jets([at.fibre_tensor()])
    fib = -sum_over_slots("{s}m,{R}->{S}", at.q, dv, t)[0]
    return BundleVector(at.n, at.q, "natural", v.evaluate(at.base), fib.reshape(at.fibre.shape))


def complete_lift_vector_on_section(v: VectorField, xi: CovariantField, x) -> BundleVector:
    """Complete lift on the cross-section at x, or at each point of a
    batch, adapted frame: (V^j, -(L_V xi)_{j1..jq})."""
    if v.n != xi.n:
        raise ValueError("vector field and tensor field live on different charts")
    check_rank(xi.q)
    lie = lie_derivative_cov(v, xi).evaluate(x)
    return BundleVector(
        xi.n, xi.q, "adapted", v.evaluate(x), -lie.reshape(np.shape(x)[:-1] + (-1,))
    )


# ---------------------------------------------------------------------------
# Purity, the Tachibana operator, and the Nijenhuis tensor


def purity_residual(phi: EndomorphismField, xi: CovariantField, points) -> float:
    """Largest sampled disagreement among the q slot contractions of phi
    into xi.  A rank-1 tensor is pure by definition (residual 0)."""
    if phi.n != xi.n:
        raise ValueError("endomorphism and tensor field live on different charts")
    if xi.q == 1:
        return 0.0
    contractions = [
        contract_slot_endo(xi, phi, slot).evaluate(points) for slot in range(1, xi.q + 1)
    ]
    return max(
        float(np.max(np.abs(a - b))) for a, b in itertools.combinations(contractions, 2)
    )


def _tachibana_field(phi: EndomorphismField, xi: CovariantField) -> CovariantField:
    """The (0,q+1) field
    Phi_{l k1..kq} = phi^m_l d_m xi_{k1..kq} - d_l (phi xi)_{k1..kq}
                     + sum_a (d_{ka} phi^m_l) xi_{k1..m..kq},
    with (phi xi) the first-slot action.  No purity gate here."""
    q = xi.q
    starred = apply_endo_cov(phi, xi)

    def rule(p, k):
        f, x = phi.jets(p, k + 1), xi.jets(p, k + 1)
        return (
            slot_einsum("ml,m{S}->l{S}", q, f, x.d)
            - starred.jets(p, k + 1).d
            + sum_over_slots("{s}ml,{R}->l{S}", q, f.d, x)
        )

    return CovariantField._of(xi.n, (xi.n,) + xi.shape, rule)


def tachibana(
    phi: EndomorphismField,
    xi: CovariantField,
    points=None,
    tol: float = sampling.DEFAULT_TOL,
) -> CovariantField:
    """Tachibana operator of phi applied to a pure tensor xi.

    The purity of xi is enforced by sampled residual; NotPureError
    carries the offending residual.  The new (derivative) index of the
    result comes first.
    """
    check_rank(xi.q)
    if points is None:
        points = sampling.sample_points(xi.n)
    residual = purity_residual(phi, xi, points)
    if residual > tol:
        raise NotPureError(residual, tol)
    return _tachibana_field(phi, xi)


def is_almost_analytic(
    phi: EndomorphismField,
    xi: CovariantField,
    points,
    tol: float = sampling.DEFAULT_TOL,
) -> "sampling.SampledCheck":
    """Pure with vanishing Tachibana image, on sampled points.  An impure
    xi fails on its purity residual, with no worst point and the reason
    in detail."""
    purity = sampling.sampled_check(
        None, purity_residual(phi, xi, points), tol, {"reason": "tensor is not pure"}
    )
    if not purity.passed:
        return purity
    per_point = sampling.max_per_point(_tachibana_field(phi, xi).evaluate(points))
    return sampling.sampled_check(points, per_point, tol)


def nijenhuis(phi: EndomorphismField) -> OneTwoTensorField:
    """N^l_{jk} = phi^m_j d_m phi^l_k - phi^m_k d_m phi^l_j
                 - phi^l_m (d_j phi^m_k - d_k phi^m_j)."""

    def rule(p, k):
        f = phi.jets(p, k + 1)
        df = f.d  # df[.., m, l, k] = d_m phi^l_k
        # the terms of N^l_{jk} with j before k; the rest is its j <-> k mirror
        half = jet_einsum("mj,mlk->ljk", f, df) - jet_einsum("lm,jmk->ljk", f, df)
        return half - jet_einsum("ljk->lkj", half)

    return OneTwoTensorField._of(phi.n, (phi.n,) * 3, rule)


def contract_one_two_cov(t: OneTwoTensorField, xi: CovariantField) -> CovariantField:
    """(T xi)_{j i1..iq} = T^m_{j i1} xi_{m i2..iq}."""
    if t.n != xi.n:
        raise ValueError("fields live on different charts")
    return contraction(CovariantField, (xi.n,) + xi.shape, "mj{s},{R}->j{S}", t, xi, xi.q)


# ---------------------------------------------------------------------------
# Complete lift of an endomorphism along the cross-section


@dataclass(frozen=True)
class BundleEndomorphism:
    """Endomorphism of the tangent space at a cross-section point, in the
    adapted frame, or a batch of them with the point axes in front.  The
    horizontal-from-fibre block is structurally zero."""

    n: int
    q: int
    matrix: np.ndarray

    def __post_init__(self):
        dim = bundle_dim(self.n, self.q)
        mat = np.asarray(self.matrix, dtype=np.float64)
        if mat.shape[-2:] != (dim, dim):
            raise ValueError(f"matrix must be {dim} x {dim}")
        if np.any(mat[..., : self.n, self.n :] != 0.0):
            raise ValueError("upper-right block must be exactly zero")
        object.__setattr__(self, "matrix", mat)

    def apply(self, vec: BundleVector) -> BundleVector:
        if vec.frame != "adapted":
            raise ValueError("bundle endomorphisms act on adapted components")
        return _mapped(self.matrix, vec, "adapted")


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
    n, q = xi.n, check_rank(xi.q)
    nf = n**q
    x = np.asarray(x, dtype=np.float64)
    batch = x.shape[:-1]
    phi_mat = phi.evaluate(x)
    mat = np.zeros(batch + (n + nf, n + nf))
    mat[..., :n, :n] = phi_mat
    # from tach[.., l, k1, .., kq]
    tach = _tachibana_field(phi, xi).evaluate(x)
    mat[..., n:, :n] = -np.swapaxes(tach.reshape(batch + (n, nf)), -1, -2)
    # first-slot action on rank-ordered fibre coordinates: phi^m_{k1} on the
    # leading slot, the identity on the other q - 1, written in place
    rest = n ** (q - 1)
    fibre = mat[..., n:, n:].reshape(batch + (n, rest, n, rest))
    einsum("...ij,ab->...jaib", phi_mat, np.eye(rest), out=fibre)
    return BundleEndomorphism(n, q, mat)


# ---------------------------------------------------------------------------
# Verification of the lift identities


def verify_characterization(
    phi: EndomorphismField,
    xi: CovariantField,
    v: VectorField,
    a: CovariantField,
    points,
    tol: float = sampling.DEFAULT_TOL,
) -> "sampling.SampledCheck":
    """Check, on sampled points, that the lifted endomorphism satisfies

      lift(phi) (complete lift of V) = complete lift of (phi V)
                                       + vertical lift of ((L_V phi) xi)
      lift(phi) (vertical lift of A) = vertical lift of (phi A)

    with (L_V phi) xi and phi A the first-slot actions.
    """
    if a.n != xi.n or a.q != xi.q:
        raise ValueError("probe tensor must match xi in dimension and rank")
    lift = complete_lift_endo_on_section(phi, xi, points)
    complete = lift.apply(complete_lift_vector_on_section(v, xi, points)).as_array() - (
        complete_lift_vector_on_section(apply_endo_vec(phi, v), xi, points).as_array()
        + vertical_lift(apply_endo_cov(lie_derivative_endo(v, phi), xi), points).as_array()
    )
    vertical = lift.apply(vertical_lift(a, points)).as_array()
    vertical -= vertical_lift(apply_endo_cov(phi, a), points).as_array()
    res_c = sampling.max_per_point(complete)
    res_v = sampling.max_per_point(vertical)
    detail = {"complete_residual": float(res_c.max()), "vertical_residual": float(res_v.max())}
    return sampling.sampled_check(points, np.maximum(res_c, res_v), tol, detail)


def verify_theorem1(
    phi: EndomorphismField,
    xi: CovariantField,
    points,
    tol: float = sampling.DEFAULT_TOL,
) -> "sampling.SampledCheck":
    """Verify on sampled points: for an almost-complex phi and an
    almost-analytic pure xi, the complete lift of phi is an almost-complex
    structure along the cross-section (its square is minus the identity),
    and the Nijenhuis contraction into xi vanishes.

    Hypotheses: phi squares to minus the identity, xi is pure, and the
    Tachibana image vanishes.  The check passes when the hypotheses,
    taken at face value on the sampled points, fail or the conclusions
    hold.  Its residual is that of the conclusions, and its worst point
    that of the lift's square; detail carries every residual."""
    n, q = xi.n, check_rank(xi.q)

    phi_sq = compose_endo(phi, phi).evaluate(points) + np.eye(n)
    hypotheses = {
        "square_residual": float(np.max(np.abs(phi_sq))),
        "purity_residual": purity_residual(phi, xi, points),
        "tachibana_residual": float(np.max(np.abs(_tachibana_field(phi, xi).evaluate(points)))),
    }
    nij_res = float(np.max(np.abs(contract_one_two_cov(nijenhuis(phi), xi).evaluate(points))))

    mat = complete_lift_endo_on_section(phi, xi, points).matrix
    per_point = sampling.max_per_point(np.matmul(mat, mat) + np.eye(bundle_dim(n, q)))
    lift = sampling.sampled_check(points, per_point, tol)
    conclusions = sampling.sampled_check(None, [nij_res, lift.residual], tol)
    hold = sampling.sampled_check(None, list(hypotheses.values()), tol).passed
    detail = dict(hypotheses, nijenhuis_residual=nij_res, lift_square_residual=lift.residual,
                  hypotheses_hold=hold)
    passed = not hold or conclusions.passed
    return sampling.SampledCheck(passed, conclusions.residual, tol, lift.worst_point, detail)
