"""The (0,q)-tensor bundle over a chart and lifts along a cross-section.

A point of the bundle is (x, t): a base point together with the n^q
fibre coordinates of a covariant tensor, ordered by multi-index rank.
A (0,q) field xi determines the cross-section x -> (x, xi(x)); the
machinery here builds the adapted frame along it, lifts vectors,
tensors, and endomorphisms, and verifies the structure-preservation
statements about those lifts on sampled points.  In the case each check
runs in (tensor.in_case), the lifted endomorphism (characterization,
Theorem 1) and the purity defect (purity, the Tachibana gate, Theorem 1)
are each formed once, read-only (tensor.shared).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import sampling
from .expr import named
from .tensor import (
    CovariantField,
    EndomorphismField,
    OneTwoTensorField,
    VectorField,
    apply_endo_cov,
    apply_endo_vec,
    compose_endo,
    contract_slot_endo,
    contraction,
    einsum,
    in_case,
    jet_einsum,
    lie_derivative_cov,
    lie_derivative_endo,
    shared,
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


def cross_section_point(xi: CovariantField, x) -> BundlePoint:
    """The point (x, xi(x)) on the cross-section determined by xi."""
    check_rank(xi.q)
    return BundlePoint(xi.n, xi.q, x, xi.evaluate(x).reshape(np.shape(x)[:-1] + (-1,)))


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


def vertical_lift(a: CovariantField, x) -> np.ndarray:
    """Vertical lift of a (0,q) tensor field at x, or at each point of a
    batch, shape (..., n + n^q): the horizontal part is exactly 0.0, the
    fibre part the tensor's components.  Components agree in the natural
    and adapted frames."""
    check_rank(a.q)
    batch = np.shape(x)[:-1]
    fibre = a.evaluate(x).reshape(batch + (-1,))
    return np.concatenate([np.zeros(batch + (a.n,)), fibre], -1)


def complete_lift_vector_on_section(v: VectorField, xi: CovariantField, x) -> np.ndarray:
    """Complete lift on the cross-section at x, or at each point of a
    batch, adapted frame, shape (..., n + n^q): (V^j, -(L_V xi)_{j1..jq})."""
    if v.n != xi.n:
        raise ValueError("vector field and tensor field live on different charts")
    check_rank(xi.q)
    lie = lie_derivative_cov(v, xi).evaluate(x)
    return np.concatenate([v.evaluate(x), -lie.reshape(np.shape(x)[:-1] + (-1,))], -1)


# ---------------------------------------------------------------------------
# Purity, the Tachibana operator, and the Nijenhuis tensor


@in_case
@shared
def purity_residual(phi: EndomorphismField, xi: CovariantField, points) -> np.ndarray:
    """Signed disagreements of the q slot contractions of phi into xi at
    a batch of points, every slot against every slot: [point, slot, slot,
    *shape], read-only and formed once per case.  A rank-1 tensor has one
    contraction, so it is pure by definition (residual 0)."""
    if phi.n != xi.n:
        raise ValueError("endomorphism and tensor field live on different charts")
    slots = [contract_slot_endo(xi, phi, s).evaluate(points) for s in range(1, xi.q + 1)]
    # stacked points-fastest, as each slot is stored, so the differences are too
    c = np.stack(slots, 1, out=np.empty((len(points), xi.q) + xi.shape, order="F"))
    return c[:, :, None] - c[:, None]


@shared
def _tachibana_field(phi: EndomorphismField, xi: CovariantField) -> CovariantField:
    """The (0,q+1) field
    Phi_{l k1..kq} = phi^m_l d_m xi_{k1..kq} - d_l (phi xi)_{k1..kq}
                     + sum_a (d_{ka} phi^m_l) xi_{k1..m..kq},
    with (phi xi) the first-slot action, whose partials come by the product
    rule from phi's and xi's jets: its values are not formed.  No purity
    gate here."""
    q = xi.q

    def rule(p, k):
        f, x = phi.jets(p, k + 1), xi.jets(p, k + 1)
        d_starred = (slot_einsum("lm{s},{R}->l{S}", q, f.d, x)
                     + slot_einsum("m{s},l{R}->l{S}", q, f, x.d))
        return (
            slot_einsum("ml,m{S}->l{S}", q, f, x.d)
            - d_starred
            + sum_over_slots("{s}ml,{R}->l{S}", q, f.d, x)
        )

    return CovariantField._of(xi.n, (xi.n,) + xi.shape, rule)


def tachibana(
    phi: EndomorphismField,
    xi: CovariantField,
    points,
    tol: float = sampling.DEFAULT_TOL,
) -> CovariantField:
    """Tachibana operator of phi applied to a pure tensor xi.

    The purity of xi is enforced by its sampled residual at points;
    NotPureError carries the offending residual.  The new (derivative)
    index of the result comes first.
    """
    check_rank(xi.q)
    purity = sampling.sampled_check(points, purity_residual(phi, xi, points), tol)
    if not purity.passed:
        raise NotPureError(purity.residual, tol)
    return _tachibana_field(phi, xi)


@in_case
def is_almost_analytic(
    phi: EndomorphismField,
    xi: CovariantField,
    points,
    tol: float = sampling.DEFAULT_TOL,
) -> "sampling.SampledCheck":
    """Pure with vanishing Tachibana image, on sampled points.  An impure
    xi fails on its purity residual and worst point, with the reason in
    detail."""
    purity = sampling.sampled_check(
        points, purity_residual(phi, xi, points), tol, {"reason": "tensor is not pure"}
    )
    if not purity.passed:
        return purity
    return sampling.sampled_check(points, _tachibana_field(phi, xi).evaluate(points), tol)


@shared
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


@shared
def contract_one_two_cov(t: OneTwoTensorField, xi: CovariantField) -> CovariantField:
    """(T xi)_{j i1..iq} = T^m_{j i1} xi_{m i2..iq}."""
    if t.n != xi.n:
        raise ValueError("fields live on different charts")
    return contraction(CovariantField, (xi.n,) + xi.shape, "mj{s},{R}->j{S}", t, xi, xi.q)


# ---------------------------------------------------------------------------
# Complete lift of an endomorphism along the cross-section


@shared
def complete_lift_endo_on_section(phi: EndomorphismField, xi: CovariantField, x) -> np.ndarray:
    """Complete lift of phi at (x, xi(x)), adapted frame, shape
    (..., n + n^q, n + n^q) with the point axes in front, read-only and
    formed once per case.

    Blocks: phi itself on horizontal legs, minus the Tachibana image as
    the fibre-from-horizontal coupling, and the first-slot action of phi
    on fibre legs.  The horizontal-from-fibre block [..., :n, n:] is
    exactly 0.0.  The Tachibana formula is applied as written; purity
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
    return mat


# ---------------------------------------------------------------------------
# Verification of the lift identities


@in_case
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
    lift = named("lift", lambda: complete_lift_endo_on_section(phi, xi, points))

    def complete():
        lhs = np.matmul(lift, complete_lift_vector_on_section(v, xi, points)[..., None])[..., 0]
        return lhs - (
            complete_lift_vector_on_section(apply_endo_vec(phi, v), xi, points)
            + vertical_lift(apply_endo_cov(lie_derivative_endo(v, phi), xi), points)
        )

    def vertical():
        lhs = np.matmul(lift, vertical_lift(a, points)[..., None])[..., 0]
        return lhs - vertical_lift(apply_endo_cov(phi, a), points)

    # each array, then each reduction, named by what it is
    parts = {k: named(k, term) for k, term in
             (("complete_residual", complete), ("vertical_residual", vertical))}
    detail = {k: named(k, lambda: sampling.sampled_check(points, r, tol)).residual
              for k, r in parts.items()}
    return sampling.sampled_check(points, list(parts.values()), tol, detail)


@in_case
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
    hold.  Its residual and worst point are those of the conclusions;
    detail carries every residual."""
    n, q = xi.n, check_rank(xi.q)
    hypotheses = {
        "square_residual": lambda: compose_endo(phi, phi).evaluate(points) + np.eye(n),
        "purity_residual": lambda: purity_residual(phi, xi, points),
        "tachibana_residual": lambda: _tachibana_field(phi, xi).evaluate(points),
    }
    conclusions = {
        "nijenhuis_residual": lambda: contract_one_two_cov(nijenhuis(phi), xi).evaluate(points),
        "lift_square_residual": lambda: np.linalg.matrix_power(
            complete_lift_endo_on_section(phi, xi, points), 2) + np.eye(bundle_dim(n, q)),
    }
    # every array first, then every reduction, each named by its residual
    arrays = {k: named(k, term) for k, term in (hypotheses | conclusions).items()}
    checks = {k: named(k, lambda: sampling.sampled_check(points, r, tol))
              for k, r in arrays.items()}
    detail = {k: c.residual for k, c in checks.items()}
    detail["hypotheses_hold"] = hold = all(checks[k].passed for k in hypotheses)
    verdict = sampling.sampled_check(points, [arrays[k] for k in conclusions], tol, detail)
    return replace(verdict, passed=not hold or verdict.passed)
