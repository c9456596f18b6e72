"""Complete lift of a symmetric connection to the (0,q)-tensor bundle.

The lifted coefficients at a bundle point (x, t) consist of the base
coefficients on horizontal index pairs, two mixed blocks that are
t-independent reshuffles of the base coefficients, and one block,
linear in t, that couples two horizontal lower indices to a fibre
upper index through derivatives of the base coefficients and the base
curvature.  All remaining blocks vanish identically.

The same module carries the cross-section geometry the lift induces:
the induced base connection, the second-fundamental-form analogue, the
totally-geodesic test, and the curvature tangency identity along the
cross-section.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import sampling
from .bundle import BundlePoint, adapted_frame, check_rank, cross_section_point
from .tensor import (
    ConnectionField,
    CovariantField,
    covariant_derivative_cov,
    curvature,
    einsum,
    slot_einsum,
    sum_over_slots,
)


class TorsionError(ValueError):
    """The lift and the cross-section geometry require a symmetric connection."""


def _require_symmetric(gamma: ConnectionField) -> ConnectionField:
    if not gamma.symmetric:
        raise TorsionError("connection must be declared symmetric (torsion-free)")
    return gamma


@dataclass(frozen=True)
class LiftedConnectionCoeffs:
    """Lifted coefficients at one bundle point, stored by block; a batch
    of points puts its axes in front of every block.

    Block naming follows the lower-index signature, in order: 'b' for a
    base (horizontal) index, 'f' for a fibre index.

    - base[h, m, s]: the base coefficients themselves;
    - mixed_bf[i_, m, s_]: fibre upper index, lower indices (base, fibre);
    - mixed_fb[i_, m_, s]: fibre upper index, lower indices (fibre, base);
    - fibre_bb[i_, m, s]: fibre upper index, two base lower indices, the
      only block that depends on the fibre coordinates (linearly).

    Every block not listed is structurally zero, which full_array()
    makes explicit.
    """

    n: int
    q: int
    base: np.ndarray
    mixed_bf: np.ndarray
    mixed_fb: np.ndarray
    fibre_bb: np.ndarray

    def full_array(self) -> np.ndarray:
        """Dense coefficients L[..., upper, first_lower, second_lower]."""
        n, dim = self.n, self.n + self.n**self.q
        full = np.zeros(self.base.shape[:-3] + (dim, dim, dim))
        full[..., :n, :n, :n] = self.base
        full[..., n:, :n, n:] = self.mixed_bf
        full[..., n:, n:, :n] = self.mixed_fb
        full[..., n:, :n, :n] = self.fibre_bb
        return full

    def symmetry_residual(self):
        """The lift of a symmetric connection is symmetric in its lower pair:
        the largest asymmetry of full_array(), a float or one per point,
        taken by block (the other entries are zero on both sides)."""
        pairs = ((self.base, self.base), (self.mixed_bf, self.mixed_fb), (self.fibre_bb,) * 2)
        asym = [np.abs(a - np.swapaxes(b, -1, -2)).max(axis=(-3, -2, -1)) for a, b in pairs]
        return np.max(asym, axis=0)

    def along_section(self, slopes: np.ndarray) -> np.ndarray:
        """L^A_{CB} B^C_j B^B_i as [.., A, j, i], for the horizontal frame legs
        B = [I ; slopes], slopes[.., fibre, i] = d_i xi; summed by block."""
        # np.einsum's own order: the fibre axis r, n^q long, outruns the points
        bf = np.einsum("...rjk,...ki->...rji", self.mixed_bf, slopes)
        fb = np.einsum("...rki,...kj->...rji", self.mixed_fb, slopes)
        return np.concatenate([self.base, self.fibre_bb + bf + fb], axis=-3)


def _slot_operator(mats: np.ndarray, slot: int, q: int) -> np.ndarray:
    """A batch of n x n matrices acting on one slot of rank-ordered (0,q)
    fibre coordinates: out[..., I, J] = mats[..., I_slot, J_slot] when the
    multi-indices I and J agree off that slot, else 0."""
    n = mats.shape[-1]
    # row-major at np.einsum's own order: the n^q x n^q block outruns the points
    mats = np.ascontiguousarray(mats)
    ops = np.einsum("ab,...ij,cd->...aicbjd", np.eye(n**slot), mats, np.eye(n ** (q - 1 - slot)))
    return ops.reshape(mats.shape[:-2] + (n**q, n**q))


def _slot_apply(mats: np.ndarray, slot: int, q: int, t: np.ndarray) -> np.ndarray:
    """_slot_operator(mats, slot, q) times fibre coordinates t[.., n^q], never
    formed; mats may carry axes E behind the point axes: out[.., E, n^q]."""
    n = mats.shape[-1]
    split = t.reshape(t.shape[:-1] + (n**slot, n, n ** (q - 1 - slot)))
    flat = mats.reshape(t.shape[:-1] + (-1, n, n))
    return einsum("...exa,...lar->...elxr", flat, split).reshape(mats.shape[:-2] + (n**q,))


def complete_lift_connection(
    gamma: ConnectionField, at: BundlePoint, curvature_sign: float = 1.0
) -> LiftedConnectionCoeffs:
    """Lifted coefficients of a symmetric connection at a bundle point, or
    at each point of a batch.

    curvature_sign scales the curvature contribution of the fibre_bb
    block.  It exists as a deliberate spoiler for negative controls in
    the consistency checks and must stay 1.0 for the actual lift.
    """
    _require_symmetric(gamma)
    if gamma.n != at.n:
        raise ValueError("connection and bundle point have different dimensions")
    q = at.q
    g, dg = gamma.jets(at.base, 1)  # g[.., h, j, i], dg[.., m, h, j, i] = d_m Gamma^h_{ji}
    r4 = curvature(gamma).evaluate(at.base)  # r4[.., k, j, i, l] = R_{kji}^l
    # minus the replacement of one fibre slot through Gamma (see t_linear_block)
    replace = einsum("...amx->...mxa", g)
    mixed = -sum(_slot_operator(replace, c, q) for c in range(q))  # [.., m, row, col]
    fibre_bb = t_linear_block(g, dg, r4, at.fibre, q, curvature_sign)
    return LiftedConnectionCoeffs(
        at.n, q, g, np.swapaxes(mixed, -3, -2), np.moveaxis(mixed, -3, -1), fibre_bb
    )


def t_linear_block(g, dg, r4, t, q: int, curvature_sign: float = 1.0):
    """The fibre_bb block [.., i_, m, s] at fibre coordinates t[.., n^q]
    (rank order), from Gamma g[.., h, j, i], its partials dg[.., m, h, j, i]
    and the curvature r4[.., k, j, i, l]; linear in t."""
    # Each term replaces one fibre slot value x by a, or two slots at once.
    # Replacing one slot through Gamma^a_{m x}, with m the lower base index:
    # minus this makes the mixed blocks, and two of them at distinct slots
    # make the quadratic part of this block.
    replace = einsum("...amx->...mxa", g)
    # The single-replacement part, as [.., m, s, x, a]:
    #   -d_m Gamma^a_{s x} + Gamma^r_{m x} Gamma^a_{s r} + Gamma^r_{m s} Gamma^a_{r x}
    #   + R_{x s m}^a (times curvature_sign)
    single = (
        -einsum("...masx->...msxa", dg)
        + einsum("...rmx,...asr->...msxa", g, g)
        + einsum("...rms,...arx->...msxa", g, g)
        + curvature_sign * einsum("...xsma->...msxa", r4)
    )
    fibre_bb = sum(np.moveaxis(_slot_apply(single, c, q, t), -1, -3) for c in range(q))
    # The quadratic part: slot c replaced through Gamma^a_{s x}, then slot
    # b through Gamma^a_{m x}, on the fibre axes split around slot b.
    n = g.shape[-1]
    moved = [_slot_apply(replace, c, q, t) for c in range(q)]  # [.., s, row]
    for b, c in itertools.permutations(range(q), 2):
        split = moved[c].reshape(moved[c].shape[:-1] + (n**b, n, n ** (q - 1 - b)))
        quad = einsum("...mxa,...slar->...lxrms", replace, split)
        fibre_bb += quad.reshape(fibre_bb.shape)
    return fibre_bb


# ---------------------------------------------------------------------------
# Geometry of the cross-section under the lifted connection


def _frame_and_slope_arrays(xi: CovariantField, x):
    """The adapted frame at x, the slopes d_i xi as [.., fibre, i], and the
    derivative of the horizontal frame legs, [.., A, j, i] = d_j B^A_i."""
    n, q = xi.n, xi.q
    dd = xi.jets(x, 2)[2]  # first, so that the frame reads the same jets
    frame = adapted_frame(xi, x)
    db = np.zeros(frame.b.shape + (n,))
    dd = dd.reshape(db.shape[:-3] + (n, n, n**q))
    db[..., n:, :, :] = np.moveaxis(dd, -1, -3)  # from dd[.., j, i, fibre]
    return frame, frame.b[..., n:, :], db


def induced_connection(gamma: ConnectionField, xi: CovariantField, x) -> np.ndarray:
    """Connection induced on the cross-section by the lifted connection.

    Returns the coefficients at x as an array [.., h, j, i].  Assembled
    the long way through the lifted coefficients and the adapted coframe;
    agreeing with the base coefficients is the point of the check built
    on top of this.
    """
    _require_symmetric(gamma)
    check_rank(xi.q)
    frame, slopes, db = _frame_and_slope_arrays(xi, x)
    lifted = complete_lift_connection(gamma, cross_section_point(xi, x))
    return einsum("...hA,...Aji->...hji", frame.b_inv, db + lifted.along_section(slopes))


def gauss_second_fundamental(gamma: ConnectionField, xi: CovariantField) -> CovariantField:
    """Second-fundamental-form analogue of the cross-section,

      H_{ji,(h1..hq)} = (nabla_j nabla_i xi)_{h1..hq}
                        + sum_s xi_{h1..l..hq} R_{hs i j}^l,

    as a rank q+2 field ordered (j, i, h1..hq).  It is symmetric in
    (j, i) for a symmetric base connection, and the cross-section is
    totally geodesic exactly when H vanishes."""
    _require_symmetric(gamma)
    check_rank(xi.q)
    if gamma.n != xi.n:
        raise ValueError("connection and tensor field live on different charts")
    q = xi.q
    second = covariant_derivative_cov(gamma, covariant_derivative_cov(gamma, xi))
    r = curvature(gamma)

    def rule(p, k):
        return second.jets(p, k) + sum_over_slots(
            "{s}ijm,{R}->ji{S}", q, r.jets(p, k), xi.jets(p, k)
        )

    return CovariantField._of(xi.n, (xi.n,) * (q + 2), rule)


def is_totally_geodesic(
    gamma: ConnectionField,
    xi: CovariantField,
    points,
    tol: float = sampling.SYMBOLIC_RTOL,
) -> sampling.SampledCheck:
    """Sampled test for H = 0; passes exactly for a totally geodesic
    cross-section (up to tol)."""
    per_point = sampling.max_per_point(gauss_second_fundamental(gamma, xi).evaluate(points))
    return sampling.sampled_check(points, per_point, tol)


def gauss_consistency(
    gamma: ConnectionField,
    xi: CovariantField,
    points,
    tol: float = sampling.SYMBOLIC_RTOL,
    curvature_sign: float = 1.0,
) -> sampling.SampledCheck:
    """Check, on sampled points, that differentiating the adapted frame
    with the lifted connection reproduces the base connection plus H in
    the fibre directions:

      d_j B^A_i + L^A_{CB} B^C_j B^B_i - Gamma^h_{ji} B^A_h
        = H_{ji,(h1..hq)} C^A_{(h1..hq)}.

    The two sides come from independent code paths: block assembly of
    the lifted coefficients on the left, covariant derivatives plus an
    explicit curvature contraction on the right.  curvature_sign is
    passed through to the lift for negative controls.
    """
    _require_symmetric(gamma)
    n, m = xi.n, len(points)
    gauss = gauss_second_fundamental(gamma, xi).evaluate(points).reshape(m, n, n, -1)
    frame, slopes, db = _frame_and_slope_arrays(xi, points)
    lifted = complete_lift_connection(gamma, cross_section_point(xi, points), curvature_sign)
    lhs = db + lifted.along_section(slopes)
    lhs -= einsum("...hji,...Ah->...Aji", gamma.evaluate(points), frame.b)
    lhs[:, n:] -= np.moveaxis(gauss, -1, -3)  # the right-hand side, H C
    return sampling.sampled_check(points, sampling.max_per_point(lhs), tol)


# ---------------------------------------------------------------------------
# Curvature tangency along the cross-section


def _curvature_cov_derivative(gamma: ConnectionField, point) -> np.ndarray:
    """(nabla_c R)_{kji}^l at a point, as dr[.., c, k, j, i, l]."""
    g = gamma.evaluate(point)
    r4, dr = curvature(gamma).jets(point, 1)
    return (
        dr
        - einsum("...mck,...mjil->...ckjil", g, r4)
        - einsum("...mcj,...kmil->...ckjil", g, r4)
        - einsum("...mci,...kjml->...ckjil", g, r4)
        + einsum("...lcm,...kjim->...ckjil", g, r4)
    )


def curvature_tangency(
    gamma: ConnectionField,
    xi: CovariantField,
    points,
    tol: float = sampling.SYMBOLIC_RTOL,
) -> sampling.SampledCheck:
    """Sampled residual of the identity that makes curvature variation
    along the cross-section tangent to it:

      sum_s (nabla_k R_{hs i j}^l - nabla_j R_{hs i k}^l) xi_{h1..l..hq}
        = R_{kji}^l nabla_l xi
          + sum_s R_{kjhs}^l nabla_i xi_{..l..}
          - sum_s R_{hs ij}^l nabla_k xi_{..l..}
          + sum_s R_{hs ik}^l nabla_j xi_{..l..}.

    Satisfied identically for a locally symmetric base connection with
    parallel xi; the residual measures the failure otherwise.
    """
    _require_symmetric(gamma)
    check_rank(xi.q)
    if gamma.n != xi.n:
        raise ValueError("connection and tensor field live on different charts")
    q = xi.q
    r4 = curvature(gamma).evaluate(points)
    dr = _curvature_cov_derivative(gamma, points)
    xiv = xi.evaluate(points)
    dxi = covariant_derivative_cov(gamma, xi).evaluate(points)  # [.., c, h1, .., hq]
    # Both sides indexed [point, k, j, i, h1..hq].  The terms at k and j come
    # in pairs that differ by k <-> j, so each pair is built once and
    # antisymmetrized.
    lhs = sum_over_slots("...k{s}ijm,...{R}->...kji{S}", q, dr, xiv)
    lhs = lhs - lhs.swapaxes(1, 2)
    pair = sum_over_slots("...{s}ijm,...k{R}->...kji{S}", q, r4, dxi)
    rhs = (
        slot_einsum("...kjim,...m{S}->...kji{S}", q, r4, dxi)
        + sum_over_slots("...kj{s}m,...i{R}->...kji{S}", q, r4, dxi)
        - (pair - pair.swapaxes(1, 2))
    )
    per_point = sampling.max_per_point(lhs - rhs)
    return sampling.sampled_check(points, per_point, tol)
