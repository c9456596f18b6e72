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
cross-section.  In the case each check runs in (tensor.in_case), one
lift along the section (the frame differentiated with the lifted
connection) and one gauss_second_fundamental serve every check, and the
fibre block's t-independent terms, from Gamma, its partials and R, are
formed once for every lift there (tensor.shared).

Each of them needs a symmetric (torsion-free) connection and measures
that hypothesis at the points it evaluates, by require_symmetric.
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
    in_case,
    shared,
    slot_einsum,
    sum_over_slots,
)


class TorsionError(ValueError):
    """The lift and the cross-section geometry require a symmetric connection."""


@shared
def require_symmetric(gamma: ConnectionField, points) -> None:
    """Raise TorsionError, naming the residual, where Gamma is not
    symmetric in its lower pair at the points (one point or a batch), up
    to STRUCTURAL_TOL.  In one case, the case's points pass again unread
    once they passed; a failure raises again."""
    p = np.asarray(points, dtype=np.float64)
    g = gamma.jets(p, 0)[0].reshape(-1, *gamma.shape)  # at points as given: the kept jets
    check = sampling.sampled_check(p.reshape(-1, gamma.n), g - np.swapaxes(g, -1, -2),
                                   sampling.STRUCTURAL_TOL)
    if not check.passed:
        raise TorsionError(f"connection must be symmetric in its lower indices (torsion-free): "
                           f"asymmetry {check.residual:.3e} exceeds {check.tol:.1e}")


@dataclass(frozen=True)
class LiftedConnectionCoeffs:
    """Lifted coefficients at one bundle point, stored by block; a batch
    of points puts its axes in front of every block.

    Two blocks are stored:

    - base[h, m, s]: the base coefficients themselves;
    - fibre_bb[i_, m, s]: fibre upper index, two base lower indices, the
      only block that depends on the fibre coordinates (linearly).

    Two mixed blocks, with a fibre upper index and one base and one
    fibre lower index, follow from base alone: minus the replacement of
    one fibre slot through Gamma, summed over the slots.  They are each
    other's transpose in the lower pair.  Every other block is
    structurally zero.
    """

    n: int
    q: int
    base: np.ndarray
    fibre_bb: np.ndarray

    def _mixed_times(self, s: np.ndarray) -> np.ndarray:
        """The (base, fibre) mixed block contracted on its fibre lower
        index with s[.., n^q, k]: out[.., i_, m, k] = L^{i_}_{m s_} s[s_, k]."""
        # Gamma^a_{m x} as matrices [.., m, x, a] acting on one fibre slot;
        # the columns of s become batch axes of the slot action
        replace = np.moveaxis(self.base, -3, -1)[..., None, :, :, :]
        cols = np.swapaxes(s, -1, -2)
        out = -sum(_slot_apply(replace, c, self.q, cols) for c in range(self.q))
        return np.swapaxes(out, -1, -3)  # from [.., k, m, i_]

    def along_section(self, slopes: np.ndarray) -> np.ndarray:
        """L^A_{CB} B^C_j B^B_i as [.., A, j, i], for the horizontal frame legs
        B = [I ; slopes], slopes[.., fibre, i] = d_i xi; summed by block.
        The (fibre, base) mixed term is the j <-> i transpose of the
        (base, fibre) one."""
        bf = self._mixed_times(slopes)
        return np.concatenate([self.base, self.fibre_bb + bf + bf.swapaxes(-1, -2)], axis=-3)


def _slot_apply(mats: np.ndarray, slot: int, q: int, t: np.ndarray) -> np.ndarray:
    """Matrices mats[.., E, x, a] acting on one slot of the rank-ordered
    fibre coordinates t[.., n^q]: out[.., E, I] = sum_a mats[.., E, I_slot, a]
    t[.., I with a at slot].  The leading axes of mats broadcast against
    those of t, and its axes E come behind them.  The output is stored
    points-fastest, and einsum writes it in place through its split view."""
    n = mats.shape[-1]
    split = (n**slot, n, n ** (q - 1 - slot))
    t = t.reshape(t.shape[:-1] + (1,) * (mats.ndim - t.ndim - 1) + split)
    shape = np.broadcast_shapes(mats.shape[:-2], t.shape[:-3])
    out = np.empty(shape + (n**q,), order="F")
    einsum("...xa,...lar->...lxr", mats, t, out=out.reshape(shape + split))
    return out


def complete_lift_connection(gamma: ConnectionField, at: BundlePoint) -> LiftedConnectionCoeffs:
    """Lifted coefficients of a symmetric connection at a bundle point, or
    at each point of a batch."""
    if gamma.n != at.n:
        raise ValueError("connection and bundle point have different dimensions")
    g, dg = gamma.jets(at.base, 1)  # g[.., h, j, i], dg[.., m, h, j, i] = d_m Gamma^h_{ji}
    require_symmetric(gamma, at.base)  # reads the jets just taken
    r4 = curvature(gamma).jets(at.base, 0)[0]  # r4[.., k, j, i, l] = R_{kji}^l
    fibre_bb = t_linear_block(g, dg, r4, at.fibre, at.q)
    return LiftedConnectionCoeffs(at.n, at.q, g, fibre_bb)


@shared
def _slot_terms(g, dg, r4):
    """The t-independent terms of t_linear_block, as [.., m, x, a] and
    [.., m, s, x, a]."""
    # Each term replaces one fibre slot value x by a, or two slots at once.
    # Replacing one slot through Gamma^a_{m x}, with m the lower base index:
    # minus this makes the mixed blocks (see LiftedConnectionCoeffs), and
    # two of them at distinct slots make the quadratic part of the block.
    replace = einsum("...amx->...mxa", g)
    # The single-replacement part:
    #   -d_m Gamma^a_{s x} + Gamma^r_{m x} Gamma^a_{s r} + Gamma^r_{m s} Gamma^a_{r x}
    #   + R_{x s m}^a
    single = (
        -einsum("...masx->...msxa", dg)
        + einsum("...rmx,...asr->...msxa", g, g)
        + einsum("...rms,...arx->...msxa", g, g)
        + einsum("...xsma->...msxa", r4)
    )
    return replace, single


def t_linear_block(g, dg, r4, t, q: int):
    """The fibre_bb block [.., i_, m, s] at fibre coordinates t[.., n^q]
    (rank order), from Gamma g[.., h, j, i], its partials dg[.., m, h, j, i]
    and the curvature r4[.., k, j, i, l]; linear in t.  Its t-independent
    terms are formed once per case for the same jets the case made."""
    replace, single = _slot_terms(g, dg, r4)
    fibre_bb = sum(np.moveaxis(_slot_apply(single, c, q, t), -1, -3) for c in range(q))
    # The quadratic part: slot c replaced through Gamma^a_{s x}, then slot
    # b through Gamma^a_{m x}, on the fibre axes split around slot b; the
    # split of fibre_bb is a view, so the sum lands in place.
    n, batch = g.shape[-1], fibre_bb.shape[:-3]
    moved = [_slot_apply(replace, c, q, t) for c in range(q)]  # [.., s, row]
    for b, c in itertools.permutations(range(q), 2):
        split = (n**b, n, n ** (q - 1 - b))
        slot_b = moved[c].reshape(moved[c].shape[:-1] + split)
        view = fibre_bb.reshape(batch + split + (n, n))
        view += einsum("...mxa,...slar->...lxrms", replace, slot_b)
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


@shared
def _lift_along_section(gamma: ConnectionField, xi: CovariantField, x):
    """The adapted frame's legs B and coframe rows b_inv at x, and the legs
    differentiated along the cross-section with the lifted connection,
    d_j B^A_i + L^A_{CB} B^C_j B^B_i as [.., A, j, i]."""
    frame, slopes, db = _frame_and_slope_arrays(xi, x)
    lifted = complete_lift_connection(gamma, cross_section_point(xi, x))
    return frame.b, frame.b_inv, db + lifted.along_section(slopes)


@in_case
def induced_connection(gamma: ConnectionField, xi: CovariantField, points) -> np.ndarray:
    """Connection induced on the cross-section by the lifted connection.

    Returns the coefficients at points as an array [.., h, j, i].  Assembled
    the long way through the lifted coefficients and the adapted coframe;
    agreeing with the base coefficients is the point of the check built
    on top of this.
    """
    check_rank(xi.q)
    _, b_inv, moved = _lift_along_section(gamma, xi, points)
    return einsum("...hA,...Aji->...hji", b_inv, moved)


@shared
def gauss_second_fundamental(gamma: ConnectionField, xi: CovariantField) -> CovariantField:
    """Second-fundamental-form analogue of the cross-section,

      H_{ji,(h1..hq)} = (nabla_j nabla_i xi)_{h1..hq}
                        + sum_s xi_{h1..l..hq} R_{hs i j}^l,

    as a rank q+2 field ordered (j, i, h1..hq).  It is symmetric in
    (j, i) for a symmetric base connection, and the cross-section is
    totally geodesic exactly when H vanishes."""
    check_rank(xi.q)
    if gamma.n != xi.n:
        raise ValueError("connection and tensor field live on different charts")
    q = xi.q
    second = covariant_derivative_cov(gamma, covariant_derivative_cov(gamma, xi))
    r = curvature(gamma)

    def rule(p, k):
        out = second.jets(p, k) + sum_over_slots(
            "{s}ijm,{R}->ji{S}", q, r.jets(p, k), xi.jets(p, k)
        )
        require_symmetric(gamma, p)  # reads the jets the curvature took
        return out

    return CovariantField._of(xi.n, (xi.n,) * (q + 2), rule)


@in_case
def is_totally_geodesic(gamma: ConnectionField, xi: CovariantField, points,
                        tol: float = sampling.DEFAULT_TOL) -> sampling.SampledCheck:
    """Sampled test for H = 0; passes exactly for a totally geodesic
    cross-section (up to tol)."""
    return sampling.sampled_check(points, gauss_second_fundamental(gamma, xi).evaluate(points), tol)


@in_case
def gauss_consistency(gamma: ConnectionField, xi: CovariantField, points,
                      tol: float = sampling.DEFAULT_TOL) -> sampling.SampledCheck:
    """Check, on sampled points, that differentiating the adapted frame
    with the lifted connection reproduces the base connection plus H in
    the fibre directions:

      d_j B^A_i + L^A_{CB} B^C_j B^B_i - Gamma^h_{ji} B^A_h
        = H_{ji,(h1..hq)} C^A_{(h1..hq)}.

    The two sides come from independent code paths: block assembly of
    the lifted coefficients on the left, covariant derivatives plus an
    explicit curvature contraction on the right.
    """
    n, m = xi.n, len(points)
    gauss = gauss_second_fundamental(gamma, xi).evaluate(points).reshape(m, n, n, -1)
    b, _, moved = _lift_along_section(gamma, xi, points)
    lhs = moved - einsum("...hji,...Ah->...Aji", gamma.evaluate(points), b)
    lhs[:, n:] -= np.moveaxis(gauss, -1, -3)  # the right-hand side, H C
    return sampling.sampled_check(points, lhs, tol)


# ---------------------------------------------------------------------------
# Curvature tangency along the cross-section


def _curvature_cov_derivative(gamma: ConnectionField, point) -> np.ndarray:
    """(nabla_c R)_{kji}^l at a point, as dr[.., c, k, j, i, l]."""
    r4, dr = curvature(gamma).jets(point, 1)  # first, so that gamma is read once, to order 2
    g = gamma.evaluate(point)
    return (
        dr
        - einsum("...mck,...mjil->...ckjil", g, r4)
        - einsum("...mcj,...kmil->...ckjil", g, r4)
        - einsum("...mci,...kjml->...ckjil", g, r4)
        + einsum("...lcm,...kjim->...ckjil", g, r4)
    )


@in_case
def curvature_tangency(gamma: ConnectionField, xi: CovariantField, points,
                       tol: float = sampling.DEFAULT_TOL) -> sampling.SampledCheck:
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
    check_rank(xi.q)
    if gamma.n != xi.n:
        raise ValueError("connection and tensor field live on different charts")
    q = xi.q
    dr = _curvature_cov_derivative(gamma, points)  # each field read first at its highest order
    require_symmetric(gamma, points)  # reads the jets the curvature took
    r4 = curvature(gamma).evaluate(points)
    dxi = covariant_derivative_cov(gamma, xi).evaluate(points)  # [.., c, h1, .., hq]
    xiv = xi.evaluate(points)
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
    return sampling.sampled_check(points, lhs - rhs, tol)
