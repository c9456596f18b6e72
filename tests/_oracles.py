"""Independent oracles for the test suite.

Everything here recomputes a quantity from its definition using plain
finite differences, flows, or brackets, without touching the symbolic
derivative or lift code paths it is used to check.  Tolerances for
comparisons against these oracles are therefore FD-limited (around 1e-6
relative), unlike the library-vs-library checks which sit at rounding
level.

The natural-frame constructions at the end are the exception: they take
the values and first partials of input fields from the library, and
write every lift formula out by hand, slot by slot or entry by entry, so
they agree with the adapted-frame lifts at rounding level.
"""

import itertools

import numpy as np

FD_STEP = 1e-5


def fd_partial(f, point, axis, step=FD_STEP):
    """Centered difference of a callable f(point) -> scalar or array.

    axis is 1-based to match the coordinate naming x1..xn.
    """
    p = np.asarray(point, dtype=np.float64)
    hi = p.copy()
    lo = p.copy()
    hi[axis - 1] += step
    lo[axis - 1] -= step
    return (np.asarray(f(hi)) - np.asarray(f(lo))) / (2.0 * step)


def fd_second(f, point, ax1, ax2, step=1e-4):
    return fd_partial(lambda p: fd_partial(f, p, ax2, step), point, ax1, step)


def rk4_flow(v, x, t, steps=8):
    """Integrate the flow of the vector field v from x for time t."""
    y = np.asarray(x, dtype=np.float64).copy()
    h = t / steps
    for _ in range(steps):
        k1 = v.evaluate(y)
        k2 = v.evaluate(y + 0.5 * h * k1)
        k3 = v.evaluate(y + 0.5 * h * k2)
        k4 = v.evaluate(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def flow_pullback(v, xi, x, t, jac_step=FD_STEP):
    """(flow_t^* xi)(x): push x along the flow, pull the components back
    through the finite-difference Jacobian of the flow map."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    target = xi.evaluate(rk4_flow(v, x, t))
    jac = np.empty((n, n))  # jac[m, i] = d flow^m / d x^i
    for i in range(1, n + 1):
        jac[:, i - 1] = fd_partial(lambda p: rk4_flow(v, p, t), x, i, jac_step)
    out = target
    for slot in range(xi.q):
        out = np.tensordot(jac, out, axes=([0], [slot]))
        out = np.moveaxis(out, 0, slot)
    return out


def flow_lie_derivative(v, xi, x, t=1e-3):
    """Lie derivative from its flow definition, centered in t."""
    plus = flow_pullback(v, xi, x, t)
    minus = flow_pullback(v, xi, x, -t)
    return (plus - minus) / (2.0 * t)


def fd_bracket(v, w, point):
    """[v, w]^i = v^m d_m w^i - w^m d_m v^i with FD partials."""
    p = np.asarray(point, dtype=np.float64)
    n = p.size
    vv = v.evaluate(p)
    wv = w.evaluate(p)
    out = np.zeros(n)
    for m in range(1, n + 1):
        out += vv[m - 1] * fd_partial(w.evaluate, p, m)
        out -= wv[m - 1] * fd_partial(v.evaluate, p, m)
    return out


def bracket_lie_endo(v, phi, point, probe):
    """(L_v phi)(probe) = [v, phi probe] - phi [v, probe], numerically.

    probe is a vector field; returns the image vector at the point.
    """

    class _PhiProbe:
        def evaluate(self, p):
            return phi.evaluate(p) @ probe.evaluate(p)

    p = np.asarray(point, dtype=np.float64)
    return fd_bracket(v, _PhiProbe(), p) - phi.evaluate(p) @ fd_bracket(v, probe, p)


def bracket_nijenhuis(phi, v, w, point):
    """N_phi(v, w) = [phi v, phi w] - phi[phi v, w] - phi[v, phi w]
    + phi^2 [v, w], all brackets by finite differences."""

    class _Img:
        def __init__(self, base):
            self.base = base

        def evaluate(self, p):
            return phi.evaluate(p) @ self.base.evaluate(p)

    p = np.asarray(point, dtype=np.float64)
    pm = phi.evaluate(p)
    return (
        fd_bracket(_Img(v), _Img(w), p)
        - pm @ fd_bracket(_Img(v), w, p)
        - pm @ fd_bracket(v, _Img(w), p)
        + pm @ pm @ fd_bracket(v, w, p)
    )


def fd_curvature(gamma, point):
    """R_{kji}^l from the defining combination of Gamma, with the
    derivative terms done by centered differences.  Returns r[k, j, i, l].
    """
    p = np.asarray(point, dtype=np.float64)
    n = p.size
    g = gamma.evaluate(p)  # g[h, j, i]
    dg = np.empty((n, n, n, n))  # dg[m, h, j, i]
    for m in range(1, n + 1):
        dg[m - 1] = fd_partial(gamma.evaluate, p, m)
    r = np.empty((n, n, n, n))
    for k in range(n):
        for j in range(n):
            for i in range(n):
                for l in range(n):
                    val = dg[k, l, j, i] - dg[j, l, k, i]
                    for m in range(n):
                        val += g[l, k, m] * g[m, j, i] - g[l, j, m] * g[m, k, i]
                    r[k, j, i, l] = val
    return r


def levi_civita_at(metric, point):
    """Christoffel symbols of a (0,2) metric field at a point, from the
    metric derivative formula with FD partials.  Returns G[h, j, i]."""
    p = np.asarray(point, dtype=np.float64)
    n = p.size
    g = metric.evaluate(p)
    ginv = np.linalg.inv(g)
    dg = np.empty((n, n, n))  # dg[m, i, j] = d_m g_{ij}
    for m in range(1, n + 1):
        dg[m - 1] = fd_partial(metric.evaluate, p, m)
    out = np.empty((n, n, n))
    for h in range(n):
        for j in range(n):
            for i in range(n):
                s = 0.0
                for m in range(n):
                    s += ginv[h, m] * (dg[j, m, i] + dg[i, m, j] - dg[m, j, i])
                out[h, j, i] = 0.5 * s
    return out


# ---------------------------------------------------------------------------
# natural-frame lifts at any bundle point (x, t), t[.., j1, .., jq] the
# fibre coordinates as a tensor; fibre rows and columns in rank order


def complete_lift_vector_natural(v, x, t):
    """Complete lift of a vector field at (x, t), natural frame, as
    [.., n + n^q]: horizontal part V^j, fibre part
    -sum_s t_{j1..m..jq} d_{js} V^m, one slot at a time."""
    x, t = np.asarray(x, dtype=np.float64), np.asarray(t, dtype=np.float64)
    batch = x.shape[:-1]
    dv = v.partials_at(x)  # dv[.., a, m] = d_a V^m
    fib = np.zeros(t.shape)
    for p in np.ndindex(batch):
        for s in range(t.ndim - len(batch)):
            # slot s of t contracted with m, and j_s put back in its place
            fib[p] -= np.moveaxis(np.tensordot(t[p], dv[p], axes=([s], [1])), -1, s)
    return np.concatenate([v.evaluate(x), fib.reshape(batch + (-1,))], -1)


def complete_lift_endo_natural(phi, x, t):
    """Complete lift of an endomorphism field at (x, t), natural frame, as
    [.., n + n^q, n + n^q], entry by entry:

      horizontal block phi^j_i; horizontal-from-fibre block 0;
      fibre-from-horizontal [(j1..jq), i] = sum_m t_{m j2..jq} d_i phi^m_{j1}
          - sum_a sum_m t_{j1..m..jq} d_{ja} phi^m_i  (m in slot a);
      fibre block phi^{i1}_{j1} delta^{i2}_{j2} .. delta^{iq}_{jq}."""
    x, t = np.asarray(x, dtype=np.float64), np.asarray(t, dtype=np.float64)
    batch, n = x.shape[:-1], x.shape[-1]
    q = t.ndim - len(batch)
    f, df = phi.evaluate(x), phi.partials_at(x)  # f[.., j, i] = phi^j_i, df[.., a, j, i]
    multi = list(itertools.product(range(n), repeat=q))  # rank order
    out = np.zeros(batch + (n + n**q,) * 2)
    for p in np.ndindex(batch):
        lift, tp, fp, dfp = out[p], t[p], f[p], df[p]
        lift[:n, :n] = fp
        for row, js in enumerate(multi, start=n):
            for i in range(n):
                for m in range(n):
                    lift[row, i] += tp[(m,) + js[1:]] * dfp[i, m, js[0]]
                    for a in range(q):
                        lift[row, i] -= tp[js[:a] + (m,) + js[a + 1 :]] * dfp[js[a], m, i]
            for col, ks in enumerate(multi, start=n):
                if ks[1:] == js[1:]:
                    lift[row, col] = fp[ks[0], js[0]]
    return out


def mixed_block_by_entry(g, q):
    """The (base, fibre) mixed block of the lifted connection, [.., i_, m, s_],
    from Gamma g[.., h, j, i], one multi-index and one replaced slot at a
    time: minus Gamma^a_{m x} where slot c of the row holds x and the
    column is the row with a at slot c."""
    n = g.shape[-1]
    mixed = np.zeros(g.shape[:-3] + (n**q, n, n**q))
    for mi in itertools.product(range(n), repeat=q):
        row = np.ravel_multi_index(mi, (n,) * q)
        for c in range(q):
            for a in range(n):
                col = np.ravel_multi_index(mi[:c] + (a,) + mi[c + 1 :], (n,) * q)
                mixed[..., row, :, col] -= g[..., a, :, mi[c]]
    return mixed


def lifted_connection_dense(coeffs):
    """Dense lifted coefficients L[.., upper, first_lower, second_lower] of
    connection_lift.LiftedConnectionCoeffs: its two stored blocks, the
    mixed blocks by mixed_block_by_entry, every other block zero."""
    n, nf = coeffs.n, coeffs.n**coeffs.q
    mixed = mixed_block_by_entry(coeffs.base, coeffs.q)
    full = np.zeros(coeffs.base.shape[:-3] + (n + nf,) * 3)
    full[..., :n, :n, :n] = coeffs.base
    full[..., n:, :n, n:] = mixed
    full[..., n:, n:, :n] = np.swapaxes(mixed, -1, -2)
    full[..., n:, :n, :n] = coeffs.fibre_bb
    return full
