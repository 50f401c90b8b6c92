"""Geodesic shooting of control-point/momenta systems and flow of the
induced time-dependent velocity field.

The velocity field is v_t(x) = sum_k K(c_k(t), x) a_k(t); control points and
momenta evolve under the Hamiltonian system

    dc_k/dt = sum_l K(c_k, c_l) a_l
    da_k/dt = -1/2 (sum_l grad_1 K(c_k, c_l) a_k.a_l)

integrated with an explicit midpoint (RK2) scheme on a uniform grid over
[0, 1]. The time-1 map is the deformation operator.

`shoot` stores the state at every grid node and at every RK2 midpoint.
The adjoint (`shoot_gradient`) and the flow of other points
(`flow_points`) read those stored states instead of integrating the
control system again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import GaussianKernel

# Bytes of one float64 kernel block in `flow_points`' row tiles: rows =
# TILE_BYTES // (8 * controls), 241 rows at K=271 and 897 at K=73. The
# sweep was measured on a flow of all 1,037 points of the K=271
# observation mesh; the generator now takes the template's 271 from the
# shoot and flows the other 766, in 4 tiles. That flow, under K=271
# controls, 10 steps, took 31 ms as one 2.2 MB block, and in tiles of 64,
# 128, 192, 241, 320, 400 and 600 rows 28-29, 26-29, 24, 23-25, 23, 23-24
# and 28 ms (medians of 7, two sweeps; 2-core Xeon VM, 2 MB L2 per core,
# one BLAS thread): tiles of 0.4-0.9 MB leave the pair room in L2.
TILE_BYTES = 512 * 1024


class ShootingError(RuntimeError):
    """Non-finite state during integration (diverged shooting).

    Usually fixed by smaller momenta or more integration steps.
    """


@dataclass
class InitialMomenta:
    """Control points plus per-point momentum 3-vectors parameterizing v0."""

    control_points: np.ndarray
    momenta: np.ndarray
    kernel: GaussianKernel

    def __post_init__(self):
        self.control_points = np.asarray(self.control_points, float)
        self.momenta = np.asarray(self.momenta, float)
        if self.control_points.shape != self.momenta.shape or \
                self.control_points.ndim != 2 or self.control_points.shape[1] != 3:
            raise ValueError("control_points and momenta must both be (k, 3)")
        if len(self.control_points) < 1:
            raise ValueError("need at least one control point")
        if not (np.all(np.isfinite(self.control_points))
                and np.all(np.isfinite(self.momenta))):
            raise ValueError("non-finite entries")


@dataclass
class GeodesicPath:
    """Per-time control-point positions and momenta on a uniform grid of
    T steps over [0, 1], and the RK2 midpoint state of every step."""

    points: np.ndarray         # (T+1, k, 3)
    momenta: np.ndarray        # (T+1, k, 3)
    mid_points: np.ndarray     # (T, k, 3)
    mid_momenta: np.ndarray    # (T, k, 3)
    kernel: GaussianKernel

    @property
    def steps(self):
        return len(self.mid_points)


def _extended(x, column):
    """[x, column] in one new (k, 4) buffer."""
    out = np.empty((len(x), 4))
    out[:, :3], out[:, 3] = x, column
    return out


def _rhs(kernel, c, a, work=None):
    """(dc, da) at the state (c, a). Given a `factor_workspace` of k x k
    blocks, the kernel blocks are formed in it, and a a^T in its first
    Gaussian block, which `gram_pair` leaves free."""
    gram, s = kernel.gram_pair(c, work=work)
    # da_k = -1/2 sum_l s_kl (c_k - c_l) with s = gamma (a a^T), formed in
    # place; one matmul s @ [c, 1] gives s @ c and the row sums of s
    aat = np.matmul(a, np.ascontiguousarray(a.T),
                    out=None if work is None else work[0][0])
    np.multiply(s, aat, out=s)
    sc = s @ _extended(c, 1.0)
    return gram @ a, -0.5 * (c * sc[:, 3:] - sc[:, :3])


def _rhs_vjp(kernel, c, a, p, q, work):
    """Vector-Jacobian product of _rhs at (c, a) with cotangents (p, q):
    returns (cbar, abar) = (d f / d c)^T (p, q), (d f / d a)^T (p, q).

    All contractions reduce to row/column sums and matrix products thanks
    to the radial structure grad1 K = gamma (x - y) and
    grad1 grad1 K = 2 gamma' (x-y)(x-y)^T + gamma I. With s = a a^T and
    d_kl = q_k.(c_l - c_k), the sensitivities to c through dc = K a and
    through the Hessian term of da share W = gamma' s d + gamma (p a^T),
    read through W @ [c, 1] and W^T @ [c, 1]; t = gamma s is symmetric, so
    t @ [q, 1], the buffer of [q, -q.c] with its last column set to 1,
    gives both of its products. Every k x k block is formed in `work`, a
    `factor_workspace` for n = 3: after `gram_triple`'s blocks and K @ p,
    d in K's block; s, t = gamma s, then p a^T in the first Gaussian's;
    W in gamma''s. Passes past `gram_triple`'s: six in place, four form W,
    one t, one gamma d. The result agrees with the plain expressions up to
    rounding.
    """
    k, g, g2 = kernel.gram_triple(c, work=work)
    kp = k @ p
    a_t = np.ascontiguousarray(a.T)
    c1 = _extended(c, 1.0)
    c1_t = np.ascontiguousarray(c1.T)
    q1 = _extended(q, -np.sum(q * c, axis=1))
    d = np.matmul(q1, c1_t, out=k)
    s = np.matmul(a, a_t, out=work[0][0])
    g2 *= s
    g2 *= d
    t = np.multiply(g, s, out=s)
    q1[:, 3] = 1.0
    tq = t @ q1
    pa = np.matmul(p, a_t, out=t)
    pa *= g
    w = np.add(g2, pa, out=g2)
    u = np.multiply(g, d, out=d)
    wc = w @ c1 + (c1_t @ w).T                      # (W + W^T) @ [c, 1]
    cbar = c * wc[:, 3:] - wc[:, :3] - 0.5 * (q * tq[:, 3:] - tq[:, :3])
    return cbar, kp + 0.5 * (u @ a + (a_t @ u).T)


def shoot_gradient(path: GeodesicPath, cbar_end):
    """Exact adjoint of the RK2 shooting map: pulls the cotangent of the
    control points at t=1 back to t=0. Returns (cbar0, abar0); abar0 is
    the gradient of any endpoint functional with gradient cbar_end with
    respect to the initial momenta. One kernel workspace serves all
    2 * steps `_rhs_vjp` calls (see the `kernels` module docstring).
    """
    dt = 1.0 / path.steps
    cb = np.asarray(cbar_end, float).copy()
    ab = np.zeros_like(cb)
    kernel = path.kernel
    work = kernel.factor_workspace((len(cb), len(cb)), 3)
    for t in range(path.steps - 1, -1, -1):
        # y1 = y + dt f(m), m = y + dt/2 f(y)
        cmb, amb = _rhs_vjp(kernel, path.mid_points[t], path.mid_momenta[t],
                            cb, ab, work)
        cmb *= dt
        amb *= dt
        cyb, ayb = _rhs_vjp(kernel, path.points[t], path.momenta[t], cmb, amb,
                            work)
        cb = cb + cmb + 0.5 * dt * cyb
        ab = ab + amb + 0.5 * dt * ayb
    return cb, ab


def _check_finite(*arrays):
    if not all(np.isfinite(x).all() for x in arrays):
        raise ShootingError(
            "integration diverged; use smaller momenta or more steps")


def shoot(v0: InitialMomenta, steps: int) -> GeodesicPath:
    """Integrate the Hamiltonian system from (c, a(0)) to t=1. The path's
    four arrays and one kernel workspace for all 2 * steps `_rhs` calls
    are allocated once (see the `kernels` module docstring), and each
    state c + (dt dc) is written into the path in place: a step allocates
    no k x k block, only what `_rhs` returns."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    dt = 1.0 / steps
    points, momenta = np.empty((2, steps + 1) + v0.control_points.shape)
    mid_points, mid_momenta = np.empty((2, steps) + v0.control_points.shape)
    points[0], momenta[0] = v0.control_points, v0.momenta
    k = len(v0.control_points)
    work = v0.kernel.factor_workspace((k, k))
    for t in range(steps):
        c, a, cm, am = points[t], momenta[t], mid_points[t], mid_momenta[t]
        dc, da = _rhs(v0.kernel, c, a, work)
        np.add(c, np.multiply(dc, 0.5 * dt, out=dc), out=cm)
        np.add(a, np.multiply(da, 0.5 * dt, out=da), out=am)
        dc, da = _rhs(v0.kernel, cm, am, work)
        np.add(c, np.multiply(dc, dt, out=dc), out=points[t + 1])
        np.add(a, np.multiply(da, dt, out=da), out=momenta[t + 1])
        _check_finite(points[t + 1], momenta[t + 1])
    return GeodesicPath(points, momenta, mid_points, mid_momenta, v0.kernel)


def _velocity(kernel, x, c, a, work, out):
    """v(x) = K(x, c) a written into out, one row tile of x at a time:
    each tile's kernel block is formed in `work`, a `factor_workspace` for
    n = 1 of one tile, and multiplied by a while it is still in cache. A
    last, shorter tile uses the leading rows of the workspace."""
    rows = work[1].shape[1]
    for i in range(0, len(x), rows):
        tile = x[i:i + rows]
        block = kernel.gram(tile, c, work=(work[0][:, :len(tile)],
                                           work[1][:, :len(tile)]))
        np.matmul(block, a, out=out[i:i + rows])
    return out


def flow_points(path: GeodesicPath, points) -> np.ndarray:
    """Advect points through the flow ODE to t=1 with the same RK2 scheme
    and grid, driven by the control states stored on the path.

    Each velocity is computed in row tiles of the points (`_velocity`):
    a tile's kernel block takes about TILE_BYTES, so the six passes that
    form it and its product with the momenta read it from L2, where the
    whole (points x controls) block would not fit. One workspace of
    one tile serves all 2 * steps velocities, so its pages are faulted
    in once per flow (see the `kernels` module docstring). A block that
    fits in one tile is computed as one tile."""
    x = np.asarray(points, float)
    dt = 1.0 / path.steps
    kernel = path.kernel
    k = path.points.shape[1]
    rows = max(1, min(len(x), TILE_BYTES // (8 * k)))
    work = kernel.factor_workspace((rows, k), 1)
    dx = np.empty_like(x)
    for t in range(path.steps):
        _velocity(kernel, x, path.points[t], path.momenta[t], work, dx)
        xm = x + 0.5 * dt * dx
        _velocity(kernel, xm, path.mid_points[t], path.mid_momenta[t], work,
                  dx)
        x = x + dt * dx
        _check_finite(x)
    return x
