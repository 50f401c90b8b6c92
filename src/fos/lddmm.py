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


def _rhs(kernel, c, a):
    gram, gfac = kernel.gram_pair(c)
    dc = gram @ a
    # da_k = -1/2 sum_l gamma_kl (c_k - c_l) (a_k . a_l)
    s = gfac * (a @ a.T)
    da = -0.5 * (c * s.sum(axis=1)[:, None] - s @ c)
    return dc, da


def _rhs_vjp(kernel, c, a, p, q):
    """Vector-Jacobian product of _rhs at (c, a) with cotangents (p, q):
    returns (cbar, abar) = (d f / d c)^T (p, q), (d f / d a)^T (p, q).

    All contractions reduce to row/column sums and matrix products thanks
    to the radial structure grad1 K = gamma (x - y) and
    grad1 grad1 K = 2 gamma' (x-y)(x-y)^T + gamma I.

    The k x k products are built in place, each with its operands in the
    order of the formula beside it, so the result is that of the plain
    expressions bit for bit.
    """
    k, g, g2 = kernel.gram_triple(c)
    s = a @ a.T
    qc_diff = q @ c.T
    np.subtract(np.sum(q * c, axis=1)[:, None], qc_diff,
                out=qc_diff)                        # (q_k).(c_k - c_l)

    # dc = K a: sensitivity to c through the kernel, to a through K itself
    s1 = p @ a.T
    np.multiply(g, s1, out=s1)                      # g * (p a^T)
    cbar = c * (s1.sum(axis=1) + s1.sum(axis=0))[:, None] - s1 @ c - s1.T @ c
    abar = k @ p

    # da = -1/2 gamma (c_k - c_l)(a_k.a_l): sensitivity to c, including
    # the kernel-Hessian radial term ...
    w = np.multiply(2.0, g2, out=g2)
    w *= s
    w *= qc_diff                                    # 2 g2 * s * qc_diff
    t = np.multiply(g, s, out=s)                    # g * s
    cbar += -0.5 * (c * (w.sum(axis=1) + w.sum(axis=0))[:, None]
                    - w @ c - w.T @ c
                    + q * t.sum(axis=1)[:, None] - t.T @ q)

    # ... and to a
    u = np.multiply(g, qc_diff, out=qc_diff)        # g * qc_diff
    abar += -0.5 * (u @ a + u.T @ a)
    return cbar, abar


def shoot_gradient(path: GeodesicPath, cbar_end):
    """Exact adjoint of the RK2 shooting map: pulls the cotangent of the
    control points at t=1 back to t=0. Returns (cbar0, abar0); abar0 is
    the gradient of any endpoint functional with gradient cbar_end with
    respect to the initial momenta.
    """
    dt = 1.0 / path.steps
    cb = np.asarray(cbar_end, float).copy()
    ab = np.zeros_like(cb)
    kernel = path.kernel
    for t in range(path.steps - 1, -1, -1):
        # y1 = y + dt f(m), m = y + dt/2 f(y)
        cmb, amb = _rhs_vjp(kernel, path.mid_points[t], path.mid_momenta[t],
                            cb, ab)
        cmb *= dt
        amb *= dt
        cyb, ayb = _rhs_vjp(kernel, path.points[t], path.momenta[t], cmb, amb)
        cb = cb + cmb + 0.5 * dt * cyb
        ab = ab + amb + 0.5 * dt * ayb
    return cb, ab


def _check_finite(*arrays):
    for arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise ShootingError(
                "integration diverged; use smaller momenta or more steps")


def shoot(v0: InitialMomenta, steps: int = 20) -> GeodesicPath:
    """Integrate the Hamiltonian system from (c, a(0)) to t=1."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    dt = 1.0 / steps
    c = v0.control_points.copy()
    a = v0.momenta.copy()
    cs, As, cms, ams = [c.copy()], [a.copy()], [], []
    for _ in range(steps):
        dc, da = _rhs(v0.kernel, c, a)
        cm = c + 0.5 * dt * dc
        am = a + 0.5 * dt * da
        dc, da = _rhs(v0.kernel, cm, am)
        c = c + dt * dc
        a = a + dt * da
        _check_finite(c, a)
        cs.append(c.copy())
        As.append(a.copy())
        cms.append(cm)
        ams.append(am)
    return GeodesicPath(np.array(cs), np.array(As), np.array(cms),
                        np.array(ams), v0.kernel)


def flow_points(path: GeodesicPath, points) -> np.ndarray:
    """Advect points through the flow ODE to t=1 with the same RK2 scheme
    and grid, driven by the control states stored on the path."""
    x = np.asarray(points, float)
    dt = 1.0 / path.steps
    kernel = path.kernel
    for t in range(path.steps):
        dx = kernel.gram(x, path.points[t]) @ path.momenta[t]
        xm = x + 0.5 * dt * dx
        dx = kernel.gram(xm, path.mid_points[t]) @ path.mid_momenta[t]
        x = x + dt * dx
        _check_finite(x)
    return x

