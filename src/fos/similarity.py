"""Squared current-metric distance between a deformed template and a
target surface, with its analytic gradient with respect to the deformed
vertex positions.

Face normals enter the current metric area-weighted (un-normalized), the
convention under which D(M, M) = 0 holds exactly.

The kernel is a one-Gaussian `GaussianKernel`, E(x, y) =
exp(-|x - y|^2 / (2 sigma^2)), whose gradient in x is
-(x - y) E(x, y) / sigma^2. So the value and both parts of the gradient
are contractions of one kernel block per surface pair with the moments of
the other surface's faces, M = [n, n (x) c] (F, 12), where column
3 + 3d + e holds n_d c_e. With face centers c and area normals n of
the deformed surface, Q_ss = E(c, c) @ M and Q_st = E(c, c_t) @ M_t:

    D^2 = sum_i n_i . (Q_ss - 2 Q_st)[i, :3] + sum_tt' E(c_t, c_t') n_t.n_t'

and, with D = Q_ss - Q_st, r_i = sum_d n_id D[i, d] and
P[i, e] = sum_d n_id D[i, 3 + 3d + e],

    dD^2/dc_i = -(2 / sigma^2) (c_i r_i - P_i),    dD^2/dn_i = 2 D[i, :3].

The target's moments M_t and its self term (the last sum) are fixed per
target: `target_terms` computes them once.
"""

from __future__ import annotations

import numpy as np

from .kernels import GaussianKernel
from .mesh import _cross, face_geometry


class SimilarityResult:
    """Current distance `value` and its `gradient` with respect to the
    deformed vertex positions, (n_deformed_vertices, 3). The gradient is
    computed on demand, the first time it is read, from the moment
    products the value was built from; a result whose gradient is never
    read never pays for it."""

    def __init__(self, value, gradient_fn):
        self.value = value
        self._gradient_fn = gradient_fn
        self._gradient = None

    @property
    def gradient(self):
        if self._gradient is None:
            self._gradient = self._gradient_fn()
            self._gradient_fn = None       # releases the two (S, 12) products
        return self._gradient


def _moments(centers, normals):
    """[n, n (x) c], (F, 12): column 3 + 3d + e holds n_d c_e."""
    outer = normals[:, :, None] * centers[:, None, :]
    return np.hstack([normals, outer.reshape(len(normals), 9)])


def target_terms(centers, normals, kernel: GaussianKernel):
    """The target's fixed side of the current distance under `kernel`:
    its moments (T, 12) and its self term sum E(c_t, c_t') n_t.n_t'."""
    self_term = np.vdot(normals, kernel.gram(centers) @ normals)
    return _moments(centers, normals), float(self_term)


def _current_core(vertices, faces, target_centers, target_moments,
                  kernel: GaussianKernel, *, target_self_term):
    """Current distance, under the one-Gaussian `kernel`, of the surface
    (vertices, faces) to the target given by its face centers and its
    moments and self term from `target_terms`, with its gradient on
    demand."""
    tri, c, n = face_geometry(vertices, faces)
    q_ss = kernel.gram(c) @ _moments(c, n)
    q_st = kernel.gram(c, target_centers) @ target_moments

    value = float(np.vdot(n, q_ss[:, :3] - 2.0 * q_st[:, :3])
                  + target_self_term)

    def gradient():
        d = np.subtract(q_ss, q_st, out=q_ss)
        r = np.einsum("id,id->i", n, d[:, :3])
        p = np.einsum("id,ide->ie", n, d[:, 3:].reshape(-1, 3, 3))
        a = (-2.0 / kernel.sigma ** 2) * (c * r[:, None] - p)
        w = 2.0 * d[:, :3]

        # corner k of each face moves its center by a / 3 and its area
        # normal by (opposite side) x w / 2; corner-major, as faces.T.ravel()
        corner = tri.transpose(1, 0, 2)
        sides = corner[[1, 2, 0]] - corner[[2, 0, 1]]
        parts = a / 3.0 + 0.5 * _cross(sides, w)
        grad = np.zeros_like(vertices)
        np.add.at(grad, faces.T.ravel(), parts.reshape(-1, 3))
        return grad

    return SimilarityResult(value, gradient)
