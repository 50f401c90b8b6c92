"""Squared current-metric distance between a deformed template and a
target surface, with its analytic gradient with respect to the deformed
vertex positions.

Face normals enter the current metric area-weighted (un-normalized), the
convention under which D(M, M) = 0 holds exactly.
"""

from __future__ import annotations

import numpy as np


class SimilarityResult:
    """Current distance `value` and its `gradient` with respect to the
    deformed vertex positions, (n_deformed_vertices, 3). The gradient is
    computed on demand, the first time it is read, from the kernel blocks
    the value was built from; a result whose gradient is never read
    never pays for it."""

    def __init__(self, value, gradient_fn):
        self.value = value
        self._gradient_fn = gradient_fn
        self._gradient = None

    @property
    def gradient(self):
        if self._gradient is None:
            self._gradient = self._gradient_fn()
            self._gradient_fn = None       # releases the kernel blocks
        return self._gradient


def _face_data(vertices, faces):
    tri = vertices[faces]
    centers = tri.mean(axis=1)
    normals = 0.5 * np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    return tri, centers, normals


def _current_core(vertices, faces, target_centers, target_normals, kernel,
                  *, target_self_term):
    """Current distance of the surface (vertices, faces) to the target
    given by its face centers and area normals, with its gradient on
    demand. `target_self_term`, sum K(c_t, c_t') n_t.n_t' over the target's
    face pairs, is fixed per target, so the caller computes it once."""
    tri, c, n = _face_data(vertices, faces)

    k_ss, f_ss = kernel.gram_pair(c)
    k_st, f_st = kernel.gram_pair(c, target_centers)

    m_ss = n @ n.T
    m_st = n @ target_normals.T

    value = float(np.sum(k_ss * m_ss) - 2.0 * np.sum(k_st * m_st)
                  + target_self_term)

    def gradient():
        # center sensitivity: grad1K(x, y) = gamma(|x-y|^2) (x - y), so the
        # contractions reduce to row sums and matrix products
        s_ss = np.multiply(f_ss, m_ss, out=f_ss)
        s_st = np.multiply(f_st, m_st, out=f_st)
        a = 2.0 * (c * s_ss.sum(axis=1)[:, None] - s_ss @ c) \
            - 2.0 * (c * s_st.sum(axis=1)[:, None] - s_st @ target_centers)

        # normal sensitivity: coefficient of n_l in the quadratic form
        w = 2.0 * (k_ss @ n) - 2.0 * (k_st @ target_normals)

        grad = np.zeros_like(vertices)
        v0, v1, v2 = tri[:, 0], tri[:, 1], tri[:, 2]
        np.add.at(grad, faces[:, 0], a / 3.0 + 0.5 * np.cross(v1 - v2, w))
        np.add.at(grad, faces[:, 1], a / 3.0 + 0.5 * np.cross(v2 - v0, w))
        np.add.at(grad, faces[:, 2], a / 3.0 + 0.5 * np.cross(v0 - v1, w))
        return grad

    return SimilarityResult(value, gradient)

