"""Mismatch functionals between a deformed template and a target surface:
landmark, current-based and functional-current, with analytic gradients
with respect to the deformed vertex positions.

Face normals enter the current metric area-weighted (un-normalized), the
convention under which D(M, M) = 0 holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import GaussianKernel, scalar_gaussian
from .mesh import TriangleMesh


@dataclass
class SimilarityResult:
    value: float
    gradient: np.ndarray  # (n_deformed_vertices, 3)


def landmark_distance(deformed, targets) -> SimilarityResult:
    """Sum of squared distances between index-corresponding points."""
    x = np.asarray(deformed, float)
    y = np.asarray(targets, float)
    if x.shape != y.shape:
        raise ValueError("deformed and target point lists differ in length")
    diff = x - y
    return SimilarityResult(float(np.sum(diff ** 2)), 2.0 * diff)


def _face_data(vertices, faces):
    tri = vertices[faces]
    centers = tri.mean(axis=1)
    normals = 0.5 * np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    return tri, centers, normals


def _current_core(vertices, faces, target_centers, target_normals, kernel,
                  kf_self=None, kf_cross=None, kf_target=None,
                  target_self_term=None):
    """Shared machinery of current and functional-current distances.

    kf_* are optional elementwise weights on the three kernel blocks
    (the functional-current factors); identity weights when None.
    """
    tri, c, n = _face_data(vertices, faces)

    k_ss, f_ss = kernel.gram_pair(c)
    k_st, f_st = kernel.gram_pair(c, target_centers)
    if kf_self is not None:
        k_ss = k_ss * kf_self
        k_st = k_st * kf_cross
        f_ss = f_ss * kf_self
        f_st = f_st * kf_cross

    m_ss = n @ n.T
    m_st = n @ target_normals.T

    if target_self_term is None:
        k_tt = kernel.gram(target_centers, target_centers)
        if kf_target is not None:
            k_tt = k_tt * kf_target
        target_self_term = float(np.sum(k_tt * (target_normals @ target_normals.T)))

    value = float(np.sum(k_ss * m_ss) - 2.0 * np.sum(k_st * m_st)
                  + target_self_term)

    # center sensitivity: grad1K(x, y) = gamma(|x-y|^2) (x - y), so the
    # contractions reduce to row sums and matrix products
    s_ss = f_ss * m_ss
    s_st = f_st * m_st
    a = 2.0 * (c * s_ss.sum(axis=1)[:, None] - s_ss @ c) \
        - 2.0 * (c * s_st.sum(axis=1)[:, None] - s_st @ target_centers)

    # normal sensitivity: coefficient of n_l in the quadratic form
    w = 2.0 * (k_ss @ n) - 2.0 * (k_st @ target_normals)

    grad = np.zeros_like(vertices)
    v0, v1, v2 = tri[:, 0], tri[:, 1], tri[:, 2]
    np.add.at(grad, faces[:, 0], a / 3.0 + 0.5 * np.cross(v1 - v2, w))
    np.add.at(grad, faces[:, 1], a / 3.0 + 0.5 * np.cross(v2 - v0, w))
    np.add.at(grad, faces[:, 2], a / 3.0 + 0.5 * np.cross(v0 - v1, w))
    return SimilarityResult(value, grad)


def current_distance(deformed_mesh: TriangleMesh, target_mesh: TriangleMesh,
                     sigma_z: float) -> SimilarityResult:
    """Squared current-metric distance between two oriented surfaces."""
    kernel = GaussianKernel(sigma=sigma_z)
    return _current_core(deformed_mesh.vertices, deformed_mesh.faces,
                         target_mesh.face_centers,
                         target_mesh.face_area_normals, kernel)


def fcurrent_distance(deformed_mesh: TriangleMesh, deformed_values,
                      target_mesh: TriangleMesh, target_values,
                      sigma_z: float, sigma_f: float) -> SimilarityResult:
    """Functional-current distance: each current term weighted by a scalar
    Gaussian kernel on per-face function values.

    The gradient is taken with respect to vertex positions only; the
    functional values are held fixed. sigma_f = inf reproduces
    current_distance exactly.
    """
    y = np.asarray(deformed_values, float)
    yt = np.asarray(target_values, float)
    if y.shape != (deformed_mesh.n_faces,) or yt.shape != (target_mesh.n_faces,):
        raise ValueError("per-face value lists must match face counts")
    kf = scalar_gaussian(sigma_f)
    kernel = GaussianKernel(sigma=sigma_z)
    return _current_core(deformed_mesh.vertices, deformed_mesh.faces,
                         target_mesh.face_centers,
                         target_mesh.face_area_normals, kernel,
                         kf_self=kf(y[:, None], y[None, :]),
                         kf_cross=kf(y[:, None], yt[None, :]),
                         kf_target=kf(yt[:, None], yt[None, :]))
