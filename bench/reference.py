"""Reference computations the benchmark checks the program's outputs
against. Each one is written here from its textbook definition, in plain
numpy, and calls nothing in `fos`: a fault in the program's fast paths
(the matmul distance expansion, fused kernel factors, sparse assembly)
cannot hide in the check.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import chi2


def read_off(path):
    """(vertices, faces) of a triangle OFF file."""
    with open(path) as fh:
        tokens = fh.read().split()
    if tokens[0] != "OFF":
        raise ValueError(f"{path}: not an OFF file")
    nv, nf = int(tokens[1]), int(tokens[2])
    body = np.array(tokens[4:4 + 3 * nv], float).reshape(nv, 3)
    faces = np.array(tokens[4 + 3 * nv:4 + 3 * nv + 4 * nf],
                     int).reshape(nf, 4)
    if np.any(faces[:, 0] != 3):
        raise ValueError(f"{path}: non-triangle face")
    return body, faces[:, 1:]


def read_csv(path):
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))


BLOCK = 128


def _kernel_sum(x, y, wx, wy, sigma):
    """sum_ij exp(-|x_i - y_j|^2 / (2 sigma^2)) wx_i.wy_j, from explicit
    coordinate differences (no |x|^2 + |y|^2 - 2 x.y expansion), in row
    blocks so that the check stays small next to the workload's memory."""
    total = 0.0
    for lo in range(0, len(x), BLOCK):
        diff = x[lo:lo + BLOCK, None, :] - y[None, :, :]
        k = np.exp(-np.sum(diff * diff, axis=2) / (2.0 * sigma ** 2))
        total += float(np.sum(k * (wx[lo:lo + BLOCK] @ wy.T)))
    return total


def _faces(vertices, faces):
    tri = vertices[faces]
    centers = tri.mean(axis=1)
    normals = 0.5 * np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    return centers, normals


def current_distance(vertices, faces, target_vertices, target_faces,
                     sigma_z):
    """Squared current distance: the double sum over face pairs of
    K(c_i, c_j) n_i.n_j for the deformed surface, minus twice the cross
    sum, plus the target's own sum."""
    c, n = _faces(vertices, faces)
    ct, nt = _faces(target_vertices, target_faces)
    return (_kernel_sum(c, c, n, n, sigma_z)
            - 2.0 * _kernel_sum(c, ct, n, nt, sigma_z)
            + _kernel_sum(ct, ct, nt, nt, sigma_z))


def deformation_energy(points, momenta, sigma, sigma2, weight):
    """|v0|_V^2 = sum_kl a_k.a_l K(c_k, c_l) with the two-Gaussian kernel."""
    energy = _kernel_sum(points, points, momenta, momenta, sigma)
    if sigma2 is not None:
        energy += weight * _kernel_sum(points, points, momenta, momenta,
                                       sigma2)
    return energy


def canonical_correlations(x, y):
    """Canonical correlations as the singular values of Qx^T Qy, with Qx
    and Qy orthonormal bases of the centred blocks."""
    qx, _ = np.linalg.qr(x - x.mean(axis=0))
    qy, _ = np.linalg.qr(y - y.mean(axis=0))
    s = np.linalg.svd(qx.T @ qy, compute_uv=False)
    return np.clip(s[:min(x.shape[1], y.shape[1])], 0.0, 1.0)


def bartlett(rho, n, p, q):
    """Bartlett's sequential chi-square test that the correlations from
    index l on are all zero: (statistics, p-values)."""
    factor = n - 1 - (p + q + 1) / 2.0
    stats = np.array([-factor * np.sum(np.log(1.0 - rho[el:] ** 2))
                      for el in range(len(rho))])
    dof = np.array([(p - el) * (q - el) for el in range(len(rho))])
    return stats, chi2.sf(stats, dof)


def consistent_mass(vertices, faces):
    """Galerkin mass matrix of linear elements, dense, assembled face by
    face from the face areas: A/6 on the diagonal, A/12 off it."""
    c, n = _faces(vertices, faces)
    areas = np.linalg.norm(n, axis=1)
    m = np.zeros((len(vertices), len(vertices)))
    local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    for face, area in zip(faces, areas):
        m[np.ix_(face, face)] += area * local
    return m


def rel_diff(a, b):
    return abs(a - b) / max(abs(b), 1e-300)
