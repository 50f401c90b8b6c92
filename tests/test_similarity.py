import numpy as np

from fos.similarity import current_distance
from fos.synthdata import ellipsoid_patch, icosphere


def perturbed(mesh, seed=0, scale=0.05):
    rng = np.random.default_rng(seed)
    return mesh.with_vertices(mesh.vertices
                              + scale * rng.normal(size=mesh.vertices.shape))


def fd_gradient(fn, vertices, eps=1e-6):
    grad = np.zeros_like(vertices)
    for i in range(vertices.shape[0]):
        for d in range(3):
            dv = np.zeros_like(vertices)
            dv[i, d] = eps
            grad[i, d] = (fn(vertices + dv) - fn(vertices - dv)) / (2 * eps)
    return grad


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def test_current_distance_zero_on_identical_surfaces():
    mesh = icosphere(1)
    res = current_distance(mesh, mesh, sigma_z=0.7)
    assert abs(res.value) <= 1e-10


def test_current_distance_positive_and_symmetric():
    a = icosphere(1)
    b = perturbed(a, seed=1)
    d_ab = current_distance(a, b, sigma_z=0.7).value
    d_ba = current_distance(b, a, sigma_z=0.7).value
    assert d_ab > 0
    assert np.isclose(d_ab, d_ba, rtol=1e-12)


def test_current_gradient_matches_finite_differences():
    template = ellipsoid_patch(1)
    target = perturbed(template, seed=3, scale=0.03)

    res = current_distance(template, target, 0.6)
    fd = fd_gradient(lambda v: current_distance(template.with_vertices(v),
                                                target, 0.6).value,
                     template.vertices)
    assert rel_err(res.gradient, fd) <= 1e-5
