import numpy as np
import pytest

from fos.mesh import TriangleMesh
from fos.similarity import (current_distance, fcurrent_distance,
                            landmark_distance)
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


def test_landmark_distance_and_gradient():
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(20, 3)), rng.normal(size=(20, 3))
    res = landmark_distance(x, y)
    assert np.isclose(res.value, np.sum((x - y) ** 2))
    assert np.allclose(res.gradient, 2 * (x - y))
    with pytest.raises(ValueError):
        landmark_distance(x, y[:-1])


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


def test_fcurrent_reduces_to_current_at_infinite_sigma_f():
    a = icosphere(1)
    b = perturbed(a, seed=4)
    rng = np.random.default_rng(5)
    ya = rng.normal(size=a.n_faces)
    yb = rng.normal(size=b.n_faces)
    r_plain = current_distance(a, b, sigma_z=0.8)
    r_fun = fcurrent_distance(a, ya, b, yb, sigma_z=0.8, sigma_f=np.inf)
    assert abs(r_plain.value - r_fun.value) <= 1e-10
    assert np.abs(r_plain.gradient - r_fun.gradient).max() <= 1e-10


def test_fcurrent_separates_equal_shapes_with_different_functions():
    mesh = icosphere(1)
    ya = np.zeros(mesh.n_faces)
    yb = np.ones(mesh.n_faces)
    same = fcurrent_distance(mesh, ya, mesh, ya, 0.8, 0.5).value
    diff = fcurrent_distance(mesh, ya, mesh, yb, 0.8, 0.5).value
    assert abs(same) <= 1e-10
    assert diff > 1e-3


def test_fcurrent_gradient_matches_finite_differences():
    template = ellipsoid_patch(1)
    target = perturbed(template, seed=6, scale=0.03)
    rng = np.random.default_rng(7)
    y = rng.normal(size=template.n_faces)
    yt = rng.normal(size=target.n_faces)

    def value(v):
        return fcurrent_distance(template.with_vertices(v), y, target, yt,
                                 0.6, 0.9).value

    res = fcurrent_distance(template, y, target, yt, 0.6, 0.9)
    fd = fd_gradient(value, template.vertices)
    assert rel_err(res.gradient, fd) <= 1e-5


def test_fcurrent_validates_value_shapes():
    mesh = icosphere(1)
    with pytest.raises(ValueError):
        fcurrent_distance(mesh, np.zeros(3), mesh, np.zeros(mesh.n_faces),
                          0.5, 0.5)
