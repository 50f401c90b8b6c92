import numpy as np

from fos.kernels import GaussianKernel
from fos.similarity import _current_core, target_terms
from fos.synthdata import ellipsoid_patch, icosphere, refine_mesh


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


def self_term(kernel, centers, normals):
    return float(np.sum(kernel.gram(centers, centers) * (normals @ normals.T)))


def current_distance(deformed, target, sigma_z):
    """Squared current distance between two oriented surfaces."""
    tc, kernel = target.face_centers, GaussianKernel(sigma_z)
    moments, own = target_terms(tc, target.face_area_normals, kernel)
    return _current_core(deformed.vertices, deformed.faces, tc, moments,
                         kernel, target_self_term=own)


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


def eager_current_core(vertices, faces, target_centers, target_normals,
                       kernel):
    """Value and gradient computed together, without shared state, from
    the kernel blocks K and gamma of `GaussianKernel.gram_pair`."""
    tri = vertices[faces]
    c = tri.mean(axis=1)
    n = 0.5 * np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    k_ss, f_ss = kernel.gram_pair(c)
    k_st, f_st = kernel.gram_pair(c, target_centers)
    m_ss = n @ n.T
    m_st = n @ target_normals.T
    value = float(np.sum(k_ss * m_ss) - 2.0 * np.sum(k_st * m_st)
                  + self_term(kernel, target_centers, target_normals))
    s_ss = f_ss * m_ss
    s_st = f_st * m_st
    a = 2.0 * (c * s_ss.sum(axis=1)[:, None] - s_ss @ c) \
        - 2.0 * (c * s_st.sum(axis=1)[:, None] - s_st @ target_centers)
    w = 2.0 * (k_ss @ n) - 2.0 * (k_st @ target_normals)
    grad = np.zeros_like(vertices)
    v0, v1, v2 = tri[:, 0], tri[:, 1], tri[:, 2]
    np.add.at(grad, faces[:, 0], a / 3.0 + 0.5 * np.cross(v1 - v2, w))
    np.add.at(grad, faces[:, 1], a / 3.0 + 0.5 * np.cross(v2 - v0, w))
    np.add.at(grad, faces[:, 2], a / 3.0 + 0.5 * np.cross(v0 - v1, w))
    return value, grad


def test_gradient_on_demand_matches_eager_computation():
    # the moment contractions sum in another order than the kernel blocks
    template = ellipsoid_patch(2)
    target = refine_mesh(perturbed(template, seed=4, scale=0.05), 1)
    deformed = perturbed(template, seed=5, scale=0.05)
    kernel = GaussianKernel(sigma=0.3)
    tc, tn = target.face_centers, target.face_area_normals
    value, grad = eager_current_core(deformed.vertices, template.faces, tc,
                                     tn, kernel)
    res = current_distance(deformed, target, 0.3)
    assert abs(res.value - value) <= 1e-12 * abs(value)
    assert rel_err(res.gradient, grad) <= 1e-12
    assert res.gradient is res.gradient      # computed once, then kept


def test_current_is_unchanged_by_a_shift_far_from_the_origin():
    template = ellipsoid_patch(2)
    target = refine_mesh(perturbed(template, seed=6, scale=0.05), 1)
    deformed = perturbed(template, seed=7, scale=0.05)
    shift = 10.0 * template.bbox_diagonal * np.array([0.6, -0.48, 0.64])
    near = current_distance(deformed, target, 0.3)
    far = current_distance(deformed.with_vertices(deformed.vertices + shift),
                           target.with_vertices(target.vertices + shift), 0.3)
    assert abs(far.value - near.value) <= 1e-8 * abs(near.value)
    assert rel_err(far.gradient, near.gradient) <= 1e-8
