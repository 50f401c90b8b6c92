import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from fos.fpca import (_held_out_error, _solve_component, _spectral_basis,
                      consistent_mass, cotangent_stiffness,
                      cross_validate_lambda, functional_fpca, geometric_fpca)
from fos.kernels import GaussianKernel
from fos.synthdata import ellipsoid_patch, graph_geodesic_distances, icosphere


def v_inner(kernel, pts, a, b):
    return float(np.sum((kernel.gram(pts) @ b) * a))


def test_mass_matrix_total_and_spd():
    mesh = icosphere(2)
    m = consistent_mass(mesh)
    assert np.isclose(m.sum(), mesh.face_areas.sum())
    evals = np.linalg.eigvalsh(m.toarray())
    assert evals.min() > 0


def test_stiffness_annihilates_constants():
    mesh = icosphere(2)
    a = cotangent_stiffness(mesh)
    ones = np.ones(mesh.n_vertices)
    assert np.abs(a @ ones).max() <= 1e-10
    dense = a.toarray()
    assert np.allclose(dense, dense.T)
    assert np.linalg.eigvalsh(dense).min() >= -1e-10


def test_geometric_fpca_recovers_planted_modes():
    mesh = icosphere(1)
    kernel = GaussianKernel(sigma=1.0)
    pts = mesh.vertices
    rng = np.random.default_rng(0)
    m1 = rng.normal(size=pts.shape)
    m1 /= np.sqrt(v_inner(kernel, pts, m1, m1))
    m2 = rng.normal(size=pts.shape)
    m2 -= v_inner(kernel, pts, m2, m1) * m1
    m2 /= np.sqrt(v_inner(kernel, pts, m2, m2))
    n = 80
    a1 = 5.0 * rng.normal(size=n)
    a2 = 2.0 * rng.normal(size=n)
    moms = [a1[i] * m1 + a2[i] * m2 for i in range(n)]
    fit = geometric_fpca(moms, pts, kernel)
    assert fit.scores.shape[1] == 2           # exact rank 2
    # recovered components span the planted pair
    c1 = abs(v_inner(kernel, pts, fit.components[0], m1))
    c2 = abs(v_inner(kernel, pts, fit.components[1], m2))
    assert c1 >= 0.99 and c2 >= 0.99
    # components are V-orthonormal
    assert np.isclose(v_inner(kernel, pts, fit.components[0],
                              fit.components[0]), 1.0)
    assert abs(v_inner(kernel, pts, fit.components[0],
                       fit.components[1])) <= 1e-8


def test_geometric_fpca_matches_dense_eigendecomposition():
    mesh = icosphere(1)
    kernel = GaussianKernel(sigma=0.8)
    pts = mesh.vertices
    rng = np.random.default_rng(1)
    n, k3 = 12, pts.size
    moms = rng.normal(size=(n, len(pts), 3))
    fit = geometric_fpca(list(moms), pts, kernel, n_components=5)
    # dense oracle: eigendecomposition of the covariance operator G^(1/2)
    # C G^(1/2) via the symmetric whitening of the flattened momenta
    gram = np.kron(kernel.gram(pts), np.eye(3))
    w, v = np.linalg.eigh(gram)
    half = (v * np.sqrt(np.maximum(w, 0))) @ v.T
    cen = (moms - moms.mean(axis=0)).reshape(n, k3)
    y = cen @ half
    cov = y.T @ y / n
    evals = np.linalg.eigvalsh(cov)[::-1][:5]
    assert np.abs(fit.variances - evals[:len(fit.variances)]).max() <= 1e-9


def test_functional_fpca_rank_one_noiseless():
    mesh = icosphere(2)
    d = graph_geodesic_distances(mesh, 0)
    psi = np.exp(-d ** 2)
    rng = np.random.default_rng(2)
    a = rng.normal(size=30)
    fields = [3.0 + a_i * psi for a_i in a]
    fit = functional_fpca(fields, mesh, lam=0.0, n_components=2)
    m = consistent_mass(mesh)
    psi_m = psi / np.sqrt(psi @ (m @ psi))
    assert abs(fit.components[0] @ (m @ psi_m)) >= 0.999
    assert fit.variances[0] > 100 * fit.variances[1]


def test_functional_fpca_lam_zero_matches_mass_weighted_svd():
    # well-separated spectrum so the component directions are determined
    mesh = icosphere(1)
    rng = np.random.default_rng(3)
    basis = rng.normal(size=(3, mesh.n_vertices))
    coef = rng.normal(size=(20, 3)) * np.array([8.0, 4.0, 2.0])
    fields = coef @ basis + 0.05 * rng.normal(size=(20, mesh.n_vertices))
    fit = functional_fpca(list(fields), mesh, lam=0.0, n_components=3)
    m = consistent_mass(mesh).toarray()
    w, v = np.linalg.eigh(m)
    half = (v * np.sqrt(w)) @ v.T
    inv_half = (v / np.sqrt(w)) @ v.T
    cen = fields - fields.mean(axis=0)
    _, s, vt = np.linalg.svd(cen @ half, full_matrices=False)
    for j in range(3):
        comp_ref = inv_half @ vt[j]
        cos = abs(fit.components[j] @ (m @ comp_ref))
        assert cos >= 1.0 - 1e-6
        assert np.isclose(np.sort(np.abs(fit.scores[:, j]))[-1],
                          np.sort(np.abs(cen @ (m @ comp_ref)))[-1],
                          rtol=1e-6)


def test_functional_fpca_scores_centered_and_signs_fixed():
    mesh = icosphere(1)
    rng = np.random.default_rng(4)
    fields = rng.normal(size=(15, mesh.n_vertices))
    fit = functional_fpca(list(fields), mesh, lam=1.0, n_components=3)
    assert np.abs(fit.scores.mean(axis=0)).max() <= 1e-8
    for j in range(3):
        i = int(np.argmax(np.abs(fit.scores[:, j])))
        assert fit.scores[i, j] > 0


def test_smoothing_increases_component_smoothness():
    mesh = icosphere(2)
    rng = np.random.default_rng(5)
    d = graph_geodesic_distances(mesh, 0)
    psi = np.exp(-d ** 2)
    fields = [a * psi + 0.8 * rng.normal(size=mesh.n_vertices)
              for a in rng.normal(size=25)]
    a_mat = cotangent_stiffness(mesh)
    rough = functional_fpca(fields, mesh, lam=0.0, n_components=1)
    smooth = functional_fpca(fields, mesh, lam=50.0, n_components=1)

    def dirichlet(u):
        return float(u @ (a_mat @ u))

    assert dirichlet(smooth.components[0]) < dirichlet(rough.components[0])


def test_cross_validation_prefers_smoothing_under_noise():
    mesh = icosphere(2)
    rng = np.random.default_rng(6)
    d = graph_geodesic_distances(mesh, 0)
    psi = np.exp(-d ** 2)
    fields = [a * psi + 1.5 * rng.normal(size=mesh.n_vertices)
              for a in rng.normal(size=20)]
    best, errors = cross_validate_lambda(fields, mesh, [0.0, 10.0, 100.0],
                                         n_components=1, n_folds=4, seed=0)
    assert best > 0.0
    assert set(errors) == {0.0, 10.0, 100.0}


def test_cross_validation_rank_one_noiseless_picks_smallest():
    mesh = icosphere(1)
    rng = np.random.default_rng(7)
    d = graph_geodesic_distances(mesh, 0)
    psi = np.exp(-d ** 2)
    fields = [a * psi for a in rng.normal(size=16)]
    best, _ = cross_validate_lambda(fields, mesh, [0.0, 10.0],
                                    n_components=1, n_folds=4, seed=0)
    assert best == 0.0


def test_spectral_u_step_matches_mixed_system():
    def mixed(xc, scores, lam, stiffness, mass):
        """The u-step as the saddle-point solve of the mixed system, with
        the mass matrices cancelled at lam = 0, where it is singular."""
        a2 = float(np.sum(scores ** 2))
        if lam == 0.0:
            return (scores @ xc) / a2
        n = xc.shape[1]
        top = sparse.bmat([[a2 * mass, lam * stiffness],
                           [lam * stiffness, -lam * mass]], format="csc")
        rhs = np.concatenate([mass @ (scores @ xc), np.zeros(n)])
        return spsolve(top, rhs)[:n]

    rng = np.random.default_rng(9)
    for mesh in (icosphere(2), ellipsoid_patch(2)):     # closed, boundary
        mass, phi, mass_phi, lam2 = _spectral_basis(mesh)
        assert np.array_equal(mass_phi, mass @ phi)
        xc = rng.normal(size=(6, mesh.n_vertices))
        scores = rng.normal(size=6)
        for lam in (0.0, 10.0, 1000.0):
            ref = mixed(xc, scores, lam, cotangent_stiffness(mesh),
                        consistent_mass(mesh))
            got = phi @ _solve_component(xc @ mass_phi, scores, lam, lam2)
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


def test_reconstruction_error_zero_for_spanned_fields():
    mesh = icosphere(1)
    rng = np.random.default_rng(8)
    fields = rng.normal(size=(10, mesh.n_vertices))
    fit = functional_fpca(list(fields), mesh, lam=0.0, n_components=9)
    err = _held_out_error(fit, fields, consistent_mass(mesh))
    base = np.var(fields)
    assert err <= 1e-10 * max(base, 1.0)


def test_invalid_inputs():
    mesh = icosphere(1)
    with pytest.raises(ValueError):
        functional_fpca([np.zeros(3)], mesh)
    with pytest.raises(ValueError):
        functional_fpca([np.zeros(mesh.n_vertices)] * 4, mesh, lam=-1.0)
    with pytest.raises(ValueError):
        geometric_fpca(np.zeros((1, 5, 3)), np.zeros((5, 3)),
                       GaussianKernel(sigma=1.0))
