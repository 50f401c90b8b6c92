import numpy as np
import pytest

from fos.kernels import GaussianKernel, default_deformation_kernel


def pair(k, x, y):
    """(K, gamma) at one pair of points, from gram_pair."""
    g, f = k.gram_pair(np.atleast_2d(x), np.atleast_2d(y))
    return g[0, 0], f[0, 0]


def test_eval_matches_formula():
    k = GaussianKernel(sigma=2.0)
    x = np.array([[1.0, 0.0, 0.0]])
    y = np.array([[0.0, 2.0, 0.0]])
    assert np.isclose(k.gram(x, y)[0, 0], np.exp(-5.0 / 8.0))


def test_two_kernel_sum():
    k = GaussianKernel(sigma=2.0, sigma2=0.5, weight=0.7)
    x = np.zeros((1, 3))
    y = np.array([[1.0, 0.0, 0.0]])
    expected = np.exp(-1.0 / 8.0) + 0.7 * np.exp(-1.0 / 0.5)
    assert np.isclose(k.gram(x, y)[0, 0], expected)


def test_gram_symmetric_psd():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(40, 3))
    g = GaussianKernel(sigma=1.3).gram(pts)
    assert np.allclose(g, g.T)
    assert np.linalg.eigvalsh(g).min() > -1e-10
    assert np.allclose(np.diag(g), 1.0)


def test_gram_cross_shape():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(5, 3)), rng.normal(size=(7, 3))
    assert GaussianKernel(sigma=1.0).gram(a, b).shape == (5, 7)


def test_gradient_matches_finite_differences():
    # grad_1 K(x, y) = gamma (x - y), gamma the gram_pair factor
    rng = np.random.default_rng(2)
    k = GaussianKernel(sigma=0.9, sigma2=0.3, weight=0.5)
    x, y = rng.normal(size=3), rng.normal(size=3)
    g = pair(k, x, y)[1] * (x - y)
    eps = 1e-6
    for d in range(3):
        dx = np.zeros(3)
        dx[d] = eps
        fd = (pair(k, x + dx, y)[0] - pair(k, x - dx, y)[0]) / (2 * eps)
        assert np.isclose(g[d], fd, rtol=1e-6, atol=1e-9)


def test_grad_factor_consistent_with_gradient():
    # one Gaussian: grad_1 K(x, y) = -K(x, y) (x - y) / sigma^2
    rng = np.random.default_rng(3)
    k = GaussianKernel(sigma=1.1)
    x, y = rng.normal(size=3), rng.normal(size=3)
    value, gamma = pair(k, x, y)
    assert np.allclose(gamma * (x - y), -value * (x - y) / 1.1 ** 2)


def test_grad_factor2_is_radial_derivative():
    # gram_triple's third factor is d gamma / d(|x - y|^2)
    k = GaussianKernel(sigma=0.8, sigma2=0.4, weight=2.0)
    d2 = 0.73
    eps = 1e-6

    def at(r2):
        return np.array([[np.sqrt(r2), 0.0, 0.0]]), np.zeros((1, 3))

    fd = (pair(k, *at(d2 + eps))[1] - pair(k, *at(d2 - eps))[1]) / (2 * eps)
    assert np.isclose(k.gram_triple(*at(d2))[2][0, 0], fd, rtol=1e-6)


def test_gram_pair_and_triple_agree_with_gram():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(9, 3))
    k = GaussianKernel(sigma=1.0, sigma2=0.2, weight=0.3)
    g1, f1 = k.gram_pair(pts)
    g2, f2, h2 = k.gram_triple(pts)
    assert np.allclose(g1, k.gram(pts))
    assert np.allclose(g1, g2)
    assert np.allclose(f1, f2)


def test_invalid_parameters_raise():
    with pytest.raises(ValueError):
        GaussianKernel(sigma=0.0)
    with pytest.raises(ValueError):
        GaussianKernel(sigma=1.0, sigma2=-1.0)
    with pytest.raises(ValueError):
        GaussianKernel(sigma=1.0, weight=-0.1)


def test_default_deformation_kernel_scales_with_mesh():
    from fos.synthdata import icosphere
    mesh = icosphere(1, radius=5.0)
    k = default_deformation_kernel(mesh)
    assert k.sigma > k.sigma2 > 0


def plain_sqdist(points_a, points_b=None):
    """The out-of-place squared distances the kernels must reproduce."""
    a = np.asarray(points_a, float)
    b = a if points_b is None else np.asarray(points_b, float)
    aa = np.sum(a * a, axis=1)
    bb = np.sum(b * b, axis=1)
    d2 = aa[:, None] + bb[None, :] - 2.0 * (a @ b.T)
    return np.maximum(d2, 0.0)


def plain_factors(kernel, d2, *orders):
    """The out-of-place radial factors, with the sign on the numerator."""
    def scaled(e, s, k):
        return e if k == 0 else -e / s ** 2 if k == 1 else e / (2.0 * s ** 4)

    e1 = np.exp(-d2 / (2.0 * kernel.sigma ** 2))
    out = [scaled(e1, kernel.sigma, k) for k in orders]
    if kernel.sigma2 is not None:
        e2 = kernel.weight * np.exp(-d2 / (2.0 * kernel.sigma2 ** 2))
        out = [f + scaled(e2, kernel.sigma2, k) for f, k in zip(out, orders)]
    return out


def assert_close(got, want, name=None):
    """Agreement to rounding: within 1e-13 of the largest magnitude."""
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name


def assert_kernels_match_plain(kernel, points_a, points_b=None):
    d2 = plain_sqdist(points_a, points_b)
    expected = {"gram": plain_factors(kernel, d2, 0),
                "gram_pair": plain_factors(kernel, d2, 0, 1),
                "gram_triple": plain_factors(kernel, d2, 0, 1, 2)}
    for name, factors in expected.items():
        got = getattr(kernel, name)(points_a, points_b)
        got = [got] if name == "gram" else list(got)
        assert len(got) == len(factors)
        for g, f in zip(got, factors):
            assert_close(g, f, name)
    # a workspace holding stale values gives the same factors, in the
    # factor blocks of the workspace
    for name, n in (("gram", 1), ("gram_pair", 2), ("gram_triple", 3)):
        work = kernel.factor_workspace(d2.shape, n)
        for w in work:
            w.fill(np.nan)
        got = getattr(kernel, name)(points_a, points_b, work=work)
        want = getattr(kernel, name)(points_a, points_b)
        if n == 1:
            got, want = (got,), (want,)
        assert len(got) == n
        for g, w, block in zip(got, want, work[1]):
            assert np.shares_memory(g, block)
            assert np.array_equal(g, w), name


def test_factors_match_the_plain_formula_two_gaussians():
    from fos.synthdata import ellipsoid_patch
    template = ellipsoid_patch(2)
    assert template.n_vertices == 73
    kernel = default_deformation_kernel(template)
    assert_kernels_match_plain(kernel, template.vertices)
    assert_kernels_match_plain(kernel, template.vertices,
                               template.vertices[::-1] + 0.01)
    # a second weight that is not 1 is applied once, to the second Gaussian
    assert_kernels_match_plain(GaussianKernel(kernel.sigma, kernel.sigma2,
                                              0.3), template.vertices)


def test_factors_match_the_plain_formula_cross_block():
    from fos.synthdata import ellipsoid_patch, refine_mesh
    template = ellipsoid_patch(2)
    subject = refine_mesh(template, 1)
    assert (template.n_faces, subject.n_faces) == (122, 488)
    assert_kernels_match_plain(GaussianKernel(sigma=0.3),
                               template.face_centers, subject.face_centers)


def test_factors_match_the_plain_formula_at_coincident_points():
    # repeated points whose expanded d2 rounds below zero: the clamp acts
    rng = np.random.default_rng(1)
    pts = np.repeat(rng.normal(size=(6, 3)), 3, axis=0)
    aa = np.sum(pts * pts, axis=1)
    assert (aa[:, None] + aa[None, :] - 2.0 * (pts @ pts.T)).min() < 0.0
    assert plain_sqdist(pts).min() == 0.0
    kernel = GaussianKernel(sigma=0.8, sigma2=0.4, weight=2.0)
    assert_kernels_match_plain(kernel, pts)
    assert_kernels_match_plain(kernel, pts, pts[::-1].copy())
    # the kernel's own clamp: no value of a coincident pair exceeds K(0)
    assert kernel.gram(pts).max() == 1.0 + kernel.weight


@pytest.mark.parametrize("n_b, shapes, dtype", [
    (7, ((1, 7, 5), (1, 7, 5)), float),
    (7, ((1, 5, 7), (1, 5, 1)), float),
    (7, ((1, 1, 7), (1, 5, 7)), float),
    (1, ((1, 5, 7), (1, 5, 7)), float),   # would broadcast the (5, 1) result
    (7, ((5, 7, 1), (1, 5, 7)), float),
    (7, ((1, 5, 7), (1, 5, 7)), np.float32),
], ids=["transposed", "one-column", "one-row", "too-wide", "three-axes",
        "float32"])
def test_workspace_of_the_wrong_shape_or_dtype_raises(n_b, shapes, dtype):
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(5, 3)), rng.normal(size=(n_b, 3))
    work = tuple(np.zeros(s, dtype) for s in shapes)
    with pytest.raises(ValueError, match="workspace"):
        GaussianKernel(sigma=1.0).gram(a, b, work=work)
    assert not any(w.any() for w in work)


def test_factor_workspace_that_does_not_fit_raises():
    rng = np.random.default_rng(6)
    a, b = rng.normal(size=(5, 3)), rng.normal(size=(7, 3))
    kernel = GaussianKernel(sigma=1.0, sigma2=0.5)
    for n, factors in ((1, kernel.gram), (2, kernel.gram_pair),
                       (3, kernel.gram_triple)):
        e, f = kernel.factor_workspace((5, 7), n)
        assert (e.shape, f.shape) == ((2, 5, 7), (n, 5, 7))
        for work in ((e[:1], f),                              # one Gaussian
                     (e, np.zeros((n, 7, 5))),                # transposed
                     (e, np.zeros((n + 1, 5, 7))),            # another n
                     (e, np.zeros((n, 5, 14))[:, :, ::2]),    # not contiguous
                     (e, np.zeros((n, 5, 7), np.float32)),
                     (e[0], f[0])):                           # two axes
            with pytest.raises(ValueError, match="workspace"):
                factors(a, b, work=work)
