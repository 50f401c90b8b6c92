import numpy as np
import pytest

from fos.kernels import GaussianKernel, default_deformation_kernel
from fos import lddmm
from fos.lddmm import (InitialMomenta, ShootingError, _rhs, _rhs_vjp,
                       flow_points, shoot, shoot_gradient)
from fos.synthdata import (SimSpec, ellipsoid_patch, make_modes,
                           make_template, refine_mesh)
from test_kernels import assert_close, plain_factors, plain_sqdist


def small_system(seed=0, k=12, sigma=0.8, scale=0.3):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(k, 3))
    mom = scale * rng.normal(size=(k, 3))
    return InitialMomenta(pts, mom, GaussianKernel(sigma=sigma))


def path_energies(path):
    """Instantaneous energy sum_kl a_k . a_l K(c_k, c_l) at every node."""
    out = np.empty(path.steps + 1)
    for t in range(path.steps + 1):
        gram = path.kernel.gram(path.points[t])
        out[t] = np.sum((gram @ path.momenta[t]) * path.momenta[t])
    return out


def recomputing_shoot_gradient(path, cbar_end):
    """The adjoint that integrates the forward RK2 midpoints again."""
    dt = 1.0 / path.steps
    cb = np.asarray(cbar_end, float).copy()
    ab = np.zeros_like(cb)
    kernel = path.kernel
    work = kernel.factor_workspace((len(cb), len(cb)), 3)
    for t in range(path.steps - 1, -1, -1):
        c, a = path.points[t], path.momenta[t]
        dc, da = _rhs(kernel, c, a)
        cm, am = c + 0.5 * dt * dc, a + 0.5 * dt * da
        cmb, amb = _rhs_vjp(kernel, cm, am, cb, ab, work)
        cmb *= dt
        amb *= dt
        cyb, ayb = _rhs_vjp(kernel, c, a, cmb, amb, work)
        cb = cb + cmb + 0.5 * dt * cyb
        ab = ab + amb + 0.5 * dt * ayb
    return cb, ab


def plain_shoot(v0, steps):
    """The shooting loop with a copy of each state in a list and one
    restack at the end, kept as the oracle for `shoot`'s in-place path."""
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
        cs.append(c.copy())
        As.append(a.copy())
        cms.append(cm)
        ams.append(am)
    return np.array(cs), np.array(As), np.array(cms), np.array(ams)


def plain_velocity(kernel, x, c, a):
    """v(x) = sum_k K(x, c_k) a_k from the out-of-place kernel formula."""
    return plain_factors(kernel, plain_sqdist(x, c), 0)[0] @ a


def advect(kernel, c0, a0, x0, dt, steps):
    """Controls and passive points integrated jointly with midpoint RK2;
    the passive velocities do not go through the kernels module."""
    c, a, x = c0.copy(), a0.copy(), x0.copy()
    for _ in range(steps):
        dc, da = _rhs(kernel, c, a)
        dx = plain_velocity(kernel, x, c, a)
        cm, am, xm = c + 0.5 * dt * dc, a + 0.5 * dt * da, x + 0.5 * dt * dx
        dc, da = _rhs(kernel, cm, am)
        dx = plain_velocity(kernel, xm, cm, am)
        c, a, x = c + dt * dc, a + dt * da, x + dt * dx
    return c, a, x


def test_validation():
    kern = GaussianKernel(sigma=1.0)
    with pytest.raises(ValueError):
        InitialMomenta(np.zeros((3, 3)), np.zeros((2, 3)), kern)
    with pytest.raises(ValueError):
        InitialMomenta(np.zeros((0, 3)), np.zeros((0, 3)), kern)
    with pytest.raises(ValueError):
        shoot(small_system(), steps=0)


def test_zero_momenta_is_identity():
    v0 = small_system()
    v0 = InitialMomenta(v0.control_points, np.zeros_like(v0.momenta), v0.kernel)
    path = shoot(v0, 10)
    assert np.allclose(path.points[-1], v0.control_points)
    assert np.allclose(path.momenta[-1], 0.0)


def test_energy_conserved_along_geodesic():
    v0 = small_system(seed=1, sigma=1.2, scale=0.15)
    path = shoot(v0, 200)
    e = path_energies(path)
    assert e.std() / e.mean() <= 5e-3


def test_convergence_under_step_refinement():
    v0 = small_system(seed=2)
    coarse = shoot(v0, 20).points[-1]
    fine = shoot(v0, 160).points[-1]
    finer = shoot(v0, 320).points[-1]
    # RK2: halving the step shrinks the error by about 4
    err1 = np.abs(coarse - finer).max()
    err2 = np.abs(fine - finer).max()
    assert err2 < err1 / 10


def test_flow_points_matches_control_trajectories():
    v0 = small_system(seed=3)
    path = shoot(v0, 40)
    moved = flow_points(path, v0.control_points)
    assert np.allclose(moved, path.points[-1], atol=1e-12)
    # the generator's size (K=271, its kernel and modes, two standard
    # deviations of each score), where the subject meshes take the control
    # points' images from the shoot in place of their flow
    spec = SimSpec()
    template = make_template(spec)
    kernel = default_deformation_kernel(template, spec.kernel_large,
                                        spec.kernel_small)
    modes = make_modes(template, kernel, 0, template)
    alpha = -2 * spec.sigma1 * modes.psi1_g.momenta \
        + 2 * spec.sigma2 * modes.psi2_g.momenta
    path = shoot(InitialMomenta(template.vertices, alpha, kernel),
                 spec.shooting_steps)
    end = path.points[-1]
    assert template.n_vertices == 271
    assert np.abs(flow_points(path, template.vertices) - end).max() \
        <= 1e-13 * np.abs(end).max()


def whole_block_flow(path, points):
    """The flow with one (points x controls) kernel block per velocity,
    kept as the oracle for `flow_points`' row tiles."""
    x = np.asarray(points, float)
    dt = 1.0 / path.steps
    kernel = path.kernel
    work = kernel.factor_workspace((len(x), path.points.shape[1]), 1)
    for t in range(path.steps):
        dx = kernel.gram(x, path.points[t], work=work) @ path.momenta[t]
        xm = x + 0.5 * dt * dx
        dx = kernel.gram(xm, path.mid_points[t], work=work) \
            @ path.mid_momenta[t]
        x = x + dt * dx
    return x


def tiled_flows(monkeypatch, path, points, tile_rows):
    """flow_points with tiles of each height in tile_rows, and the
    number of kernel blocks each flow formed."""
    gram = GaussianKernel.gram
    blocks = []

    def counting_gram(self, *args, **kwargs):
        blocks[-1] += 1
        return gram(self, *args, **kwargs)

    monkeypatch.setattr(GaussianKernel, "gram", counting_gram)
    flows = []
    for rows in tile_rows:
        monkeypatch.setattr(lddmm, "TILE_BYTES",
                            8 * path.points.shape[1] * rows)
        blocks.append(0)
        flows.append(flow_points(path, points))
    return flows, blocks


def test_flow_points_in_one_tile_is_the_whole_block_flow(monkeypatch):
    # the population size: K=73 controls, 267 observation vertices, one
    # tile under the module's TILE_BYTES
    template = make_template(SimSpec(subdivisions=2))
    obs = refine_mesh(template, 1)
    assert (template.n_vertices, obs.n_vertices) == (73, 267)
    rows = lddmm.TILE_BYTES // (8 * 73)
    assert rows >= 267
    rng = np.random.default_rng(3)
    v0 = InitialMomenta(template.vertices,
                        0.05 * rng.normal(size=template.vertices.shape),
                        default_deformation_kernel(template))
    path = shoot(v0, 10)
    (got,), blocks = tiled_flows(monkeypatch, path, obs.vertices, [rows])
    assert blocks == [20]
    assert np.array_equal(got, whole_block_flow(path, obs.vertices))


def test_flow_points_in_several_tiles_matches_the_whole_block_flow(
        monkeypatch):
    # 40 points in tiles of 7 rows (the last of 5), 8 and 20, and of 39
    # (the last of 1)
    v0 = small_system(seed=4, k=12)
    path = shoot(v0, 10)
    pts = np.random.default_rng(4).normal(size=(40, 3))
    want = whole_block_flow(path, pts)
    flows, blocks = tiled_flows(monkeypatch, path, pts, [7, 8, 20, 39])
    assert blocks == [20 * n for n in (6, 5, 2, 2)]
    for got in flows:
        assert np.abs(got - pts).max() > 0.1
        assert_close(got, want)


def test_in_place_path_is_bit_identical_to_the_list_loop():
    # the K=73 template under the pipeline's default two-Gaussian kernel
    template = make_template(SimSpec(subdivisions=2))
    assert template.n_vertices == 73
    rng = np.random.default_rng(11)
    v0 = InitialMomenta(template.vertices,
                        0.05 * rng.normal(size=template.vertices.shape),
                        default_deformation_kernel(template))
    path = shoot(v0, 10)
    got = (path.points, path.momenta, path.mid_points, path.mid_momenta)
    for g, want in zip(got, plain_shoot(v0, 10)):
        assert g.shape == want.shape
        assert np.array_equal(g, want)


def test_stored_midpoints_reproduce_recomputed_integration():
    # a K=73 template with two-Gaussian kernel, as the pipeline registers
    mesh = ellipsoid_patch(2)
    kern = GaussianKernel(sigma=0.8, sigma2=0.2, weight=1.0)
    rng = np.random.default_rng(1)
    v0 = InitialMomenta(mesh.vertices,
                        0.05 * rng.normal(size=mesh.vertices.shape), kern)
    path = shoot(v0, 10)
    assert path.mid_points.shape == path.mid_momenta.shape == \
        (10,) + mesh.vertices.shape
    w = rng.normal(size=mesh.vertices.shape)
    for got, want in zip(shoot_gradient(path, w),
                         recomputing_shoot_gradient(path, w)):
        assert np.array_equal(got, want)
    pts = rng.normal(size=(40, 3))
    c, a, x = advect(kern, path.points[0], path.momenta[0], pts, 0.1, 10)
    assert np.array_equal(c, path.points[-1])
    assert np.array_equal(a, path.momenta[-1])
    assert_close(flow_points(path, pts), x)


@pytest.mark.parametrize("two_gaussians", [True, False],
                         ids=["default-kernel", "one-gaussian"])
def test_flow_points_at_the_generator_size_matches_joint_advection(
        two_gaussians):
    # the simulate stage's flow: K=271 controls, 1,037 observation vertices
    template = make_template(SimSpec(subdivisions=3))
    obs = refine_mesh(template, 1)
    assert (template.n_vertices, obs.n_vertices) == (271, 1037)
    kern = default_deformation_kernel(template)
    if not two_gaussians:
        kern = GaussianKernel(sigma=kern.sigma)
    rng = np.random.default_rng(5)
    v0 = InitialMomenta(template.vertices,
                        0.05 * rng.normal(size=template.vertices.shape), kern)
    path = shoot(v0, 10)
    c, a, x = advect(kern, path.points[0], path.momenta[0], obs.vertices,
                     0.1, 10)
    assert np.array_equal(c, path.points[-1])
    assert np.array_equal(a, path.momenta[-1])
    assert np.abs(x - obs.vertices).max() > 0.1
    assert_close(flow_points(path, obs.vertices), x)


def test_shoot_gradient_matches_finite_differences():
    v0 = small_system(seed=7, k=8, scale=0.25)
    rng = np.random.default_rng(8)
    w = rng.normal(size=v0.control_points.shape)   # random endpoint functional

    def value(mom):
        path = shoot(InitialMomenta(v0.control_points, mom, v0.kernel), 10)
        return float(np.sum(w * path.points[-1]))

    path = shoot(v0, 10)
    _, grad = shoot_gradient(path, w)
    eps = 1e-6
    fd = np.zeros_like(grad)
    for i in range(grad.shape[0]):
        for d in range(3):
            dm = np.zeros_like(v0.momenta)
            dm[i, d] = eps
            fd[i, d] = (value(v0.momenta + dm) - value(v0.momenta - dm)) / (2 * eps)
    rel = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
    assert rel <= 1e-6


def test_divergence_raises():
    """Two points 0.1 apart under sigma = 0.1, at momenta 1e8 and 1e200.
    At 1e8 the state turns non-finite only through the cancellation in
    |a|^2 + |b|^2 - 2a.b of the uncentred exponent; centring the
    expansion (ROADMAP, "Centered Gaussian blocks") keeps that case
    finite. At 1e200, a.a is already inf, so the state overflows wherever
    the expansion's origin lies."""
    pts = np.zeros((2, 3))
    pts[1, 0] = 0.1
    for scale in (1e8, 1e200):
        v0 = InitialMomenta(pts, scale * np.ones((2, 3)),
                            GaussianKernel(sigma=0.1))
        with pytest.raises(ShootingError), np.errstate(all="ignore"):
            shoot(v0, 5)


def plain_rhs(kernel, c, a):
    """_rhs written with out-of-place products and the plain kernel formula."""
    gram, gfac = plain_factors(kernel, plain_sqdist(c), 0, 1)
    s = gfac * (a @ a.T)
    return gram @ a, -0.5 * (c * s.sum(axis=1)[:, None] - s @ c)


def plain_rhs_vjp(kernel, c, a, p, q):
    """_rhs_vjp written with out-of-place products and the plain kernel
    formula."""
    k, g, g2 = plain_factors(kernel, plain_sqdist(c), 0, 1, 2)
    s = a @ a.T
    qc_diff = np.sum(q * c, axis=1)[:, None] - q @ c.T
    s1 = g * (p @ a.T)
    cbar = c * (s1.sum(axis=1) + s1.sum(axis=0))[:, None] - s1 @ c - s1.T @ c
    abar = k @ p
    u = g * qc_diff
    abar += -0.5 * (u @ a + u.T @ a)
    w = 2.0 * g2 * s * qc_diff
    t = g * s
    cbar += -0.5 * (c * (w.sum(axis=1) + w.sum(axis=0))[:, None]
                    - w @ c - w.T @ c
                    + q * t.sum(axis=1)[:, None] - t.T @ q)
    return cbar, abar


def rhs_inputs(seed):
    """The K=73 template's vertices as control points under a two-Gaussian
    kernel, with random momenta and cotangents."""
    mesh = ellipsoid_patch(2)
    kern = GaussianKernel(sigma=0.8, sigma2=0.2, weight=1.0)
    rng = np.random.default_rng(seed)
    c = mesh.vertices
    return kern, c, *(rng.normal(size=c.shape) for _ in range(3))


def test_rhs_matches_the_plain_expressions():
    kern, c, a, _, _ = rhs_inputs(6)
    for got, want in zip(_rhs(kern, c, a), plain_rhs(kern, c, a)):
        assert_close(got, want)


def test_rhs_vjp_matches_the_plain_expressions():
    kern, c, a, p, q = rhs_inputs(7)
    work = kern.factor_workspace((len(c), len(c)), 3)
    for got, want in zip(_rhs_vjp(kern, c, a, p, q, work),
                         plain_rhs_vjp(kern, c, a, p, q)):
        assert_close(got, want)


def allocating_rhs_vjp(kernel, c, a, p, q):
    """_rhs_vjp with its kernel blocks and k x k temporaries allocated at
    every call, kept as the oracle for the adjoint's workspace."""
    k, g, g2 = kernel.gram_triple(c)
    a_t = np.ascontiguousarray(a.T)
    c1 = lddmm._extended(c, 1.0)
    c1_t = np.ascontiguousarray(c1.T)
    s = a @ a_t
    q1 = lddmm._extended(q, -np.sum(q * c, axis=1))
    d = q1 @ c1_t
    w = p @ a_t
    w *= g
    g2 *= s
    g2 *= d
    w += g2
    t = np.multiply(g, s, out=s)
    u = np.multiply(g, d, out=d)
    wc = w @ c1 + (c1_t @ w).T                      # (W + W^T) @ [c, 1]
    q1[:, 3] = 1.0
    tq = t @ q1
    cbar = c * wc[:, 3:] - wc[:, :3] - 0.5 * (q * tq[:, 3:] - tq[:, :3])
    return cbar, k @ p + 0.5 * (u @ a + (a_t @ u).T)


def allocating_shoot_gradient(path, cbar_end):
    """The adjoint loop on `allocating_rhs_vjp`."""
    dt = 1.0 / path.steps
    cb = np.asarray(cbar_end, float).copy()
    ab = np.zeros_like(cb)
    for t in range(path.steps - 1, -1, -1):
        cmb, amb = allocating_rhs_vjp(path.kernel, path.mid_points[t],
                                      path.mid_momenta[t], cb, ab)
        cmb *= dt
        amb *= dt
        cyb, ayb = allocating_rhs_vjp(path.kernel, path.points[t],
                                      path.momenta[t], cmb, amb)
        cb = cb + cmb + 0.5 * dt * cyb
        ab = ab + amb + 0.5 * dt * ayb
    return cb, ab


@pytest.mark.parametrize("kind", ["two-gaussians", "one-gaussian",
                                  "weight-0.3"])
def test_shoot_gradient_in_its_workspace_is_bit_identical(kind):
    # the K=73 template under the pipeline's default kernel, its first
    # Gaussian alone, and the two with a second weight that is not 1
    template = make_template(SimSpec(subdivisions=2))
    assert template.n_vertices == 73
    kern = default_deformation_kernel(template)
    kern = {"two-gaussians": kern,
            "one-gaussian": GaussianKernel(kern.sigma),
            "weight-0.3": GaussianKernel(kern.sigma, kern.sigma2, 0.3)}[kind]
    rng = np.random.default_rng(12)
    v0 = InitialMomenta(template.vertices,
                        0.05 * rng.normal(size=template.vertices.shape), kern)
    path = shoot(v0, 10)
    w = rng.normal(size=template.vertices.shape)
    for got, want in zip(shoot_gradient(path, w),
                         allocating_shoot_gradient(path, w)):
        assert np.abs(got).max() > 0
        assert np.array_equal(got, want)
