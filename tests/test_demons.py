import numpy as np
import pytest

from fos import demons
from fos.demons import (DemonsConfig, SurfaceProjector,
                        groupwise_template, register_functions,
                        surface_gradient, vertex_gradient)
from fos.synthdata import (c_shape_images, ellipsoid_patch,
                           graph_geodesic_distances, icosphere)
from fos.tangent_fem import build_frames
from test_tangent_fem import mixed_solve_update


def resample(proj, points, values):
    """Vertex values interpolated at the closest surface points."""
    _, fidx, bary = proj.project(points)
    return proj.interpolate_at(fidx, bary, values)


def test_surface_gradient_of_linear_function_is_exact():
    mesh = icosphere(2)
    coeff = np.array([0.7, -0.3, 1.1])
    values = mesh.vertices @ coeff
    g = surface_gradient(mesh, values)
    # per-face gradient equals the tangential part of the ambient gradient
    n = mesh.face_normals
    expected = coeff[None, :] - (n @ coeff)[:, None] * n
    assert np.abs(g - expected).max() <= 1e-10


def test_vertex_gradient_lives_in_tangent_plane():
    mesh = icosphere(2)
    atlas = build_frames(mesh)
    values = mesh.vertices[:, 2] ** 2
    ambient = atlas.to_ambient(vertex_gradient(mesh, values, atlas))
    assert np.abs(np.sum(ambient * atlas.normals, axis=1)).max() <= 1e-12


def test_projector_identity_on_vertices():
    mesh = icosphere(2)
    proj = SurfaceProjector(mesh)
    p, fidx, bary = proj.project(mesh.vertices)
    assert np.abs(p - mesh.vertices).max() <= 1e-12
    # interpolation of vertex coordinates reproduces the vertices
    assert np.abs(proj.interpolate_at(fidx, bary, mesh.vertices)
                  - mesh.vertices).max() <= 1e-12


def test_projector_recovers_nearby_offsets():
    mesh = icosphere(3)
    rng = np.random.default_rng(0)
    base = mesh.face_centers[rng.choice(mesh.n_faces, 50, replace=False)]
    pushed = base * 1.02
    p, _, _ = SurfaceProjector(mesh).project(pushed)
    # closest point of a radially offset center is near, not exactly at,
    # the center (the face is not perpendicular to the offset direction)
    assert np.linalg.norm(p - base, axis=1).max() <= 1e-3


def test_vertex_map_apply_reproduces_registration():
    # s(vertices) replayed from the stored updates carries the moving
    # field onto the warped values the registration returned (up to the
    # rounding of projecting the replayed points once more)
    mesh = icosphere(2)
    src = int(np.argmax(mesh.vertices[:, 2]))
    fixed = np.exp(-graph_geodesic_distances(mesh, src) ** 2 / 0.25)
    proj = SurfaceProjector(mesh)
    moving = resample(proj, mesh.vertices + np.array([0.1, -0.05, 0.0]),
                      fixed)
    res = register_functions(mesh, moving, fixed,
                             DemonsConfig(lam=0.5, max_iterations=5))
    assert len(res.mapping.updates) > 0
    moved = res.mapping.apply(mesh.vertices)
    assert np.abs(moving - res.warped.values).max() > 0.1
    assert np.abs(resample(proj, moved, moving)
                  - res.warped.values).max() <= 1e-12


def test_register_functions_reduces_ssd():
    mesh = icosphere(3)
    src = int(np.argmax(mesh.vertices[:, 2]))
    d = graph_geodesic_distances(mesh, src)
    fixed = np.exp(-d ** 2 / 0.18)
    # moving: same bump around a slightly rotated location
    th = 0.25
    rot = np.array([[np.cos(th), -np.sin(th), 0],
                    [np.sin(th), np.cos(th), 0], [0, 0, 1]])
    proj = SurfaceProjector(mesh)
    moving = resample(proj, mesh.vertices @ rot.T, fixed)
    cfg = DemonsConfig(lam=0.2, max_iterations=40)
    res = register_functions(mesh, moving, fixed, cfg)
    assert res.ssd_trace[-1] <= 0.25 * res.ssd_trace[0]
    assert np.all(np.diff(res.ssd_trace) <= 1e-12)


def test_register_identical_fields_is_noop():
    mesh = icosphere(2)
    values = mesh.vertices[:, 0]
    res = register_functions(mesh, values, values,
                             DemonsConfig(lam=1.0, max_iterations=5))
    assert res.converged
    assert len(res.mapping.updates) == 0 or \
        max(np.abs(u).max() for u in res.mapping.updates) <= 1e-10


def test_config_validation():
    with pytest.raises(ValueError):
        DemonsConfig(lam=0.0)


def test_groupwise_template_reduces_spread():
    mesh = icosphere(2)
    src = int(np.argmax(mesh.vertices[:, 2]))
    d = graph_geodesic_distances(mesh, src)
    rng = np.random.default_rng(2)
    fields = []
    for _ in range(4):
        shift = 0.15 * rng.normal(size=3)
        proj = SurfaceProjector(mesh)
        f = np.exp(-d ** 2 / 0.25)
        fields.append(resample(proj, mesh.vertices + shift, f))
    template, results, aligned = groupwise_template(
        mesh, fields, config=DemonsConfig(lam=0.5, max_iterations=10))
    spread0 = np.var(np.asarray(fields), axis=0).mean()
    spread1 = np.var(np.asarray(aligned), axis=0).mean()
    assert spread1 < spread0
    assert template.shape == (mesh.n_vertices,)


def shifted_bumps_on_a_patch():
    """An open patch and four copies of a bump at its centre, each
    resampled at the vertices shifted by a random offset."""
    patch = ellipsoid_patch(2)
    src = int(np.argmin(np.linalg.norm(patch.vertices
                                       - patch.vertices.mean(axis=0), axis=1)))
    bump = np.exp(-graph_geodesic_distances(patch, src) ** 2 / 0.1)
    proj = SurfaceProjector(patch)
    rng = np.random.default_rng(5)
    return patch, [resample(proj, patch.vertices + 0.1 * rng.normal(size=3),
                            bump) for _ in range(4)]


def test_groupwise_template_holds_the_boundary_fixed():
    # a zero update keeps a boundary vertex attached to itself, so its
    # aligned value is its input value, bit for bit
    patch, fields = shifted_bumps_on_a_patch()
    _, mappings, aligned = groupwise_template(
        patch, fields, DemonsConfig(lam=3.0, max_iterations=3))
    edge = patch.boundary_vertices
    for field, out, mapping in zip(fields, aligned, mappings):
        assert mapping.updates
        assert np.array_equal(out[edge], field[edge])
        assert not np.allclose(out[~edge], field[~edge])


def test_updates_match_the_mixed_solve(monkeypatch):
    # groupwise on an open patch, then a single registration on a sphere,
    # in one process: each surface and each lambda must get its own
    # eliminated regulariser
    patch, fields = shifted_bumps_on_a_patch()
    sphere = icosphere(2)
    moving, fixed = c_shape_images(sphere)

    def run():
        _, _, aligned = groupwise_template(
            patch, fields, DemonsConfig(lam=3.0, max_iterations=3))
        res = register_functions(sphere, moving, fixed,
                                 DemonsConfig(lam=0.2, max_iterations=5))
        return np.asarray(aligned), res

    aligned, res = run()
    monkeypatch.setattr(demons, "solve_update", mixed_solve_update)
    ref_aligned, ref_res = run()

    def rel(a, b):
        return np.abs(a - b).max() / np.abs(b).max()

    assert rel(np.asarray(fields), ref_aligned) > 1e-3
    assert len(ref_res.ssd_trace) == 6
    assert rel(aligned, ref_aligned) <= 1e-10
    assert rel(res.warped.values, ref_res.warped.values) <= 1e-10
    assert rel(res.ssd_trace, ref_res.ssd_trace) <= 1e-10
