import numpy as np
import pytest

from fos import demons
from fos.demons import (DemonsConfig, SurfaceProjector, gradient_operator,
                        groupwise_template, register_functions,
                        surface_gradient, vertex_gradient)
from fos.mesh import _dot
from fos.synthdata import (SimSpec, c_shape_images, ellipsoid_patch,
                           graph_geodesic_distances, icosphere, make_template)
from fos.tangent_fem import build_frames
from test_tangent_fem import mixed_solve_update, to_frame


def _closest_on_triangles(p, a, b, c):
    """Barycentric coordinates (..., 3) of the closest point to p on the
    triangles (a, b, c); all inputs broadcast to (..., 3). Ericson's
    Voronoi-region test with every difference formed from the corners,
    one np.where over the stacked coordinates per region: the reference
    SurfaceProjector.project is checked against."""
    ab, ac, ap = b - a, c - a, p - a
    d1, d2 = _dot(ab, ap), _dot(ac, ap)
    bp = p - b
    d3, d4 = _dot(ab, bp), _dot(ac, bp)
    cp = p - c
    d5, d6 = _dot(ab, cp), _dot(ac, cp)
    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2

    with np.errstate(divide="ignore", invalid="ignore"):
        t_ab = d1 / (d1 - d3)
        t_ac = d2 / (d2 - d6)
        t_bc = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        denom = va + vb + vc
        v_in = vb / denom
        w_in = vc / denom
    for t in (t_ab, t_ac, t_bc, v_in, w_in):
        np.nan_to_num(t, copy=False)

    zero = np.zeros_like(t_ab)
    bary = np.stack([1.0 - v_in - w_in, v_in, w_in], axis=-1)  # interior
    # a later region takes precedence over an earlier one
    for region, weights in (
            ((va <= 0) & ((d4 - d3) >= 0) & ((d5 - d6) >= 0),
             np.stack([zero, 1.0 - t_bc, t_bc], axis=-1)),
            ((vb <= 0) & (d2 >= 0) & (d6 <= 0),
             np.stack([1.0 - t_ac, zero, t_ac], axis=-1)),
            ((vc <= 0) & (d1 >= 0) & (d3 <= 0),
             np.stack([1.0 - t_ab, t_ab, zero], axis=-1)),
            ((d6 >= 0) & (d5 <= d6), np.eye(3)[2]),
            ((d3 >= 0) & (d4 <= d3), np.eye(3)[1]),
            ((d1 <= 0) & (d2 <= 0), np.eye(3)[0])):
        bary = np.where(region[..., None], weights, bary)
    return bary


def pushed_off_boundary_sides(mesh, dist):
    """The midpoint of every boundary side pushed `dist` outward in its
    face's plane, with the side's rows of mesh.edges, its face and its
    index s in the face (row r is side (s, s + 1) of face r % F)."""
    sides = np.sort(mesh.edges, axis=1)
    _, inv, counts = np.unique(sides, axis=0, return_inverse=True,
                               return_counts=True)
    rows = np.flatnonzero(counts[inv] == 1)
    face, side = rows % mesh.n_faces, rows // mesh.n_faces
    ends = mesh.vertices[mesh.edges[rows]]
    out = np.cross(ends[:, 1] - ends[:, 0], mesh.face_normals[face])
    points = ends.mean(axis=1) \
        + dist * out / np.linalg.norm(out, axis=1)[:, None]
    return points, rows, face, side


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
    ambient = atlas.to_ambient(
        vertex_gradient(gradient_operator(mesh, atlas), values))
    assert np.abs(np.sum(ambient * mesh.vertex_normals, axis=1)).max() \
        <= 1e-12


@pytest.mark.parametrize("mesh", [icosphere(2), ellipsoid_patch(2)],
                         ids=["icosphere2", "patch2"])
def test_gradient_operator_averages_the_face_gradients(mesh):
    # the operator's product is the area-weighted one-ring average of the
    # face gradients, projected to the vertex frames
    atlas = build_frames(mesh)
    values = np.random.default_rng(3).normal(size=mesh.n_vertices)
    wa = mesh.face_areas
    ref = to_frame(atlas, (mesh.incidence
                           @ (wa[:, None] * surface_gradient(mesh, values)))
                   / (mesh.incidence @ wa)[:, None])
    got = vertex_gradient(gradient_operator(mesh, atlas), values)
    assert got.shape == (mesh.n_vertices, 2)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_surface_geometry_is_built_once_per_registration(monkeypatch):
    # the projector tables and the gradient operator are built by the
    # set-up of each registration, never by an update
    built = {"projector": 0, "operator": 0}
    init = SurfaceProjector.__init__

    def counting_init(self, mesh):
        built["projector"] += 1
        init(self, mesh)

    def counting_operator(mesh, atlas):
        built["operator"] += 1
        return gradient_operator(mesh, atlas)

    monkeypatch.setattr(SurfaceProjector, "__init__", counting_init)
    monkeypatch.setattr(demons, "gradient_operator", counting_operator)
    sphere = icosphere(1)
    moving, fixed = c_shape_images(sphere)
    cfg = DemonsConfig(lam=0.2, max_iterations=3)
    res = register_functions(sphere, moving, fixed, cfg)
    assert len(res.mapping.updates) == 3
    assert built == {"projector": 1, "operator": 1}
    _, mappings, _ = groupwise_template(
        sphere, [moving.values, fixed.values], cfg)
    assert sum(len(m.updates) for m in mappings) > 2
    assert built == {"projector": 2, "operator": 2}


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


def test_projection_past_a_boundary_side_lands_on_it():
    # a point pushed off a boundary side, in its face's plane, projects to
    # that side: the third corner's weight is exactly zero
    mesh = ellipsoid_patch(2)
    points, rows, face, side = pushed_off_boundary_sides(mesh, 0.05)
    assert len(rows) == 22
    _, fidx, bary = SurfaceProjector(mesh).project(points)
    assert np.array_equal(fidx, face)
    assert np.all(bary[np.arange(len(rows)), (side + 2) % 3] == 0.0)


@pytest.mark.parametrize("mesh", [icosphere(2), ellipsoid_patch(2),
                                  make_template(SimSpec(subdivisions=3))],
                         ids=["icosphere2", "patch2", "template271"])
def test_projection_matches_the_closest_point_over_all_faces(mesh):
    # near-surface points and points off the boundary sides project to the
    # global closest point, found by the reference region test over every
    # face
    rng = np.random.default_rng(7)
    h = float(mesh.edge_lengths.mean())
    tri = mesh.vertices[mesh.faces]
    on = np.einsum("ni,nij->nj", rng.dirichlet(np.ones(3), size=400),
                   tri[rng.integers(mesh.n_faces, size=400)])
    off = rng.normal(size=(400, 3))
    off *= 0.3 * h * rng.random((400, 1)) \
        / np.linalg.norm(off, axis=1)[:, None]
    points = np.concatenate([on + off,
                             pushed_off_boundary_sides(mesh, 0.3 * h)[0]])
    proj = SurfaceProjector(mesh)
    q, fidx, bary = proj.project(points)

    ref = _closest_on_triangles(points[:, None], tri[:, 0], tri[:, 1],
                                tri[:, 2])
    nearest = np.linalg.norm(points[:, None]
                             - np.einsum("nfi,fij->nfj", ref, tri),
                             axis=2).min(axis=1)
    dist = np.linalg.norm(points - q, axis=1)
    assert np.abs(dist - nearest).max() <= 1e-12 * h
    assert np.all(bary >= 0.0)
    assert np.abs(bary.sum(axis=1) - 1.0).max() <= 1e-15
    assert np.abs(proj.interpolate_at(fidx, bary, mesh.vertices) - q).max() \
        <= 1e-15 * h

    # every vertex attaches to itself with a one-hot coordinate, on the
    # lowest-index face incident to it: its faces tie, at distance 0
    q, fidx, bary = proj.project(mesh.vertices)
    assert np.array_equal(q, mesh.vertices)
    own = mesh.faces[fidx] == np.arange(mesh.n_vertices)[:, None]
    assert np.all(own.sum(axis=1) == 1)
    assert np.array_equal(bary, own.astype(float))
    lowest = np.full(mesh.n_vertices, mesh.n_faces)
    np.minimum.at(lowest, mesh.faces, np.arange(mesh.n_faces)[:, None])
    assert np.array_equal(fidx, lowest)


def test_vertex_map_attachments_reproduce_registration():
    # the moving field interpolated at the map's final attachments is the
    # warped field the registration returned, bit for bit
    mesh = icosphere(2)
    src = int(np.argmax(mesh.vertices[:, 2]))
    fixed = np.exp(-graph_geodesic_distances(mesh, src) ** 2 / 0.25)
    proj = SurfaceProjector(mesh)
    moving = resample(proj, mesh.vertices + np.array([0.1, -0.05, 0.0]),
                      fixed)
    res = register_functions(mesh, moving, fixed,
                             DemonsConfig(lam=0.5, max_iterations=5))
    mapping = res.mapping
    assert len(mapping.updates) > 0
    assert np.abs(moving - res.warped.values).max() > 0.1
    assert np.array_equal(
        proj.interpolate_at(mapping.faces, mapping.bary, moving),
        res.warped.values)


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
    assert max(res.mapping.updates, default=0.0) <= 1e-10


def test_config_validation():
    with pytest.raises(ValueError):
        DemonsConfig(lam=0.0)
    with pytest.raises(ValueError, match="max_iterations"):
        DemonsConfig(max_iterations=0)


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


def test_groupwise_template_checks_every_field():
    mesh = icosphere(1)
    k = mesh.n_vertices
    ragged = [np.zeros(k), np.zeros(k + 1), np.zeros(k)]
    with pytest.raises(ValueError, match="field 1 "):
        groupwise_template(mesh, ragged)
    with pytest.raises(ValueError, match="field 0 "):
        groupwise_template(mesh, [np.zeros(k - 1)] * 3)


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
    # aligned value is its input value, bit for bit; every map's
    # attachments carry its input field onto its aligned field
    patch, fields = shifted_bumps_on_a_patch()
    _, mappings, aligned = groupwise_template(
        patch, fields, DemonsConfig(lam=3.0, max_iterations=3))
    proj = SurfaceProjector(patch)
    edge = patch.boundary_vertices
    corner = np.flatnonzero(edge)[:, None]
    for field, out, mapping in zip(fields, aligned, mappings):
        assert mapping.updates
        assert np.array_equal(
            proj.interpolate_at(mapping.faces, mapping.bary, field), out)
        assert np.array_equal(mapping.points[edge], patch.vertices[edge])
        own = patch.faces[mapping.faces[edge]] == corner
        assert np.all(mapping.bary[edge][own] == 1.0)
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
