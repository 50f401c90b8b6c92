import numpy as np
import pytest

from fos.mesh import (MeshError, ScalarField, TriangleMesh,
                      consistent_mass, cotangent_stiffness, load_field,
                      load_mesh, lumped_mass, save_field, save_mesh)
from fos.synthdata import ellipsoid_patch, icosphere
from fos.tangent_fem import assemble_connection_matrices, build_frames
from test_tangent_fem import flat_patch


def unit_triangle():
    return TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])


def test_face_geometry():
    mesh = unit_triangle()
    assert np.isclose(mesh.total_area, 0.5)
    assert np.allclose(mesh.face_normals[0], [0, 0, 1])
    assert np.allclose(mesh.face_centers[0], [1 / 3, 1 / 3, 0])
    assert np.allclose(mesh.face_area_normals[0], [0, 0, 0.5])


def test_invalid_meshes_raise():
    with pytest.raises(MeshError):
        TriangleMesh([[0, 0, 0], [1, 0, 0]], [[0, 1, 1]])  # degenerate
    with pytest.raises(MeshError):
        TriangleMesh([[0, 0, 0]], [[0, 1, 2]])             # out of range
    with pytest.raises(MeshError):
        TriangleMesh([[0, 0]], [])                         # bad shape
    with pytest.raises(MeshError):
        TriangleMesh([[np.nan, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])


def test_boundary_detection():
    closed = icosphere(1)
    assert not closed.boundary_vertices.any()
    patch = ellipsoid_patch(2)
    assert patch.boundary_vertices.any()
    assert not patch.boundary_vertices.all()


def test_lumped_mass_partitions_total_area():
    mesh = ellipsoid_patch(2)
    assert np.isclose(lumped_mass(mesh).sum(), mesh.total_area)


def element_operators(mesh):
    """Dense stiffness, consistent mass, lumped mass and connection
    stiffness R1 summed face by face from the linear-element formulas:
    hat-function gradients n x e_i / 2A (e_i the edge opposite corner i),
    mass A/12 (1 + delta_ij), lumping by row sums, and each face's share
    w = -K_e[a, b] of |u_b - T_ab u_a|^2 on its edges (a, b)."""
    n = mesh.n_vertices
    stiff, mass = np.zeros((n, n)), np.zeros((n, n))
    r1 = np.zeros((2 * n, 2 * n))
    atlas = build_frames(mesh)
    for face, area, normal in zip(mesh.faces, mesh.face_areas,
                                  mesh.face_normals):
        p = mesh.vertices[face]
        grads = np.array([np.cross(normal, p[(i + 2) % 3] - p[(i + 1) % 3])
                          for i in range(3)]) / (2.0 * area)
        k_e = area * grads @ grads.T
        stiff[np.ix_(face, face)] += k_e
        mass[np.ix_(face, face)] += area / 12.0 * (np.ones((3, 3)) + np.eye(3))
        for i in range(3):
            a, b = face[i], face[(i + 1) % 3]
            w = -k_e[i, (i + 1) % 3]
            rho = atlas.edge_angle(b, a) + np.pi - atlas.edge_angle(a, b)
            rot = np.array([[np.cos(rho), -np.sin(rho)],
                            [np.sin(rho), np.cos(rho)]])
            sa, sb = slice(2 * a, 2 * a + 2), slice(2 * b, 2 * b + 2)
            r1[sa, sa] += w * np.eye(2)
            r1[sb, sb] += w * np.eye(2)
            r1[sb, sa] -= w * rot
            r1[sa, sb] -= w * rot.T
    return stiff, mass, mass.sum(axis=1), atlas, r1


@pytest.mark.parametrize("make", [lambda: icosphere(1),
                                  lambda: ellipsoid_patch(1), flat_patch],
                         ids=["icosphere", "ellipsoid_patch", "flat_grid"])
def test_fe_operators_match_element_formulas(make):
    mesh = make()
    stiff, mass, lumped, atlas, r1 = element_operators(mesh)
    r0, r1_shared = assemble_connection_matrices(mesh, atlas)

    def rel(got, want):
        got = got.toarray() if hasattr(got, "toarray") else got
        return np.abs(got - want).max() / np.abs(want).max()

    assert rel(cotangent_stiffness(mesh), stiff) <= 1e-12
    assert rel(consistent_mass(mesh), mass) <= 1e-12
    assert rel(lumped_mass(mesh), lumped) <= 1e-12
    assert rel(r0.diagonal(), np.repeat(lumped, 2)) <= 1e-12
    assert rel(r1_shared, r1) <= 1e-12


def test_sphere_area_approaches_analytic():
    mesh = icosphere(3, radius=2.0)
    assert abs(mesh.total_area - 4 * np.pi * 4.0) / (16 * np.pi) < 0.01


def test_vertex_normals_point_outward_on_sphere():
    mesh = icosphere(2)
    radial = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1)[:, None]
    assert np.all(np.sum(mesh.vertex_normals * radial, axis=1) > 0.9)


def test_nearest_vertices_matches_linear_scan():
    rng = np.random.default_rng(0)
    mesh = icosphere(2, radius=1.5)
    queries = rng.normal(size=(200, 3))
    fast = mesh.nearest_vertices(queries)
    d = np.linalg.norm(queries[:, None, :] - mesh.vertices[None], axis=2)
    best = d.min(axis=1)
    slow = np.array([np.flatnonzero(row <= bm)[0]
                     for row, bm in zip(d, best)])
    assert np.array_equal(fast, slow)


def test_nearest_vertex_tie_breaks_to_lowest_index():
    mesh = TriangleMesh([[-1, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    assert mesh.nearest_vertices([[0.0, 0.0, 0.0]]).tolist() == [0]


def test_with_vertices_shares_faces_and_copies():
    mesh = icosphere(1)
    moved = mesh.with_vertices(mesh.vertices * 2.0)
    assert moved.faces is mesh.faces or np.array_equal(moved.faces, mesh.faces)
    assert np.allclose(moved.vertices, 2.0 * mesh.vertices)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 99.0  # immutable


def test_scalar_field_validation_and_face_values():
    mesh = unit_triangle()
    field = ScalarField(mesh, [0.0, 1.0, 2.0])
    assert np.array_equal(field.values, [0.0, 1.0, 2.0])
    with pytest.raises(MeshError):
        ScalarField(mesh, [0.0, 1.0])
    with pytest.raises(MeshError):
        ScalarField(mesh, [0.0, np.inf, 1.0])


def test_off_round_trip(tmp_path):
    mesh = ellipsoid_patch(1)
    path = tmp_path / "patch.off"
    save_mesh(mesh, path)
    back = load_mesh(path)
    assert np.allclose(back.vertices, mesh.vertices)
    assert np.array_equal(back.faces, mesh.faces)


def test_ply_round_trip(tmp_path):
    mesh = icosphere(1)
    path = tmp_path / "sphere.ply"
    save_mesh(mesh, path, fmt="ply")
    back = load_mesh(path)
    assert np.allclose(back.vertices, mesh.vertices)
    assert np.array_equal(back.faces, mesh.faces)


def test_field_round_trip(tmp_path):
    mesh = icosphere(1)
    rng = np.random.default_rng(1)
    field = ScalarField(mesh, rng.normal(size=mesh.n_vertices))
    path = tmp_path / "f.csv"
    save_field(field, path)
    back = load_field(mesh, path)
    assert np.allclose(back.values, field.values)


def test_load_mesh_rejects_garbage(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n")
    with pytest.raises(MeshError):
        load_mesh(path)
