import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from fos.demons import register_functions
from fos.mesh import TriangleMesh
from fos.synthdata import ellipsoid_patch, icosphere
from fos.tangent_fem import (FemError, apply_dirichlet,
                             assemble_connection_matrices, build_frames,
                             build_system, connection, solve_update,
                             transport_rotation)


def flat_patch(n=5):
    """Regular triangulated square grid in the z=0 plane."""
    xs = np.linspace(0.0, 1.0, n)
    vv = np.array([[x, y, 0.0] for y in xs for x in xs])
    faces = []
    for j in range(n - 1):
        for i in range(n - 1):
            a = j * n + i
            faces.append([a, a + 1, a + n])
            faces.append([a + 1, a + n + 1, a + n])
    return TriangleMesh(vv, np.array(faces))


def mixed_solve_update(conn, theta2, rhs, lam):
    """The mixed (saddle-point) solve that `solve_update` replaced, with
    the boundary coefficients of u held at zero by leaving them out:

        [Theta2_ff  lam R1_fa] [u_f]   [(Theta1 z)_f]
        [lam R1_af  -lam R0  ] [ h ] = [     0      ]

    for f the free coefficients and a all of them, kept as an oracle for
    the eliminated form. theta2 and rhs come restricted by
    `apply_dirichlet`; R0 and R1 from `assemble_connection_matrices`."""
    r0, r1 = assemble_connection_matrices(conn.atlas.mesh, conn.atlas)
    free = ~conn.boundary
    a = sparse.bmat([[theta2, lam * r1.tocsr()[free]],
                     [lam * r1.tocsc()[:, free], -lam * r0]], format="csc")
    sol = splu(a).solve(np.concatenate([rhs, np.zeros(r0.shape[0])]))
    u = np.zeros(free.shape)
    u[free] = sol[:len(rhs)]
    return u.reshape(-1, 2)


def test_frames_are_orthonormal_tangent():
    mesh = icosphere(2)
    atlas = build_frames(mesh)
    assert np.allclose(np.sum(atlas.e1 * atlas.e2, axis=1), 0.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(atlas.e1, axis=1), 1.0)
    assert np.allclose(np.linalg.norm(atlas.e2, axis=1), 1.0)
    assert np.allclose(np.sum(atlas.e1 * atlas.normals, axis=1), 0.0,
                       atol=1e-12)


def test_frame_round_trip():
    mesh = ellipsoid_patch(1)
    atlas = build_frames(mesh)
    rng = np.random.default_rng(0)
    coeffs = rng.normal(size=(mesh.n_vertices, 2))
    back = atlas.to_frame(atlas.to_ambient(coeffs))
    assert np.allclose(back, coeffs, atol=1e-12)


def per_vertex_frames(mesh):
    """e1, e2 and the edge angles {(i, j): angle} from a walk around each
    vertex in turn, kept as an oracle for the vectorised `build_frames`:
    the ring starts at the open end with the smallest index, else at the
    head of the vertex's first face side; wedges add up in ring order."""
    v, normals = mesh.vertices, mesh.vertex_normals
    succ = [dict() for _ in v]
    wedge = [dict() for _ in v]
    for face in mesh.faces.tolist():
        for k, a, b in (face, face[1:] + face[:1], face[2:] + face[:2]):
            succ[k][a] = b
            ea, eb = v[a] - v[k], v[b] - v[k]
            cos = np.dot(ea, eb) / (np.linalg.norm(ea) * np.linalg.norm(eb))
            wedge[k][a] = np.arccos(np.clip(cos, -1.0, 1.0))
    e1, e2, edge_angle = np.zeros_like(v), np.zeros_like(v), {}
    for k, s in enumerate(succ):
        starts = set(s) - set(s.values())
        ring = [min(starts) if starts else next(iter(s))]
        angles, cur = [], ring[0]
        while cur in s:
            angles.append(wedge[k][cur])
            cur = s[cur]
            if cur == ring[0]:
                break
            ring.append(cur)
        scale = 1.0 if starts else 2.0 * np.pi / sum(angles)
        cum = edge_angle[(k, ring[0])] = 0.0
        for nb, th in zip(ring[1:], angles):
            cum += th * scale
            edge_angle[(k, nb)] = cum
        d = v[ring[0]] - v[k]
        d = d - np.dot(d, normals[k]) * normals[k]
        e1[k] = d / np.linalg.norm(d)
        e2[k] = np.cross(normals[k], e1[k])
    return e1, e2, edge_angle


@pytest.mark.parametrize("make_mesh", [lambda: icosphere(1),
                                       lambda: ellipsoid_patch(2),
                                       flat_patch],
                         ids=["sphere", "patch", "flat_grid"])
def test_frames_match_the_per_vertex_walk(make_mesh):
    mesh = make_mesh()
    atlas = build_frames(mesh)
    e1, e2, edge_angle = per_vertex_frames(mesh)
    assert np.array_equal(atlas.e1, e1) and np.array_equal(atlas.e2, e2)
    keys = np.array(list(edge_angle))
    assert np.array_equal(atlas.edge_angle(keys[:, 0], keys[:, 1]),
                          list(edge_angle.values()))
    assert (atlas.ring >= 0).sum() == len(edge_angle)


def test_interior_edge_angles_cover_full_turn():
    for mesh in (icosphere(1), ellipsoid_patch(1)):
        check_ring_tables(mesh, build_frames(mesh))


def check_ring_tables(mesh, atlas):
    """Every ring is ordered counter-clockwise about its vertex, its angles
    rise from 0 by the wedge angles, scaled to a full turn on an interior
    vertex and unscaled on a boundary one, and edge_angle reads them."""
    v = mesh.vertices
    faces = {tuple(np.roll(f, -r)) for f in mesh.faces.tolist()
             for r in range(3)}
    for k in range(mesh.n_vertices):
        ring = atlas.ring[k][atlas.ring[k] >= 0]
        angles = atlas.angles[k, :len(ring)]
        assert angles[0] == 0.0
        assert np.all(np.diff(angles) > 0.0)
        assert angles[-1] < 2.0 * np.pi
        interior = not mesh.boundary_vertices[k]
        # consecutive neighbours share a face counter-clockwise about k
        pairs = list(zip(ring, np.roll(ring, -1)))[:len(ring) - 1 + interior]
        assert all((k, a, b) in faces for a, b in pairs)
        e = v[ring] - v[k]
        e /= np.linalg.norm(e, axis=1)[:, None]
        cos = [e[m] @ e[(m + 1) % len(ring)] for m in range(len(pairs))]
        wedges = np.arccos(np.clip(cos, -1.0, 1.0))
        if interior:
            scale = 2.0 * np.pi / wedges.sum()
            assert np.isclose(angles[-1] + scale * wedges[-1], 2.0 * np.pi,
                              rtol=0, atol=1e-12)
        else:
            assert np.isclose(angles[-1], wedges.sum(), rtol=0, atol=1e-12)
        assert np.array_equal(atlas.edge_angle(np.full(len(ring), k), ring),
                              angles)
    far = np.setdiff1d(np.arange(1, mesh.n_vertices), atlas.ring[0])[0]
    with pytest.raises(KeyError):
        atlas.edge_angle(0, far)


def test_connection_matrices_structure():
    mesh = ellipsoid_patch(1)
    atlas = build_frames(mesh)
    r0, r1 = assemble_connection_matrices(mesh, atlas)
    r0d = r0.toarray()
    r1d = r1.toarray()
    assert np.allclose(r1d, r1d.T)
    assert np.all(np.linalg.eigvalsh(r1d) >= -1e-12)
    assert np.all(r0.diagonal() > 0)
    # lumped mass accounts for the total area twice (two coefficients)
    assert np.isclose(r0.diagonal().sum(), 2.0 * mesh.face_areas.sum())


def test_flat_patch_constant_field_has_zero_energy():
    mesh = flat_patch(5)
    atlas = build_frames(mesh)
    r0, r1 = assemble_connection_matrices(mesh, atlas)
    const = atlas.to_frame(np.tile([1.0, 0.0, 0.0], (mesh.n_vertices, 1)))
    x = const.ravel()
    assert abs(x @ (r1 @ x)) <= 1e-10


def test_transport_rotation_antisymmetric_on_flat_mesh():
    mesh = flat_patch(4)
    atlas = build_frames(mesh)
    i, j = 0, atlas.ring[0, 0]
    rij = transport_rotation(atlas, i, j)
    rji = transport_rotation(atlas, j, i)
    # transporting there and back is the identity rotation
    assert np.isclose((rij + rji) % (2 * np.pi), 0.0, atol=1e-9) or \
        np.isclose((rij + rji) % (2 * np.pi), 2 * np.pi, atol=1e-9)


@pytest.mark.parametrize("lam", [0.2, 3.0])
@pytest.mark.parametrize("make_mesh", [lambda: ellipsoid_patch(1),
                                       lambda: icosphere(1)],
                         ids=["patch", "sphere"])
def test_solve_update_matches_dense_oracle(make_mesh, lam):
    mesh = make_mesh()
    assert mesh.n_vertices <= 60
    conn = connection(mesh, build_frames(mesh))
    rng = np.random.default_rng(1)
    j = rng.normal(size=(mesh.n_vertices, 2))
    z = rng.normal(size=mesh.n_vertices)
    plain = build_system(conn, j, z)
    theta2, rhs = apply_dirichlet(conn, *plain)
    # Dirichlet conditions on the open patch; a no-op on the closed sphere
    assert (theta2 is plain[0]) == (not mesh.boundary_vertices.any())
    u = solve_update(conn, theta2, rhs, lam)
    r0, r1 = (m.toarray()
              for m in assemble_connection_matrices(mesh, conn.atlas))
    free = ~conn.boundary
    dense = np.block([[theta2.toarray(), lam * r1[free]],
                      [lam * r1[:, free], -lam * r0]])
    sol = np.linalg.solve(dense, np.concatenate([rhs, np.zeros(len(r0))]))
    ref = np.zeros(len(free))
    ref[free] = sol[:len(rhs)]
    ref = ref.reshape(-1, 2)
    assert np.abs(u - ref).max() <= 1e-10 * np.abs(ref).max()


def test_dirichlet_boundary_values_vanish():
    mesh = ellipsoid_patch(1)
    conn = connection(mesh, build_frames(mesh))
    rng = np.random.default_rng(2)
    j = rng.normal(size=(mesh.n_vertices, 2))
    z = rng.normal(size=mesh.n_vertices)
    theta2, rhs = apply_dirichlet(conn, *build_system(conn, j, z))
    u = solve_update(conn, theta2, rhs, 1.0)
    assert np.all(u[mesh.boundary_vertices] == 0.0)
    assert np.all(u[~mesh.boundary_vertices] != 0.0)


def test_frame_rotation_invariance_of_ambient_solution():
    mesh = ellipsoid_patch(1)
    atlas = build_frames(mesh)
    rng = np.random.default_rng(3)
    z = rng.normal(size=mesh.n_vertices)
    j_ambient = rng.normal(size=(mesh.n_vertices, 3))

    def solve_in(atlas_k):
        conn = connection(mesh, atlas_k)
        theta2, rhs = apply_dirichlet(
            conn, *build_system(conn, atlas_k.to_frame(j_ambient), z))
        return atlas_k.to_ambient(solve_update(conn, theta2, rhs, 1.0))

    base = solve_in(atlas)
    rotated = solve_in(atlas.rotated(rng.uniform(0, 2 * np.pi,
                                                 mesh.n_vertices)))
    assert np.abs(base - rotated).max() <= 1e-9


def test_invalid_inputs_raise():
    mesh = ellipsoid_patch(0)
    conn = connection(mesh, build_frames(mesh))
    rng = np.random.default_rng(4)
    j = rng.normal(size=(mesh.n_vertices, 2))
    with pytest.raises(ValueError):
        build_system(conn, j, np.zeros(3))
    theta2, rhs = build_system(conn, j, rng.normal(size=mesh.n_vertices))
    with pytest.raises(ValueError):
        solve_update(conn, theta2, rhs, 0.0)


def test_non_manifold_mesh_rejected():
    # two triangles sharing an edge plus a third fin on the same edge
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]]
    faces = [[0, 1, 2], [0, 3, 1], [0, 1, 4]]
    mesh = TriangleMesh(verts, faces)
    with pytest.raises(FemError):
        build_frames(mesh)


def test_bowtie_vertex_rejected():
    # two triangles meeting only at vertex 0: its faces form two fans
    verts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [-1, 0, 0], [-1, -1, 0]]
    mesh = TriangleMesh(verts, [[0, 1, 2], [0, 3, 4]])
    with pytest.raises(FemError, match="vertex 0 do not form one fan"):
        build_frames(mesh)


def test_vertex_on_no_face_rejected():
    sphere = icosphere(1)
    k = sphere.n_vertices
    mesh = TriangleMesh(np.vstack([sphere.vertices, [[3.0, 0.0, 0.0]]]),
                        sphere.faces)
    with pytest.raises(FemError, match=f"vertex {k} lies on no face"):
        build_frames(mesh)
    values = np.zeros(k + 1)
    with pytest.raises(FemError, match=f"vertex {k} lies on no face"):
        register_functions(mesh, values, values)
