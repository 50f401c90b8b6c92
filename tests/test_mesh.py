import numpy as np
import pytest

from fos.mesh import (MeshError, ScalarField, TriangleMesh, _cross,
                      consistent_mass, cotangent_stiffness, face_geometry,
                      folded_faces, load_mesh, lumped_mass, off_text,
                      parse_off, save_mesh)
from fos.synthdata import ellipsoid_patch, icosphere
from fos.tangent_fem import assemble_connection_matrices, build_frames
from test_tangent_fem import flat_patch


def unit_triangle():
    return TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])


def test_face_geometry():
    mesh = unit_triangle()
    assert np.isclose(mesh.face_areas.sum(), 0.5)
    assert np.allclose(mesh.face_normals[0], [0, 0, 1])
    assert np.allclose(mesh.face_centers[0], [1 / 3, 1 / 3, 0])
    assert np.allclose(mesh.face_area_normals[0], [0, 0, 0.5])


def test_cross_and_face_geometry_are_the_numpy_values():
    # the cross product component by component rounds as np.cross does
    mesh = ellipsoid_patch(2)
    corners, centres, normals = face_geometry(mesh.vertices, mesh.faces)
    a, b = corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]
    sides = corners.transpose(1, 0, 2)
    assert np.array_equal(_cross(a, b), np.cross(a, b))
    assert np.array_equal(_cross(sides, b), np.cross(sides, b))
    assert np.array_equal(centres, corners.mean(axis=1))
    assert np.array_equal(normals, 0.5 * np.cross(a, b))
    assert np.array_equal(mesh.face_area_normals, normals)
    norms = np.linalg.norm(np.cross(a, b), axis=1)
    assert np.array_equal(mesh.face_areas, 0.5 * norms)
    assert np.array_equal(mesh.face_normals, np.cross(a, b) / norms[:, None])


def test_invalid_meshes_raise():
    with pytest.raises(MeshError):
        TriangleMesh([[0, 0, 0], [1, 0, 0]], [[0, 1, 1]])  # degenerate
    with pytest.raises(MeshError):
        TriangleMesh([[0, 0, 0]], [[0, 1, 2]])             # out of range
    with pytest.raises(MeshError):
        TriangleMesh([[0, 0]], [])                         # bad shape
    with pytest.raises(MeshError):
        TriangleMesh([[np.nan, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])


def boundary_oracle(mesh):
    """The ends of every side that occurs once among the face sides."""
    sides = np.sort(mesh.edges, axis=1)
    unique, counts = np.unique(sides, axis=0, return_counts=True)
    flags = np.zeros(mesh.n_vertices, dtype=bool)
    flags[unique[counts == 1].ravel()] = True
    return flags


def test_boundary_detection():
    closed = icosphere(1)
    assert not closed.boundary_vertices.any()
    patch = ellipsoid_patch(2)
    assert patch.boundary_vertices.any()
    assert not patch.boundary_vertices.all()
    patch = ellipsoid_patch(3)
    assert np.array_equal(patch.boundary_vertices, boundary_oracle(patch))
    # three cones on one triangle (0, 1, 2): each triangle side lies on
    # three faces, each cone side on two, so no side is a boundary side
    apexes = [[0.3, 0.3, 1.0], [0.3, 0.3, -1.0], [2.0, 2.0, 0.5]]
    cones = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]] + apexes,
                         [[i, (i + 1) % 3, apex] for apex in (3, 4, 5)
                          for i in range(3)])
    assert not cones.boundary_vertices.any()
    assert not boundary_oracle(cones).any()


def test_lumped_mass_partitions_total_area():
    mesh = ellipsoid_patch(2)
    assert np.isclose(lumped_mass(mesh).sum(), mesh.face_areas.sum())


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
    assert abs(mesh.face_areas.sum() - 4 * np.pi * 4.0) / (16 * np.pi) < 0.01


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


def nearest_vertices_loop(mesh, points):
    """The per-point ball-query loop that `nearest_vertices` replaced, kept
    as its oracle."""
    points = np.asarray(points, dtype=float)
    dist, idx = mesh.tree.query(points)
    out = np.asarray(idx, dtype=int).copy()
    for i, (d, p) in enumerate(zip(np.atleast_1d(dist), points)):
        cand = mesh.tree.query_ball_point(p, d * (1.0 + 1e-12) + 1e-300)
        if len(cand) > 1:
            cand = np.sort(np.asarray(cand, dtype=int))
            dd = np.linalg.norm(mesh.vertices[cand] - p, axis=1)
            best = dd.min()
            out[i] = int(cand[dd <= best][0])
    return out


def test_nearest_vertices_on_exact_ties_matches_the_loop():
    # a grid with its vertices shuffled: cell centres are 4-way ties, edge
    # midpoints 2-way, in the plane and above it
    grid = flat_patch(5)
    rng = np.random.default_rng(3)
    order = rng.permutation(grid.n_vertices)
    mesh = TriangleMesh(grid.vertices[order],
                        np.argsort(order)[grid.faces])
    h = 0.25                       # the grid spacing, exact in binary
    cells = np.array([[(i + 0.5) * h, (j + 0.5) * h, z]
                      for i in range(4) for j in range(4)
                      for z in (0.0, 0.3)])
    sides = np.array([[(i + 0.5) * h, j * h, z]
                      for i in range(4) for j in range(5)
                      for z in (0.0, -0.1)])
    queries = np.concatenate([cells, sides, sides[:, [1, 0, 2]],
                              mesh.vertices, rng.uniform(size=(50, 3))])
    fast = mesh.nearest_vertices(queries)
    assert np.array_equal(fast, nearest_vertices_loop(mesh, queries))
    d = np.linalg.norm(queries[:, None, :] - mesh.vertices[None], axis=2)
    assert np.array_equal(fast, [np.flatnonzero(row <= row.min())[0]
                                 for row in d])
    # the ties are real: every cell centre has four nearest vertices
    assert np.all(np.sum(d[:len(cells)] <= d[:len(cells)].min(axis=1,
                         keepdims=True), axis=1) == 4)


def test_folded_faces_counts_a_face_flipped_by_hand():
    mesh = flat_patch(4)
    assert not folded_faces(mesh, mesh.vertices).any()
    # vertex 0 is a corner of face 0 alone; moving it across the face's
    # opposite side turns that face over and no other
    moved = mesh.vertices.copy()
    moved[0] = [0.5, 0.5, 0.0]
    assert np.flatnonzero(folded_faces(mesh, moved)).tolist() == [0]
    mirrored = mesh.vertices * [-1.0, 1.0, 1.0]
    assert int(folded_faces(mesh, mirrored).sum()) == mesh.n_faces


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


def test_load_mesh_rejects_garbage(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n")
    with pytest.raises(MeshError):
        load_mesh(path)


TRIANGLE_OFF = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"


@pytest.mark.parametrize("text, message", [
    ("OFF\n-1 -1 0\n", "at least one vertex and one face"),
    ("OFF\n0 0 0\n", "at least one vertex and one face"),
    (TRIANGLE_OFF + "3 0 1 2\n", "data after the 1 declared faces"),
    (TRIANGLE_OFF.rstrip() + " 1\n", "data after the 1 declared faces"),
], ids=["negative-counts", "zero-counts", "extra-face", "fourth-index"])
def test_load_mesh_rejects_counts_that_do_not_match(tmp_path, text, message):
    path = tmp_path / "bad.off"
    path.write_text(text)
    with pytest.raises(MeshError, match=message) as err:
        load_mesh(path)
    assert str(err.value).startswith(f"{path}: ")


def sequential_parse_off(text):
    """OFF text read one token at a time, kept as the oracle for
    `parse_off`'s block conversion: the same mesh, or a MeshError with the
    same message."""
    def tokens():
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                yield from line.split()

    tok = tokens()
    try:
        first = next(tok)
        if first == "OFF":
            nv, nf = int(next(tok)), int(next(tok))
        else:
            nv, nf = int(first), int(next(tok))
        next(tok)  # edge count, ignored
        if nv < 1 or nf < 1:
            raise MeshError(f"an OFF mesh needs at least one vertex and "
                            f"one face, got {nv} and {nf}")
        verts = np.array([float(next(tok)) for _ in range(3 * nv)]).reshape(nv, 3)
        faces = []
        for _ in range(nf):
            k = int(next(tok))
            if k != 3:
                raise MeshError("only triangle faces are supported")
            faces.append([int(next(tok)) for _ in range(3)])
        if next(tok, None) is not None:
            raise MeshError(f"data after the {nf} declared faces")
    except (StopIteration, ValueError) as exc:
        raise MeshError(f"malformed OFF file: {exc}") from exc
    return TriangleMesh(verts, faces)


def line_by_line_off(mesh):
    """OFF text written one line at a time, kept as the oracle for
    `save_mesh`'s one format operation."""
    lines = ["OFF", f"{mesh.n_vertices} {mesh.n_faces} 0"]
    lines += [f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}" for v in mesh.vertices]
    lines += [f"3 {f[0]} {f[1]} {f[2]}" for f in mesh.faces]
    return "\n".join(lines) + "\n"


def test_off_text_matches_the_line_by_line_writer_and_reader(tmp_path):
    mesh = ellipsoid_patch(2)
    mesh = mesh.with_vertices(mesh.vertices * [1.0, -1e-7, 3e5] + 0.1)
    path = tmp_path / "patch.off"
    save_mesh(mesh, path)
    text = path.read_text()
    assert text == off_text(mesh) == line_by_line_off(mesh)
    commented = "# a comment\n" + text.replace("\n3 ", " # three\n3 ", 5)
    for t in (text, commented, "3 1 0 0 0 0 1 0 0 0 1 0 3 0 1 2"):
        got, want = parse_off(t), sequential_parse_off(t)
        assert np.array_equal(got.vertices, want.vertices)
        assert np.array_equal(got.faces, want.faces)


# the truncated files of the cases below, with parse_off's message
TRUNCATED = {
    "": "header: 3 counts expected, 0 found",
    "OFF": "header: 3 counts expected, 0 found",
    "OFF\n3": "header: 3 counts expected, 1 found",
    "OFF\n3 1": "header: 3 counts expected, 2 found",
    "OFF 3 1 0 0 0": "vertex block: 9 coordinates declared, 2 found",
    TRIANGLE_OFF.replace("3 0 1 2", "3 0 1"):
        "face block: 4 numbers declared, 3 found",
}


@pytest.mark.parametrize("text", [
    "", "OFF", "OFF\n3", "OFF\n3 1", "OFF\nx 1 0", "3 x 0", "OFF 3 1 0 0 0",
    "OFF\n-1 -1 0\n", "OFF\n3 0 0\n",
    TRIANGLE_OFF.replace("1 0 0\n", "1 0 x\n"),
    TRIANGLE_OFF.replace("3 0 1 2", "4 0 1 2"),
    TRIANGLE_OFF.replace("3 0 1 2", "4 0 1"),
    TRIANGLE_OFF.replace("3 0 1 2", "3 0 1.5 2"),
    TRIANGLE_OFF.replace("3 0 1 2", "3 0 1"),
    TRIANGLE_OFF + "3 0 1 2\n", TRIANGLE_OFF.rstrip() + " 1\n",
    TRIANGLE_OFF.replace("3 0 1 2", "3 0 1 3"),
    TRIANGLE_OFF.replace("3 1 0", "3 2 0").rstrip() + "\n4 0 1 2 0\n",
], ids=["empty", "off-only", "no-face-count", "no-edge-count",
        "bad-vertex-count", "bad-face-count", "short-vertices",
        "negative-counts", "zero-counts", "bad-coordinate", "quad",
        "short-quad", "bad-index", "short-face", "extra-face",
        "fourth-index", "index-out-of-range", "second-face-quad"])
def test_malformed_off_raises_the_sequential_readers_message(text):
    with pytest.raises(MeshError) as want:
        sequential_parse_off(text)
    with pytest.raises(MeshError) as got:
        parse_off(text)
    message = str(want.value)
    if text in TRUNCATED:
        # the sequential reader runs out of tokens and says nothing after
        # the colon; parse_off names the block and its counts
        assert message == "malformed OFF file: "
        message += TRUNCATED[text]
    assert str(got.value) == message
