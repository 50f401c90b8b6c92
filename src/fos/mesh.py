"""Triangle mesh representation, OFF I/O and geometric queries."""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree


class MeshError(ValueError):
    """Raised for malformed mesh files or invalid mesh data."""


def _dot(x, y):
    """Row-wise dot products of (..., 3) arrays, rounded as np.dot rounds
    one pair."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _cross(a, b):
    """Row-wise cross products of (..., 3) stacks, component by component:
    the values of np.cross, without its per-call overhead."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2,
                     a0 * b1 - a1 * b0], axis=-1)


def face_geometry(vertices, faces):
    """The (F, 3, 3) corners, (F, 3) centres and (F, 3) area normals (half
    the cross product of two sides, counter-clockwise) of each face."""
    tri = vertices[faces]
    normals = 0.5 * _cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    return tri, tri.mean(axis=1), normals


class TriangleMesh:
    """Immutable triangulated surface embedded in R^3.

    Vertices and faces keep the order of the source arrays/files. Derived
    per-face quantities (centers, unit normals, areas), the face-edge list
    and per-vertex boundary flags are computed once at construction.
    Counter-clockwise winding is taken to define the outward normal.

    Per-vertex sums over faces are products with the (K, F) `incidence`.
    A vertex is on the boundary when it shares exactly one face with some
    other vertex. `incidence`, `tree` and `vertex_normals` are cached.
    """

    def __init__(self, vertices, faces):
        v = np.asarray(vertices, dtype=float)
        f = np.asarray(faces, dtype=int)
        if v.ndim != 2 or v.shape[1] != 3:
            raise MeshError("vertices must be an (n, 3) array")
        if f.ndim != 2 or f.shape[1] != 3:
            raise MeshError("faces must be an (m, 3) array of vertex indices")
        if not np.all(np.isfinite(v)):
            raise MeshError("non-finite vertex coordinate")
        if f.size and (f.min() < 0 or f.max() >= len(v)):
            raise MeshError("face index out of range")

        self.vertices = v
        self.faces = f
        self.vertices.setflags(write=False)
        self.faces.setflags(write=False)

        # area-weighted (un-normalized) normals, used by current metrics
        _, self.face_centers, self.face_area_normals = face_geometry(v, f)
        areas = np.linalg.norm(self.face_area_normals, axis=1)
        if np.any(areas <= 0.0):
            bad = int(np.argmin(areas))
            raise MeshError(f"degenerate face {bad} (zero area)")
        self.face_areas = areas
        self.face_normals = self.face_area_normals / areas[:, None]

        # (3F, 2) directed face sides: every face's (0, 1) side first, then
        # every (1, 2), then every (2, 0). Interior edges appear twice.
        self.edges = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
        self.boundary_vertices = self._boundary_flags()

    # -- derived structure ------------------------------------------------

    @cached_property
    def incidence(self) -> sparse.csr_matrix:
        """(K, F) CSR matrix with a 1 at (k, j) when face j has corner k;
        row k lists k's faces in index order."""
        f = self.faces
        corners = (f.ravel(), np.arange(f.size) // 3)     # (vertex, face)
        return sparse.csr_matrix((np.ones(f.size), corners),
                                 shape=(len(self.vertices), len(f)))

    @cached_property
    def tree(self) -> cKDTree:
        """k-d tree over the vertices."""
        return cKDTree(self.vertices)

    def _boundary_flags(self):
        # entry (i, j) counts the faces with side {i, j}
        shared = (self.incidence @ self.incidence.T).tocoo()
        once = (shared.data == 1) & (shared.row != shared.col)
        return np.bincount(shared.row[once], minlength=len(self.vertices)) > 0

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_faces(self):
        return len(self.faces)

    @property
    def bbox_diagonal(self):
        lo, hi = self.vertices.min(axis=0), self.vertices.max(axis=0)
        return float(np.linalg.norm(hi - lo))

    @property
    def edge_lengths(self):
        """Length of every entry of `edges`, shape (3F,)."""
        e = self.edges
        return np.linalg.norm(self.vertices[e[:, 0]] - self.vertices[e[:, 1]],
                              axis=1)

    @cached_property
    def vertex_normals(self):
        """Area-weighted average of incident face normals, unit length."""
        n = self.incidence @ self.face_area_normals
        lens = np.linalg.norm(n, axis=1)
        lens[lens == 0.0] = 1.0
        return n / lens[:, None]

    # -- queries -----------------------------------------------------------

    def nearest_vertices(self, points):
        """Index of each (n, 3) point's closest vertex, ties broken by
        lowest index. Matches an exhaustive scan exactly."""
        points = np.asarray(points, dtype=float)
        dist, idx = self.tree.query(points, k=2)
        out = idx[:, 0].astype(int)
        # kd-tree tie-breaking is unspecified; re-resolve near-exact ties
        # by lowest vertex index, where the second-nearest vertex is as near
        radius = dist[:, 0] * (1.0 + 1e-12) + 1e-300
        for i in np.flatnonzero(dist[:, 1] <= radius):
            p = points[i]
            cand = np.sort(np.asarray(self.tree.query_ball_point(p, radius[i]),
                                      dtype=int))
            dd = np.linalg.norm(self.vertices[cand] - p, axis=1)
            out[i] = int(cand[dd <= dd.min()][0])
        return out

    def with_vertices(self, new_vertices):
        """New mesh sharing this mesh's faces (deformations copy, never mutate)."""
        return TriangleMesh(new_vertices, self.faces)


def folded_faces(reference: TriangleMesh, vertices) -> np.ndarray:
    """True where a face of `reference`, moved to `vertices`, has a normal
    at 90 degrees or more to its reference normal (a folded face)."""
    tri = np.asarray(vertices, dtype=float)[reference.faces]
    cross = _cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    return np.sum(reference.face_normals * cross, axis=1) <= 0.0


# -- finite-element operators -------------------------------------------------

def lumped_mass(mesh: TriangleMesh) -> np.ndarray:
    """Barycentric vertex areas (1/3 of incident face areas)."""
    return mesh.incidence @ (mesh.face_areas / 3.0)


def cotangent_stiffness(mesh: TriangleMesh) -> sparse.csr_matrix:
    """Scalar cotangent Laplacian stiffness matrix (symmetric PSD).

    Edge (a, b) of a face gets weight cot(gamma) / 2 from the angle gamma
    at the face's third vertex c; one COO scatter sums the faces.
    """
    f = mesh.faces
    a, b, c = f, np.roll(f, -1, axis=1), np.roll(f, -2, axis=1)
    v = mesh.vertices
    ea, eb = v[a] - v[c], v[b] - v[c]                   # (F, 3, 3)
    cross = _cross(ea, eb)
    w = 0.5 * _dot(ea, eb) / np.sqrt(_dot(cross, cross))
    rows = np.stack([a, b, a, b], axis=-1).ravel()
    cols = np.stack([b, a, a, b], axis=-1).ravel()
    vals = np.stack([-w, -w, w, w], axis=-1).ravel()
    n = mesh.n_vertices
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def consistent_mass(mesh: TriangleMesh) -> sparse.csr_matrix:
    """Consistent (Galerkin) mass matrix of linear elements: A/6 on the
    diagonal and A/12 off it, per face of area A."""
    f = mesh.faces
    vals = mesh.face_areas[:, None, None] / np.where(np.eye(3), 6.0, 12.0)
    rows = np.repeat(f[:, :, None], 3, axis=2)
    cols = np.repeat(f[:, None, :], 3, axis=1)
    n = mesh.n_vertices
    return sparse.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                             shape=(n, n))


class ScalarField:
    """One real value per vertex of a host mesh (a piecewise-linear function)."""

    def __init__(self, mesh: TriangleMesh, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (mesh.n_vertices,):
            raise MeshError(f"{values.size} values for {mesh.n_vertices} "
                            "vertices")
        if not np.all(np.isfinite(values)):
            raise MeshError("non-finite field value")
        self.mesh = mesh
        self.values = values


# -- file I/O ---------------------------------------------------------------

def load_mesh(path):
    """Load a triangle OFF mesh; a MeshError names the file."""
    with open(str(path)) as fh:
        text = fh.read()
    try:
        return parse_off(text)
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from exc


def parse_off(text):
    """The triangle mesh of OFF text; a MeshError when it is malformed.
    The comment-free text is split once, and numpy converts the vertex
    and face blocks by Python's float and int rules."""
    tok = " ".join(line.split("#", 1)[0]
                   for line in text.splitlines()).split()
    body = 4 if tok[:1] == ["OFF"] else 3      # the first vertex's index
    try:
        counts = [int(t) for t in tok[body - 3:body - 1]]
        if len(tok) < body:     # the counts, then an edge count, ignored
            raise MeshError("header: 3 counts expected, "
                            f"{len(tok) - body + 3} found")
        nv, nf = counts
        if nv < 1 or nf < 1:
            raise MeshError(f"an OFF mesh needs at least one vertex and "
                            f"one face, got {nv} and {nf}")
        end = body + 3 * nv
        verts = np.array(tok[body:end], dtype=float)
        faces = np.array(tok[end:end + 4 * nf], dtype=int)
        if np.any(faces[::4] != 3):
            raise MeshError("only triangle faces are supported")
        if len(verts) < 3 * nv:
            raise MeshError(f"vertex block: {3 * nv} coordinates declared, "
                            f"{len(verts)} found")
        if len(faces) < 4 * nf:
            raise MeshError(f"face block: {4 * nf} numbers declared, "
                            f"{len(faces)} found")
        if len(tok) > end + 4 * nf:
            raise MeshError(f"data after the {nf} declared faces")
    except ValueError as exc:
        raise MeshError(f"malformed OFF file: {exc}") from exc
    return TriangleMesh(verts.reshape(nv, 3), faces.reshape(nf, 4)[:, 1:])


def off_text(mesh):
    """The mesh as OFF text with 17 significant digits (round-trip exact),
    formatted in one operation."""
    v, f = mesh.vertices, mesh.faces
    form = "OFF\n%d %d 0\n" + "%.17g %.17g %.17g\n" * len(v) \
        + "3 %d %d %d\n" * len(f)
    return form % (len(v), len(f), *v.ravel().tolist(), *f.ravel().tolist())


def save_mesh(mesh, path):
    """Write the mesh's `off_text` to path."""
    with open(str(path), "w") as fh:
        fh.write(off_text(mesh))
