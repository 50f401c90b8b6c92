"""Per-vertex tangent frames, vector finite-element matrices for tangent
fields on a triangle mesh, and the solve of the linearized demons update.

The update is the first field u of the mixed system

    [Theta2   lam R1] [u]   [Theta1 z]
    [lam R1  -lam R0] [h] = [   0    ],

with u zero on the boundary vertices (homogeneous Dirichlet conditions):
those coefficients are known, so they and their rows of the first equation
leave the system. The second row gives h = R0^-1 R1 u, so the free
coefficients of u solve the Schur complement

    (Theta2 + lam R1 R0^-1 R1) u = Theta1 z

on the free rows and columns, a symmetric positive definite system that
one direct factorization solves with no iterative refinement. Eliminating
h is exact and keeps the system sparse because R0 is the diagonal lumped
mass; a consistent R0 would make R0^-1 dense and need the mixed form back.

Half of the system depends only on the surface: the frames, the boundary
coefficients and R1 R0^-1 R1 on the free ones, built once per surface by
`connection`. The other half changes with every update: `build_system`
makes Theta2 and Theta1 z, `apply_dirichlet` keeps their free rows, and
`solve_update` returns u, zero on the boundary.

Frames follow the angle-normalized one-ring construction: wedge angles
around each interior vertex are scaled to sum to 2*pi, edges get intrinsic
polar coordinates, and parallel transport across an edge is the rotation
aligning the edge's coordinates at its two endpoints. Boundary vertices
keep their actual angles (no scaling), which makes the connection exactly
flat on planar patches. One walk over ring positions, vectorised over all
vertices, orders every one-ring; the atlas keeps the rings and their polar
angles as two padded (K, V) tables. A vertex whose faces do not form one
fan (a bowtie, or a fan plus a separate face), a vertex on no face and an
edge shared by more than two faces are a FemError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .mesh import TriangleMesh, _dot, cotangent_stiffness, lumped_mass


class FemError(RuntimeError):
    pass


@dataclass
class TangentFrameAtlas:
    """Orthonormal tangent frames plus intrinsic polar angles of every
    vertex's one-ring, as two (K, V) tables, V the largest ring size.

    Row k of `ring` lists k's neighbours counter-clockwise about k: from
    its first face side's head around the closed fan of an interior
    vertex, from the open end with the smallest index for a boundary one,
    padded with -1. angles[k, m] is the polar angle of the directed edge
    k -> ring[k, m] in k's normalized tangent coordinates, measured from
    e1_k (so angles[k, 0] is 0), and NaN where `ring` is padded.
    """

    mesh: TriangleMesh
    normals: np.ndarray          # (K, 3)
    e1: np.ndarray               # (K, 3)
    e2: np.ndarray               # (K, 3)
    ring: np.ndarray             # (K, V) neighbour indices
    angles: np.ndarray           # (K, V) their polar angles

    def edge_angle(self, i, j):
        """Polar angle of the directed edge i -> j at i; i and j may be
        index arrays. Raises KeyError on a pair that is not an edge."""
        i, j = np.broadcast_arrays(i, j)
        hit = self.ring[i] == j[..., None]
        bad = ~hit.any(axis=-1)
        if bad.any():
            raise KeyError(f"({i[bad][0]}, {j[bad][0]}) is not an edge")
        return self.angles[i, hit.argmax(axis=-1)]

    def to_ambient(self, coefficients):
        """Per-vertex 2-coefficients -> ambient 3-vectors."""
        c = np.asarray(coefficients, float).reshape(-1, 2)
        return c[:, :1] * self.e1 + c[:, 1:] * self.e2

    def to_frame(self, ambient_vectors):
        """Project ambient 3-vectors to the tangent planes, in coefficients."""
        v = np.asarray(ambient_vectors, float)
        return np.stack([np.sum(v * self.e1, axis=1),
                         np.sum(v * self.e2, axis=1)], axis=1)

    def rotated(self, angles):
        """New atlas with every frame rotated in-plane by the given angles.

        Coefficient fields transform contravariantly; the ambient view of
        any field is unchanged when its coefficients are rotated by the
        same angles.
        """
        b = np.asarray(angles, float)
        cb, sb = np.cos(b)[:, None], np.sin(b)[:, None]
        e1 = cb * self.e1 + sb * self.e2
        e2 = -sb * self.e1 + cb * self.e2
        return TangentFrameAtlas(self.mesh, self.normals, e1, e2, self.ring,
                                 self.angles - b[:, None])


def _one_rings(mesh: TriangleMesh):
    """(ring, wedges, closed) for every vertex, by one walk.

    Face side (k, a, b) turns k's ring from a to b, so its successor around
    k is the side (k, b). A walk starts at the smallest head among k's
    sides with no predecessor (the open end of a boundary fan), else at
    k's first side in face order; each pass advances every walk one side.
    wedges[k, m] is the angle from ring[k, m] to the next neighbour, 0 past
    the last side; closed says whether k's fan closes.
    """
    k_n, v, f = mesh.n_vertices, mesh.vertices, mesh.faces
    # side 3 * face + corner is (corner, next corner, the one after)
    tail, head, nxt = np.stack([f, np.roll(f, -1, axis=1),
                                np.roll(f, -2, axis=1)]).reshape(3, -1)
    degree = np.bincount(tail, minlength=k_n)
    if (degree == 0).any():
        raise FemError(f"vertex {np.argmin(degree)} lies on no face")
    code = tail * k_n + head
    order = np.argsort(code)
    code = code[order]
    dup = np.flatnonzero(code[1:] == code[:-1])
    if dup.size:
        raise FemError(f"non-manifold edge at vertex {tail[order[dup[0]]]}")
    want = tail * k_n + nxt
    pos = np.minimum(np.searchsorted(code, want), len(code) - 1)
    succ = np.where(code[pos] == want, order[pos], -1)
    has_pred = np.bincount(succ[succ >= 0], minlength=len(succ)) > 0
    # per vertex, open chain starts rank by head before any other side
    key = np.where(has_pred, k_n + np.arange(len(succ)), head)
    start = np.lexsort((key, tail))[np.cumsum(degree) - degree]

    ea, eb = v[head] - v[tail], v[nxt] - v[tail]
    cosang = _dot(ea, eb) / (np.sqrt(_dot(ea, ea)) * np.sqrt(_dot(eb, eb)))
    wedge = np.arccos(np.clip(cosang, -1.0, 1.0))
    ring = np.full((k_n, degree.max() + 1), -1)
    wedges = np.zeros(ring.shape)
    visited = np.zeros(k_n, dtype=int)
    ring[:, 0] = head[start]
    live, side = np.arange(k_n), start
    for m in range(degree.max()):
        wedges[live, m] = wedge[side]
        visited[live] = m + 1
        on = nxt[side] != ring[live, 0]          # the fan has not closed
        ring[live[on], m + 1] = nxt[side[on]]
        keep = on & (succ[side] >= 0)
        live, side = live[keep], succ[side[keep]]
    if (visited < degree).any():
        raise FemError(f"the faces at vertex {np.argmax(visited < degree)} "
                       "do not form one fan")
    return ring, wedges, has_pred[start]


def build_frames(mesh: TriangleMesh) -> TangentFrameAtlas:
    """Frames and intrinsic edge coordinates for every vertex.

    Interior wedge angles are scaled to sum to 2*pi; boundary ones keep
    their sizes. e1 seeds from the first ring neighbour, projected to the
    plane orthogonal to the vertex normal.
    """
    ring, wedges, closed = _one_rings(mesh)
    # cumulative sums add in ring order, as a walk around the vertex does
    total = np.cumsum(wedges, axis=1)[:, -1]
    scale = np.where(closed, 2.0 * np.pi / total, 1.0)
    turn = np.cumsum(wedges * scale[:, None], axis=1)
    angles = np.concatenate([np.zeros((len(ring), 1)), turn[:, :-1]], axis=1)
    angles[ring < 0] = np.nan

    v, normals = mesh.vertices, mesh.vertex_normals
    d = v[ring[:, 0]] - v
    d = d - _dot(d, normals)[:, None] * normals
    nd = np.sqrt(_dot(d, d))
    if (nd < 1e-14).any():
        raise FemError("degenerate tangent seed at vertex "
                       f"{np.argmax(nd < 1e-14)}")
    e1 = d / nd[:, None]
    return TangentFrameAtlas(mesh, normals, e1, np.cross(normals, e1), ring,
                             angles)


def transport_rotation(atlas: TangentFrameAtlas, i, j):
    """Rotation angle carrying coefficients at i to coefficients at j
    across edge (i, j); i and j may be index arrays."""
    return atlas.edge_angle(j, i) + np.pi - atlas.edge_angle(i, j)


def assemble_connection_matrices(mesh: TriangleMesh,
                                 atlas: TangentFrameAtlas):
    """Mass matrix R0 (lumped barycentric, SPD) and connection-Dirichlet
    stiffness R1 (symmetric PSD for non-obtuse meshes), both 2K x 2K.

    R1 realizes sum_edges w_ij |u_j - T_ij u_i|^2 with T_ij the parallel
    transport rotation and w_ij = -S_ij the cotangent weights of the scalar
    stiffness S, the Dirichlet energy of the parallel linear basis. Block
    (r, c) of R1 is S_rc times the rotation T_cr, the identity on the
    diagonal, so R1 has the sparsity of S.
    """
    k_n = mesh.n_vertices
    r0 = sparse.diags(np.repeat(lumped_mass(mesh), 2), format="csr")

    s = cotangent_stiffness(mesh)
    row = np.repeat(np.arange(k_n), np.diff(s.indptr))
    col = s.indices
    rho = np.zeros(len(col))
    lower, upper = row > col, row < col
    rho[lower] = transport_rotation(atlas, col[lower], row[lower])
    # T_ji is T_ij transposed; negating the angle keeps R1 exactly symmetric
    rho[upper] = -transport_rotation(atlas, row[upper], col[upper])
    cr, sr = np.cos(rho), np.sin(rho)
    rot = np.stack([cr, -sr, sr, cr], axis=1).reshape(-1, 2, 2)
    r1 = sparse.bsr_matrix((s.data[:, None, None] * rot, col, s.indptr),
                           shape=(2 * k_n, 2 * k_n))
    return r0, r1


@dataclass
class Connection:
    """The half of the demons system fixed by the surface, built once per
    surface: the frames, the coefficients held at zero by the Dirichlet
    conditions, and the eliminated regulariser R1 R0^-1 R1 restricted to
    the free coefficients."""

    atlas: TangentFrameAtlas
    boundary: np.ndarray             # (2K,) bool, boundary coefficients
    reg: sparse.spmatrix             # R1 R0^-1 R1, free rows and columns


def connection(mesh: TriangleMesh, atlas: TangentFrameAtlas) -> Connection:
    r0, r1 = assemble_connection_matrices(mesh, atlas)
    free = ~np.repeat(mesh.boundary_vertices, 2)
    reg = (r1 @ sparse.diags(1.0 / r0.diagonal()) @ r1).tocsr()
    return Connection(atlas, ~free, reg[free][:, free].tocsc())


def build_system(conn: Connection, j, z):
    """The per-update half of the system for the driving force J, given as
    (K, 2) frame coefficients, and the residual z: returns Theta2 (sparse
    block-diagonal J J^T) and the right-hand side Theta1 z with entries
    -z_k J_k."""
    k_n = conn.atlas.mesh.n_vertices
    j, z = np.asarray(j, float), np.asarray(z, float)
    if j.shape != (k_n, 2) or z.shape != (k_n,):
        raise ValueError("J and z must match the vertex count")
    if not np.all(np.isfinite(j)):
        raise ValueError("non-finite driving force")
    theta2 = sparse.bsr_matrix(
        (np.einsum("ka,kb->kab", j, j), np.arange(k_n), np.arange(k_n + 1)),
        shape=(2 * k_n, 2 * k_n))
    return theta2, (-z[:, None] * j).ravel()


def apply_dirichlet(conn: Connection, theta2, rhs):
    """Homogeneous Dirichlet conditions on boundary vertices, imposed
    exactly: returns Theta2 and the right-hand side restricted to the free
    coefficients. Theta2 is block-diagonal, so this keeps the free
    vertices' 2x2 blocks. No boundary: the inputs themselves, unchanged."""
    if not conn.boundary.any():
        return theta2, rhs
    free = ~conn.boundary
    return theta2.tocsr()[free][:, free], rhs[free]


def solve_update(conn: Connection, theta2, rhs, lam: float) -> np.ndarray:
    """Solve (Theta2 + lam R1 R0^-1 R1) u = Theta1 z on the free
    coefficients, the mixed system with its second field and its boundary
    coefficients eliminated (see the module docstring), with one sparse
    direct factorization in symmetric mode; returns u as (K, 2) frame
    coefficients, zero on the boundary."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    u = np.zeros(conn.boundary.shape)
    if not np.any(rhs):
        return u.reshape(-1, 2)
    a = (lam * conn.reg + theta2).tocsc()
    sol = splu(a, permc_spec="MMD_AT_PLUS_A",
               options={"SymmetricMode": True}).solve(rhs)
    if not np.all(np.isfinite(sol)):
        raise FemError("singular demons system; try a larger lambda")
    resid = np.linalg.norm(a @ sol - rhs)
    if resid > 1e-8 * np.linalg.norm(rhs):
        raise FemError(f"linear solve residual too large ({resid:.3e}); "
                       "try a larger lambda")
    u[~conn.boundary] = sol
    return u.reshape(-1, 2)
