"""Per-vertex tangent frames, vector finite-element matrices for tangent
fields on a triangle mesh, and the solve of the linearized demons update.

The update is the first field u of the mixed system

    [Theta2   lam R1] [u]   [Theta1 z]
    [lam R1  -lam R0] [h] = [   0    ].

Its second row gives h = R0^-1 R1 u, so u solves the Schur complement

    (Theta2 + lam R1 R0^-1 R1) u = Theta1 z,

a 2K x 2K symmetric positive (semi-)definite system with half the unknowns
of the 4K x 4K indefinite one. The elimination is exact and cheap because
R0 is the diagonal lumped mass; a consistent (non-diagonal) R0 would make
R0^-1 dense and need the mixed form back.

Half of the system depends only on the surface: the frames, R0, R1,
R1 R0^-1 R1, the boundary coefficients and the surface's share of the
Dirichlet penalty. `connection` builds that half once per surface as a
`Connection`. The other half changes with every update: `build_system`
makes Theta2 and Theta1 z from the driving force J and the residual z,
`apply_dirichlet` holds the boundary at zero, and `solve_update` returns u.

Frames follow the angle-normalized one-ring construction: wedge angles
around each interior vertex are scaled to sum to 2*pi, edges get intrinsic
polar coordinates, and parallel transport across an edge is the rotation
aligning the edge's coordinates at its two endpoints. Boundary vertices
keep their actual angles (no scaling), which makes the connection exactly
flat on planar patches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .mesh import TriangleMesh, cotangent_stiffness, lumped_mass


class FemError(RuntimeError):
    pass


@dataclass
class TangentFrameAtlas:
    """Orthonormal tangent frames plus intrinsic edge angle coordinates.

    edge_angle[(i, j)] is the polar angle of the directed edge i->j in the
    normalized tangent coordinates at vertex i, measured from e1_i.
    """

    mesh: TriangleMesh
    normals: np.ndarray          # (K, 3)
    e1: np.ndarray               # (K, 3)
    e2: np.ndarray               # (K, 3)
    edge_angle: dict

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
        edge_angle = {(i, j): a - b[i] for (i, j), a in self.edge_angle.items()}
        return TangentFrameAtlas(self.mesh, self.normals, e1, e2, edge_angle)


def _vertex_rings(mesh: TriangleMesh):
    """Ordered one-ring neighbors and wedge angles per vertex.

    Returns (rings, angles): rings[k] is the ccw-ordered neighbor list, and
    angles[k][m] the wedge angle between rings[k][m] and rings[k][m+1].
    Boundary rings are open chains. Raises FemError on non-manifold edges.
    """
    v = mesh.vertices
    succ = [dict() for _ in range(mesh.n_vertices)]
    wedge = [dict() for _ in range(mesh.n_vertices)]
    first_nb = [None] * mesh.n_vertices
    for face in mesh.faces:
        for k, a, b in ((face[0], face[1], face[2]),
                        (face[1], face[2], face[0]),
                        (face[2], face[0], face[1])):
            if a in succ[k]:
                raise FemError(f"non-manifold edge at vertex {k}")
            succ[k][a] = b
            ea, eb = v[a] - v[k], v[b] - v[k]
            cosang = np.dot(ea, eb) / (np.linalg.norm(ea) * np.linalg.norm(eb))
            wedge[k][a] = float(np.arccos(np.clip(cosang, -1.0, 1.0)))
            if first_nb[k] is None:
                first_nb[k] = a

    rings, angles = [], []
    for k in range(mesh.n_vertices):
        s = succ[k]
        if not s:
            rings.append([])
            angles.append([])
            continue
        targets = set(s.values())
        starts = [nb for nb in s if nb not in targets]
        if starts:                       # boundary: open chain
            start = min(starts)
        else:                            # interior: closed ring
            start = first_nb[k]
        ring = [start]
        ang = []
        cur = start
        while cur in s:
            ang.append(wedge[k][cur])
            cur = s[cur]
            if cur == start:
                break
            ring.append(cur)
        rings.append(ring)
        angles.append(ang)
    return rings, angles


def build_frames(mesh: TriangleMesh) -> TangentFrameAtlas:
    """Frames and intrinsic edge coordinates for every vertex.

    e1 seeds from the first edge of the ordered ring (the chain start on
    the boundary), projected to the plane orthogonal to the vertex normal.
    """
    rings, angles = _vertex_rings(mesh)
    v = mesh.vertices
    normals = mesh.vertex_normals
    e1 = np.zeros_like(v)
    e2 = np.zeros_like(v)
    edge_angle = {}
    boundary = mesh.boundary_vertices
    for k in range(mesh.n_vertices):
        ring = rings[k]
        if not ring:
            e1[k] = [1.0, 0.0, 0.0]
            e2[k] = np.cross(normals[k], e1[k])
            continue
        total = sum(angles[k])
        closed = len(angles[k]) == len(ring) and not boundary[k]
        scale = (2.0 * np.pi / total) if closed and total > 0 else 1.0
        cum = 0.0
        edge_angle[(k, ring[0])] = 0.0
        for m, th in enumerate(angles[k]):
            cum += th * scale
            if m + 1 < len(ring):
                edge_angle[(k, ring[m + 1])] = cum
        d = v[ring[0]] - v[k]
        d = d - np.dot(d, normals[k]) * normals[k]
        nd = np.linalg.norm(d)
        if nd < 1e-14:
            raise FemError(f"degenerate tangent seed at vertex {k}")
        e1[k] = d / nd
        e2[k] = np.cross(normals[k], e1[k])
    return TangentFrameAtlas(mesh, normals, e1, e2, edge_angle)


def _edge_angles(atlas: TangentFrameAtlas, i, j):
    """atlas.edge_angle[(i, j)] looked up for index arrays i and j."""
    keys = np.array(list(atlas.edge_angle), dtype=int).reshape(-1, 2)
    angles = np.fromiter(atlas.edge_angle.values(), float, len(keys))
    k = atlas.mesh.n_vertices
    code = keys[:, 0] * k + keys[:, 1]
    order = np.argsort(code)
    pos = np.searchsorted(code, np.asarray(i) * k + j, sorter=order)
    return angles[order[pos]]


def transport_rotation(atlas: TangentFrameAtlas, i, j):
    """Rotation angle carrying coefficients at i to coefficients at j
    across edge (i, j); i and j may be index arrays."""
    return _edge_angles(atlas, j, i) + np.pi - _edge_angles(atlas, i, j)


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
    surface: frames, R0, R1, the eliminated regulariser R1 R0^-1 R1, the
    coefficients held at zero by the Dirichlet conditions, and the R0/R1
    diagonal maximum that scales the Dirichlet penalty."""

    atlas: TangentFrameAtlas
    r0: sparse.spmatrix
    r1: sparse.spmatrix
    reg: sparse.spmatrix             # R1 R0^-1 R1
    boundary: np.ndarray             # (2K,) bool, boundary coefficients
    diag_max: float                  # max(|diag R0|, |diag R1|)


def connection(mesh: TriangleMesh, atlas: TangentFrameAtlas) -> Connection:
    r0, r1 = assemble_connection_matrices(mesh, atlas)
    # R0 is diagonal, so the elimination of h keeps the system sparse
    reg = (r1 @ sparse.diags(1.0 / r0.diagonal()) @ r1).tocsc()
    diag_max = max(abs(r0.diagonal()).max(), abs(r1.diagonal()).max())
    return Connection(atlas, r0, r1, reg,
                      np.repeat(mesh.boundary_vertices, 2), diag_max)


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
    """Homogeneous Dirichlet conditions on boundary vertices by penalty:
    add M to the two diagonal entries of Theta2 at each boundary vertex and
    zero the matching right-hand-side entries. No boundary, no change."""
    if not conn.boundary.any():
        return theta2, rhs
    # Theta2 from build_system holds vertex k's 2x2 block at data[k]
    data = theta2.data.copy()
    # per-vertex coefficient-norm of the theta2 blocks (the block trace)
    # rather than single diagonal entries, so the penalty — and with it
    # the solution — does not depend on the in-plane frame choice
    penalty = 1e8 * max((data[:, 0, 0] + data[:, 1, 1]).max(), conn.diag_max)
    data[conn.boundary[0::2]] += penalty * np.eye(2)
    theta2 = sparse.bsr_matrix((data, theta2.indices, theta2.indptr),
                               shape=theta2.shape)
    return theta2, np.where(conn.boundary, 0.0, rhs)


def solve_update(conn: Connection, theta2, rhs, lam: float) -> np.ndarray:
    """Solve (Theta2 + lam R1 R0^-1 R1) u = Theta1 z, the mixed system with
    its second field eliminated (see the module docstring), with a sparse
    direct factorization in symmetric mode; returns u as (K, 2) frame
    coefficients."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if not np.any(rhs):
        return np.zeros((len(rhs) // 2, 2))
    a = (lam * conn.reg + theta2).tocsc()
    factor = splu(a, permc_spec="MMD_AT_PLUS_A",
                  options={"SymmetricMode": True})
    sol = factor.solve(rhs)
    if not np.all(np.isfinite(sol)):
        raise FemError("singular demons system; try a larger lambda")
    # two rounds of iterative refinement recover the accuracy lost to the
    # ill-conditioning introduced by the Dirichlet penalty
    for _ in range(2):
        sol = sol + factor.solve(rhs - a @ sol)
    resid = np.linalg.norm(a @ sol - rhs)
    if resid > 1e-8 * np.linalg.norm(rhs):
        raise FemError(f"linear solve residual too large ({resid:.3e}); "
                       "try a larger lambda")
    return sol.reshape(-1, 2)
