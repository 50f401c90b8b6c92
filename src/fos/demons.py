"""Diffeomorphic demons-style registration of scalar functions living on a
fixed surface.

The mapping s is built as a composition of small vertex-based flows: each
outer iteration solves the regularized vector-FEM system for an update
field, takes one explicit Euler step, and reprojects onto the surface with
a closest-point map. A VertexMap holds s as the attachments of s(v) for
every vertex v; it lists its update fields only for bench/tracing.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import ScalarField, TriangleMesh, _dot, lumped_mass
from .tangent_fem import (Connection, TangentFrameAtlas, apply_dirichlet,
                          build_frames, build_system, connection,
                          solve_update)

N_NEAREST = 2       # nearest vertices whose one-rings SurfaceProjector tries


# -- surface geometry helpers -------------------------------------------------

def surface_gradient(mesh: TriangleMesh, values) -> np.ndarray:
    """Per-face gradient of a piecewise-linear scalar, shape (F, 3)."""
    f = np.asarray(values, float)
    tri = mesh.vertices[mesh.faces]
    a2 = 2.0 * mesh.face_areas
    nhat = mesh.face_normals
    # gradient = sum_i f_i (nhat x e_i) / (2A), e_i the edge opposite vertex i
    e0 = tri[:, 2] - tri[:, 1]
    e1 = tri[:, 0] - tri[:, 2]
    e2 = tri[:, 1] - tri[:, 0]
    fv = f[mesh.faces]
    return (fv[:, 0:1] * np.cross(nhat, e0) + fv[:, 1:2] * np.cross(nhat, e1)
            + fv[:, 2:3] * np.cross(nhat, e2)) / a2[:, None]


def vertex_gradient(mesh: TriangleMesh, values,
                    atlas: TangentFrameAtlas) -> np.ndarray:
    """Area-weighted one-ring average of face gradients, projected to the
    vertex tangent planes, as (K, 2) frame coefficients."""
    wa = mesh.face_areas
    acc = mesh.incidence @ (wa[:, None] * surface_gradient(mesh, values))
    return atlas.to_frame(acc / (mesh.incidence @ wa)[:, None])


def _closest_on_triangles(p, a, b, c):
    """Barycentric coordinates (..., 3) of the closest point to p on the
    triangles (a, b, c); all inputs broadcast to (..., 3). Ericson's
    Voronoi-region test gives them region by region: (1, 0, 0) at corner
    a, (1 - t, t, 0) on side ab, (1 - v - w, v, w) inside, so a point
    attached to a side or corner carries exact zeros."""
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


class SurfaceProjector:
    """Closest-point projection onto a triangle mesh with barycentric
    attachment lookup. Candidate faces are the one-rings of the nearest
    vertices, so projection is exact for points near the surface; ties
    resolve to the lowest face index. The barycentric coordinates are the
    ones the closest-point region test yields, and the projected points
    are the corners weighted by them."""

    def __init__(self, mesh: TriangleMesh):
        self.mesh = mesh
        # row k: the faces around vertex k in index order, padded with the
        # first of them
        inc = mesh.incidence
        counts = np.diff(inc.indptr)
        col = np.arange(counts.max())
        self._face_table = inc.indices[
            inc.indptr[:-1, None] + np.where(col < counts[:, None], col, 0)]

    def project(self, points):
        """Returns (projected points, face index, barycentric coords)."""
        pts = np.atleast_2d(np.asarray(points, float))
        _, nearest = self.mesh.tree.query(pts, k=N_NEAREST)
        cand = np.sort(self._face_table[nearest].reshape(len(pts), -1), axis=1)
        tri = self.mesh.vertices[self.mesh.faces[cand]]     # (n, m, 3, 3)
        bary = _closest_on_triangles(pts[:, None, :], tri[:, :, 0],
                                     tri[:, :, 1], tri[:, :, 2])
        q = np.einsum("nmi,nmij->nmj", bary, tri)
        d = np.sum((pts[:, None, :] - q) ** 2, axis=-1)
        # argmin takes the first minimum; candidates are index-sorted, so
        # ties already resolve to the lowest face index
        best = np.argmin(d, axis=1)
        rows = np.arange(len(pts))
        return q[rows, best], cand[rows, best], bary[rows, best]

    def interpolate_at(self, fidx, bary, vertex_values):
        """Barycentric interpolation of per-vertex values (scalar or
        vector) at known attachments."""
        vals = np.asarray(vertex_values, float)
        corners = vals[self.mesh.faces[fidx]]      # (n, 3, ...)
        w = bary.reshape(len(bary), 3, *([1] * (corners.ndim - 2)))
        return np.sum(w * corners, axis=1)


# -- the composed mapping -----------------------------------------------------

@dataclass
class VertexMap:
    """Mapping s of the surface into itself, held as the attachments of
    s(v) for every vertex v: the triple SurfaceProjector.project returns.
    `updates` lists the ambient update fields composed so far, one (K, 3)
    array each, for the update count of bench/tracing.py."""

    points: np.ndarray              # (K, 3) s(vertices)
    faces: np.ndarray               # (K,) face of each attachment
    bary: np.ndarray                # (K, 3) barycentric coordinates in it
    updates: list = field(default_factory=list)


# -- registration -------------------------------------------------------------

STALL_TOL = 1e-4          # relative SSD decrease defining a stall
STALL_ITERATIONS = 3      # consecutive stalls before register_functions stops


@dataclass
class DemonsConfig:
    """Settings of the demons update. The driving force J is the symmetric
    mean of the moving and fixed gradients, and boundary vertices are held
    fixed (a no-op on closed meshes). The defaults are the register-fun
    stage's, whose config block takes these fields as its keys."""

    lam: float = 3.0                 # regularization weight
    max_iterations: int = 15
    max_step_frac: float = 0.4      # step cap, fraction of mean edge length

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.max_step_frac <= 0:
            raise ValueError("max_step_frac must be positive")


@dataclass
class DemonsResult:
    mapping: VertexMap
    warped: ScalarField             # moving o s on the fixed surface
    ssd_trace: np.ndarray
    iterations: int
    converged: bool


@dataclass
class _Demons:
    """What every update on one surface shares: the surface's half of the
    FEM system, the regularization weight, the step cap, the lumped vertex
    mass of the SSD and the closest-point projector."""

    mesh: TriangleMesh
    conn: Connection
    lam: float
    step_cap: float
    mass: np.ndarray                # lumped vertex mass
    projector: SurfaceProjector


def _demons_setup(mesh, config) -> _Demons:
    step_cap = config.max_step_frac * float(mesh.edge_lengths.mean())
    return _Demons(mesh, connection(mesh, build_frames(mesh)), config.lam,
                   step_cap, lumped_mass(mesh), SurfaceProjector(mesh))


def _demons_step(d: _Demons, mapping, moving, warped, fixed, g_fixed):
    """One linearized demons update of `warped` (moving resampled at the
    attachments of `mapping`) toward `fixed`, whose frame gradient is
    g_fixed: solve for the update field, cap its largest step, compose it
    onto the attachments and re-project, advancing `mapping` in place.

    Returns the new warped values, or None when the update vanishes."""
    conn = d.conn
    g_w = vertex_gradient(d.mesh, warped, conn.atlas)
    theta2, rhs = apply_dirichlet(
        conn, *build_system(conn, -0.5 * (g_w + g_fixed), fixed - warped))
    amb = conn.atlas.to_ambient(solve_update(conn, theta2, rhs, d.lam))
    umax = float(np.linalg.norm(amb, axis=1).max())
    if umax < 1e-14:
        return None
    if umax > d.step_cap:
        amb = amb * (d.step_cap / umax)
    proj = d.projector
    mapping.points, mapping.faces, mapping.bary = proj.project(
        mapping.points + proj.interpolate_at(mapping.faces, mapping.bary, amb))
    mapping.updates.append(amb)
    return proj.interpolate_at(mapping.faces, mapping.bary, moving)


def _ssd(a, b, mass):
    return float(np.sum(mass * (a - b) ** 2))


def _values(f):
    return f.values if isinstance(f, ScalarField) else np.asarray(f, float)


def register_functions(mesh: TriangleMesh, moving, fixed,
                       config: DemonsConfig | None = None) -> DemonsResult:
    """Find s such that moving o s matches fixed, both given as per-vertex
    values (or ScalarFields) on the same surface."""
    config = config or DemonsConfig()
    m_vals, f_vals = _values(moving), _values(fixed)
    if m_vals.shape != (mesh.n_vertices,) or f_vals.shape != (mesh.n_vertices,):
        raise ValueError("value arrays must match the vertex count")

    d = _demons_setup(mesh, config)
    mapping = VertexMap(*d.projector.project(mesh.vertices))
    warped = m_vals.copy()
    trace = [_ssd(warped, f_vals, d.mass)]
    stalls = 0
    converged = False
    it = 0
    g_f = vertex_gradient(mesh, f_vals, d.conn.atlas)
    for it in range(1, config.max_iterations + 1):
        step = _demons_step(d, mapping, m_vals, warped, f_vals, g_f)
        if step is None:
            converged = True
            break
        warped = step
        trace.append(_ssd(warped, f_vals, d.mass))
        if trace[-2] - trace[-1] < STALL_TOL * trace[0]:
            stalls += 1
            if stalls >= STALL_ITERATIONS:
                converged = True
                break
        else:
            stalls = 0
    return DemonsResult(mapping, ScalarField(mesh, warped),
                        np.asarray(trace), it, converged)


def _top_eigenvalues(aligned, mass):
    """The three leading eigenvalues of the empirical covariance of the
    field stack in the lumped mass inner product (via the n x n Gram)."""
    xc = np.asarray(aligned, float) - np.mean(aligned, axis=0)
    return np.linalg.eigvalsh((xc * mass) @ xc.T / len(xc))[::-1][:3]


def groupwise_template(mesh: TriangleMesh, fields,
                       config: DemonsConfig | None = None):
    """Joint alignment of n fields on one surface: starting from identity
    maps and the cross-sectional mean as template, each iteration applies
    one linearized demons update per subject toward the current template,
    recomposes the maps, and re-estimates the template as the mean of the
    aligned fields. Stops when the three leading eigenvalues of the
    aligned-field covariance all change by less than 1% over two
    consecutive iterations (scree stability), or at max_iterations.

    Returns (template values, list of VertexMap, list of aligned values).
    """
    config = config or DemonsConfig()
    vals = [_values(f) for f in fields]
    if len(vals) < 2:
        raise ValueError("need at least two fields")
    d = _demons_setup(mesh, config)
    start = d.projector.project(mesh.vertices)   # every map's identity
    mappings = [VertexMap(*start) for _ in vals]
    aligned = [v.copy() for v in vals]
    template = np.mean(aligned, axis=0)
    prev_evals = None
    stable = 0
    for _ in range(config.max_iterations):
        g_t = vertex_gradient(mesh, template, d.conn.atlas)
        for i, mapping in enumerate(mappings):
            step = _demons_step(d, mapping, vals[i], aligned[i], template, g_t)
            if step is not None:
                aligned[i] = step
        template = np.mean(aligned, axis=0)
        evals = _top_eigenvalues(aligned, d.mass)
        if prev_evals is not None and np.all(
                np.abs(evals - prev_evals)
                <= 0.01 * np.maximum(prev_evals, 1e-300)):
            stable += 1
            if stable >= 2:
                break
        else:
            stable = 0
        prev_evals = evals
    return template, mappings, aligned
