"""Diffeomorphic demons-style registration of scalar functions living on a
fixed surface.

The mapping s is built as a composition of small vertex-based flows: each
outer iteration solves the regularized vector-FEM system for an update
field, takes one explicit Euler step, and reprojects onto the surface with
a closest-point map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .mesh import ScalarField, TriangleMesh, lumped_mass
from .tangent_fem import (Connection, TangentFrameAtlas, apply_dirichlet,
                          build_frames, build_system, connection,
                          solve_update)

N_NEAREST = 2       # nearest vertices whose one-rings SurfaceProjector tries


# -- surface geometry helpers -------------------------------------------------

def surface_gradient(mesh: TriangleMesh, values) -> np.ndarray:
    """Per-face gradient of a piecewise-linear scalar, shape (F, 3)."""
    f = np.asarray(values, float)
    tri = mesh.vertices[mesh.faces]
    n = mesh.face_area_normals
    a2 = 2.0 * mesh.face_areas
    nhat = n / (0.5 * a2)[:, None]
    # gradient = sum_i f_i (nhat x e_i) / (2A), e_i the edge opposite vertex i
    e0 = tri[:, 2] - tri[:, 1]
    e1 = tri[:, 0] - tri[:, 2]
    e2 = tri[:, 1] - tri[:, 0]
    fv = f[mesh.faces]
    g = (fv[:, 0:1] * np.cross(nhat, e0) + fv[:, 1:2] * np.cross(nhat, e1)
         + fv[:, 2:3] * np.cross(nhat, e2)) / a2[:, None]
    return g


def vertex_gradient(mesh: TriangleMesh, values,
                    atlas: TangentFrameAtlas) -> np.ndarray:
    """Area-weighted one-ring average of face gradients, projected to the
    vertex tangent planes, as (K, 2) frame coefficients."""
    g = surface_gradient(mesh, values)
    acc = np.zeros_like(mesh.vertices)
    wsum = np.zeros(mesh.n_vertices)
    wa = mesh.face_areas
    for col in range(3):
        np.add.at(acc, mesh.faces[:, col], wa[:, None] * g)
        np.add.at(wsum, mesh.faces[:, col], wa)
    acc /= wsum[:, None]
    return atlas.to_frame(acc)


def _closest_on_triangles(p, a, b, c):
    """Vectorized closest point on triangles; all inputs broadcast to
    (..., 3). Returns closest points of the same shape."""
    ab, ac, ap = b - a, c - a, p - a
    d1 = np.sum(ab * ap, axis=-1)
    d2 = np.sum(ac * ap, axis=-1)
    bp = p - b
    d3 = np.sum(ab * bp, axis=-1)
    d4 = np.sum(ac * bp, axis=-1)
    cp = p - c
    d5 = np.sum(ab * cp, axis=-1)
    d6 = np.sum(ac * cp, axis=-1)
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

    out = a + v_in[..., None] * ab + w_in[..., None] * ac   # interior default
    reg_bc = (va <= 0) & ((d4 - d3) >= 0) & ((d5 - d6) >= 0)
    reg_ac = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    reg_ab = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    reg_c = (d6 >= 0) & (d5 <= d6)
    reg_b = (d3 >= 0) & (d4 <= d3)
    reg_a = (d1 <= 0) & (d2 <= 0)
    out = np.where(reg_bc[..., None], b + t_bc[..., None] * (c - b), out)
    out = np.where(reg_ac[..., None], a + t_ac[..., None] * ac, out)
    out = np.where(reg_ab[..., None], a + t_ab[..., None] * ab, out)
    out = np.where(reg_c[..., None], c, out)
    out = np.where(reg_b[..., None], b, out)
    out = np.where(reg_a[..., None], a, out)
    return out


def _barycentric_rows(p, tri):
    """Barycentric coordinates of points (n, 3) in triangles (n, 3, 3)."""
    v0, v1 = tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]
    v2 = p - tri[:, 0]
    d00 = np.sum(v0 * v0, axis=1)
    d01 = np.sum(v0 * v1, axis=1)
    d11 = np.sum(v1 * v1, axis=1)
    d20 = np.sum(v2 * v0, axis=1)
    d21 = np.sum(v2 * v1, axis=1)
    denom = d00 * d11 - d01 * d01
    v = (d11 * d20 - d01 * d21) / denom
    w = (d00 * d21 - d01 * d20) / denom
    return np.clip(np.stack([1.0 - v - w, v, w], axis=1), 0.0, 1.0)


class SurfaceProjector:
    """Closest-point projection onto a triangle mesh with barycentric
    attachment lookup. Candidate faces are the one-rings of the nearest
    vertices, so projection is exact for points near the surface; ties
    resolve to the lowest face index."""

    def __init__(self, mesh: TriangleMesh):
        self.mesh = mesh
        self.tree = cKDTree(mesh.vertices)
        # row k: the faces around vertex k in index order, padded with the
        # first of them
        corners = mesh.faces.ravel()
        order = np.argsort(corners, kind="stable")
        counts = np.bincount(corners, minlength=mesh.n_vertices)
        col = np.arange(counts.max())
        pick = np.cumsum(counts)[:, None] - counts[:, None] \
            + np.where(col < counts[:, None], col, 0)
        self._face_table = order[pick] // 3

    def project(self, points):
        """Returns (projected points, face index, barycentric coords)."""
        pts = np.atleast_2d(np.asarray(points, float))
        _, nearest = self.tree.query(pts, k=N_NEAREST)
        nearest = nearest.reshape(len(pts), -1)
        cand = np.sort(self._face_table[nearest].reshape(len(pts), -1), axis=1)
        tri = self.mesh.vertices[self.mesh.faces[cand]]     # (n, m, 3, 3)
        q = _closest_on_triangles(pts[:, None, :], tri[:, :, 0],
                                  tri[:, :, 1], tri[:, :, 2])
        d = np.sum((pts[:, None, :] - q) ** 2, axis=-1)
        # argmin takes the first minimum; candidates are index-sorted, so
        # ties already resolve to the lowest face index
        best = np.argmin(d, axis=1)
        rows = np.arange(len(pts))
        out = q[rows, best]
        fidx = cand[rows, best]
        bary = _barycentric_rows(out, self.mesh.vertices[self.mesh.faces[fidx]])
        return out, fidx, bary

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
    """Mapping s of the surface into itself, stored as the sequence of
    per-vertex ambient update fields it was composed from."""

    mesh: TriangleMesh
    projector: SurfaceProjector
    updates: list = field(default_factory=list)   # each (K, 3) ambient

    def apply(self, points) -> np.ndarray:
        """s(points): run the update flows in composition order."""
        proj = self.projector
        p, fidx, bary = proj.project(np.asarray(points, float))
        for u in self.updates:
            p, fidx, bary = proj.project(p + proj.interpolate_at(fidx, bary, u))
        return p


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


def _demons_setup(mesh, config, atlas) -> _Demons:
    if atlas is None:
        atlas = build_frames(mesh)
    step_cap = config.max_step_frac * float(mesh.edge_lengths.mean())
    return _Demons(mesh, connection(mesh, atlas), config.lam, step_cap,
                   lumped_mass(mesh), SurfaceProjector(mesh))


def _demons_step(d: _Demons, state, moving, warped, fixed, g_fixed):
    """One linearized demons update of `warped` (moving resampled at the
    surface attachments `state`) toward `fixed`, whose frame gradient is
    g_fixed: solve for the update field, cap its largest step, compose it
    onto the attachments and re-project.

    Returns (ambient update, new state, new warped values), or None when
    the update vanishes."""
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
    cur, cur_f, cur_b = state
    proj = d.projector
    state = proj.project(cur + proj.interpolate_at(cur_f, cur_b, amb))
    return amb, state, proj.interpolate_at(state[1], state[2], moving)


def _ssd(a, b, mass):
    return float(np.sum(mass * (a - b) ** 2))


def _values(f):
    return f.values if isinstance(f, ScalarField) else np.asarray(f, float)


def register_functions(mesh: TriangleMesh, moving, fixed,
                       config: DemonsConfig | None = None,
                       atlas: TangentFrameAtlas | None = None) -> DemonsResult:
    """Find s such that moving o s matches fixed, both given as per-vertex
    values (or ScalarFields) on the same surface."""
    config = config or DemonsConfig()
    m_vals, f_vals = _values(moving), _values(fixed)
    if m_vals.shape != (mesh.n_vertices,) or f_vals.shape != (mesh.n_vertices,):
        raise ValueError("value arrays must match the vertex count")

    d = _demons_setup(mesh, config, atlas)
    mapping = VertexMap(mesh, d.projector)
    state = d.projector.project(mesh.vertices)     # running s(vertices)
    warped = m_vals.copy()
    trace = [_ssd(warped, f_vals, d.mass)]
    stalls = 0
    converged = False
    it = 0
    g_f = vertex_gradient(mesh, f_vals, d.conn.atlas)
    for it in range(1, config.max_iterations + 1):
        step = _demons_step(d, state, m_vals, warped, f_vals, g_f)
        if step is None:
            converged = True
            break
        amb, state, warped = step
        mapping.updates.append(amb)
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


def _top_eigenvalues(aligned, mass, k=3):
    """Leading eigenvalues of the empirical covariance of the field stack
    in the lumped mass inner product (via the n x n Gram matrix)."""
    x = np.asarray(aligned, float)
    xc = x - x.mean(axis=0)
    gram = (xc * mass) @ xc.T / len(x)
    evals = np.linalg.eigvalsh(gram)[::-1]
    return evals[:k]


def groupwise_template(mesh: TriangleMesh, fields,
                       config: DemonsConfig | None = None,
                       atlas: TangentFrameAtlas | None = None):
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
    n = len(vals)
    if n < 2:
        raise ValueError("need at least two fields")
    d = _demons_setup(mesh, config, atlas)
    mappings = [VertexMap(mesh, d.projector) for _ in range(n)]
    states = [d.projector.project(mesh.vertices)] * n
    aligned = [v.copy() for v in vals]
    template = np.mean(aligned, axis=0)
    prev_evals = None
    stable = 0
    for _ in range(config.max_iterations):
        g_t = vertex_gradient(mesh, template, d.conn.atlas)
        for i in range(n):
            step = _demons_step(d, states[i], vals[i], aligned[i], template,
                                g_t)
            if step is None:
                continue
            amb, states[i], aligned[i] = step
            mappings[i].updates.append(amb)
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
