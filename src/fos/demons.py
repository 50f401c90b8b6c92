"""Diffeomorphic demons-style registration of scalar functions living on a
fixed surface.

The mapping s is built as a composition of small vertex-based flows: each
outer iteration solves the regularized vector-FEM system for an update
field, takes one explicit Euler step, and reprojects onto the surface with
a closest-point map. A VertexMap holds s as the attachments of s(v) for
every vertex v; it lists its update fields only for bench/tracing.py.

Per registration call, what depends only on the surface is built once:
the FEM connection, the projector's tables and the vertex-gradient
operator. An update only gathers and combines: one sparse product per
gradient, the right-hand side, a banded solve and one projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .mesh import ScalarField, TriangleMesh, _cross, _dot, lumped_mass
from .tangent_fem import (Connection, TangentFrameAtlas, apply_dirichlet,
                          build_frames, build_system, connection,
                          solve_update)

N_NEAREST = 2       # nearest vertices whose one-rings SurfaceProjector tries


# -- surface geometry helpers -------------------------------------------------

def _gradient_basis(mesh: TriangleMesh) -> np.ndarray:
    """(F, 3, 3) gradient of each corner's hat function on each face,
    (nhat x e_i) / (2A) with e_i the edge opposite corner i."""
    tri = mesh.vertices[mesh.faces]
    edges = np.roll(tri, 1, axis=1) - np.roll(tri, -1, axis=1)
    return (_cross(mesh.face_normals[:, None], edges)
            / (2.0 * mesh.face_areas)[:, None, None])


def surface_gradient(mesh: TriangleMesh, values) -> np.ndarray:
    """Per-face gradient of a piecewise-linear scalar, shape (F, 3)."""
    fv = np.asarray(values, float)[mesh.faces]
    return np.einsum("fi,fij->fj", fv, _gradient_basis(mesh))


def gradient_operator(mesh: TriangleMesh,
                      atlas: TangentFrameAtlas) -> sparse.csr_matrix:
    """(2K, K) CSR operator of vertex_gradient, built once per surface:
    row 2k + c takes the area-weighted one-ring average of the face
    gradients at vertex k to its frame coefficient c."""
    ring = mesh.incidence.tocoo()          # one entry per (vertex, face)
    wa = mesh.face_areas
    weight = wa[ring.col] / (mesh.incidence @ wa)[ring.row]
    frames = np.stack([atlas.e1, atlas.e2], axis=1)[ring.row]  # (n, 2, 3)
    vals = weight[:, None, None] * np.einsum(
        "nij,ncj->nci", _gradient_basis(mesh)[ring.col], frames)
    rows, cols = np.broadcast_arrays(
        2 * ring.row[:, None, None] + np.arange(2)[:, None],
        mesh.faces[ring.col][:, None, :])
    return sparse.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                             shape=(2 * mesh.n_vertices, mesh.n_vertices))


def vertex_gradient(operator: sparse.csr_matrix, values) -> np.ndarray:
    """Area-weighted one-ring average of face gradients, projected to the
    vertex tangent planes, as (K, 2) frame coefficients: one product with
    the surface's gradient_operator per call."""
    return (operator @ np.asarray(values, float)).reshape(-1, 2)


class SurfaceProjector:
    """Closest-point projection onto a triangle mesh with barycentric
    attachment lookup. Candidate faces are the one-rings of the nearest
    vertices, so projection is exact for points near the surface; ties
    resolve to the lowest face index. Ericson's closest-point region test
    gives the barycentric coordinates: (1, 0, 0) at corner a, (1 - t, t, 0)
    on side ab, (u, v, w) inside, so an attachment to a side or corner
    carries exact zeros. The projected points are the corners weighted by
    them. Built once per surface: the faces around each vertex and one
    packed per-face table of corner a, sides ab and ac and the Gram entries
    ab.ab, ab.ac, ac.ac; a projection gathers its candidates' rows and runs
    the region test on (points, candidates) scalars."""

    def __init__(self, mesh: TriangleMesh):
        self.mesh = mesh
        # row k: the faces around vertex k in index order, padded with the
        # first of them
        inc = mesh.incidence
        counts = np.diff(inc.indptr)
        col = np.arange(counts.max())
        self._face_table = inc.indices[
            inc.indptr[:-1, None] + np.where(col < counts[:, None], col, 0)]
        tri = mesh.vertices[mesh.faces]
        ab, ac = tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]
        gram = [_dot(ab, ab), _dot(ab, ac), _dot(ac, ac)]
        self._tri_table = np.column_stack([tri[:, 0], ab, ac, *gram])

    def project(self, points):
        """Returns (projected points, face index, barycentric coords)."""
        pts = np.atleast_2d(np.asarray(points, float))
        _, nearest = self.mesh.tree.query(pts, k=N_NEAREST)
        cand = np.sort(self._face_table[nearest].reshape(len(pts), -1), axis=1)
        t = self._tri_table[cand]                      # (n, m, 12)
        ab, ac = t[..., 3:6], t[..., 6:9]
        ap = pts[:, None, :] - t[..., 0:3]
        d1, d2 = _dot(ab, ap), _dot(ac, ap)
        d3, d4 = d1 - t[..., 9], d2 - t[..., 10]       # ab.bp, ac.bp
        d5, d6 = d1 - t[..., 10], d2 - t[..., 11]      # ab.cp, ac.cp
        va = d3 * d6 - d5 * d4
        vb = d5 * d2 - d1 * d6
        vc = d1 * d4 - d3 * d2
        with np.errstate(divide="ignore", invalid="ignore"):
            v, w = vb / (va + vb + vc), vc / (va + vb + vc)   # interior
            t_bc = (d4 - d3) / ((d4 - d3) + (d5 - d6))
            t_ac = d2 / (d2 - d6)
            t_ab = d1 / (d1 - d3)
        bary = np.stack([1.0 - v - w, v, w])          # (3, n, m)
        # a later region takes precedence over an earlier one; a quotient
        # is only read inside its region, where its divisor is positive
        for region, weights in (
                ((va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0),
                 (0.0, 1.0 - t_bc, t_bc)),
                ((vb <= 0) & (d2 >= 0) & (d6 <= 0), (1.0 - t_ac, 0.0, t_ac)),
                ((vc <= 0) & (d1 >= 0) & (d3 <= 0), (1.0 - t_ab, t_ab, 0.0)),
                ((d6 >= 0) & (d5 <= d6), (0.0, 0.0, 1.0)),
                ((d3 >= 0) & (d4 <= d3), (0.0, 1.0, 0.0)),
                ((d1 <= 0) & (d2 <= 0), (1.0, 0.0, 0.0))):
            for out, value in zip(bary, weights):
                np.copyto(out, value, where=region)
        res = ap - bary[1, ..., None] * ab - bary[2, ..., None] * ac
        # argmin takes the first minimum; candidates are index-sorted, so
        # ties already resolve to the lowest face index
        best = np.argmin(_dot(res, res), axis=1)
        rows = np.arange(len(pts))
        faces, bary = cand[rows, best], bary[:, rows, best].T
        return (self.interpolate_at(faces, bary, self.mesh.vertices), faces,
                bary)

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
    `updates` lists, for each update composed so far, the largest vertex
    length of the applied ambient step, after the cap."""

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
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class DemonsResult:
    mapping: VertexMap
    warped: ScalarField             # moving o s on the fixed surface
    ssd_trace: np.ndarray
    iterations: int
    converged: bool


@dataclass
class _Demons:
    """What every update on one surface shares, built once per surface by
    _demons_setup: the surface's half of the FEM system, the regularization
    weight, the step cap, the lumped vertex mass of the SSD, the
    closest-point projector and the vertex-gradient operator."""

    conn: Connection
    lam: float
    step_cap: float
    mass: np.ndarray                # lumped vertex mass
    projector: SurfaceProjector
    grad: sparse.csr_matrix         # (2K, K) gradient_operator


def _demons_setup(mesh, config) -> _Demons:
    step_cap = config.max_step_frac * float(mesh.edge_lengths.mean())
    conn = connection(mesh, build_frames(mesh))
    return _Demons(conn, config.lam, step_cap, lumped_mass(mesh),
                   SurfaceProjector(mesh), gradient_operator(mesh, conn.atlas))


def _demons_step(d: _Demons, mapping, moving, warped, fixed, g_fixed):
    """One linearized demons update of `warped` (moving resampled at the
    attachments of `mapping`) toward `fixed`, whose frame gradient is
    g_fixed: solve for the update field, cap its largest step, compose it
    onto the attachments and re-project, advancing `mapping` in place.

    Returns the new warped values, or None when the update vanishes."""
    conn = d.conn
    g_w = vertex_gradient(d.grad, warped)
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
    mapping.updates.append(min(umax, d.step_cap))
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
    g_f = vertex_gradient(d.grad, f_vals)
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
    for i, v in enumerate(vals):
        if v.shape != (mesh.n_vertices,):
            raise ValueError(f"field {i} must match the vertex count")
    d = _demons_setup(mesh, config)
    start = d.projector.project(mesh.vertices)   # every map's identity
    mappings = [VertexMap(*start) for _ in vals]
    aligned = [v.copy() for v in vals]
    template = np.mean(aligned, axis=0)
    prev_evals = None
    stable = 0
    for _ in range(config.max_iterations):
        g_t = vertex_gradient(d.grad, template)
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
