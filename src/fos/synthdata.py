"""Synthetic data: parametric template surfaces, planted geometric and
functional modes of variation, and noisy samples from the generative model

    M_i = deform(template, a_i1 psi1_G + a_i2 psi2_G)
    X_i = mu + delta a_i2 psi1_F
    Y_i = X_i transported with the deformation + vertex noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .kernels import GaussianKernel, default_deformation_kernel
from .lddmm import InitialMomenta, ShootingError, flow_points, shoot
from .mesh import ScalarField, TriangleMesh


# -- parametric templates ----------------------------------------------------

def icosphere(subdivisions: int = 3, radius: float = 1.0) -> TriangleMesh:
    """Unit icosahedron subdivided and projected to the sphere."""
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
        [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
        [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=int)
    for _ in range(subdivisions):
        verts, faces = _subdivide(verts, faces)
        verts /= np.linalg.norm(verts, axis=1)[:, None]
    return TriangleMesh(radius * verts, faces)


def _subdivide(verts, faces):
    verts = list(verts)
    midpoint = {}

    def mid(i, j):
        key = (min(i, j), max(i, j))
        if key not in midpoint:
            verts.append(0.5 * (np.asarray(verts[i]) + np.asarray(verts[j])))
            midpoint[key] = len(verts) - 1
        return midpoint[key]

    out = []
    for a, b, c in faces:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        out.extend([[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]])
    return np.array(verts), np.array(out, dtype=int)


def ellipsoid_patch(subdivisions: int = 3, axes=(1.5, 1.0, 0.8),
                    zcut: float = 0.15) -> TriangleMesh:
    """Open patch with boundary: the upper part of a scaled icosphere.

    Keeps the faces whose vertices all satisfy z >= zcut, then rescales by
    the ellipsoid semi-axes. Stands in for the anatomical templates used
    with boundary conditions.
    """
    sphere = icosphere(subdivisions)
    keep = np.all(sphere.vertices[sphere.faces][:, :, 2] >= zcut, axis=1)
    faces = sphere.faces[keep]
    used = np.unique(faces)
    remap = -np.ones(sphere.n_vertices, dtype=int)
    remap[used] = np.arange(len(used))
    verts = sphere.vertices[used] * np.asarray(axes, float)
    return TriangleMesh(verts, remap[faces])


def refine_mesh(mesh: TriangleMesh, levels: int = 1) -> TriangleMesh:
    """Linear 1-to-4 subdivision. The input vertices keep their indices as
    the first block of the refined vertex list."""
    verts, faces = mesh.vertices, mesh.faces
    for _ in range(levels):
        verts, faces = _subdivide(verts, faces)
    return TriangleMesh(verts, faces)


def graph_geodesic_distances(mesh: TriangleMesh, source: int) -> np.ndarray:
    """Dijkstra distance along mesh edges from one vertex."""
    e, w = mesh.edges, mesh.edge_lengths
    n = mesh.n_vertices
    g = csr_matrix((np.concatenate([w, w]),
                    (np.concatenate([e[:, 0], e[:, 1]]),
                     np.concatenate([e[:, 1], e[:, 0]]))), shape=(n, n))
    return dijkstra(g, indices=source)


# -- planted modes -----------------------------------------------------------

@dataclass
class SimModes:
    psi1_g: InitialMomenta     # elongation, unit V-norm
    psi2_g: InitialMomenta     # isotropic scaling, unit V-norm
    psi1_f: ScalarField        # localized bump on the template
    mu: ScalarField
    # same functional mode and mean sampled on the (finer) observation
    # mesh; equal to psi1_f / mu when observations live on the template
    psi1_f_obs: ScalarField
    mu_obs: ScalarField


def _v_inner(kernel, points, a1, a2):
    return float(np.sum((kernel.gram(points) @ a2) * a1))


def make_modes(template: TriangleMesh, kernel: GaussianKernel,
               seed: int = 0,
               observation_mesh: TriangleMesh | None = None) -> SimModes:
    """Two V-orthonormal geometric modes and one unit-norm functional bump.

    The momenta fields are smooth by construction (kernel smoothing of the
    raw elongation/scaling displacement patterns), so the seed only picks
    the bump location deterministically among the interior vertices.

    When an observation mesh is given (a refinement of the template whose
    first vertices coincide with the template's), the functional mode and
    mean are sampled on it as well; the template versions are their
    restrictions.
    """
    pts = template.vertices
    centroid = pts.mean(axis=0)
    extents = pts.max(axis=0) - pts.min(axis=0)
    axis = int(np.argmax(extents))

    # elongation along the principal axis
    a1 = np.zeros_like(pts)
    a1[:, axis] = pts[:, axis] - centroid[axis]
    # isotropic scaling about the centroid
    a2 = pts - centroid

    # Gram-Schmidt in the V inner product
    n1 = np.sqrt(_v_inner(kernel, pts, a1, a1))
    a1 = a1 / n1
    a2 = a2 - _v_inner(kernel, pts, a2, a1) * a1
    a2 = a2 / np.sqrt(_v_inner(kernel, pts, a2, a2))

    psi1_g = InitialMomenta(pts, a1, kernel)
    psi2_g = InitialMomenta(pts, a2, kernel)

    obs = template if observation_mesh is None else observation_mesh
    k_t = template.n_vertices
    if not np.allclose(obs.vertices[:k_t], pts):
        raise ValueError("observation mesh must refine the template "
                         "(template vertices first)")

    rng = np.random.default_rng(seed)
    interior = np.flatnonzero(~template.boundary_vertices)
    if len(interior) == 0:
        interior = np.arange(template.n_vertices)
    source = int(rng.choice(interior))
    dist = graph_geodesic_distances(obs, source)
    width = 0.15 * float(np.linalg.norm(extents))
    bump = np.exp(-dist ** 2 / (2.0 * width ** 2))
    # unit peak amplitude: the planted signal's standard deviation at the
    # bump center is delta * sigma2 regardless of mesh resolution, keeping
    # a fixed signal-to-noise ratio against the iid vertex noise
    bump /= np.abs(bump[:k_t]).max()
    psi1_f = ScalarField(template, bump[:k_t])
    psi1_f_obs = ScalarField(obs, bump)

    # mean with two localized high-contrast features placed away from the
    # functional mode: misalignment of the subjects leaves strong residuals
    # on the feature flanks, which is the variability that functional
    # registration is able to remove (unlike amplitude differences)
    c1 = int(np.argmax(dist[:k_t]))
    d1 = graph_geodesic_distances(obs, c1)
    c2 = int(np.argmax(np.minimum(d1, dist)[:k_t]))
    d2 = graph_geodesic_distances(obs, c2)
    mu_vals = 2.5 + 3.0 * np.exp(-(d1 / width) ** 2) \
        + 2.0 * np.exp(-(d2 / width) ** 2)
    mu = ScalarField(template, mu_vals[:k_t])
    mu_obs = ScalarField(obs, mu_vals)
    return SimModes(psi1_g, psi2_g, psi1_f, mu, psi1_f_obs, mu_obs)


# -- dataset generation --------------------------------------------------------

TEMPLATES = {"ellipsoid-patch": ellipsoid_patch, "sphere": icosphere}


@dataclass
class SimSpec:
    """Settings of the generative model. The defaults are the simulate
    stage's, whose config block takes these fields as its keys."""

    n: int = 50
    sigma1: float = 15.0
    sigma2: float = 10.0
    delta: float = 0.1
    sigma_noise: float = 0.3
    seed: int = 0
    template: str = "ellipsoid-patch"   # a key of TEMPLATES
    subdivisions: int = 3
    # overall template size; unit-V-norm modes displace by O(1) length units
    # regardless of template size, so this sets the relative deformation scale
    scale: float = 12.0
    # extra subdivision levels of the observed subject meshes relative to
    # the analysis template, so subjects share no discretization with it
    observation_subdivisions: int = 1
    shooting_steps: int = 10
    kernel_large: float = 0.4
    kernel_small: float = 0.1

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if min(self.sigma1, self.sigma2) <= 0:
            raise ValueError("score standard deviations must be positive")
        if self.template not in TEMPLATES:
            raise ValueError(f"unknown template kind {self.template!r}")
        if self.shooting_steps < 1:
            raise ValueError("shooting_steps must be >= 1")
        if min(self.scale, self.kernel_large, self.kernel_small) <= 0:
            raise ValueError("scale and kernel widths must be positive")


@dataclass
class SimDataset:
    template: TriangleMesh
    kernel: GaussianKernel
    modes: SimModes
    meshes: list
    fields: list                    # ScalarField on each deformed mesh (Y_i)
    scores: np.ndarray              # (n, 2) true (a_i1, a_i2)
    true_x: np.ndarray              # (n, K) noiseless X_i at template vertices
    redraws: int = 0
    observation_template: TriangleMesh = None
    # true deformed positions of the template vertices per subject (n, K, 3)
    true_vertex_images: np.ndarray = None


def make_template(spec: SimSpec) -> TriangleMesh:
    base = TEMPLATES[spec.template](spec.subdivisions)
    return base.with_vertices(spec.scale * base.vertices)


def generate_dataset(spec: SimSpec, template=None) -> SimDataset:
    """Draw n subjects from the generative model. Deterministic per spec:
    subject i uses the derived seed (spec.seed, i).

    Subjects are observed on a refined copy of the template (controlled by
    spec.observation_subdivisions) so that no vertex-level correspondence
    with the analysis template survives into the estimation pipeline;
    ground truth (scores, noiseless fields, true vertex images) is kept at
    template resolution.
    """
    if template is None:
        template = make_template(spec)
    kernel = default_deformation_kernel(template, spec.kernel_large,
                                        spec.kernel_small)
    obs = refine_mesh(template, spec.observation_subdivisions) \
        if spec.observation_subdivisions > 0 else template
    modes = make_modes(template, kernel, spec.seed, obs)

    k_t = template.n_vertices
    meshes, fields = [], []
    scores = np.empty((spec.n, 2))
    true_x = np.empty((spec.n, k_t))
    images = np.empty((spec.n, k_t, 3))
    redraws = 0
    for i in range(spec.n):
        rng = np.random.default_rng((spec.seed, i))
        for _ in range(20):
            a1 = rng.normal(0.0, spec.sigma1)
            a2 = rng.normal(0.0, spec.sigma2)
            alpha = a1 * modes.psi1_g.momenta + a2 * modes.psi2_g.momenta
            v0 = InitialMomenta(template.vertices, alpha, kernel)
            try:
                path = shoot(v0, spec.shooting_steps)
                flowed = flow_points(path, obs.vertices)
            except ShootingError:
                redraws += 1
                continue
            deformed = obs.with_vertices(flowed)
            if np.any(_signed_area_flip(obs, deformed)):
                redraws += 1
                continue
            break
        else:
            raise RuntimeError(f"subject {i}: shooting kept diverging")

        x_obs = modes.mu_obs.values + spec.delta * a2 * modes.psi1_f_obs.values
        noise = rng.normal(0.0, spec.sigma_noise, size=obs.n_vertices)
        meshes.append(deformed)
        fields.append(ScalarField(deformed, x_obs + noise))
        scores[i] = (a1, a2)
        true_x[i] = modes.mu.values + spec.delta * a2 * modes.psi1_f.values
        images[i] = flowed[:k_t]
    return SimDataset(template, kernel, modes, meshes, fields, scores,
                      true_x, redraws, obs, images)


def _signed_area_flip(template: TriangleMesh, deformed: TriangleMesh):
    """True where a face normal flipped sign relative to the template."""
    dots = np.sum(template.face_normals * deformed.face_area_normals, axis=1)
    return dots <= 0.0


# -- C-shape benchmark ---------------------------------------------------------

def c_shape_images(mesh: TriangleMesh, smooth: float = 0.12):
    """Moving semicircle and fixed C-shaped band images on a sphere mesh.

    Both are smoothed indicator functions of bands around great-circle arcs,
    mirroring the classical C registration benchmark on the unit sphere.
    """
    v = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1)[:, None]
    theta = np.arccos(np.clip(v[:, 2], -1, 1))       # polar angle
    phi = np.arctan2(v[:, 1], v[:, 0])               # azimuth in (-pi, pi]

    band = np.exp(-((theta - np.pi / 2) / smooth) ** 2 / 2)

    def arc(lo, hi):
        inside = np.clip(np.maximum(lo - phi, phi - hi), 0.0, None)
        return np.exp(-(inside / smooth) ** 2 / 2)

    moving = band * arc(-np.pi / 2, np.pi / 2)           # semicircle
    fixed = band * arc(-3 * np.pi / 4, 3 * np.pi / 4)    # wider C-arc
    return ScalarField(mesh, moving), ScalarField(mesh, fixed)
