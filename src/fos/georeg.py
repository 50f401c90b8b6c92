"""Geometric registration: gradient descent on initial momenta minimizing
D^2(deformed template, target) + lambda |v0|^2_V.

The objective gradient is the exact adjoint of the RK2 shooting map
(reverse-mode differentiation through every integration step), validated
against full finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .kernels import GaussianKernel
from .lddmm import InitialMomenta, ShootingError, shoot, shoot_gradient
from .mesh import ScalarField, TriangleMesh
from .similarity import SimilarityResult, _current_core

# Armijo descent: first step, sufficient decrease, backtracking, convergence
INITIAL_STEP = 1.0
ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
MAX_SHRINKS = 30
GRAD_TOLERANCE = 1e-8
# width of the current metric's kernel, when not given, as a fraction of the
# template bounding-box diagonal
SIGMA_Z_REL = 0.11


@dataclass
class RegistrationConfig:
    """Settings of the geometric registration. The defaults are the
    register-geo stage's, whose config block takes these fields, all but
    `similarity`, as its keys."""

    similarity: str = "current"        # the only similarity accepted
    lam: float = 0.05                  # weight of the energy |v0|^2_V
    # width of the current metric's kernel; when None, SIGMA_Z_REL times
    # the template bounding-box diagonal
    sigma_z: float | None = None
    max_iterations: int = 120
    shooting_steps: int = 10
    # per-iteration cap on the momentum update's max entry, as a fraction
    # of the template bounding-box diagonal; guards against the first
    # steps overshooting into tangled configurations when the similarity
    # gradient is very large. 0 leaves the update uncapped.
    step_cap_rel: float = 0.02

    def __post_init__(self):
        if self.similarity != "current":
            raise ValueError(f"unknown similarity {self.similarity!r}")
        if min(self.lam, self.step_cap_rel) < 0:
            raise ValueError("lam and step_cap_rel must be >= 0")
        if self.sigma_z is not None and self.sigma_z <= 0:
            raise ValueError("sigma_z must be positive")
        if min(self.max_iterations, self.shooting_steps) < 1:
            raise ValueError("max_iterations and shooting_steps must be >= 1")

    def resolved(self, template: TriangleMesh) -> "RegistrationConfig":
        """These settings with sigma_z fixed for the given template."""
        if self.sigma_z is not None:
            return self
        return replace(self, sigma_z=SIGMA_Z_REL * template.bbox_diagonal)


@dataclass
class Diagnostics:
    objective_trace: list = field(default_factory=list)
    similarity_trace: list = field(default_factory=list)
    energy_trace: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    line_search_failed: bool = False
    # the deformed template at the returned momenta, from the last accepted
    # evaluation; not part of as_dict
    endpoint: np.ndarray | None = None

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "endpoint"}


class _Objective:
    """Objective, gradient and bookkeeping for one registration problem."""

    def __init__(self, template, similarity_fn, kernel, config):
        self.template = template
        self.similarity_fn = similarity_fn
        self.kernel = kernel
        self.lam = config.lam
        self.steps = config.shooting_steps
        # constant across the optimization; recomputing it every evaluation
        # dominates the runtime on study-sized meshes
        self.gram0 = kernel.gram(template.vertices)

    def evaluate(self, alpha):
        v0 = InitialMomenta(self.template.vertices, alpha, self.kernel)
        path = shoot(v0, self.steps)
        endpoint = path.points[-1]
        sim = self.similarity_fn(endpoint)
        energy = float(np.sum((self.gram0 @ alpha) * alpha))
        value = sim.value + self.lam * energy
        return value, sim, energy, path

    def gradient(self, alpha, sim: SimilarityResult, path):
        # exact adjoint of the RK2 shooting map
        _, abar0 = shoot_gradient(path, sim.gradient)
        return abar0 + 2.0 * self.lam * (self.gram0 @ alpha)


def _make_similarity(template, target, config):
    """Current distance of a deformed template to the target, as a
    function of the deformed vertex positions."""
    faces = template.faces
    kernel = GaussianKernel(sigma=config.sigma_z)
    tc = target.face_centers
    tn = target.face_area_normals
    # the target self-term of the current metric never changes
    self_term = float(np.sum(kernel.gram(tc) * (tn @ tn.T)))

    def fn(endpoint):
        return _current_core(np.asarray(endpoint, float), faces, tc, tn,
                             kernel, target_self_term=self_term)
    return fn


def _minimize(objective, config):
    """Armijo descent from zero momenta (the identity deformation)."""
    diag = Diagnostics()
    alpha = np.zeros_like(objective.template.vertices)
    value, sim, energy, path = objective.evaluate(alpha)
    diag.objective_trace.append(value)
    diag.similarity_trace.append(sim.value)
    diag.energy_trace.append(energy)
    step_cap = config.step_cap_rel * objective.template.bbox_diagonal
    step = INITIAL_STEP
    for it in range(config.max_iterations):
        grad = objective.gradient(alpha, sim, path)
        gnorm2 = float(np.sum(grad ** 2))
        if np.sqrt(gnorm2) <= GRAD_TOLERANCE:
            diag.converged = True
            break
        gmax = float(np.abs(grad).max())
        capped = step_cap / gmax if step_cap > 0 else np.inf
        accepted = False
        trial = min(step, capped)
        for _ in range(MAX_SHRINKS):
            cand = alpha - trial * grad
            try:
                cval, csim, cen, cpath = objective.evaluate(cand)
            except ShootingError:
                trial *= ARMIJO_SHRINK
                continue
            if cval <= value - ARMIJO_C * trial * gnorm2:
                alpha, value, sim, energy, path = cand, cval, csim, cen, cpath
                accepted = True
                break
            trial *= ARMIJO_SHRINK
        if not accepted:
            diag.line_search_failed = True
            break
        step = min(trial * 2.0, INITIAL_STEP * 1e3)
        diag.objective_trace.append(value)
        diag.similarity_trace.append(sim.value)
        diag.energy_trace.append(energy)
        diag.iterations = it + 1
    diag.endpoint = path.points[-1]
    return InitialMomenta(objective.template.vertices, alpha,
                          objective.kernel), diag


def register_geometry(template: TriangleMesh, target: TriangleMesh,
                      kernel: GaussianKernel,
                      config: RegistrationConfig | None = None):
    """Estimate initial momenta deforming the template onto the target.

    Returns (InitialMomenta, Diagnostics). The objective trace is monotone
    non-increasing (Armijo backtracking); optimization starts at zero
    momenta (the identity deformation). `Diagnostics.endpoint` is the
    template shot along the returned momenta. Without a config the
    register-geo stage's defaults apply.
    """
    config = (config or RegistrationConfig()).resolved(template)
    objective = _Objective(template,
                           _make_similarity(template, target, config),
                           kernel, config)
    return _minimize(objective, config)


def pull_back_function(target_field: ScalarField,
                       deformed_template_vertices) -> np.ndarray:
    """Transport target values onto the template through the registration:
    value at template vertex k = target value at the nearest target vertex
    of the deformed position of k."""
    idx = target_field.mesh.nearest_vertices(
        np.asarray(deformed_template_vertices, float))
    return target_field.values[idx]
