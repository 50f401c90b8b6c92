"""Geometric registration: L-BFGS on initial momenta minimizing
D^2(deformed template, target) + lambda |v0|^2_V.

The search direction is the two-loop recursion of limited-memory BFGS
(Nocedal & Wright, Alg. 7.4) over the last MEMORY (s, y) pairs, with a
backtracking line search under the sufficient-decrease condition. The
iteration budget `max_iterations` is the stopping rule: optimizing this
objective to its minimum moves vertices away from their true images.

The objective gradient is the exact adjoint of the RK2 shooting map
(reverse-mode differentiation through every integration step), validated
against full finite differences in the test suite.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .kernels import GaussianKernel
from .lddmm import InitialMomenta, ShootingError, shoot, shoot_gradient
from .mesh import ScalarField, TriangleMesh, folded_faces
from .similarity import SimilarityResult, _current_core, target_terms

# L-BFGS: stored (s, y) pairs, the curvature test a pair must pass,
# sufficient decrease, backtracking, convergence
MEMORY = 10
CURVATURE_TOL = 1e-12
ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
MAX_SHRINKS = 30
GRAD_TOLERANCE = 1e-8
# what can stop the optimization: the iteration budget, a vanishing
# gradient (converged), a line search that finds no acceptable step
STOP_RULES = ("iterations", "gradient", "line_search")
# a registration that ends above this fraction of its initial similarity
# is far from its target, whichever rule stopped it; the register-geo
# stage warns of it
STALL_RATIO = 0.05
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
    max_iterations: int = 30
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
    """One registration's record. `stop` alone says why it stopped; the
    `converged` and `line_search_failed` properties are read from it."""

    objective_trace: list = field(default_factory=list)
    similarity_trace: list = field(default_factory=list)
    energy_trace: list = field(default_factory=list)
    iterations: int = 0
    stop: str = "iterations"           # one of STOP_RULES
    # faces of the deformed template whose normal turned against the
    # template's
    folded_faces: int = 0
    # the deformed template at the returned momenta, from the last accepted
    # evaluation; not part of as_dict
    endpoint: np.ndarray | None = None

    @property
    def converged(self):
        return self.stop == "gradient"

    @property
    def line_search_failed(self):
        return self.stop == "line_search"

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "endpoint"}


class _Objective:
    """Objective, gradient and bookkeeping for registering the template to
    one target, with the settings of a resolved config (sigma_z fixed)."""

    def __init__(self, template, target, kernel, config):
        self.template = template
        self.kernel = kernel
        self.lam = config.lam
        self.steps = config.shooting_steps
        # constant across the optimization; recomputing it every evaluation
        # dominates the runtime on study-sized meshes
        self.gram0 = kernel.gram(template.vertices)
        # the current metric's kernel and the target's fixed side of it:
        # its face centers, its moments and its self term
        self.current = GaussianKernel(config.sigma_z)
        tc = target.face_centers
        moments, self.target_self_term = target_terms(
            tc, target.face_area_normals, self.current)
        self.target = tc, moments

    def evaluate(self, alpha):
        v0 = InitialMomenta(self.template.vertices, alpha, self.kernel)
        path = shoot(v0, self.steps)
        endpoint = path.points[-1]
        sim = _current_core(endpoint, self.template.faces, *self.target,
                            self.current,
                            target_self_term=self.target_self_term)
        energy = float(np.sum((self.gram0 @ alpha) * alpha))
        value = sim.value + self.lam * energy
        return value, sim, energy, path

    def gradient(self, alpha, sim: SimilarityResult, path):
        # exact adjoint of the RK2 shooting map
        _, abar0 = shoot_gradient(path, sim.gradient)
        return abar0 + 2.0 * self.lam * (self.gram0 @ alpha)


def _two_loop(grad, pairs):
    """-H grad, with H the L-BFGS inverse-Hessian approximation built from
    the stored (s, y, 1 / s.y) triples, oldest first, on H0 = (s.y / y.y) I
    of the newest pair (the identity when none is stored)."""
    q = grad.copy()
    coefs = []
    for s, y, rho in reversed(pairs):
        a = rho * np.vdot(s, q)
        q -= a * y
        coefs.append(a)
    if pairs:
        s, y, _ = pairs[-1]
        q *= np.vdot(s, y) / np.vdot(y, y)
    for (s, y, rho), a in zip(pairs, reversed(coefs)):
        q += (a - rho * np.vdot(y, q)) * s
    return -q


def _minimize(objective, config):
    """L-BFGS from zero momenta (the identity deformation).

    Each iteration searches along d = -H g, with first trial step
    min(1, step_cap / max|d|), halving on a `ShootingError`, on a trial
    whose similarity is negative or whose value is not finite (a squared
    distance that rounding has cancelled away is no decrease), or on an
    insufficient decrease. A pair (s, y) is stored only when s.y is
    positive against |s||y|; a direction that is not a descent direction
    restarts the memory from -g. The gradient is computed at the start of
    each iteration, so none is spent on the returned momenta.
    """
    diag = Diagnostics()
    alpha = np.zeros_like(objective.template.vertices)
    value, sim, energy, path = objective.evaluate(alpha)
    diag.objective_trace.append(value)
    diag.similarity_trace.append(sim.value)
    diag.energy_trace.append(energy)
    step_cap = config.step_cap_rel * objective.template.bbox_diagonal
    pairs = deque(maxlen=MEMORY)
    previous = None            # (momenta, gradient) of the last iterate
    for it in range(config.max_iterations):
        grad = objective.gradient(alpha, sim, path)
        if np.linalg.norm(grad) <= GRAD_TOLERANCE:
            diag.stop = "gradient"
            break
        if previous is not None:
            s, y = alpha - previous[0], grad - previous[1]
            sy = np.vdot(s, y)
            if sy > CURVATURE_TOL * np.linalg.norm(s) * np.linalg.norm(y):
                pairs.append((s, y, 1.0 / sy))
        direction = _two_loop(grad, pairs)
        slope = np.vdot(grad, direction)
        if not slope < 0:
            pairs.clear()
            direction, slope = -grad, -np.vdot(grad, grad)
        dmax = float(np.abs(direction).max())
        trial = min(1.0, step_cap / dmax) if step_cap > 0 else 1.0
        for _ in range(MAX_SHRINKS):
            cand = alpha + trial * direction
            try:
                cval, csim, cen, cpath = objective.evaluate(cand)
            except ShootingError:
                trial *= ARMIJO_SHRINK
                continue
            if csim.value >= 0 and np.isfinite(cval) \
                    and cval <= value + ARMIJO_C * trial * slope:
                break
            trial *= ARMIJO_SHRINK
        else:
            diag.stop = "line_search"
            break
        previous = alpha, grad
        alpha, value, sim, energy, path = cand, cval, csim, cen, cpath
        diag.objective_trace.append(value)
        diag.similarity_trace.append(sim.value)
        diag.energy_trace.append(energy)
        diag.iterations = it + 1
    diag.endpoint = path.points[-1]
    diag.folded_faces = int(folded_faces(objective.template,
                                         diag.endpoint).sum())
    return InitialMomenta(objective.template.vertices, alpha,
                          objective.kernel), diag


def register_geometry(template: TriangleMesh, target: TriangleMesh,
                      kernel: GaussianKernel,
                      config: RegistrationConfig | None = None):
    """Estimate initial momenta deforming the template onto the target.

    Returns (InitialMomenta, Diagnostics). L-BFGS starts at zero momenta
    (the identity deformation) and runs `max_iterations` iterations unless
    the gradient vanishes or the line search finds no step; every accepted
    step decreases the objective, so the objective trace is monotone.
    `Diagnostics.endpoint` is the template shot along the returned
    momenta, `Diagnostics.stop` the rule that stopped it and
    `Diagnostics.folded_faces` its count of folded faces. Without a config
    the register-geo stage's defaults apply.
    """
    config = (config or RegistrationConfig()).resolved(template)
    objective = _Objective(template, target, kernel, config)
    return _minimize(objective, config)


def pull_back_function(target_field: ScalarField,
                       deformed_template_vertices) -> np.ndarray:
    """Transport target values onto the template through the registration:
    value at template vertex k = target value at the nearest target vertex
    of the deformed position of k."""
    idx = target_field.mesh.nearest_vertices(
        np.asarray(deformed_template_vertices, float))
    return target_field.values[idx]
