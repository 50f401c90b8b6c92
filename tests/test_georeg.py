from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest

from fos import georeg
from fos.georeg import (STOP_RULES, Diagnostics, RegistrationConfig,
                        _Objective, _two_loop, pull_back_function,
                        register_geometry)
from fos.kernels import GaussianKernel
from fos.lddmm import InitialMomenta, ShootingError, shoot
from fos.mesh import ScalarField, folded_faces
from fos.similarity import _current_core
from fos.synthdata import ellipsoid_patch, icosphere


def small_problem(seed=0, scale=0.12):
    template = ellipsoid_patch(1)
    kernel = GaussianKernel(sigma=1.2)
    rng = np.random.default_rng(seed)
    alpha = scale * rng.normal(size=template.vertices.shape)
    true = InitialMomenta(template.vertices, alpha, kernel)
    target = template.with_vertices(shoot(true, 10).points[-1])
    return template, target, kernel, true


def objective_value(template, target, kernel, config, alpha):
    return _Objective(template, target, kernel, config).evaluate(alpha)[0]


def objective_gradient(template, target, kernel, config, alpha):
    obj = _Objective(template, target, kernel, config)
    _, sim, _, path = obj.evaluate(alpha)
    return obj.gradient(alpha, sim, path)


def test_config_validation():
    with pytest.raises(ValueError):
        RegistrationConfig(lam=-1.0)
    with pytest.raises(ValueError):
        RegistrationConfig(max_iterations=0)
    with pytest.raises(ValueError):
        RegistrationConfig(similarity="varifold")
    for removed in ("landmark", "fcurrent"):
        with pytest.raises(ValueError):
            RegistrationConfig(similarity=removed)


def test_identity_target_stays_at_zero():
    template = icosphere(1)
    kernel = GaussianKernel(sigma=1.0)
    cfg = RegistrationConfig(similarity="current", sigma_z=0.5, lam=1e-3,
                             max_iterations=5)
    v0, diag = register_geometry(template, template, kernel, cfg)
    assert np.abs(v0.momenta).max() <= 1e-8
    assert diag.folded_faces == 0


def test_objective_trace_monotone_and_decreasing():
    template, target, kernel, _ = small_problem(seed=1)
    cfg = RegistrationConfig(similarity="current", sigma_z=0.6, lam=1e-4,
                             max_iterations=25)
    _, diag = register_geometry(template, target, kernel, cfg)
    trace = np.asarray(diag.objective_trace)
    assert np.all(np.diff(trace) <= 0)
    assert trace[-1] < 0.2 * trace[0]


def test_landmark_registration_recovers_deformation():
    # registration under the current metric, which never sees the vertex
    # correspondence, must still bring every vertex (landmark) close to
    # its planted image; untouched they are 0.18 bbox away on average
    template, target, kernel, true = small_problem(seed=2, scale=0.1)
    cfg = RegistrationConfig(sigma_z=0.3, lam=1e-4, max_iterations=150)
    v0, _ = register_geometry(template, target, kernel, cfg)
    end = shoot(v0, cfg.shooting_steps).points[-1]
    resid = np.linalg.norm(end - target.vertices, axis=1).mean()
    lo, hi = template.vertices.min(axis=0), template.vertices.max(axis=0)
    assert resid <= 0.02 * np.linalg.norm(hi - lo)


def test_returned_endpoint_is_the_shot_momenta():
    # the endpoint comes from the last accepted evaluation, so the caller
    # need not shoot the returned momenta again
    template, target, kernel, _ = small_problem(seed=1)
    for iterations in (1, 12):
        cfg = RegistrationConfig(sigma_z=0.6, lam=1e-4,
                                 max_iterations=iterations)
        v0, diag = register_geometry(template, target, kernel, cfg)
        assert diag.iterations == iterations
        assert diag.stop == "iterations"
        assert np.array_equal(diag.endpoint,
                              shoot(v0, cfg.shooting_steps).points[-1])
        assert diag.folded_faces == folded_faces(template, diag.endpoint).sum()
        assert "endpoint" not in diag.as_dict()
        assert diag.as_dict()["stop"] == "iterations"


def test_objective_gradient_matches_finite_differences():
    template, target, kernel, true = small_problem(seed=3, scale=0.08)
    cfg = RegistrationConfig(similarity="current", sigma_z=0.6, lam=1e-3,
                             shooting_steps=8)
    rng = np.random.default_rng(4)
    alpha = 0.05 * rng.normal(size=template.vertices.shape)
    grad = objective_gradient(template, target, kernel, cfg, alpha)
    rng2 = np.random.default_rng(5)
    # directional finite differences along random directions
    for _ in range(3):
        d = rng2.normal(size=alpha.shape)
        d /= np.linalg.norm(d)
        eps = 1e-6
        fd = (objective_value(template, target, kernel, cfg, alpha + eps * d)
              - objective_value(template, target, kernel, cfg,
                                alpha - eps * d)) / (2 * eps)
        an = float(np.sum(grad * d))
        assert abs(an - fd) / max(abs(fd), 1e-12) <= 1e-3


def test_pull_back_function_nearest_vertex():
    target = icosphere(1)
    values = np.arange(target.n_vertices, dtype=float)
    field = ScalarField(target, values)
    # query exactly at the vertices: pullback returns those values
    assert np.allclose(pull_back_function(field, target.vertices), values)


def test_registration_computes_one_gradient_per_iteration(monkeypatch):
    # rejected line-search trials read the value only
    counts = {"evaluations": 0, "gradients": 0}

    def counting_core(*args, **kwargs):
        res = _current_core(*args, **kwargs)
        counts["evaluations"] += 1
        gradient_fn = res._gradient_fn

        def counted():
            counts["gradients"] += 1
            return gradient_fn()
        res._gradient_fn = counted
        return res

    monkeypatch.setattr(georeg, "_current_core", counting_core)
    template, target, kernel, _ = small_problem(seed=2, scale=0.1)
    cfg = RegistrationConfig(sigma_z=0.3, lam=1e-4, max_iterations=40)
    _, diag = register_geometry(template, target, kernel, cfg)
    assert diag.iterations == 40
    assert counts["gradients"] == diag.iterations
    assert counts["evaluations"] > diag.iterations + 1


def test_two_loop_direction_matches_dense_bfgs():
    # the recursion against the dense inverse-Hessian update from the same
    # pairs (the last MEMORY of them) and the same H0 = (s.y / y.y) I
    rng = np.random.default_rng(6)
    shape = (7, 3)
    n = int(np.prod(shape))
    a = rng.normal(size=(n, n))
    hessian = a @ a.T + n * np.eye(n)
    pairs = deque(maxlen=georeg.MEMORY)
    for _ in range(georeg.MEMORY + 3):
        s = rng.normal(size=shape)
        y = (hessian @ s.ravel()).reshape(shape)
        pairs.append((s, y, 1.0 / np.vdot(s, y)))
    grad = rng.normal(size=shape)
    s, y, _ = pairs[-1]
    h = np.vdot(s, y) / np.vdot(y, y) * np.eye(n)
    for s, y, rho in pairs:
        s, y = s.ravel(), y.ravel()
        v = np.eye(n) - rho * np.outer(y, s)
        h = v.T @ h @ v + rho * np.outer(s, s)
    oracle = -(h @ grad.ravel()).reshape(shape)
    direction = _two_loop(grad, pairs)
    assert np.linalg.norm(direction - oracle) <= \
        1e-12 * np.linalg.norm(oracle)
    # no pairs: steepest descent
    assert np.array_equal(_two_loop(grad, deque()), -grad)


def test_line_search_backtracks_past_a_shooting_error(monkeypatch):
    # the first trial of the first iteration fails to shoot; the search
    # shrinks the step and the registration goes on
    template, target, kernel, _ = small_problem(seed=1)
    trials = []

    def failing_shoot(v0, steps):
        trials.append(v0.momenta.copy())
        if len(trials) == 2:
            raise ShootingError("planted")
        return shoot(v0, steps)

    monkeypatch.setattr(georeg, "shoot", failing_shoot)
    cfg = RegistrationConfig(sigma_z=0.6, lam=1e-4, max_iterations=3)
    _, diag = register_geometry(template, target, kernel, cfg)
    assert diag.iterations == 3 and diag.stop == "iterations"
    assert not diag.line_search_failed
    # trials[0] is the start at zero momenta, trials[1] the failed trial,
    # capped to step_cap
    step_cap = cfg.step_cap_rel * template.bbox_diagonal
    assert np.abs(trials[1]).max() <= step_cap * (1 + 1e-12)
    assert np.array_equal(trials[2], georeg.ARMIJO_SHRINK * trials[1])
    assert diag.objective_trace[1] < diag.objective_trace[0]


def test_failed_line_search_stops_the_registration(monkeypatch):
    template, target, kernel, _ = small_problem(seed=1)
    calls = []

    def shoot_once(v0, steps):
        calls.append(1)
        if len(calls) > 1:
            raise ShootingError("planted")
        return shoot(v0, steps)

    monkeypatch.setattr(georeg, "shoot", shoot_once)
    cfg = RegistrationConfig(sigma_z=0.6, lam=1e-4, max_iterations=3)
    v0, diag = register_geometry(template, target, kernel, cfg)
    assert diag.line_search_failed and diag.stop == "line_search"
    assert diag.iterations == 0 and not diag.converged
    assert len(calls) == 1 + georeg.MAX_SHRINKS
    assert not np.any(v0.momenta)


class StubObjective:
    """Similarity |alpha - 1|^2 with no energy term, on a translated
    template; a trial with an entry past `reach` reads (similarity, value)
    = `bad` instead, as a diverged evaluation can."""

    def __init__(self, bad, reach):
        self.template = ellipsoid_patch(1)
        self.kernel = GaussianKernel(sigma=1.2)
        self.bad, self.reach = bad, reach
        self.trials = []

    def evaluate(self, alpha):
        self.trials.append(alpha.copy())
        similarity = value = float(np.sum((alpha - 1.0) ** 2))
        if np.abs(alpha).max() > self.reach:
            similarity, value = self.bad
        path = SimpleNamespace(points=[self.template.vertices + alpha])
        return value, SimpleNamespace(value=similarity), 0.0, path

    def gradient(self, alpha, sim, path):
        return 2.0 * (alpha - 1.0)


@pytest.mark.parametrize("bad", [(-3.7e38, -3.7e38), (1.0, -np.inf)],
                         ids=["negative-similarity", "infinite-value"])
def test_a_negative_or_non_finite_trial_shrinks_the_step(bad):
    # uncapped, the first trial steps to 2 (past reach) and reads `bad`;
    # the halved step reaches the minimiser 1
    cfg = RegistrationConfig(step_cap_rel=0.0, max_iterations=5)
    objective = StubObjective(bad, reach=1.5)
    v0, diag = georeg._minimize(objective, cfg)
    assert [np.abs(t).max() for t in objective.trials] == [0.0, 2.0, 1.0]
    assert np.array_equal(v0.momenta, np.ones_like(v0.momenta))
    assert diag.stop == "gradient" and diag.iterations == 1
    assert diag.similarity_trace[-1] == 0.0
    # every trial reads `bad`: no step survives
    objective = StubObjective(bad, reach=0.0)
    v0, diag = georeg._minimize(objective, cfg)
    assert diag.stop == "line_search" and diag.iterations == 0
    assert len(objective.trials) == 1 + georeg.MAX_SHRINKS
    assert not np.any(v0.momenta)


@pytest.mark.parametrize("stop", STOP_RULES)
def test_convergence_flags_follow_the_stop_rule(stop):
    diag = Diagnostics(stop=stop)
    assert diag.converged == (stop == "gradient")
    assert diag.line_search_failed == (stop == "line_search")
    record = diag.as_dict()
    assert record["stop"] == stop
    assert "converged" not in record and "line_search_failed" not in record
