"""The benchmark's tracer names the `fos` functions it wraps and reads the
results some of them return. A traced function that is renamed or deleted,
or a result whose shape its count hook no longer reads, must fail here, in
the tests, and not first in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import fos  # noqa: F401  (imports every module the tracer patches)
from fos import georeg
from fos.demons import DemonsConfig, groupwise_template, register_functions
from fos.georeg import RegistrationConfig, register_geometry
from fos.kernels import GaussianKernel
from fos.synthdata import (c_shape_images, ellipsoid_patch, icosphere,
                           refine_mesh)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    """The module bench/<name>.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fos_bindings():
    """Every name bound in a `fos` module or in a class it defines."""
    out = {}
    for key, mod in list(sys.modules.items()):
        if key != "fos" and not key.startswith("fos."):
            continue
        for attr, value in vars(mod).items():
            out[key, attr] = value
            if isinstance(value, type) and value.__module__ == key:
                for member, item in vars(value).items():
                    out[key, attr, member] = item
    return out


def test_tracer_wraps_every_target_and_restores_every_binding():
    tracing = load_bench("tracing")
    before = fos_bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = fos_bindings()
    finally:
        tracer.uninstall()
    for module_name, path, name, _ in tracing.TARGETS:
        key = (module_name, *path.split("."))
        assert getattr(during[key], "__wrapped__", None) is before[key], name
    after = fos_bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert not changed


def test_count_hooks_read_the_results_they_count():
    hooks = {name: hook for _, _, name, hook in load_bench("tracing").TARGETS}
    sphere = icosphere(1)
    moving, fixed = c_shape_images(sphere)
    cfg = DemonsConfig(lam=0.2, max_iterations=2)
    res = register_functions(sphere, moving, fixed, cfg)
    assert len(res.mapping.updates) == 2
    assert hooks["demons.register_functions"]((), {}, res) == \
        {"demons.updates": 2}
    group = groupwise_template(sphere, [moving.values, fixed.values], cfg)
    updates = sum(len(m.updates) for m in group[1])
    assert updates > 0
    assert hooks["demons.groupwise_template"]((), {}, group) == \
        {"demons.updates": updates}
    patch = ellipsoid_patch(1)
    target = patch.with_vertices(1.1 * patch.vertices)
    reg = register_geometry(patch, target, GaussianKernel(sigma=1.2),
                            RegistrationConfig(sigma_z=0.6, max_iterations=3))
    assert hooks["georeg.register_geometry"]((), {}, reg) == {
        "georeg.iterations": reg[1].iterations,
        "georeg.converged": int(reg[1].converged),
        "georeg.line_search_failed": int(reg[1].line_search_failed)}
    assert reg[1].iterations == 3


def test_face_pair_hook_reads_the_current_core_call(monkeypatch):
    # the hook reads the faces, the target centers and target_self_term
    # from the call register_geometry makes
    hook = {name: hook for _, _, name, hook in load_bench("tracing").TARGETS}[
        "similarity._current_core"]
    core, calls = georeg._current_core, []

    def capturing_core(*args, **kwargs):
        result = core(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(georeg, "_current_core", capturing_core)
    patch = ellipsoid_patch(1)
    target = refine_mesh(patch.with_vertices(1.1 * patch.vertices), 1)
    register_geometry(patch, target, GaussianKernel(sigma=1.2),
                      RegistrationConfig(sigma_z=0.6, max_iterations=1))
    f, t = len(patch.faces), len(target.faces)
    assert calls and f != t
    assert hook(*calls[0]) == {"similarity.face_pairs": f * f + f * t}
