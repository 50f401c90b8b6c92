"""The benchmark's tracer names the `fos` functions it wraps. A traced
function that is renamed or deleted must fail here, in the tests, and not
first in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import fos  # noqa: F401  (imports every module the tracer patches)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
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
    tracing = load_tracing()
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
