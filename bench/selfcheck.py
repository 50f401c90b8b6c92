"""Quick self-check of the benchmark harness.

    python3 bench/selfcheck.py

Runs every workload of `workloads.py` at its tiny size (`run.py --size
tiny`), untraced and traced, each in its own process as the full
benchmark runs. That includes `register-study`, which BENCHMARK.json does
not list. Each run must
pass every check of its workload and print, as its last line, exactly
the metrics that BENCHMARK.json names for that mode, each with its unit.
Also checks that tracing leaves every traced function as it found it.
Takes about a minute; exits 1 on the first problem.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def expected_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in listed}


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}:\n"
                             f"{proc.stdout}{proc.stderr}")
    return proc.stdout.rstrip("\n").splitlines()


def check_result(workload, trace, lines):
    result = json.loads(lines[-1])
    where = f"{workload} --trace {trace}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, "\n".join(lines)
    assert result["failed"] == 0 and result["attempted"] >= 1, where
    names = expected_metrics(trace)
    got = result["metrics"]
    assert set(got) == set(names), (where, set(got) ^ set(names))
    for name, metric in got.items():
        assert metric["unit"] == names[name], (where, name, metric)
        assert math.isfinite(metric["value"]), (where, name, metric)
        if not trace:
            assert metric["value"] > 0, (where, name, metric)


def check_uninstall():
    """Installing and removing the tracer restores every binding."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import fos.pipeline  # noqa: F401
    from tracing import Tracer

    def bindings():
        return {(name, attr): id(value)
                for name, mod in sys.modules.items()
                if name == "fos" or name.startswith("fos.")
                for attr, value in list(vars(mod).items())} | {
            (cls.__name__, attr): id(value)
            for cls in (fos.kernels.GaussianKernel, fos.mesh.TriangleMesh,
                        fos.demons.SurfaceProjector)
            for attr, value in vars(cls).items()}

    before = bindings()
    tracer = Tracer()
    tracer.install()
    assert bindings() != before, "install replaced nothing"
    assert fos.georeg.shoot is fos.lddmm.shoot, "shoot wrapped twice"
    tracer.uninstall()
    assert bindings() == before, "uninstall left a wrapper behind"


def main():
    check_uninstall()
    from workloads import WORKLOADS
    for workload in WORKLOADS:
        for trace in (0, 1):
            lines = run(workload, trace)
            check_result(workload, trace, lines)
            print(f"ok  {workload} --trace {trace}: {lines[-1][:100]}...")
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
