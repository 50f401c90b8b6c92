"""`fos` loads only the scipy subpackages it runs. `scipy.stats` alone
pulls in fft, integrate, interpolate, ndimage and optimize, and every `fos`
CLI command, each its own process, pays for that import."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
UNUSED = ("scipy.stats", "scipy.optimize", "scipy.integrate",
          "scipy.interpolate", "scipy.ndimage", "scipy.fft")


def test_fos_does_not_import_unused_scipy_subpackages():
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    code = ("import sys\n"
            "import fos, fos.pipeline, fos.cli\n"
            f"print(sorted(set({UNUSED!r}) & set(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
