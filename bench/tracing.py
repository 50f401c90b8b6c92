"""Span tracing of the `fos` layers from outside the package.

`Tracer.install` replaces each traced function or method with a wrapper
that records one span per call: name, start, end and the span that was
open when the call began. A module-level function is replaced in every
`fos` module that binds it, because callers look names up in their own
module (`shoot` is called through `fos.georeg` and `fos.synthdata` as
well as `fos.lddmm`). Methods are replaced on their class. Spans stay in
memory until `summary` reduces them; `save` writes them out.

A hook may add counts from a call's arguments and result, so that ratios
such as accepted iterations per evaluation are measured where the work
happens.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

NOOP_CALLS = 20000      # calls timed to price one span


def _kernel_pairs(args, kwargs, result):
    a = args[1] if len(args) > 1 else kwargs["points_a"]
    b = args[2] if len(args) > 2 else kwargs.get("points_b")
    n_a = len(a)
    return {"kernels.pairs": n_a * (n_a if b is None else len(b))}


def _face_pairs(args, kwargs, result):
    faces = args[1] if len(args) > 1 else kwargs["faces"]
    targets = args[2] if len(args) > 2 else kwargs["target_centers"]
    own = kwargs.get("target_self_term", args[8] if len(args) > 8 else None)
    f, t = len(faces), len(targets)
    return {"similarity.face_pairs":
            f * f + f * t + (t * t if own is None else 0)}


def _registration(args, kwargs, result):
    diag = result[1]
    return {"georeg.iterations": diag.iterations,
            "georeg.converged": int(diag.converged),
            "georeg.line_search_failed": int(diag.line_search_failed)}


def _demons_updates(args, kwargs, result):
    return {"demons.updates": len(result.mapping.updates)}


def _groupwise_updates(args, kwargs, result):
    return {"demons.updates": sum(len(m.updates) for m in result[1])}


# (module, attribute path, metric name, count hook). The metric name is
# <module>.<function> as the per-layer metrics are named.
TARGETS = (
    ("fos.kernels", "GaussianKernel.gram", "kernels.gram", _kernel_pairs),
    ("fos.kernels", "GaussianKernel.gram_pair", "kernels.gram_pair",
     _kernel_pairs),
    ("fos.kernels", "GaussianKernel.gram_triple", "kernels.gram_triple",
     _kernel_pairs),
    ("fos.lddmm", "shoot", "lddmm.shoot", None),
    ("fos.lddmm", "shoot_gradient", "lddmm.shoot_gradient", None),
    ("fos.lddmm", "_rhs", "lddmm._rhs", None),
    ("fos.lddmm", "_rhs_vjp", "lddmm._rhs_vjp", None),
    ("fos.lddmm", "flow_points", "lddmm.flow_points", None),
    ("fos.similarity", "_current_core", "similarity._current_core",
     _face_pairs),
    ("fos.georeg", "register_geometry", "georeg.register_geometry",
     _registration),
    ("fos.tangent_fem", "build_frames", "tangent_fem.build_frames", None),
    ("fos.tangent_fem", "assemble_connection_matrices",
     "tangent_fem.assemble_connection_matrices", None),
    ("fos.tangent_fem", "build_system", "tangent_fem.build_system", None),
    ("fos.tangent_fem", "apply_dirichlet", "tangent_fem.apply_dirichlet",
     None),
    ("fos.tangent_fem", "solve_update", "tangent_fem.solve_update", None),
    ("fos.demons", "groupwise_template", "demons.groupwise_template",
     _groupwise_updates),
    ("fos.demons", "register_functions", "demons.register_functions",
     _demons_updates),
    ("fos.demons", "SurfaceProjector.project",
     "demons.SurfaceProjector.project", None),
    ("fos.demons", "vertex_gradient", "demons.vertex_gradient", None),
    ("fos.fpca", "functional_fpca", "fpca.functional_fpca", None),
    ("fos.fpca", "cross_validate_lambda", "fpca.cross_validate_lambda", None),
    ("fos.fpca", "geometric_fpca", "fpca.geometric_fpca", None),
    ("fos.fpca", "cotangent_stiffness", "fpca.cotangent_stiffness", None),
    ("fos.fpca", "consistent_mass", "fpca.consistent_mass", None),
    ("fos.fpca", "_solve_component", "fpca._solve_component", None),
    ("fos.covariation", "cca", "covariation.cca", None),
    ("fos.covariation", "bartlett_test", "covariation.bartlett_test", None),
    ("fos.mesh", "TriangleMesh.__init__", "mesh.TriangleMesh", None),
    ("fos.mesh", "TriangleMesh.nearest_vertices", "mesh.nearest_vertices",
     None),
    ("fos.mesh", "load_mesh", "mesh.load_mesh", None),
    ("fos.mesh", "save_mesh", "mesh.save_mesh", None),
    ("fos.synthdata", "generate_dataset", "synthdata.generate_dataset", None),
)

# spans of this name opened inside a registration are its evaluations
EVALUATION = "lddmm.shoot"
REGISTRATION = "georeg.register_geometry"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counts = defaultdict(int)
        self._open: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, hook):
        names, start, end, parent = self.names, self.start, self.end, \
            self.parent
        open_spans, counts = self._open, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            names.append(name)
            parent.append(open_spans[-1] if open_spans else -1)
            end.append(0.0)
            open_spans.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_spans.pop()
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    counts[key] += value
            return result

        return traced

    def install(self):
        fos_modules = [m for key, m in sorted(sys.modules.items())
                       if key == "fos" or key.startswith("fos.")]
        for module_name, path, name, hook in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                owner_name, attr = path.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, original, hook))
                self._undo.append((owner, attr, original))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original, hook)
            for mod in fos_modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summary(self) -> dict:
        """Per-name call counts and self times, plus the hook counts and
        the evaluations made inside registrations."""
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent, dtype=int)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        out = {f"{name}.{field}": 0 for _, _, name, _ in TARGETS
               for field in ("calls", "self_s")}
        inside = np.zeros(len(dur), dtype=bool)
        # a parent always precedes its children, so one pass propagates
        for i, (name, p) in enumerate(zip(self.names, self.parent)):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += float(self_time[i])
            inside[i] = p >= 0 and (inside[p] or
                                    self.names[p] == REGISTRATION)
        evaluations = sum(1 for i, name in enumerate(self.names)
                          if name == EVALUATION and inside[i])
        out.update(self.counts)
        out["georeg.evaluations"] = evaluations
        for key in ("georeg.iterations", "georeg.converged",
                    "georeg.line_search_failed", "kernels.pairs",
                    "similarity.face_pairs", "demons.updates"):
            out.setdefault(key, 0)
        out["georeg.accepted_ratio"] = (
            out["georeg.iterations"] / evaluations if evaluations else 0.0)
        out["trace.spans"] = len(dur)
        return out

    def span_cost(self):
        """Seconds one traced call adds, from timing a wrapped no-op."""
        def noop(x):
            return x
        wrapped = Tracer()._wrap("noop", noop, None)
        clock = time.perf_counter
        t0 = clock()
        for i in range(NOOP_CALLS):
            noop(i)
        t1 = clock()
        for i in range(NOOP_CALLS):
            wrapped(i)
        t2 = clock()
        return max(0.0, ((t2 - t1) - (t1 - t0)) / NOOP_CALLS)

    def save(self, path):
        """Write every span as one JSON line: name, start, end, parent."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([i, name, self.start[i] - t0,
                                     self.end[i] - t0, self.parent[i]]))
                fh.write("\n")
