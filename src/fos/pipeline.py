"""Staged analysis pipeline with on-disk artifacts.

Every stage reads its inputs from the output directory and writes its
outputs there before the next stage starts, so any suffix of the stage
list can be re-run from cached artifacts with bit-identical results.
All randomness comes from one root seed expanded per stage.
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy

from .covariation import bartlett_test, cca, covariation_sequence
from .demons import DemonsConfig, groupwise_template
from .fpca import cross_validate_lambda, functional_fpca, geometric_fpca
from .georeg import RegistrationConfig, pull_back_function, register_geometry
from .kernels import GaussianKernel
from .lddmm import InitialMomenta, load_momenta, save_momenta, shoot
from .mesh import ScalarField, load_field, load_mesh, save_field, save_mesh
from .synthdata import SimSpec, generate_dataset

STAGES = ("simulate", "register-geo", "register-fun",
          "fpca-geo", "fpca-fun", "cca")

# the keys each stage's config block accepts
_BLOCK_KEYS = {
    "simulate": {f.name for f in fields(SimSpec)},
    "register_geo": {"sigma_z", "sigma_z_rel", "lam", "max_iterations",
                     "step_cap_rel", "shooting_steps"},
    "register_fun": {f.name for f in fields(DemonsConfig)},
    "fpca_geo": {"n_components"},
    "fpca_fun": {"n_components", "lam", "cv_lambdas", "folds"},
    "cca": set(),
}


class ConfigError(ValueError):
    """Invalid pipeline configuration."""


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


@dataclass
class PipelineConfig:
    output_dir: str = "fos_out"
    seed: int = 0
    stages: tuple = STAGES
    simulate: dict = field(default_factory=dict)
    register_geo: dict = field(default_factory=dict)
    register_fun: dict = field(default_factory=dict)
    fpca_geo: dict = field(default_factory=dict)
    fpca_fun: dict = field(default_factory=dict)
    cca: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        _require(isinstance(data, dict), "config must be a JSON object")
        known = {"output_dir", "seed", "stages", "simulate", "register_geo",
                 "register_fun", "fpca_geo", "fpca_fun", "cca"}
        unknown = set(data) - known
        _require(not unknown, f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**{k: data[k] for k in data})
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        try:
            with open(str(path)) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(data)

    def validate(self):
        self.stages = tuple(self.stages)
        for st in self.stages:
            _require(st in STAGES, f"unknown stage {st!r}")
        order = [STAGES.index(st) for st in self.stages]
        _require(order == sorted(order), "stages must be in pipeline order")
        _require(len(self.stages) >= 1, "stage list is empty")
        _require(int(self.seed) >= 0, "seed must be >= 0")
        for block_name, keys in _BLOCK_KEYS.items():
            block = getattr(self, block_name)
            _require(isinstance(block, dict),
                     f"{block_name} block must be an object")
            unknown = set(block) - keys
            _require(not unknown,
                     f"unknown {block_name} keys: {sorted(unknown)}")
            for key, value in block.items():
                if key in ("lam", "sigma_noise", "sigma_z", "sigma_z_rel",
                           "delta", "sigma1", "sigma2", "max_step_frac"):
                    _require(isinstance(value, (int, float)) and value >= 0,
                             f"{block_name}.{key} must be >= 0")
                if key in ("n", "max_iterations", "n_components", "folds",
                           "subdivisions", "observation_subdivisions",
                           "shooting_steps"):
                    _require(isinstance(value, int) and value >= 0,
                             f"{block_name}.{key} must be a non-negative int")
                if key == "cv_lambdas":
                    _require(isinstance(value, (list, tuple)) and value
                             and all(isinstance(v, (int, float)) and v >= 0
                                     for v in value),
                             f"{block_name}.{key} must be a non-empty list "
                             "of numbers >= 0")

    def canonical(self) -> dict:
        return {
            "output_dir": self.output_dir, "seed": int(self.seed),
            "stages": list(self.stages), "simulate": self.simulate,
            "register_geo": self.register_geo,
            "register_fun": self.register_fun, "fpca_geo": self.fpca_geo,
            "fpca_fun": self.fpca_fun, "cca": self.cca,
        }

    def parameter_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


# -- artifact helpers ---------------------------------------------------------

def _write_csv(path, array, header):
    arr = np.atleast_2d(np.asarray(array, float))
    with open(str(path), "w") as fh:
        fh.write(header + "\n")
        for row in arr:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def _read_csv(path):
    return np.atleast_2d(np.loadtxt(str(path), delimiter=",", skiprows=1))


def _subject_count(sim_dir):
    """Subjects of the latest simulate run: every run rewrites the score
    table, while subject files of an earlier, larger run may remain."""
    return len(_read_csv(Path(sim_dir) / "true_scores.csv"))


def _load_kernel(sim_dir):
    with open(Path(sim_dir) / "kernel.json") as fh:
        kp = json.load(fh)
    return GaussianKernel(sigma=kp["sigma"], sigma2=kp["sigma2"],
                          weight=kp["weight"])


# -- stages -------------------------------------------------------------------

def _stage_simulate(cfg: PipelineConfig, out: Path):
    block = dict(cfg.simulate)
    block.setdefault("seed", int(cfg.seed))
    try:
        spec = SimSpec(**block)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid simulate block: {exc}") from exc
    ds = generate_dataset(spec)
    sim = out / "sim"
    sim.mkdir(parents=True, exist_ok=True)
    save_mesh(ds.template, sim / "template.off")
    save_mesh(ds.observation_template, sim / "observation.off")
    with open(sim / "kernel.json", "w") as fh:
        json.dump({"sigma": ds.kernel.sigma, "sigma2": ds.kernel.sigma2,
                   "weight": ds.kernel.weight}, fh)
    for i in range(spec.n):
        save_mesh(ds.meshes[i], sim / f"subject_{i:03d}.off")
        save_field(ds.fields[i], sim / f"field_{i:03d}.csv")
        _write_csv(sim / f"true_images_{i:03d}.csv",
                   ds.true_vertex_images[i], "x,y,z")
    _write_csv(sim / "true_scores.csv", ds.scores, "a1,a2")
    _write_csv(sim / "true_fields.csv", np.asarray(ds.true_x),
               ",".join(f"v{k}" for k in range(ds.template.n_vertices)))
    np.savez(sim / "modes.npz",
             psi1_g=ds.modes.psi1_g.momenta, psi2_g=ds.modes.psi2_g.momenta,
             psi1_f=ds.modes.psi1_f.values, mu=ds.modes.mu.values)
    return {"n": spec.n, "template": str(sim / "template.off")}


def _stage_register_geo(cfg: PipelineConfig, out: Path):
    sim = out / "sim"
    reg = out / "reg_geo"
    reg.mkdir(parents=True, exist_ok=True)
    template = load_mesh(sim / "template.off")
    kernel = _load_kernel(sim)
    block = cfg.register_geo
    lo, hi = template.vertices.min(axis=0), template.vertices.max(axis=0)
    bbox = float(np.linalg.norm(hi - lo))
    sigma_z = block.get("sigma_z")
    if sigma_z is None:
        sigma_z = block.get("sigma_z_rel", 0.11) * bbox
    rcfg = RegistrationConfig(sigma_z=sigma_z, lam=block.get("lam", 0.05),
                              max_iterations=block.get("max_iterations", 120),
                              step_cap_rel=block.get("step_cap_rel", 0.02),
                              shooting_steps=block.get("shooting_steps", 10))
    n = _subject_count(sim)
    diags = {}
    for i in range(n):
        target = load_mesh(sim / f"subject_{i:03d}.off")
        v0, diag = register_geometry(template, target, kernel, rcfg)
        save_momenta(v0, reg / f"momenta_{i:03d}.csv")
        _write_csv(reg / f"deformed_{i:03d}.csv", diag.endpoint, "x,y,z")
        diags[i] = diag
    with open(reg / "diagnostics.json", "w") as fh:
        json.dump({i: d.as_dict() for i, d in diags.items()}, fh)
    runs = diags.values()
    capped = sum(d.iterations == rcfg.max_iterations and not d.converged
                 for d in runs)
    failed = sum(d.line_search_failed for d in runs)
    warnings = []
    if capped:
        warnings.append(f"{capped}/{n} subjects stopped at max_iterations="
                        f"{rcfg.max_iterations} without converging")
    if failed:
        warnings.append(f"{failed}/{n} subjects stopped on a failed line "
                        "search")
    return {"subjects": n, "sigma_z": sigma_z, "lam": rcfg.lam,
            "iterations": sum(d.iterations for d in runs),
            "converged": sum(d.converged for d in runs),
            "line_search_failed": failed, "warnings": warnings}


def _stage_register_fun(cfg: PipelineConfig, out: Path):
    sim, reg, fun = out / "sim", out / "reg_geo", out / "reg_fun"
    fun.mkdir(parents=True, exist_ok=True)
    template = load_mesh(sim / "template.off")
    n = _subject_count(sim)
    pulled = []
    for i in range(n):
        subject = load_mesh(sim / f"subject_{i:03d}.off")
        target_field = load_field(subject, sim / f"field_{i:03d}.csv")
        end = _read_csv(reg / f"deformed_{i:03d}.csv")
        values = pull_back_function(target_field, end)
        pulled.append(values)
        _write_csv(fun / f"pulled_{i:03d}.csv", values[None, :],
                   ",".join(f"v{k}" for k in range(template.n_vertices)))
    dcfg = DemonsConfig(**cfg.register_fun)
    mean, _, aligned = groupwise_template(template, pulled, config=dcfg)
    for i in range(n):
        _write_csv(fun / f"aligned_{i:03d}.csv", aligned[i][None, :],
                   ",".join(f"v{k}" for k in range(template.n_vertices)))
    _write_csv(fun / "template_field.csv", mean[None, :],
               ",".join(f"v{k}" for k in range(template.n_vertices)))
    return {"subjects": n, "demons_lam": dcfg.lam,
            "max_iterations": dcfg.max_iterations}


def _stage_fpca_geo(cfg: PipelineConfig, out: Path):
    sim, reg, fg = out / "sim", out / "reg_geo", out / "fpca_geo"
    fg.mkdir(parents=True, exist_ok=True)
    template = load_mesh(sim / "template.off")
    kernel = _load_kernel(sim)
    n = _subject_count(sim)
    moms = [load_momenta(reg / f"momenta_{i:03d}.csv").momenta
            for i in range(n)]
    k = int(cfg.fpca_geo.get("n_components", 5))
    fit = geometric_fpca(moms, template.vertices, kernel, n_components=k)
    _write_csv(fg / "scores.csv", fit.scores,
               ",".join(f"pc{j+1}" for j in range(fit.scores.shape[1])))
    _write_csv(fg / "variances.csv", fit.variances[None, :],
               ",".join(f"pc{j+1}" for j in range(len(fit.variances))))
    np.savez(fg / "components.npz", components=fit.components,
             mean=fit.mean_momenta, control_points=template.vertices)
    return {"n_components": fit.scores.shape[1],
            "variances": [float(v) for v in fit.variances]}


def _stage_fpca_fun(cfg: PipelineConfig, out: Path):
    sim, fun, ff = out / "sim", out / "reg_fun", out / "fpca_fun"
    ff.mkdir(parents=True, exist_ok=True)
    template = load_mesh(sim / "template.off")
    n = _subject_count(sim)
    fields = [_read_csv(fun / f"aligned_{i:03d}.csv").ravel()
              for i in range(n)]
    block = cfg.fpca_fun
    k = int(block.get("n_components", 3))
    lam = block.get("lam", 100.0)
    info = {}
    if "cv_lambdas" in block:
        lam, cv_errors = cross_validate_lambda(
            fields, template, block["cv_lambdas"],
            n_components=k, n_folds=int(block.get("folds", 5)),
            seed=int(cfg.seed) + 4)
        info["cv_errors"] = {str(k_): float(v) for k_, v in cv_errors.items()}
    fit = functional_fpca(fields, template, lam=lam, n_components=k)
    _write_csv(ff / "scores.csv", fit.scores,
               ",".join(f"pc{j+1}" for j in range(fit.scores.shape[1])))
    _write_csv(ff / "variances.csv", fit.variances[None, :],
               ",".join(f"pc{j+1}" for j in range(len(fit.variances))))
    _write_csv(ff / "components.csv", fit.components,
               ",".join(f"v{j}" for j in range(template.n_vertices)))
    _write_csv(ff / "mean.csv", fit.mean[None, :],
               ",".join(f"v{j}" for j in range(template.n_vertices)))
    info.update({"lam": float(lam), "n_components": fit.scores.shape[1]})
    with open(ff / "fit.json", "w") as fh:
        json.dump(info, fh)
    return info


def _stage_cca(cfg: PipelineConfig, out: Path):
    cc = out / "cca"
    cc.mkdir(parents=True, exist_ok=True)
    g = _read_csv(out / "fpca_geo" / "scores.csv")
    f = _read_csv(out / "fpca_fun" / "scores.csv")
    result = cca(g, f)
    test = bartlett_test(result)
    _write_csv(cc / "correlations.csv", result.correlations[None, :],
               ",".join(f"rho{j+1}" for j in range(len(result.correlations))))
    _write_csv(cc / "x_weights.csv", result.x_weights,
               ",".join(f"dir{j+1}" for j in range(result.x_weights.shape[1])))
    _write_csv(cc / "y_weights.csv", result.y_weights,
               ",".join(f"dir{j+1}" for j in range(result.y_weights.shape[1])))
    _write_csv(cc / "x_variates.csv", result.x_variates,
               ",".join(f"dir{j+1}" for j in range(result.x_variates.shape[1])))
    _write_csv(cc / "y_variates.csv", result.y_variates,
               ",".join(f"dir{j+1}" for j in range(result.y_variates.shape[1])))
    with open(cc / "bartlett.json", "w") as fh:
        json.dump({"statistics": [float(s) for s in test.statistics],
                   "dof": [int(d) for d in test.dof],
                   "p_values": [float(p) for p in test.p_values]}, fh)
    return {"correlations": [float(r) for r in result.correlations],
            "p_values": [float(p) for p in test.p_values]}


_STAGE_FUNCS = {
    "simulate": _stage_simulate,
    "register-geo": _stage_register_geo,
    "register-fun": _stage_register_fun,
    "fpca-geo": _stage_fpca_geo,
    "fpca-fun": _stage_fpca_fun,
    "cca": _stage_cca,
}


def run_pipeline(cfg: PipelineConfig, stages=None) -> dict:
    """Run the requested stage subset; returns and persists the manifest."""
    cfg.validate()
    stages = tuple(stages) if stages is not None else cfg.stages
    for st in stages:
        _require(st in STAGES, f"unknown stage {st!r}")
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    manifest = {"parameter_hash": cfg.parameter_hash(), "versions": {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__}, "stages": {}, "warnings": []}
    if manifest_path.exists():
        with open(manifest_path) as fh:
            previous = json.load(fh)
        # results of another configuration are not carried over
        if previous.get("parameter_hash") == manifest["parameter_hash"]:
            manifest["stages"] = previous.get("stages", {})
    for st in stages:
        t0 = time.time()
        try:
            summary = _STAGE_FUNCS[st](cfg, out)
        except ConfigError:
            raise
        except Exception as exc:
            raise RuntimeError(f"stage {st!r} failed: {exc}") from exc
        warnings = summary.pop("warnings", [])
        manifest["stages"][st] = {
            "summary": summary,
            "warnings": warnings,
            "wall_time_s": time.time() - t0,
            "artifact_dir": str(out / st.replace("-", "_")
                                .replace("register_geo", "reg_geo")
                                .replace("register_fun", "reg_fun")
                                .replace("simulate", "sim")),
        }
        # the warnings of every stage on record, carried-over ones included
        manifest["warnings"] = [
            f"{name}: {text}" for name in STAGES
            for text in manifest["stages"].get(name, {}).get("warnings", [])]
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh, indent=1)
    return manifest


# -- co-variation + visualization ---------------------------------------------

def emit_covariation(out_dir, pair: int = 0, t_values=(-2, -1, 0, 1, 2)):
    """Write the score trajectories along one canonical direction."""
    out = Path(out_dir)
    g = _read_csv(out / "fpca_geo" / "scores.csv")
    f = _read_csv(out / "fpca_fun" / "scores.csv")
    result = cca(g, f)
    seq = covariation_sequence(result, pair, t_values,
                               x_scores=g, y_scores=f)
    cov = out / "covary"
    cov.mkdir(parents=True, exist_ok=True)
    table = np.column_stack([seq["t"], seq["x"], seq["y"]])
    header = "t," + ",".join(f"g{j+1}" for j in range(g.shape[1])) \
        + "," + ",".join(f"f{j+1}" for j in range(f.shape[1]))
    path = cov / f"sequence_pair{pair + 1}.csv"
    _write_csv(path, table, header)
    return str(path)


def emit_mode_visualization(out_dir, mode: int = 0, c_grid=None,
                            shooting_steps: int = 10):
    """Write mesh+field pairs showing the mode-th geometric mode of
    variation: the template deformed along c*sqrt(variance)*component for
    each c on the grid, with the mean function attached."""
    out = Path(out_dir)
    viz = out / "viz"
    viz.mkdir(parents=True, exist_ok=True)
    data = np.load(out / "fpca_geo" / "components.npz")
    comps, mean_mom = data["components"], data["mean"]
    points = data["control_points"]
    if mode < 0 or mode >= len(comps):
        raise ConfigError(f"mode {mode} out of range (have {len(comps)})")
    variances = _read_csv(out / "fpca_geo" / "variances.csv").ravel()
    kernel = _load_kernel(out / "sim")
    template = load_mesh(out / "sim" / "template.off")
    mean_field = _read_csv(out / "reg_fun" / "template_field.csv").ravel()
    if c_grid is None:
        c_grid = (-1.0, -0.5, 0.0, 0.5, 1.0)
    written = []
    for idx, c in enumerate(c_grid):
        alpha = mean_mom + c * np.sqrt(variances[mode]) * comps[mode]
        v0 = InitialMomenta(points, alpha, kernel)
        end = shoot(v0, shooting_steps).points[-1]
        mesh_path = viz / f"mode{mode + 1}_{idx:02d}.off"
        field_path = viz / f"mode{mode + 1}_{idx:02d}.csv"
        deformed = template.with_vertices(end)
        save_mesh(deformed, mesh_path)
        save_field(ScalarField(deformed, mean_field), field_path)
        written.extend([str(mesh_path), str(field_path)])
    return written


def emit_sphere_benchmark(out_dir, lam: float = 0.2, max_iterations: int = 15):
    """Generate the spherical two-band benchmark (semicircle moving image,
    C-shaped fixed image on a subdivision-3 icosphere), register the moving
    image, and write the fidelity trace plus the warped field."""
    from .demons import register_functions
    from .synthdata import c_shape_images, icosphere

    mesh = icosphere(3)
    moving, fixed = c_shape_images(mesh)
    res = register_functions(mesh, moving, fixed,
                             DemonsConfig(lam=lam,
                                          max_iterations=max_iterations))
    bench = Path(out_dir) / "benchmark"
    bench.mkdir(parents=True, exist_ok=True)
    save_mesh(mesh, bench / "sphere.off")
    _write_csv(bench / "ssd_trace.csv", np.asarray(res.ssd_trace)[None, :],
               ",".join(f"it{j}" for j in range(len(res.ssd_trace))))
    _write_csv(bench / "warped.csv", res.warped.values[None, :],
               ",".join(f"v{j}" for j in range(mesh.n_vertices)))
    summary = {
        "iterations": res.iterations,
        "converged": res.converged,
        "initial_ssd": float(res.ssd_trace[0]),
        "final_ssd": float(res.ssd_trace[-1]),
        "fidelity_ratio": float(res.ssd_trace[-1] / res.ssd_trace[0]),
    }
    with open(bench / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=1)
    return str(bench), summary
