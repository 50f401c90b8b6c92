"""Staged analysis pipeline with on-disk artifacts.

Every stage reads its inputs from the output directory and writes its
outputs there before the next stage starts, so any suffix of the stage
list can be re-run from cached artifacts with bit-identical results.
All randomness comes from one root seed expanded per stage.

Each stage's config block holds the keyword arguments of one settings
object, whose defaults and checks are the block's: simulate ->
synthdata.SimSpec (seed defaults to the root seed), register_geo ->
georeg.RegistrationConfig (every field but similarity), register_fun ->
demons.DemonsConfig, and fpca_geo, fpca_fun, cca -> FpcaGeoSettings,
FpcaFunSettings, CcaSettings below. `PipelineConfig.validate` builds all
six, so a bad value is a ConfigError before any stage runs.

This module alone reads and writes the artifacts below, under the output
directory. A table is a header row, then rows of numbers with 17
significant digits (`_write_csv`, `_read_csv`); a field is one row
`v0,v1,...` read back as a ScalarField of its mesh, which checks the
count; meshes are OFF (`mesh.save_mesh`, `mesh.load_mesh`). A file that
does not fit the run raises an ArtifactError naming it. Each stage writes
its own directory, and each export (covary, viz-mode) one more. "bench"
is the benchmark's check.

`Study` is the only reader of the sim/ inputs: the template, the kernel,
the subject count (the rows of true_scores.csv), the subject and field
paths, each subject mesh's sha256 and its check against subjects.json.
`run_pipeline` makes one per run, read after simulate when simulate runs,
and each stage and export takes it in place of the output directory.

  artifact                    layout                  readers
  sim/template.off            OFF                     Study, bench
  sim/observation.off         OFF                     -
  sim/subject_NNN.off         OFF                     Study, register-*, bench
  sim/kernel.json             GaussianKernel fields   Study, bench
  sim/field_NNN.csv           field of subject_NNN    register-fun
  sim/true_images_NNN.csv     x,y,z per vertex        bench
  sim/true_scores.csv         a1,a2 per subject       Study, bench
  sim/true_fields.csv         v0,... per subject      bench
  sim/modes.npz               the planted modes       -
  reg_geo/momenta_NNN.csv     k,cx,cy,cz,ax,ay,az     register-fun, fpca-geo,
                                                      bench
  reg_geo/deformed_NNN.csv    x,y,z per vertex        register-fun, bench
  reg_geo/diagnostics.json    Diagnostics by subject  bench
  reg_geo/subjects.json       sha256 by subject_NNN   Study
  reg_fun/pulled_NNN.csv      field of the template   -
  reg_fun/aligned_NNN.csv     field of the template   fpca-fun, bench
  reg_fun/template_field.csv  field of the template   viz
  fpca_geo/scores.csv         pc1,... per subject     cca, covary, bench
  fpca_geo/variances.csv      one row pc1,...         viz
  fpca_geo/components.npz     components, mean,       viz
                              control_points
  fpca_fun/scores.csv         pc1,... per subject     cca, covary, bench
  fpca_fun/variances.csv      one row pc1,...         -
  fpca_fun/components.csv     v0,... per component    -
  fpca_fun/mean.csv           field of the template   -
  fpca_fun/fit.json           the stage summary       -
  cca/correlations.csv        one row rho1,...        bench
  cca/{x,y}_weights.csv       dir1,... rows           -
  cca/{x,y}_variates.csv      dir1,... rows           -
  cca/bartlett.json           the Bartlett test       bench
  manifest.json               a record per stage      run_pipeline, viz
  covary/sequence_pairP.csv   t,g1,..,f1,.. rows      -
  viz/modeM_II.off, .csv      OFF, field of the OFF   -
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path
from typing import get_type_hints
from warnings import catch_warnings, simplefilter

import numpy as np
import scipy

from .covariation import bartlett_test, cca, covariation_sequence
from .demons import DemonsConfig, groupwise_template
from .fpca import cross_validate_lambda, functional_fpca, geometric_fpca
from .georeg import (STOP_RULES, RegistrationConfig, pull_back_function,
                     register_geometry)
from .kernels import GaussianKernel
from .lddmm import InitialMomenta, shoot
from .mesh import MeshError, ScalarField, load_mesh, save_mesh
from .synthdata import SimSpec, generate_dataset

STAGES = ("simulate", "register-geo", "register-fun",
          "fpca-geo", "fpca-fun", "cca")
_ARTIFACT_DIRS = dict(zip(STAGES, ("sim", "reg_geo", "reg_fun", "fpca_geo",
                                   "fpca_fun", "cca")))


def _is_number(value, kind=(int, float)):
    """Whether value is a number >= 0 of the given kind; bools are not."""
    return isinstance(value, kind) and not isinstance(value, bool) \
        and value >= 0


@dataclass
class FpcaGeoSettings:
    n_components: int = 5

    def __post_init__(self):
        if self.n_components < 1:
            raise ValueError("n_components must be >= 1")


@dataclass
class FpcaFunSettings:
    n_components: int = 3
    lam: float = 100.0
    # when given, lam is chosen among these by cross-validation over folds
    cv_lambdas: list | None = None
    folds: int = 5

    def __post_init__(self):
        if self.n_components < 1:
            raise ValueError("n_components must be >= 1")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        lams = self.cv_lambdas
        if lams is not None and not (isinstance(lams, (list, tuple))
                                     and lams and all(map(_is_number, lams))):
            raise ValueError("cv_lambdas must be a non-empty list of "
                             "numbers >= 0")


@dataclass
class CcaSettings:
    """The cca stage takes no settings."""


_SETTINGS = {
    "simulate": SimSpec,
    "register_geo": RegistrationConfig,
    "register_fun": DemonsConfig,
    "fpca_geo": FpcaGeoSettings,
    "fpca_fun": FpcaFunSettings,
    "cca": CcaSettings,
}


def _block_keys(block_name):
    # similarity is set by library callers only
    return [f.name for f in fields(_SETTINGS[block_name])
            if f.name != "similarity"]


class ConfigError(ValueError):
    """Invalid pipeline configuration."""


class ArtifactError(ValueError):
    """An artifact file that is malformed, or stale: written for other
    inputs than the ones it is read with."""


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _check_stages(stages):
    """stages as a tuple: ConfigError unless known, ordered and not empty."""
    stages = tuple(stages)
    for st in stages:
        _require(st in STAGES, f"unknown stage {st!r}")
    order = [STAGES.index(st) for st in stages]
    _require(order == sorted(order), "stages must be in pipeline order")
    _require(stages, "stage list is empty")
    return stages


def _settings(block_name, block):
    """The settings object of one config block."""
    _require(isinstance(block, dict), f"{block_name} block must be an object")
    unknown = set(block) - set(_block_keys(block_name))
    _require(not unknown, f"unknown {block_name} keys: {sorted(unknown)}")
    cls = _SETTINGS[block_name]
    hints = get_type_hints(cls)
    for key, value in block.items():
        name = f"{block_name}.{key}"
        _require(value is not None, f"{name} must not be null")
        if hints[key] is int:
            _require(_is_number(value, int), f"{name} must be an int >= 0")
        elif hints[key] in (float, float | None):
            _require(_is_number(value), f"{name} must be a number >= 0")
    try:
        return cls(**block)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {block_name} block: {exc}") from exc


@dataclass
class PipelineConfig:
    """The run's JSON configuration. `validate` sets `settings`, the
    settings object of every stage block keyed by block name."""

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
        unknown = set(data) - {f.name for f in fields(cls)}
        _require(not unknown, f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**data)
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
        self.stages = _check_stages(self.stages)
        _require(_is_number(self.seed, int), "seed must be an int >= 0")
        self.settings = {name: _settings(name, getattr(self, name))
                         for name in _SETTINGS}
        ff = self.fpca_fun
        _require("cv_lambdas" not in ff or "lam" not in ff,
                 "give fpca_fun.lam or fpca_fun.cv_lambdas, not both")
        _require("cv_lambdas" in ff or "folds" not in ff,
                 "fpca_fun.folds needs fpca_fun.cv_lambdas")
        if "seed" not in self.simulate:
            self.settings["simulate"] = replace(self.settings["simulate"],
                                                seed=self.seed)

    def parameter_hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


# -- artifact helpers ---------------------------------------------------------

def _write_csv(path, array, prefix="v", first=0, header=None):
    """Rows of numbers under `header`, by default columns numbered from
    `first` after `prefix` (v0, v1, ... for per-vertex values)."""
    arr = np.atleast_2d(np.asarray(array, float))
    if header is None:
        header = ",".join(f"{prefix}{j + first}" for j in range(arr.shape[1]))
    with open(str(path), "w") as fh:
        fh.write(header + "\n")
        for row in arr:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def _read_csv(path):
    try:
        with catch_warnings():
            simplefilter("ignore", UserWarning)    # numpy's "no data"
            table = np.loadtxt(str(path), delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ArtifactError(f"{path}: malformed table: {exc}") from exc
    if table.size == 0:
        raise ArtifactError(f"{path}: table has no rows")
    return table


def _read_field(mesh, path):
    """The field file at path as a ScalarField of mesh."""
    values = _read_csv(path).ravel()
    try:
        return ScalarField(mesh, values)
    except MeshError as exc:
        raise ArtifactError(f"{path}: {exc}") from exc


def _read_momenta(path, template):
    """The (K, 3) momenta of a momenta file, whose control points must be
    the template's vertices and whose entries must be finite."""
    table = _read_csv(path)
    if table.shape != (template.n_vertices, 7):
        problem = f"{table.shape} table for {template.n_vertices} vertices"
    elif not np.all(np.isfinite(table)):
        problem = "non-finite entries"
    elif not np.array_equal(table[:, 1:4], template.vertices):
        problem = "control points are not the template vertices"
    else:
        return table[:, 4:7]
    raise ArtifactError(f"{path}: {problem}; run register-geo again")


def _read_endpoint(reg, i, template):
    """Subject i's deformed template vertices: a finite (K, 3) table, of
    momenta whose control points tie it to this template."""
    _read_momenta(reg / f"momenta_{i:03d}.csv", template)
    path = reg / f"deformed_{i:03d}.csv"
    table = _read_csv(path)
    if table.shape == (template.n_vertices, 3) and np.all(np.isfinite(table)):
        return table
    raise ArtifactError(f"{path}: not a finite {template.n_vertices} x 3 "
                        "table; run register-geo again")


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _check_subjects(cfg, n, stages):
    """ConfigError unless n subjects suffice for the fpca-fun folds and the
    configured cca score columns of `stages`."""
    fg, ff = cfg.settings["fpca_geo"], cfg.settings["fpca_fun"]
    _require("fpca-fun" not in stages or not ff.cv_lambdas or ff.folds <= n,
             f"fpca_fun.folds = {ff.folds} exceeds the {n} subjects")
    if "cca" in stages:
        _check_columns(n, fg.n_components + ff.n_components)


def _check_columns(n, k):
    """ConfigError unless n subjects suffice for CCA on k score columns."""
    _require(k < n - 1, f"cca needs n > {k + 1} for {k} "
             f"fpca_geo.n_components + fpca_fun.n_components, got {n}")


def _read_scores(out):
    """Both fpca score tables: equal row counts, enough rows for CCA."""
    g = _read_csv(out / "fpca_geo" / "scores.csv")
    f = _read_csv(out / "fpca_fun" / "scores.csv")
    if len(g) != len(f):
        raise ArtifactError(f"{out}: fpca_geo and fpca_fun scores.csv have "
                            f"{len(g)} and {len(f)} rows; run both again")
    _check_columns(len(g), g.shape[1] + f.shape[1])
    return g, f


class Study:
    """The sim/ inputs of the output directory `out`, each file read when
    first needed and at most once. No other code knows their layout."""

    def __init__(self, out):
        self.out = Path(out)
        self.sim = self.out / "sim"
        self.template_path = self.sim / "template.off"
        self.kernel_path = self.sim / "kernel.json"
        self.scores_path = self.sim / "true_scores.csv"

    def subject_path(self, i):
        return self.sim / f"subject_{i:03d}.off"

    def field_path(self, i):
        return self.sim / f"field_{i:03d}.csv"

    @cached_property
    def template(self):
        return load_mesh(self.template_path)

    @cached_property
    def kernel(self):
        with open(self.kernel_path) as fh:
            return GaussianKernel(**json.load(fh))

    @cached_property
    def n(self):
        """Subjects of the latest simulate run: every run rewrites the score
        table, while subject files of an earlier, larger run may remain."""
        return len(_read_csv(self.scores_path))

    @cached_property
    def hashes(self):
        """The sha256 of each subject mesh, by file name."""
        return {p.name: _sha256(p) for p in map(self.subject_path,
                                                 range(self.n))}

    def check_registered(self):
        """ArtifactError unless every subject mesh is the one register-geo
        registered, by its record reg_geo/subjects.json."""
        with open(self.out / "reg_geo" / "subjects.json") as fh:
            registered = json.load(fh)
        for name, digest in self.hashes.items():
            if registered.get(name) != digest:
                raise ArtifactError(f"{self.sim / name}: changed since "
                                    "register-geo registered it; run "
                                    "register-geo again")


# -- stages -------------------------------------------------------------------

def _stage_simulate(cfg: PipelineConfig, study: Study):
    spec = cfg.settings["simulate"]
    ds = generate_dataset(spec)
    sim = study.sim
    sim.mkdir(parents=True, exist_ok=True)
    save_mesh(ds.template, study.template_path)
    save_mesh(ds.observation_template, sim / "observation.off")
    with open(study.kernel_path, "w") as fh:
        json.dump(asdict(ds.kernel), fh)
    for i in range(spec.n):
        save_mesh(ds.meshes[i], study.subject_path(i))
        _write_csv(study.field_path(i), ds.fields[i].values)
        _write_csv(sim / f"true_images_{i:03d}.csv",
                   ds.true_vertex_images[i], header="x,y,z")
    _write_csv(study.scores_path, ds.scores, "a", 1)
    _write_csv(sim / "true_fields.csv", ds.true_x)
    k = ds.template.n_vertices      # the modes' values on the template
    np.savez(sim / "modes.npz",
             psi1_g=ds.modes.psi1_g.momenta, psi2_g=ds.modes.psi2_g.momenta,
             psi1_f=ds.modes.psi1_f.values[:k], mu=ds.modes.mu.values[:k])
    return {"n": spec.n, "template": str(study.template_path)}


def _stage_register_geo(cfg: PipelineConfig, study: Study):
    reg = study.out / "reg_geo"
    reg.mkdir(parents=True, exist_ok=True)
    template, n = study.template, study.n
    rcfg = cfg.settings["register_geo"].resolved(template)
    hashes = study.hashes       # before the meshes are read
    diags = {}
    for i in range(n):
        target = load_mesh(study.subject_path(i))
        v0, diag = register_geometry(template, target, study.kernel, rcfg)
        _write_csv(reg / f"momenta_{i:03d}.csv",
                   np.column_stack([np.arange(template.n_vertices),
                                    v0.control_points, v0.momenta]),
                   header="k,cx,cy,cz,ax,ay,az")
        _write_csv(reg / f"deformed_{i:03d}.csv", diag.endpoint,
                   header="x,y,z")
        diags[i] = diag
    with open(reg / "diagnostics.json", "w") as fh:
        json.dump({i: d.as_dict() for i, d in diags.items()}, fh)
    with open(reg / "subjects.json", "w") as fh:
        json.dump(hashes, fh)
    runs = diags.values()
    stops = {rule: sum(d.stop == rule for d in runs) for rule in STOP_RULES}
    folded = sum(d.folded_faces > 0 for d in runs)
    warnings = []
    if stops["line_search"]:
        warnings.append(f"{stops['line_search']}/{n} subjects stopped on a "
                        "failed line search")
    if folded:
        warnings.append(f"{folded}/{n} subjects end with folded faces")
    settings = {key: getattr(rcfg, key) for key in _block_keys("register_geo")}
    return {"subjects": n, **settings,
            "iterations": sum(d.iterations for d in runs), "stop": stops,
            "folded_faces": sum(d.folded_faces for d in runs),
            "warnings": warnings}


def _stage_register_fun(cfg: PipelineConfig, study: Study):
    reg, fun = study.out / "reg_geo", study.out / "reg_fun"
    fun.mkdir(parents=True, exist_ok=True)
    template, n = study.template, study.n
    ends = [_read_endpoint(reg, i, template) for i in range(n)]
    study.check_registered()
    pulled = []
    for i, end in enumerate(ends):
        subject = load_mesh(study.subject_path(i))
        target_field = _read_field(subject, study.field_path(i))
        values = pull_back_function(target_field, end)
        pulled.append(values)
        _write_csv(fun / f"pulled_{i:03d}.csv", values)
    dcfg = cfg.settings["register_fun"]
    mean, _, aligned = groupwise_template(template, pulled, config=dcfg)
    for i in range(n):
        _write_csv(fun / f"aligned_{i:03d}.csv", aligned[i])
    _write_csv(fun / "template_field.csv", mean)
    return {"subjects": n, "demons_lam": dcfg.lam,
            "max_iterations": dcfg.max_iterations}


def _stage_fpca_geo(cfg: PipelineConfig, study: Study):
    reg, fg = study.out / "reg_geo", study.out / "fpca_geo"
    fg.mkdir(parents=True, exist_ok=True)
    template = study.template
    moms = [_read_momenta(reg / f"momenta_{i:03d}.csv", template)
            for i in range(study.n)]
    study.check_registered()
    fit = geometric_fpca(moms, template.vertices, study.kernel,
                         n_components=cfg.settings["fpca_geo"].n_components)
    _write_csv(fg / "scores.csv", fit.scores, "pc", 1)
    _write_csv(fg / "variances.csv", fit.variances, "pc", 1)
    np.savez(fg / "components.npz", components=fit.components,
             mean=fit.mean_momenta, control_points=template.vertices)
    return {"n_components": fit.scores.shape[1],
            "variances": [float(v) for v in fit.variances]}


def _stage_fpca_fun(cfg: PipelineConfig, study: Study):
    fun, ff = study.out / "reg_fun", study.out / "fpca_fun"
    fcfg = cfg.settings["fpca_fun"]
    ff.mkdir(parents=True, exist_ok=True)
    template = study.template
    fields = [_read_field(template, fun / f"aligned_{i:03d}.csv").values
              for i in range(study.n)]
    lam = fcfg.lam
    info = {}
    if fcfg.cv_lambdas is not None:
        lam, cv_errors = cross_validate_lambda(
            fields, template, fcfg.cv_lambdas,
            n_components=fcfg.n_components, n_folds=fcfg.folds,
            seed=cfg.seed + 4)
        info["cv_errors"] = {str(k): float(v) for k, v in cv_errors.items()}
    fit = functional_fpca(fields, template, lam=lam,
                          n_components=fcfg.n_components)
    _write_csv(ff / "scores.csv", fit.scores, "pc", 1)
    _write_csv(ff / "variances.csv", fit.variances, "pc", 1)
    _write_csv(ff / "components.csv", fit.components)
    _write_csv(ff / "mean.csv", fit.mean)
    info.update({"lam": float(lam), "n_components": fit.scores.shape[1]})
    with open(ff / "fit.json", "w") as fh:
        json.dump(info, fh)
    return info


def _stage_cca(cfg: PipelineConfig, study: Study):
    cc = study.out / "cca"
    g, f = _read_scores(study.out)
    cc.mkdir(parents=True, exist_ok=True)
    result = cca(g, f)
    test = bartlett_test(result)
    _write_csv(cc / "correlations.csv", result.correlations, "rho", 1)
    for name in ("x_weights", "y_weights", "x_variates", "y_variates"):
        _write_csv(cc / f"{name}.csv", getattr(result, name), "dir", 1)
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


def _in_stage(st, func, *args):
    """func(*args), with any exception raised as stage st's failure."""
    try:
        return func(*args)
    except Exception as exc:
        raise RuntimeError(f"stage {st!r} failed: {exc}") from exc


def run_pipeline(cfg: PipelineConfig, stages=None) -> dict:
    """Run the requested stage subset; returns and persists the manifest."""
    cfg.validate()
    stages = cfg.stages if stages is None else _check_stages(stages)
    out = Path(cfg.output_dir)
    # read after simulate when it runs: simulate writes the study
    study = Study(out)
    # every stage but cca reads the subject count: check it before any
    # stage writes
    if "simulate" in stages:
        _check_subjects(cfg, cfg.settings["simulate"].n, stages)
    elif stages != ("cca",):
        _check_subjects(cfg, _in_stage(stages[0], lambda: study.n), stages)
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
        t0 = time.perf_counter()
        summary = _in_stage(st, _STAGE_FUNCS[st], cfg, study)
        warnings = summary.pop("warnings", [])
        manifest["stages"][st] = {
            "summary": summary,
            "warnings": warnings,
            "wall_time_s": time.perf_counter() - t0,
            "artifact_dir": str(out / _ARTIFACT_DIRS[st]),
        }
        # the warnings of every stage on record, carried-over ones included
        manifest["warnings"] = [
            f"{name}: {text}" for name in STAGES
            for text in manifest["stages"].get(name, {}).get("warnings", [])]
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh, indent=1)
    return manifest


# -- co-variation + visualization ---------------------------------------------

def emit_covariation(out_dir, pair: int, t_values):
    """Write the score trajectories along one canonical direction."""
    study = Study(out_dir)
    g, f = _read_scores(study.out)
    result = cca(g, f)
    m = len(result.correlations)
    if pair < 0 or pair >= m:
        raise ConfigError(f"pair {pair + 1} out of range 1..{m}")
    seq = covariation_sequence(result, pair, t_values,
                               x_scores=g, y_scores=f)
    cov = study.out / "covary"
    cov.mkdir(parents=True, exist_ok=True)
    table = np.column_stack([seq["t"], seq["x"], seq["y"]])
    header = "t," + ",".join(f"g{j+1}" for j in range(g.shape[1])) \
        + "," + ",".join(f"f{j+1}" for j in range(f.shape[1]))
    path = cov / f"sequence_pair{pair + 1}.csv"
    _write_csv(path, table, header=header)
    return str(path)


def emit_mode_visualization(out_dir, mode: int, c_grid):
    """Write mesh+field pairs showing the mode-th geometric mode of
    variation: the template deformed along c*sqrt(variance)*component for
    each c on the grid, with the mean function attached. Shoots with the
    register-geo stage's recorded shooting_steps."""
    study = Study(out_dir)
    out = study.out
    with open(out / "manifest.json") as fh:
        record = json.load(fh)["stages"].get("register-geo", {})
    steps = record.get("summary", {}).get("shooting_steps")
    if steps is None:
        raise FileNotFoundError(f"{out / 'manifest.json'} records no "
                                "register-geo shooting_steps")
    data = np.load(out / "fpca_geo" / "components.npz")
    comps, mean_mom = data["components"], data["mean"]
    points = data["control_points"]
    if mode < 0 or mode >= len(comps):
        raise ConfigError(f"mode {mode + 1} out of range 1..{len(comps)}")
    variances = _read_csv(out / "fpca_geo" / "variances.csv").ravel()
    kernel, template = study.kernel, study.template
    mean_field = _read_field(template,
                             out / "reg_fun" / "template_field.csv").values
    viz = out / "viz"
    viz.mkdir(parents=True, exist_ok=True)
    written = []
    for idx, c in enumerate(c_grid):
        alpha = mean_mom + c * np.sqrt(variances[mode]) * comps[mode]
        v0 = InitialMomenta(points, alpha, kernel)
        end = shoot(v0, steps).points[-1]
        mesh_path = viz / f"mode{mode + 1}_{idx:02d}.off"
        field_path = viz / f"mode{mode + 1}_{idx:02d}.csv"
        deformed = template.with_vertices(end)
        save_mesh(deformed, mesh_path)
        _write_csv(field_path, mean_field)
        written.extend([str(mesh_path), str(field_path)])
    return written
