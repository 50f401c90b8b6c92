"""Staged analysis pipeline with on-disk artifacts.

Every stage reads its inputs from the output directory, and its outputs
are written there before the next stage starts, so any suffix of the
stage list can be re-run from cached artifacts with bit-identical results.

Each stage's config block holds the keyword arguments of one settings
object, whose defaults and checks are the block's: simulate ->
synthdata.SimSpec (seed defaults to the root seed), register_geo ->
georeg.RegistrationConfig (every field but similarity), register_fun ->
demons.DemonsConfig, and fpca_geo, fpca_fun, cca -> FpcaGeoSettings,
FpcaFunSettings, CcaSettings below. `PipelineConfig.from_dict` builds all
six into the config's fields of those names, so a bad value is a
ConfigError before any stage runs, and the stages read them as built.

One stage contract: a stage is a function (its settings block, study) ->
(files, summary), `files` each artifact's name -> its text or bytes. It
reads its block and, through the study, its upstream stages' files and
records, and writes nothing. simulate draws from simulate.seed, fpca-fun
its cross-validation folds from the seed on simulate's record plus 4, and
no other stage draws. The exports covary and viz-mode are functions of
the same form whose block is their grid, and leaves: no stage reads them.

This module alone reads and writes the artifacts below, under the output
directory. A table is a header row, then rows of numbers with 17
significant digits (`_csv`, `_read_csv`); a field is one row
`v0,v1,...` read back as a ScalarField of its mesh, which checks the
count; meshes are OFF (`mesh.off_text`, `mesh.parse_off`). A file that
does not fit the run raises an ArtifactError naming it. "bench" is the
benchmark's check.

One runner and one record per directory: `_run` runs a stage or an
export, once its upstream stages' records stand, into its emptied
directory, and `Study.write`, the one writer of their files, writes the
files it hands back in name order, then its record.json: the sha256 of
each and of each upstream stage's record, and its settings (an export's
are its grid). `Study.record`, which every read goes through, is the one
staleness rule: it refuses a record built from other records than its
upstream stages' as they stand, checked back to simulate, in a run one
built with other settings than the run's config block of its stage, and
`Study.read` a file whose sha256 the record does not name. Each refusal
names the stage or export to run again; an interrupted one leaves no
record. manifest.json keeps the entries of the six stages' standing
records.

  artifact                    layout                  readers
  <stage dir>/record.json     sha256s and settings    Study
  sim/template.off            OFF                     Study, bench
  sim/observation.off         OFF                     -
  sim/subject_NNN.off         OFF                     register-*, bench
  sim/kernel.json             GaussianKernel fields   Study, bench
  sim/field_NNN.csv           field of subject_NNN    register-fun
  sim/true_images_NNN.csv     x,y,z per vertex        bench
  sim/true_scores.csv         a1,a2 per subject       Study, bench
  sim/true_fields.csv         v0,... per subject      bench
  sim/modes.npz               the planted modes       -
  reg_geo/momenta_NNN.csv     k,cx,cy,cz,ax,ay,az     fpca-geo, bench
  reg_geo/deformed_NNN.csv    x,y,z per vertex        register-fun, bench
  reg_geo/diagnostics.json    Diagnostics by subject  cca, bench
  reg_fun/pulled_NNN.csv      field of the template   -
  reg_fun/aligned_NNN.csv     field of the template   fpca-fun, bench
  reg_fun/template_field.csv  field of the template   viz-mode
  fpca_geo/scores.csv         pc1,... per subject     cca, covary, bench
  fpca_geo/variances.csv      one row pc1,...         viz-mode
  fpca_geo/components.npz     components, mean,       viz-mode
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
  manifest.json               each standing record    run_pipeline
  covary/record.json          sha256s and t_grid      Study
  covary/sequence_pairP.csv   t,g1,..,f1,.. rows,     -
                              every canonical pair P
  viz/record.json             sha256s and c_grid      Study
  viz/modeM_II.off, .csv      OFF, field of the OFF,  -
                              every geometric mode M
                              at c_grid[II]
"""

from __future__ import annotations

import hashlib
import io
import json
import platform
import shutil
import time
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import get_type_hints
from warnings import catch_warnings, simplefilter

import numpy as np
import scipy

from .covariation import bartlett_test, cca, covariation_sequence
from .demons import DemonsConfig, groupwise_template
from .fpca import cross_validate_lambda, functional_fpca, geometric_fpca
from .georeg import (STALL_RATIO, STOP_RULES, RegistrationConfig,
                     pull_back_function, register_geometry)
from .kernels import GaussianKernel
from .lddmm import InitialMomenta, shoot
from .mesh import MeshError, ScalarField, off_text, parse_off
from .synthdata import SimSpec, generate_dataset

STAGES = ("simulate", "register-geo", "register-fun",
          "fpca-geo", "fpca-fun", "cca")


def _is_number(value, kind=(int, float)):
    """Whether value is a finite number >= 0 of the given kind, not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool) \
        and 0 <= value < np.inf


def _as_float(value):
    """An int as the float of equal value (inf past the float range), so
    that one setting has one spelling; any other value as it is."""
    if not _is_number(value, int):
        return value
    try:
        return float(value)
    except OverflowError:
        return np.inf


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
    cv_lambdas: list[float] | None = None
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
                             "finite numbers >= 0")


@dataclass
class CcaSettings:
    """The cca stage takes no settings."""


class ConfigError(ValueError):
    """Invalid pipeline configuration."""


class ArtifactError(ValueError):
    """An artifact file that is malformed, or stale: written for other
    inputs than the ones it is read with."""


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _check_stages(stages):
    """stages as a tuple: ConfigError unless a list of known stages, ordered
    and not empty."""
    _require(isinstance(stages, (list, tuple)), "stages must be a list")
    stages = tuple(stages)
    for st in stages:
        _require(st in STAGES, f"unknown stage {st!r}")
    order = [STAGES.index(st) for st in stages]
    _require(order == sorted(order), "stages must be in pipeline order")
    _require(stages, "stage list is empty")
    return stages


def _settings(block_name, cls, block):
    """The settings object of class cls of one config block. An int given
    for a float field, or in a list of floats, is stored as its float."""
    _require(isinstance(block, dict), f"{block_name} block must be an object")
    hints = get_type_hints(cls)
    hints.pop("similarity", None)       # set by library callers only
    unknown = set(block) - set(hints)
    _require(not unknown, f"unknown {block_name} keys: {sorted(unknown)}")
    values = dict(block)
    for key, value in block.items():
        name = f"{block_name}.{key}"
        _require(value is not None, f"{name} must not be null")
        if hints[key] is int:
            _require(_is_number(value, int), f"{name} must be an int >= 0")
        elif hints[key] in (float, float | None):
            values[key] = _as_float(value)
            _require(_is_number(values[key]),
                     f"{name} must be a finite number >= 0")
        elif hints[key] == list[float] | None and isinstance(value, list):
            values[key] = [_as_float(v) for v in value]
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {block_name} block: {exc}") from exc


@dataclass
class PipelineConfig:
    """The run's configuration: the root fields and the settings object of
    each stage block. `from_dict` builds it from the JSON form; the root
    fields and the class of each block are checked however it is built.
    Without a simulate block, or without its seed in `from_dict`, the
    simulation takes the root seed."""

    output_dir: str = "fos_out"
    seed: int = 0
    stages: tuple = STAGES
    simulate: SimSpec = None            # None: SimSpec(seed=seed)
    register_geo: RegistrationConfig = field(
        default_factory=RegistrationConfig)
    register_fun: DemonsConfig = field(default_factory=DemonsConfig)
    fpca_geo: FpcaGeoSettings = field(default_factory=FpcaGeoSettings)
    fpca_fun: FpcaFunSettings = field(default_factory=FpcaFunSettings)
    cca: CcaSettings = field(default_factory=CcaSettings)

    def __post_init__(self):
        _require(isinstance(self.output_dir, str),
                 "output_dir must be a string")
        self.stages = _check_stages(self.stages)
        _require(_is_number(self.seed, int), "seed must be an int >= 0")
        if self.simulate is None:
            self.simulate = SimSpec(seed=self.seed)
        for name, kind in get_type_hints(PipelineConfig).items():
            if is_dataclass(kind):
                _require(isinstance(getattr(self, name), kind),
                         f"{name} block must be a {kind.__name__}")

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        _require(isinstance(data, dict), "config must be a JSON object")
        hints = get_type_hints(cls)
        unknown = set(data) - set(hints)
        _require(not unknown, f"unknown config keys: {sorted(unknown)}")
        blocks = {name: data.get(name, {}) for name in hints
                  if is_dataclass(hints[name])}
        cfg = cls(**{k: v for k, v in data.items() if k not in blocks},
                  **{name: _settings(name, hints[name], block)
                     for name, block in blocks.items()})
        ff = blocks["fpca_fun"]
        _require("cv_lambdas" not in ff or "lam" not in ff,
                 "give fpca_fun.lam or fpca_fun.cv_lambdas, not both")
        _require("cv_lambdas" in ff or "folds" not in ff,
                 "fpca_fun.folds needs fpca_fun.cv_lambdas")
        if "seed" not in blocks["simulate"]:
            cfg.simulate = replace(cfg.simulate, seed=cfg.seed)
        return cfg

    @classmethod
    def from_json(cls, path, **overrides) -> "PipelineConfig":
        """The JSON file's config, overrides in place of its root fields."""
        try:
            with open(str(path)) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        _require(isinstance(data, dict), "config must be a JSON object")
        return cls.from_dict({**data, **overrides})


# -- artifact helpers ---------------------------------------------------------

def _csv(array, prefix="v", first=0, header=None):
    """The text of rows of numbers under `header`, by default columns
    numbered from `first` after `prefix` (v0, v1, ... for per-vertex
    values), formatted in one operation."""
    arr = np.atleast_2d(np.asarray(array, float))
    if header is None:
        header = ",".join(f"{prefix}{j + first}" for j in range(arr.shape[1]))
    row = ",".join(["%.17g"] * arr.shape[1]) + "\n"
    return header + "\n" + row * len(arr) % tuple(arr.ravel().tolist())


def _npz(**arrays):
    """The bytes np.savez writes for arrays."""
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _read_csv(path, data=None):
    """The table in the file at path, parsed from its bytes `data` when
    they are given."""
    source = str(path) if data is None else data.decode().splitlines()
    try:
        with catch_warnings():
            simplefilter("ignore", UserWarning)    # numpy's "no data"
            table = np.loadtxt(source, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ArtifactError(f"{path}: malformed table: {exc}") from exc
    if table.size == 0:
        raise ArtifactError(f"{path}: table has no rows")
    return table


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _check_subjects(cfg, n, stages):
    """ConfigError unless n subjects suffice for the fpca-fun folds and the
    configured cca score columns of `stages`."""
    fg, ff = cfg.fpca_geo, cfg.fpca_fun
    _require("fpca-fun" not in stages or not ff.cv_lambdas or ff.folds <= n,
             f"fpca_fun.folds = {ff.folds} exceeds the {n} subjects")
    if "cca" in stages:
        _check_columns(n, fg.n_components + ff.n_components)


def _check_columns(n, k):
    """ConfigError unless n subjects suffice for CCA on k score columns."""
    _require(k < n - 1, f"cca needs n > {k + 1} for {k} "
             f"fpca_geo.n_components + fpca_fun.n_components, got {n}")


def _read_scores(study):
    """Both fpca score tables, with enough rows for CCA."""
    g = study.table("fpca-geo", "scores.csv")
    f = study.table("fpca-fun", "scores.csv")
    _check_columns(len(g), g.shape[1] + f.shape[1])
    return g, f


def _json_object(path, data, keys):
    """The JSON object in data, the bytes of the file at path, with an
    object at each of keys; an ArtifactError naming the file otherwise."""
    try:
        value = json.loads(data)
        for key in keys:
            if not isinstance(value.get(key), dict):
                raise TypeError(f"no object {key!r}")
    except (ValueError, TypeError, AttributeError) as exc:
        raise ArtifactError(f"{path}: malformed: {exc}") from exc
    return value


class Study:
    """The artifacts of the output directory `out`, each read through the
    record of the stage or export that wrote it. Records and meshes are
    parsed once per instance. Given `settings`, stage or export name -> its
    settings in their JSON form, the study refuses a record of others."""

    def __init__(self, out, settings=None):
        self.out = Path(out)
        self.settings = settings or {}
        self._records = {}      # stage -> (sha256 of record.json, record)
        self._meshes = {}       # (stage, OFF file name) -> its mesh

    def dir(self, st):
        return self.out / _ARTIFACT_DIRS[st]

    def record(self, st):
        """Stage st's record, as the sha256 of its bytes and its contents.
        ArtifactError unless it was built from the records of its upstream
        stages as they stand, each checked the same way, and with the
        study's settings of st when it has them."""
        if st not in self._records:
            path = self.dir(st) / "record.json"
            data = path.read_bytes()
            record = _json_object(path, data, ("files", "settings",
                                               "upstream"))
            if record["upstream"] != {u: self.record(u)[0]
                                      for u in _UPSTREAM[st]}:
                raise ArtifactError(f"{self.dir(st)}: built from other "
                                    f"inputs; run {st} again")
            if st in self.settings and record["settings"] != self.settings[st]:
                raise ArtifactError(f"{self.dir(st)}: built with other "
                                    f"settings; run {st} again")
            self._records[st] = _sha256(data), record
        return self._records[st]

    def stands(self, st, entry):
        """Whether the manifest entry, or None, is of st's standing record."""
        try:
            return isinstance(entry, dict) \
                and entry.get("record") == self.record(st)[0]
        except (OSError, ValueError):
            return False

    def write(self, st, files, settings):
        """Write stage or export st's files, name -> text or bytes, in name
        order, then its record of them, its upstream records and settings."""
        self.dir(st).mkdir(parents=True, exist_ok=True)
        data = {name: files[name].encode() if isinstance(files[name], str)
                else files[name] for name in sorted(files)}
        for name in data:
            (self.dir(st) / name).write_bytes(data[name])
        record = {"files": {name: _sha256(d) for name, d in data.items()},
                  "settings": settings,
                  "upstream": {u: self.record(u)[0] for u in _UPSTREAM[st]}}
        data = json.dumps(record, indent=1).encode()
        (self.dir(st) / "record.json").write_bytes(data)
        # the records read downstream of st were built from its old one
        self._records = {u: self._records[u] for u in _UPSTREAM[st]}
        self._records[st] = _sha256(data), record

    def read(self, st, name):
        """The path and bytes of stage st's file `name`, which must be the
        file st's record names."""
        path = self.dir(st) / name
        files = self.record(st)[1]["files"]
        data = path.read_bytes()
        if files.get(name) != _sha256(data):
            raise ArtifactError(f"{path}: not the file {st} wrote; run {st} "
                                "again")
        return path, data

    def table(self, st, name):
        return _read_csv(*self.read(st, name))

    def field(self, mesh, st, name):
        """Stage st's field file `name` as a ScalarField of mesh."""
        return ScalarField(mesh, self.table(st, name).ravel())

    def mesh(self, st, name):
        if (st, name) not in self._meshes:
            path, data = self.read(st, name)
            try:
                self._meshes[st, name] = parse_off(data.decode())
            except MeshError as exc:
                raise MeshError(f"{path}: {exc}") from exc
        return self._meshes[st, name]

    @property
    def template(self):
        return self.mesh("simulate", "template.off")

    @cached_property
    def kernel(self):
        return GaussianKernel(**json.loads(self.read("simulate",
                                                      "kernel.json")[1]))

    @cached_property
    def n(self):
        """Subjects of the latest simulate run: the rows of its score table."""
        return len(self.table("simulate", "true_scores.csv"))


# register-geo's flags of a subject, each with its warning's text
_FLAG_TEXT = {"line_search": "stopped on a failed line search",
              "folded_faces": "end with folded faces",
              "stalled": f"end above {STALL_RATIO:g} of their initial "
                         "similarity"}


def _registration_flags(diags):
    """The subjects, by index, that register-geo's diagnostics (by subject,
    each as in diagnostics.json) flag: a stop on a failed line search,
    folded faces at the end, and a final similarity above STALL_RATIO of
    the initial one (an initial 0 has nothing to stall on)."""
    def flagged(test):
        return [int(i) for i, d in diags.items() if test(d)]
    trace = "similarity_trace"
    return {"line_search": flagged(lambda d: d["stop"] == "line_search"),
            "folded_faces": flagged(lambda d: d["folded_faces"] > 0),
            "stalled": flagged(lambda d: d[trace][0] > 0 and d[trace][-1]
                               / d[trace][0] > STALL_RATIO)}


# -- stages -------------------------------------------------------------------

def _stage_simulate(spec: SimSpec, study: Study):
    ds = generate_dataset(spec)
    k = ds.template.n_vertices      # the modes' values on the template
    files = {"template.off": off_text(ds.template),
             "observation.off": off_text(ds.observation_template),
             "kernel.json": json.dumps(asdict(ds.kernel)),
             "true_scores.csv": _csv(ds.scores, "a", 1),
             "true_fields.csv": _csv(ds.true_x),
             "modes.npz": _npz(psi1_g=ds.modes.psi1_g.momenta,
                               psi2_g=ds.modes.psi2_g.momenta,
                               psi1_f=ds.modes.psi1_f.values[:k],
                               mu=ds.modes.mu.values[:k])}
    for i in range(spec.n):
        files[f"subject_{i:03d}.off"] = off_text(ds.meshes[i])
        files[f"field_{i:03d}.csv"] = _csv(ds.fields[i].values)
        files[f"true_images_{i:03d}.csv"] = _csv(ds.true_vertex_images[i],
                                                 header="x,y,z")
    return files, {"n": spec.n,
                   "template": str(study.dir("simulate") / "template.off")}


def _stage_register_geo(rcfg: RegistrationConfig, study: Study):
    template, n = study.template, study.n
    rcfg = rcfg.resolved(template)
    files, diags, seconds = {}, {}, []
    for i in range(n):
        target = study.mesh("simulate", f"subject_{i:03d}.off")
        t0 = time.perf_counter()
        v0, diag = register_geometry(template, target, study.kernel, rcfg)
        seconds.append(time.perf_counter() - t0)
        files[f"momenta_{i:03d}.csv"] = _csv(
            np.column_stack([np.arange(template.n_vertices),
                             v0.control_points, v0.momenta]),
            header="k,cx,cy,cz,ax,ay,az")
        files[f"deformed_{i:03d}.csv"] = _csv(diag.endpoint, header="x,y,z")
        diags[i] = diag.as_dict()
    files["diagnostics.json"] = json.dumps(diags)
    runs = diags.values()
    flags = _registration_flags(diags)
    settings = {k: v for k, v in asdict(rcfg).items() if k != "similarity"}
    return files, {
        "subjects": n, **settings,
        "iterations": sum(d["iterations"] for d in runs),
        "stop": {rule: sum(d["stop"] == rule for d in runs)
                 for rule in STOP_RULES},
        "folded_faces": sum(d["folded_faces"] for d in runs),
        "stalled": flags["stalled"], "subject_wall_time_s": seconds,
        "warnings": [f"{len(flags[flag])}/{n} subjects {text}"
                     for flag, text in _FLAG_TEXT.items() if flags[flag]]}


def _stage_register_fun(dcfg: DemonsConfig, study: Study):
    template, n = study.template, study.n
    files, pulled = {}, []
    for i in range(n):
        end = study.table("register-geo", f"deformed_{i:03d}.csv")
        subject = study.mesh("simulate", f"subject_{i:03d}.off")
        target_field = study.field(subject, "simulate", f"field_{i:03d}.csv")
        pulled.append(pull_back_function(target_field, end))
        files[f"pulled_{i:03d}.csv"] = _csv(pulled[i])
    mean, _, aligned = groupwise_template(template, pulled, config=dcfg)
    for i in range(n):
        files[f"aligned_{i:03d}.csv"] = _csv(aligned[i])
    files["template_field.csv"] = _csv(mean)
    return files, {"subjects": n, "demons_lam": dcfg.lam,
                   "max_iterations": dcfg.max_iterations}


def _stage_fpca_geo(fg: FpcaGeoSettings, study: Study):
    template = study.template
    moms = [study.table("register-geo", f"momenta_{i:03d}.csv")[:, 4:7]
            for i in range(study.n)]
    fit = geometric_fpca(moms, template.vertices, study.kernel,
                         n_components=fg.n_components)
    files = {"scores.csv": _csv(fit.scores, "pc", 1),
             "variances.csv": _csv(fit.variances, "pc", 1),
             "components.npz": _npz(components=fit.components,
                                    mean=fit.mean_momenta,
                                    control_points=template.vertices)}
    return files, {"n_components": fit.scores.shape[1],
                   "variances": [float(v) for v in fit.variances]}


def _stage_fpca_fun(fcfg: FpcaFunSettings, study: Study):
    template = study.template
    fields = [study.field(template, "register-fun",
                          f"aligned_{i:03d}.csv").values
              for i in range(study.n)]
    lam, info = fcfg.lam, {}
    if fcfg.cv_lambdas is not None:
        seed = study.record("simulate")[1]["settings"]["seed"] + 4
        lam, cv_errors = cross_validate_lambda(
            fields, template, fcfg.cv_lambdas,
            n_components=fcfg.n_components, n_folds=fcfg.folds, seed=seed)
        info["cv_errors"] = {str(k): float(v) for k, v in cv_errors.items()}
    fit = functional_fpca(fields, template, lam=lam,
                          n_components=fcfg.n_components)
    info.update({"lam": float(lam), "n_components": fit.scores.shape[1]})
    files = {"scores.csv": _csv(fit.scores, "pc", 1),
             "variances.csv": _csv(fit.variances, "pc", 1),
             "components.csv": _csv(fit.components),
             "mean.csv": _csv(fit.mean),
             "fit.json": json.dumps(info)}
    return files, info


def _stage_cca(_: CcaSettings, study: Study):
    result = cca(*_read_scores(study))
    test = bartlett_test(result)
    files = {"correlations.csv": _csv(result.correlations, "rho", 1),
             "bartlett.json": json.dumps({
                 "statistics": [float(s) for s in test.statistics],
                 "dof": [int(d) for d in test.dof],
                 "p_values": [float(p) for p in test.p_values]})}
    for name in ("x_weights", "y_weights", "x_variates", "y_variates"):
        files[f"{name}.csv"] = _csv(getattr(result, name), "dir", 1)
    diags = json.loads(study.read("register-geo", "diagnostics.json")[1])
    return files, {"correlations": [float(r) for r in result.correlations],
                   "p_values": [float(p) for p in test.p_values],
                   "registration_flags": _registration_flags(diags)}


# -- exports: co-variation + visualization -----------------------------------

def _export_covary(t_grid, study: Study):
    """The score trajectories along every canonical pair, at t_grid."""
    g, f = _read_scores(study)
    result = cca(g, f)
    header = "t," + ",".join(f"g{j+1}" for j in range(g.shape[1])) \
        + "," + ",".join(f"f{j+1}" for j in range(f.shape[1]))
    files = {}
    for pair in range(len(result.correlations)):
        seq = covariation_sequence(result, pair, t_grid,
                                   x_scores=g, y_scores=f)
        files[f"sequence_pair{pair + 1}.csv"] = _csv(
            np.column_stack([seq["t"], seq["x"], seq["y"]]), header=header)
    return files, {}


def _export_viz(c_grid, study: Study):
    """Mesh+field pairs of every geometric mode of variation: the template
    deformed along c*sqrt(variance)*component for each c on the grid, with
    the mean function attached, shot in register-geo's recorded steps."""
    steps = study.record("register-geo")[1]["settings"]["shooting_steps"]
    data = np.load(io.BytesIO(study.read("fpca-geo", "components.npz")[1]))
    variances = study.table("fpca-geo", "variances.csv").ravel()
    mean_field = study.read("register-fun", "template_field.csv")[1]
    files = {}
    for mode, component in enumerate(data["components"]):
        for idx, c in enumerate(c_grid):
            alpha = data["mean"] + c * np.sqrt(variances[mode]) * component
            v0 = InitialMomenta(data["control_points"], alpha, study.kernel)
            end = shoot(v0, steps).points[-1]
            stem = f"mode{mode + 1}_{idx:02d}"
            files[f"{stem}.off"] = off_text(study.template.with_vertices(end))
            files[f"{stem}.csv"] = mean_field
    return files, {}


# each stage's and export's artifact directory, function and upstream stages
_STAGE_TABLE = {
    "simulate": ("sim", _stage_simulate, ()),
    "register-geo": ("reg_geo", _stage_register_geo, ("simulate",)),
    "register-fun": ("reg_fun", _stage_register_fun,
                     ("simulate", "register-geo")),
    "fpca-geo": ("fpca_geo", _stage_fpca_geo, ("simulate", "register-geo")),
    "fpca-fun": ("fpca_fun", _stage_fpca_fun, ("simulate", "register-fun")),
    "cca": ("cca", _stage_cca, ("fpca-geo", "fpca-fun")),
    "covary": ("covary", _export_covary, ("fpca-geo", "fpca-fun")),
    "viz-mode": ("viz", _export_viz, ("simulate", "register-geo",
                                      "register-fun", "fpca-geo")),
}
_ARTIFACT_DIRS, _STAGE_FUNCS, _UPSTREAM = (
    {st: row[j] for st, row in _STAGE_TABLE.items()} for j in range(3))


def _in_stage(st, func, *args):
    """func(*args), with any exception raised as stage st's failure; an
    export's exceptions pass as they are."""
    try:
        return func(*args)
    except Exception as exc:
        if st not in STAGES:
            raise
        raise RuntimeError(f"stage {st!r} failed: {exc}") from exc


def _run(st, block, settings, study):
    """Run stage or export st on its block, once its upstream records
    stand, into its emptied directory; returns its summary."""
    _in_stage(st, lambda: [study.record(u) for u in _UPSTREAM[st]])
    if study.dir(st).exists():
        shutil.rmtree(study.dir(st))
    files, summary = _in_stage(st, _STAGE_FUNCS[st], block, study)
    study.write(st, files, settings)
    return summary


def run_pipeline(cfg: PipelineConfig, stages=None) -> dict:
    """Run the requested stage subset; returns and persists the manifest."""
    stages = cfg.stages if stages is None else _check_stages(stages)
    out = Path(cfg.output_dir)
    blocks = {st: getattr(cfg, st.replace("-", "_")) for st in STAGES}
    settings = {st: json.loads(json.dumps(asdict(block)))
                for st, block in blocks.items()}
    # read after simulate when it runs: simulate writes the study
    study = Study(out, settings)
    # every stage but cca reads the subject count: check it before any
    # stage writes
    if "simulate" in stages:
        _check_subjects(cfg, cfg.simulate.n, stages)
    elif stages != ("cca",):
        _check_subjects(cfg, _in_stage(stages[0], lambda: study.n), stages)
    path = out / "manifest.json"
    manifest = {"versions": {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__}, "stages": {}, "warnings": []}
    if path.exists():
        manifest["stages"] = _json_object(path, path.read_bytes(),
                                          ("stages",))["stages"]
    for st in stages:
        t0 = time.perf_counter()
        summary = _run(st, blocks[st], settings[st], study)
        warnings = summary.pop("warnings", [])
        manifest["stages"][st] = {
            "summary": summary,
            "warnings": warnings,
            "wall_time_s": time.perf_counter() - t0,
            "artifact_dir": str(study.dir(st)),
            "record": study.record(st)[0],
        }
        # the entries of the records that stand, carried-over ones included
        entries = {name: manifest["stages"][name] for name in STAGES
                   if study.stands(name, manifest["stages"].get(name))}
        manifest.update(stages=entries, warnings=[
            f"{name}: {text}" for name in entries
            for text in entries[name]["warnings"]])
        path.write_bytes(json.dumps(manifest, indent=1).encode())
    return manifest


def _export(out_dir, st, option, grid):
    """Run export st on grid; returns the paths of the files it wrote."""
    study, grid = Study(out_dir), [float(v) for v in grid]
    _run(st, grid, {option: grid}, study)
    return [str(study.dir(st) / name) for name in study.record(st)[1]["files"]]


def emit_covariation(out_dir, t_values):
    """Export the score trajectories of every canonical pair to covary/."""
    return _export(out_dir, "covary", "t_grid", t_values)


def emit_mode_visualization(out_dir, c_grid):
    """Export mesh+field pairs of every geometric mode to viz/."""
    return _export(out_dir, "viz-mode", "c_grid", c_grid)
