import hashlib
import json
import shutil
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from fos.georeg import STALL_RATIO, STOP_RULES, register_geometry
from fos.lddmm import InitialMomenta, shoot
from fos import pipeline
from fos.mesh import load_mesh, parse_off, save_mesh
from fos.pipeline import (ArtifactError, ConfigError, PipelineConfig,
                          Study, _csv, _read_csv, emit_covariation,
                          emit_mode_visualization, run_pipeline, STAGES)
from fos.synthdata import SimSpec
from test_bench_contract import load_bench


def _write_csv(path, *args, **kwargs):
    """Write the `_csv` text of a table over the file at path."""
    Path(path).write_text(_csv(*args, **kwargs))


def tiny_config(out_dir):
    return PipelineConfig.from_dict({
        "output_dir": str(out_dir),
        "seed": 0,
        "simulate": {"n": 6, "subdivisions": 1, "observation_subdivisions": 1},
        "register_geo": {"max_iterations": 4},
        "register_fun": {"max_iterations": 2},
        "fpca_geo": {"n_components": 2},
        "fpca_fun": {"n_components": 2, "lam": 0.0},
        "cca": {},
    })


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe") / "out"
    cfg = tiny_config(out)
    manifest = run_pipeline(cfg)
    return cfg, out, manifest


def test_config_rejects_negative_lambda():
    for block in ({"lam": -1.0}, {"cv_lambdas": [-1.0]},
                  {"cv_lambdas": "abc"}, {"cv_lambdas": []},
                  {"cv_lambdas": [0.0, "10"]}):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"fpca_fun": block})


def test_config_rejects_unknown_keys():
    for data in ({"no_such_block": {}},
                 {"fpca_geo": {"n_component": 3}},
                 {"fpca_fun": {"lamda": 10.0}},
                 {"cca": {"n_components": 2}},
                 {"register_geo": {"similarity": "current"}},
                 {"register_geo": {"sigma_z_rel": 0.2}}):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict(data)


@pytest.mark.parametrize("block,values", [
    ("register_geo", {"max_iterations": 0}),
    ("register_geo", {"shooting_steps": 0}),
    ("register_geo", {"sigma_z": 0}),
    ("register_fun", {"lam": 0}),
    ("simulate", {"n": 1}),
    ("simulate", {"shooting_steps": 0}),
    ("fpca_geo", {"n_components": 0}),
    ("fpca_fun", {"folds": 0, "cv_lambdas": [0.0, 10.0]}),
    # settings the stage would drop: lam is chosen among cv_lambdas, and
    # folds is read only when it is
    ("fpca_fun", {"lam": 5.0, "cv_lambdas": [0.0, 100.0]}),
    ("fpca_fun", {"folds": 2}),
    ("simulate", {"kernel_small": 0}),
    ("register_fun", {"max_iterations": 0}),
    # JSON's Infinity, which no stage can run with
    ("register_geo", {"lam": np.inf}),
    ("register_fun", {"lam": np.inf}),
    ("fpca_fun", {"lam": np.inf}),
    ("simulate", {"scale": np.inf}),
    ("fpca_fun", {"cv_lambdas": [0, np.inf]}),
])
def test_config_rejects_out_of_range_values(block, values):
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({block: values})


def test_config_rejects_null_values():
    for block, key in (("register_geo", "sigma_z"), ("simulate", "n"),
                       ("fpca_fun", "cv_lambdas")):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({block: {key: None}})


def test_config_rejects_bad_stage_order():
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"stages": ["cca", "simulate"]})
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"stages": ["not-a-stage"]})
    # one stage name is not a list of its letters
    with pytest.raises(ConfigError, match="stages must be a list"):
        PipelineConfig.from_dict({"stages": "cca"})
    # a config built directly is checked too
    with pytest.raises(ConfigError, match="pipeline order"):
        PipelineConfig(stages=("cca", "simulate"))


def test_explicit_stage_list_is_checked_like_the_config(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    for stages in (("register-geo", "simulate"), ()):
        with pytest.raises(ConfigError):
            run_pipeline(cfg, stages)
    assert not (tmp_path / "out").exists()


def test_a_run_reads_each_study_input_once(tmp_path, monkeypatch):
    parsed = []

    def counting_parse(text):
        parsed.append(text)
        return parse_off(text)

    monkeypatch.setattr(pipeline, "parse_off", counting_parse)
    run_pipeline(tiny_config(tmp_path))
    # the template and each subject mesh, parsed once
    sim = tmp_path / "sim"
    meshes = ["template.off"] + [f"subject_{i:03d}.off" for i in range(6)]
    assert sorted(parsed) == sorted((sim / m).read_text() for m in meshes)


def recorded_settings(cfg):
    """The settings text of each stage's record, as run_pipeline writes it."""
    return {st: json.dumps(asdict(getattr(cfg, st.replace("-", "_"))))
            for st in STAGES}


def test_record_settings_track_content():
    a = PipelineConfig.from_dict({"seed": 0})
    b = PipelineConfig.from_dict({"seed": 0})
    c = PipelineConfig.from_dict({"seed": 1})
    assert recorded_settings(a) == recorded_settings(b)
    assert recorded_settings(a)["simulate"] != recorded_settings(c)["simulate"]
    # the same run, with its defaults spelled out or left out, or with a
    # number spelled as an int or as a float, writes the same records
    for one, other in (({"simulate": {"n": 50}}, {"simulate": {}}),
                       ({"seed": 2, "simulate": {"seed": 2}}, {"seed": 2}),
                       ({"fpca_fun": {"lam": 100}},
                        {"fpca_fun": {"lam": 100.0}}),
                       ({"fpca_fun": {"cv_lambdas": [0, 100]}},
                        {"fpca_fun": {"cv_lambdas": [0.0, 100.0]}})):
        assert recorded_settings(PipelineConfig.from_dict(one)) == \
            recorded_settings(PipelineConfig.from_dict(other))
    lam = PipelineConfig.from_dict({"register_geo": {"lam": 1}}).register_geo.lam
    assert type(lam) is float and lam == 1.0


def test_a_config_built_directly_simulates_with_the_root_seed():
    assert PipelineConfig(seed=3).simulate == SimSpec(seed=3)
    assert PipelineConfig(seed=3) == PipelineConfig.from_dict({"seed": 3})
    # a simulate block passed in keeps its own seed
    assert PipelineConfig(seed=3, simulate=SimSpec(n=10)).simulate == \
        SimSpec(n=10)


def test_a_config_built_directly_refuses_a_block_of_another_class():
    with pytest.raises(ConfigError, match="register_geo block must be a "
                       "RegistrationConfig"):
        PipelineConfig(register_geo={"lam": 1.0})
    with pytest.raises(ConfigError, match="simulate block must be a SimSpec"):
        PipelineConfig(simulate={"n": 10})
    cfg = PipelineConfig()
    with pytest.raises(ConfigError, match="cca block must be a CcaSettings"):
        replace(cfg, cca={})


def test_manifest_structure(finished_run):
    _, out, manifest = finished_run
    assert list(manifest["stages"]) == list(STAGES)
    assert set(manifest) == {"versions", "stages", "warnings"}
    for st in STAGES:
        entry = manifest["stages"][st]
        assert entry["wall_time_s"] >= 0.0
        assert Path(entry["artifact_dir"]).is_dir()
        # the sha256 of the record the entry describes
        assert entry["record"] == \
            _digest(Path(entry["artifact_dir"]) / "record.json")
    on_disk = json.loads((out / "manifest.json").read_text())
    assert on_disk["stages"] == manifest["stages"]
    assert set(manifest["versions"]) == {"python", "numpy", "scipy"}
    assert manifest["versions"]["numpy"] == np.__version__
    # register-geo totals agree with the per-subject diagnostics
    diags = json.loads((out / "reg_geo" / "diagnostics.json").read_text())
    summary = manifest["stages"]["register-geo"]["summary"]
    for key in ("iterations", "folded_faces"):
        assert summary[key] == sum(d[key] for d in diags.values())
    # one registration time per subject, in the manifest only
    assert len(summary["subject_wall_time_s"]) == len(diags) == 6
    assert all(t >= 0.0 for t in summary["subject_wall_time_s"])
    assert summary["stop"] == {
        rule: sum(d["stop"] == rule for d in diags.values())
        for rule in STOP_RULES}
    # the stop rule is the one record of why a registration stopped
    for record in (summary, *diags.values()):
        assert not {"converged", "line_search_failed"} & set(record)
    # 4 iterations leave every tiny registration unconverged
    assert summary["stop"]["gradient"] == 0
    expected = []
    if summary["stop"]["line_search"]:
        expected.append(f"register-geo: {summary['stop']['line_search']}/6 "
                        "subjects stopped on a failed line search")
    folded = sum(d["folded_faces"] > 0 for d in diags.values())
    if folded:
        expected.append(f"register-geo: {folded}/6 subjects end with folded "
                        "faces")
    stalled = [int(i) for i, d in diags.items() if d["similarity_trace"][-1]
               > STALL_RATIO * d["similarity_trace"][0]]
    assert summary["stalled"] == stalled
    if stalled:
        expected.append(f"register-geo: {len(stalled)}/6 subjects end above "
                        f"{STALL_RATIO:g} of their initial similarity")
    assert manifest["warnings"] == expected
    assert on_disk["warnings"] == expected
    assert manifest["stages"]["register-geo"]["warnings"] == \
        [w.split(": ", 1)[1] for w in expected]


def test_register_geo_warns_of_folded_endpoints(tmp_path, monkeypatch):
    def folding(*args, **kwargs):
        v0, diag = register_geometry(*args, **kwargs)
        diag.folded_faces = 2
        return v0, diag

    monkeypatch.setattr(pipeline, "register_geometry", folding)
    manifest = run_pipeline(tiny_config(tmp_path),
                            ("simulate", "register-geo"))
    assert manifest["stages"]["register-geo"]["summary"]["folded_faces"] \
        == 12
    assert "register-geo: 6/6 subjects end with folded faces" in \
        manifest["warnings"]


def test_register_geo_warns_of_stalled_subjects(tmp_path):
    def register(iterations):
        cfg = PipelineConfig.from_dict({
            "output_dir": str(tmp_path / str(iterations)), "seed": 0,
            "simulate": {"n": 3, "subdivisions": 2},
            "register_geo": {"max_iterations": iterations}})
        return run_pipeline(cfg, ("simulate", "register-geo"))

    # the default budget brings every subject below STALL_RATIO
    manifest = register(30)
    assert manifest["stages"]["register-geo"]["summary"]["stalled"] == []
    assert manifest["warnings"] == []
    # one iteration leaves each far from its target
    manifest = register(1)
    assert manifest["stages"]["register-geo"]["summary"]["stalled"] == \
        [0, 1, 2]
    assert manifest["warnings"] == [
        f"register-geo: 3/3 subjects end above {STALL_RATIO:g} of their "
        "initial similarity"]


def test_a_target_matched_from_the_start_is_not_stalled(tmp_path,
                                                         monkeypatch):
    traces = iter(([0.0, 0.0], [2.0, 2.0 * STALL_RATIO], [2.0, 0.2],
                   [0.0, 0.0], [1.0, 1.0], [1.0, 0.0]))

    def traced(*args, **kwargs):
        v0, diag = register_geometry(*args, **kwargs)
        diag.similarity_trace = next(traces)
        return v0, diag

    monkeypatch.setattr(pipeline, "register_geometry", traced)
    manifest = run_pipeline(tiny_config(tmp_path),
                            ("simulate", "register-geo"))
    assert manifest["stages"]["register-geo"]["summary"]["stalled"] == [2, 4]
    assert f"register-geo: 2/6 subjects end above {STALL_RATIO:g} of their " \
        "initial similarity" in manifest["warnings"]


def test_artifacts_exist(finished_run):
    # every file the benchmark's population check reads, read with the
    # benchmark's own readers: a layout change fails here first
    ref = load_bench("reference")
    _, out, _ = finished_run
    sim, reg = out / "sim", out / "reg_geo"
    tv, _ = ref.read_off(sim / "template.off")
    k = len(tv)
    kernel = json.loads((sim / "kernel.json").read_text())
    assert {"sigma", "sigma2", "weight"} <= set(kernel)
    diags = json.loads((reg / "diagnostics.json").read_text())
    assert sorted(diags) == [str(i) for i in range(6)]
    for i in range(6):
        momenta = ref.read_csv(reg / f"momenta_{i:03d}.csv")
        assert momenta.shape == (k, 7)
        assert np.array_equal(momenta[:, 1:4], tv)
        subject, _ = ref.read_off(sim / f"subject_{i:03d}.off")
        field = ref.read_csv(sim / f"field_{i:03d}.csv")
        assert field.shape == (1, len(subject))
        for rel in (f"reg_geo/deformed_{i:03d}.csv",
                    f"sim/true_images_{i:03d}.csv"):
            assert ref.read_csv(out / rel).shape == (k, 3)
        aligned = ref.read_csv(out / "reg_fun" / f"aligned_{i:03d}.csv")
        assert aligned.shape == (1, k)
        trace = diags[str(i)]["objective_trace"]
        assert len(diags[str(i)]["similarity_trace"]) == len(trace)
        assert len(diags[str(i)]["energy_trace"]) == len(trace)
    assert ref.read_csv(sim / "true_scores.csv").shape == (6, 2)
    assert ref.read_csv(sim / "true_fields.csv").shape == (6, k)
    for stage in ("fpca_geo", "fpca_fun"):
        assert ref.read_csv(out / stage / "scores.csv").shape == (6, 2)
    assert ref.read_csv(out / "cca" / "correlations.csv").shape == (1, 2)
    bartlett = json.loads((out / "cca" / "bartlett.json").read_text())
    assert len(bartlett["statistics"]) == len(bartlett["p_values"]) == 2


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_suffix_resume_is_bit_identical(finished_run):
    cfg, out, _ = finished_run
    watched = [out / "fpca_geo" / "scores.csv",
               out / "fpca_fun" / "scores.csv",
               out / "cca" / "correlations.csv"]
    before = [_digest(p) for p in watched]
    # a warning on record for a stage that is not re-run
    path = out / "manifest.json"
    recorded = json.loads(path.read_text())
    recorded["stages"]["register-geo"]["warnings"].append("on record")
    path.write_text(json.dumps(recorded))
    manifest = run_pipeline(cfg, ("fpca-geo", "fpca-fun", "cca"))
    after = [_digest(p) for p in watched]
    assert before == after
    # the records and warnings of the stages not re-run are kept
    assert manifest["stages"]["register-geo"] == \
        recorded["stages"]["register-geo"]
    assert "register-geo: on record" in manifest["warnings"]


def _tree(root):
    """The sha256 of every file under root, by path relative to it."""
    return {p.relative_to(root): _digest(p) for p in root.rglob("*")
            if p.is_file()}


def test_full_rerun_is_deterministic(finished_run, tmp_path):
    _, out, _ = finished_run
    other = tmp_path / "out2"
    run_pipeline(tiny_config(other))
    # every file of every stage, its record.json included; the manifest
    # holds wall times
    dirs = sorted(p.name for p in other.iterdir() if p.is_dir())
    assert dirs == sorted(Study(other).dir(st).name for st in STAGES)
    assert {p.name for p in other.iterdir() if p.is_file()} == \
        {"manifest.json"}
    for name in dirs:
        assert _tree(out / name) == _tree(other / name), name


def test_emit_covariation_and_viz(finished_run):
    _, out, _ = finished_run
    path = emit_covariation(out, pair=0, t_values=[-1.0, 0.0, 1.0])
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    assert table.shape[0] == 3
    files = emit_mode_visualization(out, mode=0, c_grid=[-1.0, 0.0, 1.0])
    assert len(files) == 6
    for f in files:
        assert Path(f).exists()
    with pytest.raises(ConfigError):
        emit_mode_visualization(out, mode=99, c_grid=[0.0])


def test_mode_visualization_shoots_with_the_stage_steps(tmp_path):
    cfg = tiny_config(tmp_path)
    cfg = replace(cfg, register_geo=replace(cfg.register_geo,
                                            shooting_steps=5))
    run_pipeline(cfg)
    data = np.load(tmp_path / "fpca_geo" / "components.npz")
    files = emit_mode_visualization(tmp_path, mode=0, c_grid=[0.0])
    v0 = InitialMomenta(data["control_points"], data["mean"],
                        Study(tmp_path).kernel)
    assert np.array_equal(load_mesh(files[0]).vertices,
                          shoot(v0, 5).points[-1])


def copied_run(finished_run, tmp_path):
    """The config of a copy of the finished run's artifacts."""
    shutil.copytree(finished_run[1], tmp_path / "out")
    return tiny_config(tmp_path / "out")


def test_mode_visualization_reads_the_register_geo_record(finished_run,
                                                          tmp_path):
    # the shooting steps come from reg_geo/record.json, not the manifest
    cfg = copied_run(finished_run, tmp_path)
    (Path(cfg.output_dir) / "manifest.json").unlink()
    files = emit_mode_visualization(cfg.output_dir, mode=0, c_grid=[0.0])
    assert len(files) == 2


def test_a_stage_hands_back_its_recorded_files_and_writes_none(finished_run,
                                                              tmp_path):
    cfg = copied_run(finished_run, tmp_path)
    out = Path(cfg.output_dir)
    before = _tree(out)
    study = Study(out)
    for st in STAGES:
        block = getattr(cfg, st.replace("-", "_"))
        files, _ = pipeline._STAGE_FUNCS[st](block, study)
        data = {name: text.encode() if isinstance(text, str) else text
                for name, text in files.items()}
        assert {name: hashlib.sha256(d).hexdigest()
                for name, d in data.items()} == study.record(st)[1]["files"]
    assert _tree(out) == before


def test_fpca_fun_folds_follow_the_simulate_record(tmp_path):
    # the folds are drawn from the simulate seed on record, so a root seed
    # that the simulate block overrides leaves fpca-fun's files as they are
    def config(seed):
        return PipelineConfig.from_dict({
            "output_dir": str(tmp_path), "seed": seed,
            "simulate": {"n": 8, "subdivisions": 1, "seed": 0},
            "register_geo": {"max_iterations": 3},
            "register_fun": {"max_iterations": 2},
            "fpca_fun": {"cv_lambdas": [0, 10, 1000], "folds": 2}})

    run_pipeline(config(0), ("simulate", "register-geo", "register-fun",
                             "fpca-fun"))
    before = _tree(tmp_path / "fpca_fun")
    run_pipeline(config(5), ("fpca-fun",))
    assert _tree(tmp_path / "fpca_fun") == before


def test_a_rerun_keeps_the_entries_of_standing_records(finished_run,
                                                       tmp_path):
    # another fpca_fun.lam leaves the records of the other stages standing,
    # and register-geo's warnings with them
    cfg = copied_run(finished_run, tmp_path)
    before = json.loads((Path(cfg.output_dir) / "manifest.json").read_text())
    assert any(w.startswith("register-geo: ") for w in before["warnings"])
    cfg = replace(cfg, fpca_fun=replace(cfg.fpca_fun, lam=1.0))
    manifest = run_pipeline(cfg, ("fpca-fun", "cca"))
    assert list(manifest["stages"]) == list(STAGES)
    for st in ("simulate", "register-geo", "register-fun", "fpca-geo"):
        assert manifest["stages"][st] == before["stages"][st]
    assert manifest["stages"]["fpca-fun"]["summary"]["lam"] == 1.0
    assert manifest["warnings"] == before["warnings"]


def test_a_rerun_register_geo_drops_the_entries_built_on_it(finished_run,
                                                            tmp_path):
    cfg = copied_run(finished_run, tmp_path)
    cfg = replace(cfg, register_geo=replace(cfg.register_geo, lam=0.5))
    manifest = run_pipeline(cfg, ("register-geo",))
    assert list(manifest["stages"]) == ["simulate", "register-geo"]
    on_disk = json.loads((Path(cfg.output_dir) / "manifest.json").read_text())
    assert list(on_disk["stages"]) == ["simulate", "register-geo"]


def stale(st):
    """The refusal of stage st's record as built from other inputs."""
    return f"{Study('.').dir(st).name}: built from other inputs; run {st} " \
        "again"


# each refusal names the earliest stage whose record does not stand
@pytest.mark.parametrize("stage, change, fun_stale, geo_stale", [
    ("simulate", {"seed": 1}, "register-geo", "register-geo"),
    ("register-geo", {"lam": 0.5}, "register-fun", "fpca-geo")],
    ids=["simulate", "register-geo"])
def test_stages_downstream_of_a_rerun_stage_refuse(finished_run, tmp_path,
                                                   stage, change, fun_stale,
                                                   geo_stale):
    cfg = copied_run(finished_run, tmp_path)
    block = stage.replace("-", "_")
    cfg = replace(cfg, **{block: replace(getattr(cfg, block), **change)})
    run_pipeline(cfg, (stage,))
    for st, first in (("fpca-fun", fun_stale), ("cca", geo_stale)):
        with pytest.raises(RuntimeError, match=stale(first)) as info:
            run_pipeline(cfg, (st,))
        assert isinstance(info.value.__cause__, ArtifactError)
    with pytest.raises(ArtifactError, match=stale(geo_stale)):
        emit_covariation(cfg.output_dir, pair=0, t_values=[0.0])


def test_exports_refuse_a_stale_upstream_of_their_inputs(finished_run,
                                                         tmp_path):
    # register-geo and fpca-geo run again: the fpca-fun scores and the
    # template field still rest on the registration of before, through
    # register-fun
    cfg = copied_run(finished_run, tmp_path)
    cfg = replace(cfg, register_geo=replace(cfg.register_geo, lam=0.5))
    run_pipeline(cfg, ("register-geo", "fpca-geo"))
    with pytest.raises(ArtifactError, match=stale("register-fun")):
        emit_covariation(cfg.output_dir, pair=0, t_values=[0.0])
    with pytest.raises(ArtifactError, match=stale("register-fun")):
        emit_mode_visualization(cfg.output_dir, mode=0, c_grid=[0.0])
    with pytest.raises(RuntimeError, match=stale("register-fun")):
        run_pipeline(cfg, ("cca",))


def test_a_stage_refuses_upstream_records_of_other_settings(finished_run,
                                                           tmp_path):
    # momenta registered at lam 0.05, read under a config of lam 0.5
    cfg = copied_run(finished_run, tmp_path)
    assert cfg.register_geo.lam == 0.05
    cfg = replace(cfg, register_geo=replace(cfg.register_geo, lam=0.5))
    message = "reg_geo: built with other settings; run register-geo again"
    with pytest.raises(RuntimeError, match=message) as info:
        run_pipeline(cfg, ("fpca-geo",))
    assert isinstance(info.value.__cause__, ArtifactError)
    # nor does the manifest keep the record's entry
    manifest = run_pipeline(cfg, ("simulate",))
    assert list(manifest["stages"]) == ["simulate"]


def test_a_stage_runs_on_upstream_records_rebuilt_with_it(finished_run,
                                                          tmp_path):
    cfg = copied_run(finished_run, tmp_path)
    cfg = replace(cfg, register_geo=replace(cfg.register_geo, lam=0.5))
    manifest = run_pipeline(cfg, ("register-geo", "fpca-geo"))
    assert list(manifest["stages"]) == ["simulate", "register-geo",
                                        "fpca-geo"]
    assert manifest["stages"]["register-geo"]["summary"]["lam"] == 0.5
    run_pipeline(cfg, ("fpca-geo",))


def test_register_geo_refuses_an_edited_subject_before_it_writes(tmp_path):
    cfg = PipelineConfig.from_dict({
        "output_dir": str(tmp_path), "seed": 0,
        "simulate": {"n": 3, "subdivisions": 1},
        "register_geo": {"max_iterations": 1}})
    run_pipeline(cfg, ("simulate",))
    path = tmp_path / "sim" / "subject_002.off"
    mesh = load_mesh(path)
    save_mesh(mesh.with_vertices(1.01 * mesh.vertices), path)
    with pytest.raises(RuntimeError, match=r"subject_002\.off: not the file "
                       "simulate wrote; run simulate again") as info:
        run_pipeline(cfg, ("register-geo",))
    assert isinstance(info.value.__cause__, ArtifactError)
    assert not (tmp_path / "reg_geo").exists()


def test_register_geometry_defaults_are_the_stage_defaults(tmp_path):
    cfg = PipelineConfig.from_dict({
        "output_dir": str(tmp_path), "seed": 0,
        "simulate": {"n": 2, "subdivisions": 1}, "register_geo": {}})
    run_pipeline(cfg, ("simulate", "register-geo"))
    sim = tmp_path / "sim"
    v0, _ = register_geometry(load_mesh(sim / "template.off"),
                              load_mesh(sim / "subject_000.off"),
                              Study(tmp_path).kernel)
    stage = _read_csv(tmp_path / "reg_geo" / "momenta_000.csv")
    assert np.array_equal(v0.momenta, stage[:, 4:7])


def test_pulled_fields_sample_the_subject_mesh(finished_run):
    _, out, _ = finished_run
    sim = out / "sim"
    for i in range(6):
        subject = load_mesh(sim / f"subject_{i:03d}.off")
        field = _read_csv(sim / f"field_{i:03d}.csv").ravel()
        deformed = np.loadtxt(out / "reg_geo" / f"deformed_{i:03d}.csv",
                              delimiter=",", skiprows=1)
        pulled = np.loadtxt(out / "reg_fun" / f"pulled_{i:03d}.csv",
                            delimiter=",", skiprows=1)
        dist = np.linalg.norm(deformed[:, None, :] - subject.vertices[None],
                              axis=2)
        assert np.array_equal(pulled, field[np.argmin(dist, axis=1)])


def test_subject_count_follows_latest_simulate(tmp_path):
    def config(n):
        return PipelineConfig.from_dict({
            "output_dir": str(tmp_path), "seed": 0,
            "simulate": {"n": n, "subdivisions": 1},
            "register_geo": {"max_iterations": 1}})

    run_pipeline(config(5), ("simulate",))
    run_pipeline(config(3), ("simulate",))
    run_pipeline(config(3), ("register-geo",))
    diags = json.loads((tmp_path / "reg_geo" / "diagnostics.json").read_text())
    assert len(diags) == 3


def test_a_rerun_stage_keeps_no_file_of_its_earlier_run(tmp_path):
    def config(n):
        return PipelineConfig.from_dict({
            "output_dir": str(tmp_path), "seed": 0,
            "simulate": {"n": n, "subdivisions": 1}})

    run_pipeline(config(5), ("simulate",))
    assert (tmp_path / "sim" / "subject_004.off").exists()
    run_pipeline(config(3), ("simulate",))
    record = json.loads((tmp_path / "sim" / "record.json").read_text())
    on_disk = {p.name for p in (tmp_path / "sim").iterdir()}
    assert set(record["files"]) == on_disk - {"record.json"}
    subjects = {name for name in on_disk if name.startswith("subject_")}
    assert subjects == {f"subject_{i:03d}.off" for i in range(3)}


def test_manifest_drops_stages_of_another_config(tmp_path):
    def config(seed):
        return PipelineConfig.from_dict({
            "output_dir": str(tmp_path), "seed": 0,
            "simulate": {"n": 3, "subdivisions": 1, "seed": seed},
            "register_geo": {"max_iterations": 1}})

    run_pipeline(config(0), ("simulate", "register-geo"))
    # the same simulate record again: register-geo's record stands
    manifest = run_pipeline(config(0), ("simulate",))
    assert list(manifest["stages"]) == ["simulate", "register-geo"]
    # another simulate record: register-geo's was built from the old one
    manifest = run_pipeline(config(1), ("simulate",))
    assert list(manifest["stages"]) == ["simulate"]
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert list(on_disk["stages"]) == ["simulate"]
    # an entry of an older manifest names no record
    run_pipeline(config(1), ("register-geo",))
    path = tmp_path / "manifest.json"
    older = json.loads(path.read_text())
    del older["stages"]["register-geo"]["record"]
    path.write_text(json.dumps(older))
    manifest = run_pipeline(config(1), ("simulate",))
    assert list(manifest["stages"]) == ["simulate"]


def test_tables_read_back_in_their_shape(tmp_path):
    path = tmp_path / "t.csv"
    for shape in ((1, 4), (4, 1), (1, 1), (3, 2)):
        table = np.arange(np.prod(shape), dtype=float).reshape(shape)
        _write_csv(path, table)
        assert np.array_equal(_read_csv(path), table)
    path.write_text("v0,v1\n")
    with pytest.raises(ArtifactError, match="t.csv: table has no rows"):
        _read_csv(path)


def test_tables_are_the_bytes_of_the_row_by_row_writer():
    # 17 significant digits of each number, a row per line
    rng = np.random.default_rng(3)
    table = rng.normal(size=(5, 3)) * [1.0, 1e-300, 3e17]
    table[0, 0], table[1, 1] = -0.0, 7.0
    rows = [",".join(f"{x:.17g}" for x in row) for row in table]
    assert _csv(table, header="x,y,z") == "\n".join(["x,y,z"] + rows) + "\n"
    assert _csv(table[0], "pc", 1) == "pc1,pc2,pc3\n" + rows[0] + "\n"


def test_field_file_of_wrong_length_fails(tmp_path):
    cfg = PipelineConfig.from_dict({
        "output_dir": str(tmp_path), "seed": 0,
        "simulate": {"n": 2, "subdivisions": 1},
        "register_geo": {"max_iterations": 1}})
    run_pipeline(cfg, ("simulate", "register-geo"))
    path = tmp_path / "sim" / "field_000.csv"
    values = _read_csv(path).ravel()
    for wrong in (values[:-5], np.append(values, 1.0)):
        _write_csv(path, wrong)
        with pytest.raises(RuntimeError, match="field_000.csv") as info:
            run_pipeline(cfg, ("register-fun",))
        assert isinstance(info.value.__cause__, ArtifactError)


def test_fpca_geo_rejects_stale_momenta(tmp_path):
    def config(scale, seed=0):
        return PipelineConfig.from_dict({
            "output_dir": str(tmp_path), "seed": 0,
            "simulate": {"n": 6, "subdivisions": 1, "scale": scale,
                         "seed": seed},
            "register_geo": {"max_iterations": 1}})

    stale = r"reg_geo: built from other inputs; run register-geo again"
    # momenta registered to the template of another simulate run
    run_pipeline(config(12.0), ("simulate", "register-geo"))
    run_pipeline(config(9.0), ("simulate",))
    with pytest.raises(RuntimeError, match=stale):
        run_pipeline(config(9.0), ("fpca-geo",))
    run_pipeline(config(9.0), ("register-geo",))
    # momenta registered to other subjects on the same template
    run_pipeline(config(9.0, seed=1), ("simulate",))
    with pytest.raises(RuntimeError, match=stale):
        run_pipeline(config(9.0, seed=1), ("fpca-geo",))
    run_pipeline(config(9.0, seed=1), ("register-geo",))
    path = tmp_path / "reg_geo" / "momenta_003.csv"
    table = _read_csv(path)
    table[2, 5] = np.nan
    _write_csv(path, table, header="k,cx,cy,cz,ax,ay,az")
    with pytest.raises(RuntimeError, match=r"momenta_003\.csv: not the file "
                       "register-geo wrote; run register-geo again"):
        run_pipeline(config(9.0, seed=1), ("fpca-geo",))


# another template, another mesh of it, or the same template with other
# subjects: each is a new simulate record
@pytest.mark.parametrize("change", [{"scale": 9.0}, {"subdivisions": 2},
                                    {"seed": 1}],
                         ids=["scale", "subdivisions", "seed"])
def test_register_fun_rejects_stale_geometry(tmp_path, change):
    def config(**simulate):
        return PipelineConfig.from_dict({
            "output_dir": str(tmp_path), "seed": 0,
            "simulate": {"n": 3, "subdivisions": 1, **simulate},
            "register_geo": {"max_iterations": 1}})

    # endpoints registered in another simulate run
    run_pipeline(config(), ("simulate", "register-geo"))
    run_pipeline(config(**change), ("simulate",))
    with pytest.raises(RuntimeError, match=r"reg_geo: built from other "
                       "inputs; run register-geo again") as info:
        run_pipeline(config(**change), ("register-fun",))
    assert isinstance(info.value.__cause__, ArtifactError)


def test_register_fun_rejects_malformed_endpoints(tmp_path):
    cfg = PipelineConfig.from_dict({
        "output_dir": str(tmp_path), "seed": 0,
        "simulate": {"n": 2, "subdivisions": 1},
        "register_geo": {"max_iterations": 1}})
    run_pipeline(cfg, ("simulate", "register-geo"))
    path = tmp_path / "reg_geo" / "deformed_001.csv"
    table = _read_csv(path)
    poisoned = table.copy()
    poisoned[4, 1] = np.inf
    for wrong in (table[:-1], table[:, :2], poisoned):
        _write_csv(path, wrong, header="x,y,z")
        with pytest.raises(RuntimeError, match=r"deformed_001\.csv: not the "
                           "file register-geo wrote; run register-geo "
                           "again") as info:
            run_pipeline(cfg, ("register-fun",))
        assert isinstance(info.value.__cause__, ArtifactError)


def test_stage_failure_raises_runtime_error(tmp_path):
    cfg = tiny_config(tmp_path / "x")
    # register-geo without its simulate inputs must fail as a stage error
    with pytest.raises(RuntimeError):
        run_pipeline(cfg, ("register-geo",))


def canonical_correlations(x, y):
    """Canonical correlations by QR of the centered blocks and an SVD."""
    qx, _ = np.linalg.qr(x - x.mean(axis=0))
    qy, _ = np.linalg.qr(y - y.mean(axis=0))
    return np.linalg.svd(qx.T @ qy, compute_uv=False)


def test_pipeline_recovers_planted_model(tmp_path):
    # the simulation study of the paper at K=73: the analysis must find
    # the planted geometric modes, the functional mode tied to a2 and
    # their co-variation
    cfg = PipelineConfig.from_dict({
        "output_dir": str(tmp_path), "seed": 1,
        "simulate": {"n": 10, "subdivisions": 2},
        "fpca_geo": {"n_components": 2},
        "fpca_fun": {"n_components": 2, "lam": 100.0},
    })
    manifest = run_pipeline(cfg)

    def read(rel):
        return np.loadtxt(tmp_path / rel, delimiter=",", skiprows=1)

    truth = read("sim/true_scores.csv")
    geo, fun = read("fpca_geo/scores.csv"), read("fpca_fun/scores.csv")
    assert truth.shape == geo.shape == fun.shape == (10, 2)
    assert canonical_correlations(geo, truth).min() > 0.9
    assert abs(np.corrcoef(fun[:, 0], truth[:, 1])[0, 1]) > 0.8
    # the second p-value tests a null pair: it rejects on ~5% of seeds
    assert manifest["stages"]["cca"]["summary"]["p_values"][0] < 0.01
