import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from fos.georeg import register_geometry
from fos.lddmm import InitialMomenta, shoot
from fos.mesh import load_mesh
from fos.pipeline import (ArtifactError, ConfigError, PipelineConfig,
                          _load_kernel, _read_csv, _write_csv,
                          emit_covariation, emit_mode_visualization,
                          run_pipeline, STAGES)
from test_bench_contract import load_bench


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
            PipelineConfig.from_dict({"fpca_fun": block}).validate()


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
    ("simulate", {"template": "torus"}),
    ("fpca_geo", {"n_components": 0}),
    ("fpca_fun", {"folds": 0, "cv_lambdas": [0.0, 10.0]}),
    # settings the stage would drop: lam is chosen among cv_lambdas, and
    # folds is read only when it is
    ("fpca_fun", {"lam": 5.0, "cv_lambdas": [0.0, 100.0]}),
    ("fpca_fun", {"folds": 2}),
    ("simulate", {"template": "hemisphere"}),
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
        PipelineConfig.from_dict({"stages": ["cca", "simulate"]}).validate()
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"stages": ["not-a-stage"]}).validate()


def test_parameter_hash_tracks_content():
    a = PipelineConfig.from_dict({"seed": 0})
    b = PipelineConfig.from_dict({"seed": 0})
    c = PipelineConfig.from_dict({"seed": 1})
    assert a.parameter_hash() == b.parameter_hash()
    assert a.parameter_hash() != c.parameter_hash()


def test_manifest_structure(finished_run):
    _, out, manifest = finished_run
    assert set(manifest["stages"]) == set(STAGES)
    assert "parameter_hash" in manifest
    for st in STAGES:
        entry = manifest["stages"][st]
        assert entry["wall_time_s"] >= 0.0
        assert Path(entry["artifact_dir"]).is_dir()
    on_disk = json.loads((out / "manifest.json").read_text())
    assert set(on_disk["stages"]) == set(STAGES)
    assert set(manifest["versions"]) == {"python", "numpy", "scipy"}
    assert manifest["versions"]["numpy"] == np.__version__
    # register-geo totals agree with the per-subject diagnostics
    diags = json.loads((out / "reg_geo" / "diagnostics.json").read_text())
    summary = manifest["stages"]["register-geo"]["summary"]
    for key in ("iterations", "converged", "line_search_failed"):
        assert summary[key] == sum(d[key] for d in diags.values())
    # 4 iterations leave every tiny registration unconverged
    assert summary["converged"] == 0
    capped = sum(d["iterations"] == 4 for d in diags.values())
    expected = [f"register-geo: {capped}/6 subjects stopped at "
                "max_iterations=4 without converging"]
    if summary["line_search_failed"]:
        expected.append(f"register-geo: {summary['line_search_failed']}/6 "
                        "subjects stopped on a failed line search")
    assert capped > 0
    assert manifest["warnings"] == expected
    assert on_disk["warnings"] == expected
    assert manifest["stages"]["register-geo"]["warnings"] == \
        [w.split(": ", 1)[1] for w in expected]


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
    manifest = run_pipeline(cfg, ("fpca-geo", "fpca-fun", "cca"))
    after = [_digest(p) for p in watched]
    assert before == after
    # the warnings of the stages not re-run are kept
    assert any(w.startswith("register-geo: ") for w in manifest["warnings"])


def test_full_rerun_is_deterministic(finished_run, tmp_path):
    _, out, _ = finished_run
    other = tmp_path / "out2"
    run_pipeline(tiny_config(other))
    for rel in ("sim/true_scores.csv", "reg_geo/momenta_000.csv",
                "fpca_fun/scores.csv", "cca/correlations.csv"):
        assert _digest(out / rel) == _digest(other / rel)


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
        emit_mode_visualization(out, mode=99)


def test_mode_visualization_shoots_with_the_stage_steps(tmp_path):
    cfg = tiny_config(tmp_path)
    cfg.register_geo["shooting_steps"] = 5
    run_pipeline(cfg)
    data = np.load(tmp_path / "fpca_geo" / "components.npz")
    files = emit_mode_visualization(tmp_path, mode=0, c_grid=[0.0])
    v0 = InitialMomenta(data["control_points"], data["mean"],
                        _load_kernel(tmp_path / "sim"))
    assert np.array_equal(load_mesh(files[0]).vertices,
                          shoot(v0, 5).points[-1])


def test_register_geometry_defaults_are_the_stage_defaults(tmp_path):
    cfg = PipelineConfig.from_dict({
        "output_dir": str(tmp_path), "seed": 0,
        "simulate": {"n": 2, "subdivisions": 1}, "register_geo": {}})
    run_pipeline(cfg, ("simulate", "register-geo"))
    sim = tmp_path / "sim"
    v0, _ = register_geometry(load_mesh(sim / "template.off"),
                              load_mesh(sim / "subject_000.off"),
                              _load_kernel(sim))
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


def test_manifest_drops_stages_of_another_config(tmp_path):
    def config(lam):
        return PipelineConfig.from_dict({
            "output_dir": str(tmp_path), "seed": 0,
            "simulate": {"n": 3, "subdivisions": 1},
            "register_geo": {"max_iterations": 1, "lam": lam}})

    run_pipeline(config(0.05), ("simulate", "register-geo"))
    manifest = run_pipeline(config(0.5), ("simulate",))
    assert set(manifest["stages"]) == {"simulate"}
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert set(on_disk["stages"]) == {"simulate"}


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
    def config(scale):
        return PipelineConfig.from_dict({
            "output_dir": str(tmp_path), "seed": 0,
            "simulate": {"n": 6, "subdivisions": 1, "scale": scale},
            "register_geo": {"max_iterations": 1}})

    # momenta registered to the template of another simulate run
    run_pipeline(config(12.0), ("simulate", "register-geo"))
    run_pipeline(config(9.0), ("simulate",))
    with pytest.raises(RuntimeError, match=r"momenta_000\.csv: control "
                       "points are not .*; run register-geo again"):
        run_pipeline(config(9.0), ("fpca-geo",))
    run_pipeline(config(9.0), ("register-geo",))
    path = tmp_path / "reg_geo" / "momenta_003.csv"
    table = _read_csv(path)
    table[2, 5] = np.nan
    _write_csv(path, table, header="k,cx,cy,cz,ax,ay,az")
    with pytest.raises(RuntimeError, match=r"momenta_003\.csv: non-finite"):
        run_pipeline(config(9.0), ("fpca-geo",))


@pytest.mark.parametrize("change,problem", [
    ({"scale": 9.0}, "control points are not the template vertices"),
    ({"subdivisions": 2}, r"\(\d+, 7\) table for \d+ vertices")],
    ids=["scale", "subdivisions"])
def test_register_fun_rejects_stale_geometry(tmp_path, change, problem):
    def config(**simulate):
        return PipelineConfig.from_dict({
            "output_dir": str(tmp_path), "seed": 0,
            "simulate": {"n": 3, "subdivisions": 1, **simulate},
            "register_geo": {"max_iterations": 1}})

    # endpoints shot from the template of another simulate run
    run_pipeline(config(), ("simulate", "register-geo"))
    run_pipeline(config(**change), ("simulate",))
    with pytest.raises(RuntimeError, match=rf"momenta_000\.csv: {problem}; "
                       "run register-geo again") as info:
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
        with pytest.raises(RuntimeError, match=r"deformed_001\.csv: not a "
                           "finite .* table; run register-geo again") as info:
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
