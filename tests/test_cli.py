import json

import pytest

from fos import pipeline
from fos.cli import build_parser, main


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = {
        "output_dir": str(root / "out"),
        "seed": 0,
        "simulate": {"n": 6, "subdivisions": 1,
                     "observation_subdivisions": 1},
        "register_geo": {"max_iterations": 4},
        "register_fun": {"max_iterations": 2},
        "fpca_geo": {"n_components": 2},
        "fpca_fun": {"n_components": 2, "lam": 0.0},
        "cca": {},
    }
    path = root / "config.json"
    path.write_text(json.dumps(cfg))
    return path, root / "out"


def test_parser_has_all_subcommands():
    parser = build_parser()
    subs = next(a for a in parser._actions
                if isinstance(a, type(parser._subparsers._group_actions[0])))
    names = set(subs.choices)
    for cmd in ("simulate", "register-geo", "register-fun", "fpca-geo",
                "fpca-fun", "cca", "covary", "viz-mode", "pipeline"):
        assert cmd in names


def test_pipeline_runs_and_emits_pvalues(config_file, capsys):
    path, out = config_file
    assert main(["pipeline", "--config", str(path)]) == 0
    manifest = json.loads(capsys.readouterr().out)
    pvals = manifest["stages"]["cca"]["summary"]["p_values"]
    assert len(pvals) >= 2
    assert all(0.0 <= p <= 1.0 for p in pvals)


def test_covary_and_viz_mode(config_file, capsys):
    # the paths of every pair's sequence and of every mode's meshes
    path, out = config_file
    assert main(["covary", "--config", str(path), "--t-grid=-1,0,1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        str(out / "covary" / f"sequence_pair{p}.csv") for p in (1, 2)]
    assert main(["viz-mode", "--config", str(path), "--c-grid=-1,0,1"]) == 0
    files = capsys.readouterr().out.splitlines()
    assert len(files) == 12 and all(map(str.endswith, files,
                                        [".csv", ".off"] * 6))


def test_resume_from_stage(config_file, capsys):
    path, _ = config_file
    assert main(["pipeline", "--config", str(path),
                 "--from-stage", "fpca-geo"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert "cca" in manifest["stages"]


def test_invalid_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"fpca_fun": {"lam": -3.0}}))
    assert main(["pipeline", "--config", str(bad)]) == 2
    bad.write_text(json.dumps({"stages": ["cca", "simulate"]}))
    assert main(["pipeline", "--config", str(bad)]) == 2
    bad.write_text(json.dumps({"mystery_block": 1}))
    assert main(["pipeline", "--config", str(bad)]) == 2
    # mistyped root fields, each named in the message
    capsys.readouterr()
    for data, field in (({"output_dir": 5}, "output_dir"),
                        ({"stages": "cca"}, "stages")):
        bad.write_text(json.dumps(data))
        assert main(["simulate", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and field in err


def test_out_of_range_setting_exits_2_before_any_stage(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output_dir": str(tmp_path / "out"),
                               "register_geo": {"max_iterations": 0}}))
    assert main(["register-geo", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not (tmp_path / "out").exists()


def test_non_finite_setting_exits_2_before_any_stage(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    cfg.write_text('{"output_dir": %s, "register_geo": {"lam": Infinity}}'
                   % json.dumps(str(out)))
    assert main(["pipeline", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert "register_geo.lam must be a finite number" in err
    assert not out.exists()


@pytest.mark.parametrize("simulate, recorded", [({}, 3), ({"seed": 7}, 7)],
                         ids=["root-seed", "own-seed"])
def test_seed_and_output_dir_options(tmp_path, capsys, simulate, recorded):
    # --seed sets the root seed, which simulate.seed defaults to
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "output_dir": str(tmp_path / "from_config"),
        "simulate": {"n": 2, "subdivisions": 1, **simulate}}))
    out = tmp_path / "from_option"
    assert main(["simulate", "--config", str(cfg), "--seed", "3",
                 "--output-dir", str(out)]) == 0
    record = json.loads((out / "sim" / "record.json").read_text())
    assert record["settings"]["seed"] == recorded
    assert not (tmp_path / "from_config").exists()


def test_missing_inputs_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output_dir": str(tmp_path / "empty")}))
    # stages and exports without their upstream artifacts
    for command in ("cca", "fpca-fun", "covary", "viz-mode"):
        assert main([command, "--config", str(cfg)]) == 2, command
        assert capsys.readouterr().err.startswith("missing input: "), command


def test_malformed_or_stale_inputs_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output_dir": str(tmp_path / "out"),
                               "simulate": {"n": 3, "subdivisions": 1},
                               "register_geo": {"max_iterations": 1}}))
    for command in ("simulate", "register-geo"):
        assert main([command, "--config", str(cfg)]) == 0
    capsys.readouterr()
    # momenta whose first control point is not the template's, and the
    # endpoint of a vertex moved: each read by one stage
    reg = tmp_path / "out" / "reg_geo"
    for command, name, row in (("fpca-geo", "momenta_000.csv",
                                "0,1,2,3,0,0,0"),
                               ("register-fun", "deformed_000.csv", "1,2,3")):
        original = (reg / name).read_text()
        lines = original.splitlines()
        lines[1] = row
        (reg / name).write_text("\n".join(lines) + "\n")
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ")
        assert name in err and "run register-geo again" in err
        (reg / name).write_text(original)
    # a truncated subject mesh
    subject = tmp_path / "out" / "sim" / "subject_001.off"
    subject.write_text(subject.read_text()[:200])
    assert main(["register-fun", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and "subject_001.off" in err


def test_malformed_record_or_manifest_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output_dir": str(tmp_path / "out"),
                               "simulate": {"n": 6, "subdivisions": 1},
                               "register_geo": {"max_iterations": 1},
                               "register_fun": {"max_iterations": 1},
                               "fpca_geo": {"n_components": 1},
                               "fpca_fun": {"n_components": 1}}))
    assert main(["pipeline", "--config", str(cfg)]) == 0
    capsys.readouterr()
    for path, commands in (("reg_geo/record.json", ("cca", "covary")),
                           ("manifest.json", ("cca",))):
        path = tmp_path / "out" / path
        original = path.read_text()
        path.write_text("{broken")
        for command in commands:
            assert main([command, "--config", str(cfg)]) == 2, command
            err = capsys.readouterr().err
            assert err.startswith(f"invalid input: {path}: malformed"), err
        path.write_text(original)


def test_a_stage_interrupted_before_its_record_exits_2(tmp_path, capsys,
                                                       monkeypatch):
    # an interrupted stage leaves no record, so nothing it wrote is read
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output_dir": str(tmp_path / "out"),
                               "simulate": {"n": 3, "subdivisions": 1},
                               "register_geo": {"max_iterations": 1}}))
    for command in ("simulate", "register-geo"):
        assert main([command, "--config", str(cfg)]) == 0

    def interrupted(*args, **kwargs):
        raise FloatingPointError("interrupted")

    monkeypatch.setattr(pipeline, "register_geometry", interrupted)
    assert main(["register-geo", "--config", str(cfg)]) == 3
    capsys.readouterr()
    record = tmp_path / "out" / "reg_geo" / "record.json"
    assert not record.exists()
    for command in ("register-fun", "fpca-geo"):
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("missing input: ") and str(record) in err


def test_header_only_score_table_exits_2(tmp_path, capsys):
    # a truncated score table must not read as one subject
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output_dir": str(tmp_path / "out"),
                               "simulate": {"n": 3, "subdivisions": 1}}))
    assert main(["simulate", "--config", str(cfg)]) == 0
    capsys.readouterr()
    scores = tmp_path / "out" / "sim" / "true_scores.csv"
    scores.write_text(scores.read_text().splitlines()[0] + "\n")
    assert main(["register-geo", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and "true_scores.csv" in err
    assert not list((tmp_path / "out").glob("reg_geo/*"))


def test_settings_too_large_for_the_subjects_exit_2(tmp_path, capsys):
    # checked by the stage against the subject count, before it writes
    out = tmp_path / "out"
    blocks = {"output_dir": str(out),
              "simulate": {"n": 6, "subdivisions": 1},
              "register_geo": {"max_iterations": 1},
              "register_fun": {"max_iterations": 1},
              "fpca_geo": {"n_components": 3},
              "fpca_fun": {"n_components": 2, "cv_lambdas": [0, 10],
                           "folds": 7}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(blocks))
    for command in ("simulate", "register-geo", "register-fun", "fpca-geo"):
        assert main([command, "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["fpca-fun", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "fpca_fun.folds" in err
    assert not list(out.glob("fpca_fun/*"))
    # 3 + 2 score columns need more than 6 subjects
    blocks["fpca_fun"] = {"n_components": 2, "lam": 0.0}
    cfg.write_text(json.dumps(blocks))
    assert main(["fpca-fun", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["cca", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert "fpca_geo.n_components + fpca_fun.n_components" in err
    assert not list(out.glob("cca/*"))


def test_resumed_run_checks_the_subject_count_before_it_starts(tmp_path,
                                                               capsys):
    # n comes from the simulated score table when simulate does not run
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "output_dir": str(out), "simulate": {"n": 6, "subdivisions": 1},
        "fpca_fun": {"cv_lambdas": [0, 10], "folds": 7}}))
    assert main(["simulate", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["pipeline", "--config", str(cfg),
                 "--from-stage", "register-geo"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert "fpca_fun.folds = 7 exceeds the 6 subjects" in err
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "sim"]


@pytest.mark.parametrize("fpca_fun, message", [
    ({"n_components": 2, "cv_lambdas": [0, 10], "folds": 7},
     "fpca_fun.folds = 7 exceeds the 6 subjects"),
    ({"n_components": 2, "lam": 0.0},
     "fpca_geo.n_components + fpca_fun.n_components"),
], ids=["folds", "score_columns"])
def test_full_run_checks_the_subject_count_before_it_starts(
        tmp_path, capsys, fpca_fun, message):
    # with simulate in the run, its n is the subject count of every stage
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output_dir": str(out),
                               "simulate": {"n": 6, "subdivisions": 1},
                               "fpca_geo": {"n_components": 3},
                               "fpca_fun": fpca_fun}))
    assert main(["pipeline", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("short, prefix, message", [
    (True, "invalid input: ", "fpca_fun/scores.csv: not the file fpca-fun "
     "wrote; run fpca-fun again"),
    (False, "configuration error: ", "cca needs n > 5 for 4 "),
], ids=["stale", "too_few_subjects"])
def test_score_tables_that_do_not_fit_exit_2(tmp_path, capsys, short, prefix,
                                             message):
    # fpca_fun/scores.csv one row short of fpca_geo's, or 2 + 2 score
    # columns for 5 subjects: cca and covary refuse them before writing
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "output_dir": str(out), "simulate": {"n": 5, "subdivisions": 1},
        "register_geo": {"max_iterations": 1},
        "register_fun": {"max_iterations": 1},
        "fpca_geo": {"n_components": 2}, "fpca_fun": {"n_components": 2},
        "stages": ["simulate", "register-geo", "register-fun", "fpca-geo",
                   "fpca-fun"]}))
    assert main(["pipeline", "--config", str(cfg)]) == 0
    capsys.readouterr()
    if short:
        scores = out / "fpca_fun" / "scores.csv"
        scores.write_text("".join(scores.read_text().splitlines(True)[:-1]))
    for command in ("cca", "covary"):
        assert main([command, "--config", str(cfg)]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(prefix)
        assert message in captured.err
    assert not (out / "cca").exists() and not (out / "covary").exists()


def test_single_stage_subcommand(config_file, capsys):
    path, out = config_file
    assert main(["cca", "--config", str(path)]) == 0
    entry = json.loads(capsys.readouterr().out)
    assert "correlations" in entry["summary"]


@pytest.fixture(scope="module")
def finished_run(config_file):
    path, out = config_file
    if not (out / "cca").exists():
        assert main(["pipeline", "--config", str(path)]) == 0
    return path, out


def _files(out):
    return sorted(out.rglob("*"))


@pytest.mark.parametrize("argv, message", [
    (["covary", "--t-grid=1,x"],
     "--t-grid must be comma-separated finite numbers"),
    (["viz-mode", "--c-grid=1,x"],
     "--c-grid must be comma-separated finite numbers"),
    (["covary", "--t-grid=nan,inf"],
     "--t-grid must be comma-separated finite numbers"),
    (["viz-mode", "--c-grid=0,-inf"],
     "--c-grid must be comma-separated finite numbers"),
], ids=["t-grid", "c-grid", "t-grid-non-finite", "c-grid-non-finite"])
def test_bad_export_argument_exits_2_and_writes_nothing(finished_run, capsys,
                                                        argv, message):
    path, out = finished_run
    before = _files(out)
    capsys.readouterr()
    assert main(argv + ["--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: " + message)
    assert _files(out) == before
