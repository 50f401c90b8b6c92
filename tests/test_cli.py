import json

import pytest

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
    path, out = config_file
    assert main(["covary", "--config", str(path), "--pair", "1",
                 "--t-grid=-1,0,1"]) == 0
    seq = capsys.readouterr().out.strip()
    assert seq.endswith("sequence_pair1.csv")
    assert main(["viz-mode", "--config", str(path), "--mode", "1",
                 "--c-grid=-1,0,1"]) == 0
    files = capsys.readouterr().out.strip().splitlines()
    assert len(files) == 6


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


def test_out_of_range_setting_exits_2_before_any_stage(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output_dir": str(tmp_path / "out"),
                               "register_geo": {"max_iterations": 0}}))
    assert main(["register-geo", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not (tmp_path / "out").exists()


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
    # momenta whose first control point is not the template's
    momenta = tmp_path / "out" / "reg_geo" / "momenta_000.csv"
    original = momenta.read_text()
    lines = original.splitlines()
    lines[1] = "0,1,2,3,0,0,0"
    momenta.write_text("\n".join(lines) + "\n")
    for command in ("fpca-geo", "register-fun"):
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ")
        assert "momenta_000.csv" in err and "run register-geo again" in err
    momenta.write_text(original)
    # a truncated subject mesh
    subject = tmp_path / "out" / "sim" / "subject_001.off"
    subject.write_text(subject.read_text()[:200])
    assert main(["register-fun", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and "subject_001.off" in err


def test_single_stage_subcommand(config_file, capsys):
    path, out = config_file
    assert main(["cca", "--config", str(path)]) == 0
    entry = json.loads(capsys.readouterr().out)
    assert "correlations" in entry["summary"]
