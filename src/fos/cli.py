"""Command-line entry point: per-stage subcommands, the end-to-end
pipeline driver and the covary and viz-mode exports. Exit codes: 0
success, 2 invalid configuration (an unknown key; a value mistyped, out
of range or not finite) or a missing, malformed or stale input file (such
as an artifact of an earlier stage that has not run, or that was written
for other inputs), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .mesh import MeshError
from .pipeline import (ArtifactError, ConfigError, PipelineConfig,
                       emit_covariation, emit_mode_visualization,
                       run_pipeline, STAGES)

# errors in the run's inputs, which exit 2, and their message prefixes
_INPUT_ERRORS = {ConfigError: "configuration error",
                 FileNotFoundError: "missing input",
                 MeshError: "invalid input", ArtifactError: "invalid input"}


def _add_config_args(parser):
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--output-dir", help="artifact directory "
                        "(overrides the config value)")
    parser.add_argument("--seed", type=int, help="root seed override")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fos",
        description="Analysis of functions on surfaces: simulation, "
                    "registration, fPCA and co-variation stages.")
    sub = parser.add_subparsers(dest="command", required=True)

    for stage in STAGES:
        p = sub.add_parser(stage, help=f"run the {stage} stage")
        _add_config_args(p)

    p = sub.add_parser("pipeline", help="run all configured stages")
    _add_config_args(p)
    p.add_argument("--from-stage", choices=STAGES,
                   help="resume from this stage (reuse earlier artifacts)")

    p = sub.add_parser("covary", help="export the co-variation sequence "
                       "of every canonical pair into covary/")
    _add_config_args(p)
    p.add_argument("--t-grid", default="-2,-1,0,1,2",
                   help="comma-separated grid in variate-sd units")

    p = sub.add_parser("viz-mode", help="export every geometric mode of "
                       "variation as mesh+field pairs into viz/")
    _add_config_args(p)
    p.add_argument("--c-grid", default="-1,-0.5,0,0.5,1",
                   help="comma-separated multiples of the mode s.d.")
    return parser


def _load_config(args) -> PipelineConfig:
    """--config's configuration, --output-dir and --seed set in its root."""
    overrides = {}
    if args.output_dir:
        overrides["output_dir"] = args.output_dir
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.config:
        return PipelineConfig.from_json(args.config, **overrides)
    return PipelineConfig.from_dict(overrides)


def _grid(text, option):
    try:
        grid = [float(x) for x in text.split(",")]
        if all(map(math.isfinite, grid)):
            return grid
    except ValueError:
        pass
    raise ConfigError(f"{option} must be comma-separated finite numbers, "
                      f"got {text!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "pipeline":
            stages = cfg.stages
            if args.from_stage:
                idx = STAGES.index(args.from_stage)
                stages = tuple(s for s in stages if STAGES.index(s) >= idx)
            manifest = run_pipeline(cfg, stages)
            print(json.dumps(manifest, indent=1))
        elif args.command in STAGES:
            manifest = run_pipeline(cfg, (args.command,))
            print(json.dumps(manifest["stages"][args.command], indent=1))
        elif args.command == "covary":
            t = _grid(args.t_grid, "--t-grid")
            print("\n".join(emit_covariation(cfg.output_dir, t)))
        elif args.command == "viz-mode":
            c = _grid(args.c_grid, "--c-grid")
            print("\n".join(emit_mode_visualization(cfg.output_dir, c)))
    except (*_INPUT_ERRORS, RuntimeError, FloatingPointError) as exc:
        # run_pipeline wraps a failing stage's exception in a RuntimeError
        if isinstance(exc, RuntimeError) and isinstance(
                exc.__cause__, tuple(_INPUT_ERRORS)):
            exc = exc.__cause__
        for kind, prefix in _INPUT_ERRORS.items():
            if isinstance(exc, kind):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return 2
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
