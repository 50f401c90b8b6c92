"""Benchmark of the fos pipeline, end to end and by layer.

    python3 bench/run.py --workload population --seed 0 --seconds 30 --trace 0

Run from the root of a source tree: the benchmark imports `fos` from
`src/` beside this directory, never from an installed copy. It makes the
workload's inputs from the seed, times them in this single process with
one BLAS thread and with the speed probe of probe.py interleaved, checks
the outputs against the planted truth, and prints a report. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: with `--trace 0` the end-to-end metrics, with
`--trace 1` the per-layer ones.
README.md in this directory describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".bench_runs"
SETUP_REPEATS = 3
IMPORT_INTERVAL_S = 0.1


def limit_blas_threads():
    """One BLAS thread. The matrices here are at most 1,984 x 496, where a
    second thread gained nothing (K=271: 29.1 s with two, 28.8 s with
    one), while it ties the run to the load of a second core. Must run
    before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return 1


def import_program():
    """Import fos from this tree's src/. Exits non-zero when the tree has
    no fos sources."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fos  # noqa: F401
        import fos.pipeline  # noqa: F401
    except ImportError as exc:
        sys.exit(f"cannot import fos from {src}: {exc}")
    if not Path(fos.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"fos was imported from {fos.__file__}, not from {src}")


def timed_imports():
    """Returns the probe and the seconds of all imports, raw and scaled.
    numpy and the scipy parts the probe needs are imported before the
    probe exists; they are scaled by the slices run while fos is imported
    right after them. A short interval gives that section about ten
    slices."""
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    t0 = time.perf_counter()
    import probe as probe_module
    before_probe = time.perf_counter() - t0
    probe = probe_module.Probe()
    _, section = probe.measure(import_program, interval=IMPORT_INTERVAL_S)
    raw = before_probe + section.seconds
    return probe, raw, raw * probe_module.REFERENCE_SLICE_S / section.slice_s()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Round:
    """One timed round: the program's time in it (a probe Section, or the
    plain wall time when `probe` is None), operation counts and outcome."""

    def __init__(self, work, state, probe=None):
        from workloads import Operations
        self.ops = Operations(work.planned_operations())
        self.outputs, self.outcome, self.error = None, None, None

        def attempt():
            try:
                return work.run(state, self.ops), None
            except Exception:              # counted, reported, not fatal
                return None, traceback.format_exc(limit=-3)

        if probe is None:
            t0 = time.perf_counter()
            self.outputs, self.error = attempt()
            self.wall_s = time.perf_counter() - t0
            self.section = None
        else:
            (self.outputs, self.error), self.section = probe.measure(attempt)
            self.wall_s = self.section.seconds
        if self.error is None:
            try:
                self.outcome = work.check(state, self.outputs)
            except Exception:              # every check counts as failed
                self.error = traceback.format_exc(limit=-3)

    def counts(self, n_checks):
        """(attempted, failed): planned operations plus checks. A round
        without an outcome fails its checks, at least one."""
        if self.outcome is None:
            n_checks = max(n_checks, 1)
            failed = self.ops.planned - self.ops.done + n_checks
        else:
            failed = sum(not ok for ok, _ in self.outcome.checks.values())
        return self.ops.planned + n_checks, failed


def run_workload(work, probe, seed, seconds, trace, out_dir):
    """Set up SETUP_REPEATS times, then run timed rounds while another one
    fits in `seconds`, all with the speed probe interleaved; with
    `trace`, one more set-up and round traced, without the probe."""
    setups = []
    for r in range(SETUP_REPEATS):
        state, section = probe.measure(
            lambda: work.setup(seed, out_dir / f"setup{r}"))
        setups.append(section)
    rounds = []
    while True:
        rounds.append(Round(work, state, probe))
        spent = sum(r.wall_s for r in rounds)
        median = statistics.median(r.wall_s for r in rounds)
        if rounds[-1].error or spent + median > seconds:
            break
    peak = peak_rss_mb()
    traced = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            state = work.setup(seed, out_dir / "traced")
            traced = Round(work, state)
        finally:
            tracer.uninstall()
        traced.tracer = tracer
    return setups, rounds, peak, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the quick self-check sizes")
    args = parser.parse_args(argv)

    # a terminated run still removes its temporary directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    threads = limit_blas_threads()
    probe, raw_import_s, import_s = timed_imports()
    import numpy
    import scipy
    from probe import REFERENCE_SLICE_S
    from workloads import TINY, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    sizes = TINY[args.workload] if args.size == "tiny" else {}
    work = WORKLOADS[args.workload](**sizes)

    RUNS.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{work.name}-{args.seed}-",
                                    dir=RUNS))
    try:
        setups, rounds, peak, traced = run_workload(
            work, probe, args.seed, args.seconds, args.trace, out_dir)
        if traced is not None:
            trace_file = RUNS / f"trace-{work.name}.jsonl.gz"
            traced.tracer.save(trace_file)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    everything = rounds + ([traced] if traced else [])
    first = rounds[0].outcome
    checked = next((r.outcome for r in everything if r.outcome), None)
    check_names = sorted(checked.checks) if checked else []
    n_checks = len(check_names)
    attempted = failed = 0
    for r in everything:
        a, f = r.counts(n_checks)
        attempted += a
        failed += f
    # every later round, the traced one included, must reproduce the
    # first round's quality numbers
    disagree = [r for r in everything[1:]
                if first is None or r.outcome is None
                or r.outcome.quality != first.quality]
    attempted += len(everything) - 1
    failed += len(disagree)
    correct = failed == 0

    setup_slices = sum(t.slice_seconds for t in setups) / sum(
        t.slices for t in setups)
    setup_s = import_s + statistics.median(t.scaled() for t in setups)
    wall_s = statistics.median(r.section.scaled() for r in rounds)
    raw_setup_s = raw_import_s + statistics.median(t.seconds for t in setups)
    raw_wall_s = statistics.median(r.wall_s for r in rounds)
    print(f"workload {work.name}  seed {args.seed}  size {args.size}  "
          f"rounds {len(rounds)}  BLAS threads {threads}  "
          f"python {sys.version.split()[0]}  numpy {numpy.__version__}  "
          f"scipy {scipy.__version__}")
    print("  times are scaled to a probe slice of "
          f"{REFERENCE_SLICE_S * 1e3:.1f} ms; raw times and slices follow")
    print(f"  setup_s     {setup_s:10.4f} s   (raw {raw_setup_s:.4f} s: "
          f"imports {raw_import_s:.3f} s, scaled {import_s:.3f} s; "
          f"set-ups "
          f"{[round(t.seconds, 3) for t in setups]}; scaled "
          f"{[round(t.scaled(), 3) for t in setups]}; slice "
          f"{setup_slices * 1e3:.2f} ms)")
    print(f"  wall_s      {wall_s:10.4f} s   (raw {raw_wall_s:.4f} s: "
          f"median of {[round(r.wall_s, 3) for r in rounds]}; slices "
          f"{[round(r.section.slice_s() * 1e3, 2) for r in rounds]} ms)")
    print(f"  peak_rss_mb {peak:10.1f} MB")
    for r in everything:
        if r.error:
            print(f"  FAILED operation: {r.error}")
    if first:
        for name, (value, unit) in first.quality.items():
            print(f"  {name:<18} {value} {unit}")
        for name in check_names:
            ok, detail = first.checks[name]
            print(f"  check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    if disagree:
        print(f"  FAIL: {len(disagree)} later rounds did not reproduce the "
              "first round's quality numbers")

    if traced is None:
        metrics = {"setup_s": (setup_s, "s"), "wall_s": (wall_s, "s"),
                   "peak_rss_mb": (peak, "MB")}
    else:
        metrics = layer_metrics(traced, raw_wall_s, work, rounds)
        print(f"  traced round {traced.wall_s:.4f} s against untraced "
              f"{raw_wall_s:.4f} s (both raw); spans in {trace_file.name}")
        for name, (value, unit) in sorted(metrics.items()):
            print(f"  {name:<48} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def layer_metrics(traced, untraced_wall_s, work, rounds):
    """Per-layer metrics of the traced round, with their units, plus the
    pipeline stage times, the tracing overhead and the probe's slice
    time in the untraced rounds. The times here are raw, not scaled."""
    summary = traced.tracer.summary()
    metrics = {}
    for name, value in summary.items():
        if name.endswith(".self_s"):
            unit = "s"
        elif name == "georeg.accepted_ratio":
            unit = "1"
        else:
            unit = "count"
        metrics[name] = (value, unit)
    stages = {}
    if traced.outputs is not None and hasattr(work, "stage_times"):
        stages = work.stage_times(traced.outputs)
    from fos.pipeline import STAGES
    for st in STAGES:
        metrics[f"pipeline.{st}_s"] = (stages.get(st, 0.0), "s")
    metrics["trace.wall_s"] = (traced.wall_s, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall_s, "s")
    metrics["trace.overhead_pct"] = (
        100.0 * (traced.wall_s - untraced_wall_s) / untraced_wall_s, "%")
    # the difference above carries the run-to-run noise of two rounds;
    # spans times the cost of one traced call does not
    metrics["trace.overhead_est_pct"] = (
        100.0 * summary["trace.spans"] * traced.tracer.span_cost()
        / untraced_wall_s, "%")
    metrics["probe.slice_s"] = (
        sum(r.section.slice_seconds for r in rounds)
        / sum(r.section.slices for r in rounds), "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
