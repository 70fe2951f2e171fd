"""Command-line orchestration: run, sweep, replay, score, fixtures.

One command per process.  Exit codes are machine-checkable for batch
schedulers: 0 success, 2 configuration error, 3 source/backend error,
4 insufficient data.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
from pathlib import Path

from . import analysis, fixtures, records, telemetry
from .errors import ConfigError, EntrobenchError, FormatError, InsufficientDataError, SourceError
from .manifest import (
    AnalysisPlan,
    ExperimentManifest,
    load_manifest,
    manifest_digest,
    save_manifest,
)
from .spec import write_file

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOURCE = 3
EXIT_DATA = 4

SUMMARY_HEADER = "family,level,value_mode,mean_w,tdp_frac,flop_rate,pj_per_flop_vs_fixed"
SERIES_HEADER = "family,value_mode,level,mean_w,tdp_w,baseline_random_w,baseline_fixed_w"
SCORE_HEADER = "family,level,value_mode,score_per_flop,mul_toggles,acc_toggles,flops"

# What a run, or a replay, writes into its directory, as globs; each first removes them.
RUN_OUTPUTS = ("failed", "manifest", "manifest.sha256", "record.csv", "summary.csv",
               "timeline-*.csv")
REPLAY_OUTPUTS = ("report.txt", "series-*.csv", "summary.csv")


def build_sampler(descriptor: str,
                  interval_ms: float) -> telemetry.Sampler | telemetry.ReplaySampler:
    """Source descriptors: replay:<timeline.csv>, pm:<path>, rapl:<path>."""
    kind, _, arg = descriptor.partition(":")
    if kind == "replay":
        try:
            return telemetry.ReplaySampler(telemetry.read_timeline(arg))
        except OSError as exc:
            raise ConfigError(f"cannot read replay timeline {arg!r}: {exc}") from exc
    if kind == "pm":
        source = telemetry.FilePowerSource(arg or "/sys/cray/pm_counters/power")
    elif kind == "rapl":
        source = telemetry.EnergyCounterSource(arg)
    else:
        raise ConfigError(f"unknown telemetry source descriptor {descriptor!r}")
    return telemetry.Sampler(source, interval_ms=interval_ms)


def run_experiment(config, **kwargs):
    """gemm.run_experiment, imported on first use so that only run and sweep load numpy.

    execute_run calls the workload by this module-level name, so replacing
    cli.run_experiment wraps every run.
    """
    from .gemm import run_experiment
    return run_experiment(config, **kwargs)


def _summary_row(record, timelines, plan: AnalysisPlan) -> dict:
    """A run's summary.csv columns, in order; without a timeline the power columns are None."""
    pattern = record.config.pattern
    row = dict.fromkeys(SUMMARY_HEADER.split(","))
    row.update(family=pattern.family.value, level=pattern.level,
               value_mode=pattern.value_mode.value, flop_rate=record.flop_rate)
    if record.timeline_ids:
        stats = analysis.steady_state_window(timelines[record.timeline_ids[0]], record,
                                             trim_fraction=plan.trim_fraction)
        row["mean_w"] = stats.mean_w
        row["tdp_frac"] = analysis.tdp_fraction(stats.mean_w, plan.tdp_w)
        row["pj_per_flop_vs_fixed"] = analysis.pj_per_flop(
            stats.mean_w - plan.baseline_fixed_w, record.flop_rate)
    return row


def _write_csv(path, header: str, rows) -> None:
    """Header line, then each row's values encoded and joined by commas; no quoting."""
    lines = [header] + [",".join(records.encode(value, ";") for value in row) for row in rows]
    write_file(path, "\n".join(lines) + "\n")


def _write_series(runs, out: Path, plan: AnalysisPlan) -> dict[str, float]:
    """Write series-<family>-<mode>.csv for each curve with a measured point.

    runs are (record, summary row) pairs.  The watts of a point, or of a
    baseline, are the mean of its node means over all its runs
    (analysis.aggregate_runs).  Returns the baselines' watts by family.
    """
    curves, baselines = {}, {}  # each point: node_id -> [mean_w, ...]
    for record, row in runs:
        if row["mean_w"] is None:
            continue
        if record.config.pattern.is_baseline:
            point = baselines.setdefault(row["family"], {})
        else:
            curve = curves.setdefault((row["family"], row["value_mode"]), {})
            point = curve.setdefault(row["level"], {})
        point.setdefault(record.node_id, []).append(row["mean_w"])
    for (family, mode), points in sorted(curves.items()):
        _write_csv(out / f"series-{family}-{mode}.csv", SERIES_HEADER, (
            (family, mode, level, analysis.aggregate_runs(by_node).grand_mean,
             plan.tdp_w, plan.baseline_random_w, plan.baseline_fixed_w)
            for level, by_node in sorted(points.items())))
    return {family: analysis.aggregate_runs(by_node).grand_mean
            for family, by_node in baselines.items()}


def _write_run_dir(run_dir: Path, record, timelines) -> None:
    """record.csv and one timeline-<id>.csv per timeline; _load_run_dir reads them back."""
    records.write_record(record, run_dir / "record.csv")
    for tid, timeline in timelines.items():
        telemetry.write_timeline(timeline, run_dir / f"timeline-{tid}.csv")


def _outputs(directory: Path, globs) -> list[Path]:
    return [path for name in globs for path in directory.glob(name)]


def _point_outputs(point: Path) -> list[Path]:
    """The run outputs in a point's directory and in its repetitions' run-NNN directories."""
    return [path for run_dir in (point, *point.glob("run-[0-9][0-9][0-9]"))
            for path in _outputs(run_dir, RUN_OUTPUTS)]


def _clear(m: ExperimentManifest, stale) -> None:
    """Remove an earlier command's outputs, refusing if one is a replay source of m."""
    replayed = {Path(d.partition(":")[2]).resolve() for d in m.sources if d.startswith("replay:")}
    clash = replayed.intersection(path.resolve() for path in stale)
    if clash:
        raise ConfigError(f"replay source {min(clash)} is an earlier output that this removes")
    for path in stale:
        path.unlink()


def execute_run(m: ExperimentManifest, run_dir: Path, run_index: int = 0):
    """Run one experiment and persist all artifacts; returns (record, summary row)."""
    run_dir.mkdir(parents=True, exist_ok=True)
    phase = "configure"
    try:
        from .gemm import get_backend
        get_backend(m.config.backend_id)
        save_manifest(m, run_dir / "manifest")
        write_file(run_dir / "manifest.sha256", manifest_digest(m) + "\n")

        phase = "telemetry-setup"
        samplers = [build_sampler(d, m.interval_ms) for d in m.sources]

        phase = "workload"
        record, timelines = run_experiment(
            m.config, samplers=samplers, node_id=m.node_id, run_index=run_index)

        phase = "persist"
        _write_run_dir(run_dir, record, timelines)

        phase = "summarize"
        row = _summary_row(record, timelines, m.analysis)
        _write_csv(run_dir / "summary.csv", SUMMARY_HEADER, [row.values()])
        return record, row
    except Exception as exc:
        write_file(run_dir / "failed", f"phase={phase}\ntype={type(exc).__name__}\nerror={exc}\n")
        raise


def _load_run_dir(run_dir: Path):
    """A run's record and the timelines it names; other files are ignored."""
    record = records.read_record(run_dir / "record.csv")
    timelines = {}
    for tid in record.timeline_ids:
        path = run_dir / f"timeline-{tid}.csv"
        try:
            timelines[tid] = telemetry.read_timeline(path)
        except OSError as exc:
            raise FormatError(f"record names timeline {tid!r}: {exc}") from exc
    return record, timelines


def discover_run_dirs(paths) -> list[Path]:
    """Every directory at or below each path that holds a record.csv."""
    return sorted({record.parent for path in paths for record in Path(path).glob("**/record.csv")})


def _say(line: str) -> None:
    """Print a line on stdout, and nothing more once its reader has gone.

    A reader that closes the pipe early, such as `head`, cuts only what is
    printed: every command still runs and writes all it would.  Each line
    is flushed, so a gone reader is seen at once.
    """
    if sys.stdout.closed:
        return
    try:
        print(line, flush=True)
    except BrokenPipeError:
        # Closing stdout drops what it still buffers, so the interpreter's
        # flush at exit has nothing left to fail on; close itself re-raises
        # the flush's error after it has closed the stream.
        with contextlib.suppress(BrokenPipeError):
            sys.stdout.close()


def _run_points(points):
    """Run each (manifest, directory) point's repetitions, trying every run.

    A point with several repetitions runs them in run-NNN under its
    directory; the point's run outputs are cleared first.  Returns the
    (record, summary row) pairs of the runs that succeeded and the errors
    of those that failed.
    """
    runs, errors = [], []
    for m, out in points:
        _clear(m, _point_outputs(out))
        for rep in range(m.repetitions_per_node):
            run_dir = out / f"run-{rep:03d}" if m.repetitions_per_node > 1 else out
            try:
                record, row = execute_run(m, run_dir, run_index=rep)
            except EntrobenchError as exc:
                print(f"run {run_dir} failed: {exc}", file=sys.stderr)
                errors.append(exc)
                continue
            runs.append((record, row))
            _say(f"run {run_dir}: {row['family']} L{row['level']} "
                 f"mean_w={records.encode(row['mean_w'], '') or 'n/a'}")
    return runs, errors


def cmd_run(m: ExperimentManifest, out: Path) -> int:
    _, errors = _run_points([(m, out)])
    if errors:  # every repetition ran; the exit code reports the first failure
        raise errors[0]
    return EXIT_OK


def cmd_sweep(m: ExperimentManifest, out: Path) -> int:
    if m.config.pattern.is_baseline:
        raise ConfigError("sweep requires a pattern family, not a baseline")
    specs = m.sweep_specs()  # a bad level range is refused before anything is removed
    family = m.config.pattern.family.value
    # Clear every series and every point of the family, so out holds only this sweep's runs.
    _clear(m, _outputs(out, ["series-*.csv"]) + [
        path for point in out.glob(f"{family}-*-L*") for path in _point_outputs(point)])
    runs, errors = _run_points(
        (dataclasses.replace(m, config=dataclasses.replace(m.config, pattern=spec), sweep=None),
         out / f"{spec.family.value}-{spec.value_mode.value}-L{spec.level:02d}")
        for spec in specs)
    _write_series(runs, out, m.analysis)
    if errors:  # every run ran; the exit code reports the first failure
        raise errors[0]
    return EXIT_OK


def cmd_replay(inputs, out: Path, plan: AnalysisPlan) -> int:
    run_dirs = discover_run_dirs(inputs)
    if not run_dirs:
        raise ConfigError("replay found no run directories (no record.csv)")
    for path in _outputs(out, REPLAY_OUTPUTS):  # an earlier replay's curves and report
        path.unlink()
    out.mkdir(parents=True, exist_ok=True)

    runs = []
    for run_dir in run_dirs:
        record, timelines = _load_run_dir(run_dir)
        runs.append((record, _summary_row(record, timelines, plan)))

    rows = sorted((row for _, row in runs),
                  key=lambda r: (r["family"], r["value_mode"], r["level"]))
    _write_csv(out / "summary.csv", SUMMARY_HEADER, (row.values() for row in rows))

    baselines = _write_series(runs, out, plan)
    if "baseline_random" in baselines and "baseline_fixed" in baselines:
        pct = analysis.percent_increase(baselines["baseline_random"], baselines["baseline_fixed"])
        line = f"percent_increase={pct:.2f}"
        write_file(out / "report.txt", line + "\n")
        _say(line)
    return EXIT_OK


def cmd_score(m: ExperimentManifest, out: Path) -> int:
    """Score each spec in sweep order; write score.csv in key order, then print them ranked.

    The ranking is by descending score_per_flop, and a stable sort keeps ties in sweep order.
    """
    from . import model
    plan, pattern = m.model, m.config.pattern
    if pattern.n_dim > plan.max_n_dim:
        raise ConfigError(
            f"n_dim={pattern.n_dim} exceeds the simulation budget "
            f"({plan.max_n_dim}): run time grows as N^3 per spec (memory "
            f"only as N^2); raise [model] max_n_dim to override"
        )
    specs = m.sweep_specs() if m.sweep is not None and not pattern.is_baseline else [pattern]

    schedule = model.schedule_for_lanes(plan.lanes)
    scored = [(spec, model.score_spec(spec, schedule)) for spec in specs]
    by_key = sorted(
        scored, key=lambda sr: (sr[0].family.value, sr[0].value_mode.value, sr[0].level)
    )
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "score.csv", SCORE_HEADER, (
        (spec.family.value, spec.level, spec.value_mode.value, report.score_per_flop,
         report.mul_input_toggles, report.acc_toggles, report.flops)
        for spec, report in by_key
    ))

    ranked = sorted(scored, key=lambda sr: -sr[1].score_per_flop)
    for rank, (spec, report) in enumerate(ranked, start=1):
        _say(f"#{rank} {spec.family.value} L{spec.level} {spec.value_mode.value} "
             f"score={report.score_per_flop:.3f}")
    return EXIT_OK


def cmd_fixtures(out: Path) -> int:
    """Emit the embedded recorded-measurement fixtures for inspection/replay."""
    out.mkdir(parents=True, exist_ok=True)
    count = 0
    for name, _spec, record, timeline in fixtures.iter_fixture_runs():
        run_dir = out / name
        run_dir.mkdir(exist_ok=True)
        _write_run_dir(run_dir, record, {record.timeline_ids[0]: timeline})
        count += 1
    _say(f"wrote {count} fixture runs to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrobench",
        description="Input-entropy power benchmarking for DGEMM workloads",
    )
    parser.add_argument("--manifest", help="experiment manifest path")
    parser.add_argument("--out", help="output directory (overrides manifest)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", help="run one experiment from a manifest")
    sub.add_parser("sweep", help="run all levels of a pattern family")
    replay = sub.add_parser("replay", help="re-analyze recorded runs")
    replay.add_argument("inputs", nargs="+", help="run directories or roots")
    sub.add_parser("score", help="toggle-model scoring of pattern specs")
    sub.add_parser("fixtures", help="emit embedded recorded fixtures")
    return parser


def _manifest_for(args) -> ExperimentManifest:
    if not args.manifest:
        raise ConfigError(f"{args.command} requires --manifest")
    m = load_manifest(args.manifest)
    if args.out:
        m = dataclasses.replace(m, out_dir=args.out)
    return m


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "fixtures":
            return cmd_fixtures(Path(args.out or "fixtures-out"))
        if args.command == "replay":
            plan = load_manifest(args.manifest).analysis if args.manifest else AnalysisPlan()
            return cmd_replay(args.inputs, Path(args.out or "replay-out"), plan)
        m = _manifest_for(args)
        out = Path(m.out_dir)
        if args.command == "run":
            return cmd_run(m, out)
        if args.command == "sweep":
            return cmd_sweep(m, out)
        if args.command == "score":
            return cmd_score(m, out)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SourceError as exc:
        print(f"source/backend error: {exc}", file=sys.stderr)
        return EXIT_SOURCE
    except InsufficientDataError as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
