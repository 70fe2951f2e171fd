"""Command-line orchestration: run, sweep, replay, score, fixtures.

One command per main call; a process may make many calls, which share
one parser (build_parser).  Exit codes are machine-checkable for batch
schedulers: 0 success, else the exit_code that the error's class declares
in errors.py (2 configuration error, 3 source/backend error, 4 insufficient
data).  Importing this module loads only errors, spec and manifest; each
command imports the modules it runs where it first calls them, so score
loads no telemetry, analysis, fixtures or records.  Those calls go through
the module (records.read_record, not a name bound at import), so replacing
a module attribute wraps every call.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import os
import sys
from pathlib import Path

from .errors import ConfigError, EntrobenchError, FormatError, InsufficientDataError, SourceError
from .manifest import (
    AnalysisPlan,
    ExperimentManifest,
    load_manifest,
    manifest_to_text,
    text_digest,
)
from .spec import encode, write_file

SUMMARY_HEADER = "family,level,value_mode,mean_w,tdp_frac,flop_rate,pj_per_flop_vs_fixed"
SERIES_HEADER = "family,value_mode,level,mean_w,tdp_w,baseline_random_w,baseline_fixed_w"
SCORE_HEADER = "family,level,value_mode,score_per_flop,mul_toggles,acc_toggles,flops"

# What a run, or a replay, writes into its directory, as globs; each first removes them.
RUN_OUTPUTS = ("failed", "manifest", "manifest.sha256", "record.csv", "summary.csv",
               "timeline-*.csv")
REPLAY_OUTPUTS = ("report.txt", "series-*.csv", "summary.csv")


def build_sampler(descriptor: str, interval_ms: float):
    """A telemetry sampler for replay:<timeline.csv>, pm:<path> or rapl:<path>."""
    from . import telemetry
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
    from . import analysis
    pattern = record.config.pattern
    row = dict.fromkeys(SUMMARY_HEADER.split(","))
    row.update(family=pattern.family.value, level=pattern.level,
               value_mode=pattern.value_mode.value, flop_rate=record.flop_rate)
    if record.timeline_ids:
        stats = analysis.steady_state_window(timelines[record.timeline_ids[0]], record)
        row["mean_w"] = stats.mean_w
        row["tdp_frac"] = analysis.tdp_fraction(stats.mean_w, plan.tdp_w)
        row["pj_per_flop_vs_fixed"] = analysis.pj_per_flop(
            stats.mean_w - plan.baseline_fixed_w, record.flop_rate)
    return row


def _write_csv(path, header: str, rows) -> None:
    """Header line, then each row's values encoded and joined by commas; no quoting."""
    lines = [header] + [",".join(encode(value, ";") for value in row) for row in rows]
    write_file(path, "\n".join(lines) + "\n")


def _write_series(runs, out: Path, plan: AnalysisPlan) -> dict[str, float]:
    """Write series-<family>-<mode>.csv for each curve with a measured point.

    runs are (record, summary row) pairs.  The watts of a point, or of a
    baseline, are the mean of its node means over all its runs
    (analysis.aggregate_runs).  Returns the baselines' watts by family.
    """
    from . import analysis
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


def _write_run_dir(run_dir, record, timelines) -> None:
    """record.csv and one timeline-<id>.csv per timeline; _load_run_dir reads them back."""
    from . import records, telemetry
    records.write_record(record, os.path.join(run_dir, "record.csv"))
    for tid, timeline in timelines.items():
        telemetry.write_timeline(timeline, os.path.join(run_dir, f"timeline-{tid}.csv"))


def _outputs(directory: Path, globs) -> list[Path]:
    return [path for name in globs for path in directory.glob(name)]


def _point_outputs(point: Path) -> list[Path]:
    """The run outputs in a point's directory and in its repetitions' run-NNN directories."""
    return [path for run_dir in (point, *point.glob("run-[0-9][0-9][0-9]"))
            for path in _outputs(run_dir, RUN_OUTPUTS)]


def _make_out(out) -> None:
    """Create an output or run directory; a path that cannot be one is a configuration error."""
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc


def _refuse_directories(paths) -> None:
    """Refuse output paths that are directories, naming the least of them."""
    held = [path for path in paths if os.path.isdir(path)]
    if held:
        raise ConfigError(f"output path {min(held)} is a directory")


def _clear(sources, stale) -> None:
    """Remove an earlier command's outputs; none if one is a directory or a replay: source."""
    _refuse_directories(stale)
    replayed = {Path(d.partition(":")[2]).resolve() for d in sources if d.startswith("replay:")}
    clash = replayed.intersection(path.resolve() for path in stale)
    if clash:
        raise ConfigError(f"replay source {min(clash)} is an earlier output that this removes")
    for path in stale:
        path.unlink()


def execute_run(m: ExperimentManifest, run_dir: Path, run_index: int = 0):
    """Run one experiment and persist all artifacts; returns (record, summary row)."""
    _make_out(run_dir)
    phase = "configure"
    try:
        from .gemm import get_backend
        get_backend(m.config.backend_id)
        text = manifest_to_text(m)
        write_file(run_dir / "manifest", text)
        write_file(run_dir / "manifest.sha256", text_digest(text) + "\n")

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


def _load_run_dir(run_dir):
    """A run's record and the timelines it names; other files are ignored."""
    from . import records, telemetry
    try:
        record = records.read_record(os.path.join(run_dir, "record.csv"))
    except OSError as exc:
        raise FormatError(f"cannot read record: {exc}") from exc
    timelines = {}
    for tid in record.timeline_ids:
        try:
            timelines[tid] = telemetry.read_timeline(os.path.join(run_dir, f"timeline-{tid}.csv"))
        except OSError as exc:
            raise FormatError(f"record names timeline {tid!r}: {exc}") from exc
    return record, timelines


def discover_run_dirs(paths) -> list[Path]:
    """Every directory at or below each path whose record.csv is a file, in Path order.

    Links to directories below a path are not followed.
    """
    return sorted({Path(dirpath) for path in paths for dirpath, _, files in os.walk(path)
                   if "record.csv" in files and os.path.isfile(os.path.join(dirpath, "record.csv"))})


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
    directory.  Returns the (record, summary row) pairs of the runs that
    succeeded and the errors of those that failed.
    """
    runs, errors = [], []
    for m, out in points:
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
                 f"mean_w={encode(row['mean_w'], '') or 'n/a'}")
    return runs, errors


def cmd_run(m: ExperimentManifest, out: Path) -> None:
    _make_out(out)
    _clear(m.sources, _point_outputs(out))
    _, errors = _run_points([(m, out)])
    if errors:  # every repetition ran; the exit code reports the first failure
        raise errors[0]


def cmd_sweep(m: ExperimentManifest, out: Path) -> None:
    if m.config.pattern.is_baseline:
        raise ConfigError("sweep requires a pattern family, not a baseline")
    specs = m.sweep_specs()  # a bad level range is refused before anything is removed
    family = m.config.pattern.family.value
    _make_out(out)
    # Clear every series and every point of the family, so out holds only this sweep's runs.
    _clear(m.sources, _outputs(out, ["series-*.csv"]) + [
        path for point in out.glob(f"{family}-*-L*") for path in _point_outputs(point)])
    runs, errors = _run_points(
        (dataclasses.replace(m, config=dataclasses.replace(m.config, pattern=spec), sweep=None),
         out / f"{spec.family.value}-{spec.value_mode.value}-L{spec.level:02d}")
        for spec in specs)
    _write_series(runs, out, m.analysis)
    if errors:  # every run ran; the exit code reports the first failure
        raise errors[0]


def cmd_replay(inputs, out: Path, plan: AnalysisPlan) -> None:
    from . import analysis
    for path in inputs:
        if not os.path.isdir(path):
            raise ConfigError(f"replay input {path} is not a directory")
    run_dirs = discover_run_dirs(inputs)
    if not run_dirs:
        raise ConfigError("replay found no run directories (no record.csv)")
    _make_out(out)
    _clear((), _outputs(out, REPLAY_OUTPUTS))  # an earlier replay's curves and report

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


def cmd_score(m: ExperimentManifest, out: Path) -> None:
    """Score each spec in sweep order; write score.csv in key order, then print them ranked.

    The ranking is by descending score_per_flop, and a stable sort keeps ties in sweep order.
    """
    from . import model
    pattern = m.config.pattern
    specs = m.sweep_specs() if m.sweep is not None and not pattern.is_baseline else [pattern]

    model._tile(pattern.n_dim, m.model)  # a tile that cannot fit is refused before out is made
    _make_out(out)
    scored = [(spec, model.score_spec(spec, m.model)) for spec in specs]
    by_key = sorted(
        scored, key=lambda sr: (sr[0].family.value, sr[0].value_mode.value, sr[0].level)
    )
    _write_csv(out / "score.csv", SCORE_HEADER, (
        (spec.family.value, spec.level, spec.value_mode.value, report.score_per_flop,
         report.mul_input_toggles, report.acc_toggles, report.flops)
        for spec, report in by_key
    ))

    ranked = sorted(scored, key=lambda sr: -sr[1].score_per_flop)
    for rank, (spec, report) in enumerate(ranked, start=1):
        _say(f"#{rank} {spec.family.value} L{spec.level} {spec.value_mode.value} "
             f"score={report.score_per_flop:.3f}")


def cmd_fixtures(out: Path) -> None:
    """Emit the embedded recorded-measurement fixtures for inspection/replay."""
    from . import fixtures
    runs = {run[0]: run[2:] for run in fixtures.iter_fixture_runs()}  # name: (record, timeline)
    _make_out(out)
    # A taken run path, or a directory at a file a run writes, is refused before any is written.
    with os.scandir(out) as entries:
        taken = {entry.name: entry.is_dir() for entry in entries if entry.name in runs}
    for name in sorted(name for name, is_dir in taken.items() if not is_dir):
        _make_out(out / name)  # raises the error makedirs gives
    _refuse_directories(os.path.join(out, name, file) for name in taken
                        for file in ("record.csv", f"timeline-{runs[name][0].timeline_ids[0]}.csv"))
    for name, (record, timeline) in runs.items():
        run_dir = os.path.join(out, name)
        if name not in taken:  # a taken name is a directory by now
            _make_out(run_dir)
        _write_run_dir(run_dir, record, {record.timeline_ids[0]: timeline})
    _say(f"wrote {len(runs)} fixture runs to {out}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call; every later call returns the same one.

    parse_args leaves a parser as it was, so one parser serves every main
    call in a process; a caller that changes it changes every later call.
    """
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        m = load_manifest(args.manifest) if args.manifest else None  # whatever the command
        if args.command == "fixtures":
            cmd_fixtures(Path(args.out or "fixtures-out"))
        elif args.command == "replay":
            cmd_replay(args.inputs, Path(args.out or "replay-out"),
                       m.analysis if m else AnalysisPlan())
        elif m is None:
            raise ConfigError(f"{args.command} requires --manifest")
        else:
            if args.out:
                m = dataclasses.replace(m, out_dir=args.out)
            command = {"run": cmd_run, "sweep": cmd_sweep, "score": cmd_score}[args.command]
            command(m, Path(m.out_dir))
    except (ConfigError, SourceError, InsufficientDataError) as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
