import csv
import dataclasses
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from entrobench import cli, fixtures, gemm, records, telemetry
from entrobench.cli import main
from entrobench.errors import SourceError
from entrobench.gemm import GemmConfig
from entrobench.manifest import (
    AnalysisPlan,
    ExperimentManifest,
    ModelPlan,
    SweepPlan,
    load_manifest,
    manifest_to_text,
    save_manifest,
)
from entrobench.patterns import PatternSpec


def write_replay_timeline(path, mean_w=300.0):
    telemetry.write_timeline(fixtures.constant_timeline(mean_w), path)


def write_manifest(path, pattern=PatternSpec(family="block_rowcol", n_dim=64, level=1, seed=3),
                   backend_id="reference", **overrides):
    kw = dict(
        config=GemmConfig(pattern, reps=1, backend_id=backend_id, warmup_seconds=0.0),
        out_dir=str(path.parent / "out"),
    )
    kw.update(overrides)
    save_manifest(ExperimentManifest(**kw), path)
    return path


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_run_writes_artifacts(tmp_path):
    tl = tmp_path / "recorded.csv"
    write_replay_timeline(tl, mean_w=350.0)
    manifest = write_manifest(tmp_path / "m.ini", sources=(f"replay:{tl}",))
    out = tmp_path / "out"

    assert main(["--manifest", str(manifest), "run"]) == 0
    assert (out / "manifest").exists()
    assert len((out / "manifest.sha256").read_text().strip()) == 64
    assert (out / "record.csv").exists()
    assert (out / "timeline-replay-0.csv").exists()
    rows = read_csv(out / "summary.csv")
    assert len(rows) == 1
    assert rows[0]["family"] == "block_rowcol"
    assert float(rows[0]["mean_w"]) == pytest.approx(350.0)
    assert float(rows[0]["tdp_frac"]) == pytest.approx(350.0 / 400.0)
    assert not (out / "failed").exists()


def test_run_with_two_replay_sources_analyses_the_first(tmp_path):
    long_tl, short_tl = tmp_path / "a.csv", tmp_path / "b.csv"
    telemetry.write_timeline(  # 1.9 s span
        fixtures.constant_timeline(310.0, interval_ms=100.0), long_tl)
    telemetry.write_timeline(  # 0.19 s span
        fixtures.constant_timeline(390.0, interval_ms=10.0), short_tl)
    manifest = write_manifest(
        tmp_path / "m.ini", sources=(f"replay:{long_tl}", f"replay:{short_tl}"))
    out = tmp_path / "out"

    assert main(["--manifest", str(manifest), "run"]) == 0
    assert not (out / "failed").exists()
    assert (out / "timeline-replay-1.csv").exists()
    assert float(read_csv(out / "summary.csv")[0]["mean_w"]) == 310.0
    record = records.read_record(out / "record.csv")
    assert (record.measured_start_ms, record.measured_end_ms) == (0.0, 1900.0)


def test_replayed_timeline_files_keep_the_recorded_epoch(tmp_path):
    tl = tmp_path / "recorded.csv"
    telemetry.write_timeline(
        dataclasses.replace(fixtures.constant_timeline(300.0), epoch=12.25), tl)
    manifest = write_manifest(tmp_path / "m.ini", sources=(f"replay:{tl}",))

    written = []
    for name in ("out1", "out2"):
        out = tmp_path / name
        assert main(["--manifest", str(manifest), "--out", str(out), "run"]) == 0
        written.append((out / "timeline-replay-0.csv").read_bytes())
        assert telemetry.read_timeline(out / "timeline-replay-0.csv").epoch == 12.25
    assert written[0] == written[1]


def test_run_without_sources_skips_power_columns(tmp_path):
    manifest = write_manifest(tmp_path / "m.ini")
    assert main(["--manifest", str(manifest), "run"]) == 0
    rows = read_csv(tmp_path / "out" / "summary.csv")
    assert rows[0]["mean_w"] == ""
    assert float(rows[0]["flop_rate"]) > 0


def test_run_repetitions_per_node(tmp_path):
    manifest = write_manifest(tmp_path / "m.ini", repetitions_per_node=3)
    assert main(["--manifest", str(manifest), "run"]) == 0
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == ["run-000", "run-001", "run-002"]
    for rep in range(3):
        assert (out / f"run-{rep:03d}" / "record.csv").exists()


def test_run_requires_manifest(capsys):
    assert main(["run"]) == 2
    assert "manifest" in capsys.readouterr().err


def test_unregistered_backend_exits_config(tmp_path):
    manifest = write_manifest(tmp_path / "m.ini", backend_id="cublas")
    assert main(["--manifest", str(manifest), "run"]) == 2
    assert (tmp_path / "out" / "failed").read_text().startswith("phase=configure")


def test_missing_replay_file_exits_and_marks_phase(tmp_path):
    manifest = write_manifest(
        tmp_path / "m.ini", sources=(f"replay:{tmp_path}/nope.csv",)
    )
    assert main(["--manifest", str(manifest), "run"]) == 2
    failed = (tmp_path / "out" / "failed").read_text()
    assert "phase=telemetry-setup" in failed


@pytest.mark.parametrize("row", ["0.0,abc,replay", "0.0,1.0"])
def test_malformed_replay_timeline_exits_source(tmp_path, capsys, row):
    tl = tmp_path / "recorded.csv"
    write_replay_timeline(tl)
    tl.write_text(tl.read_text() + row + "\n")
    manifest = write_manifest(tmp_path / "m.ini", sources=(f"replay:{tl}",))
    assert main(["--manifest", str(manifest), "run"]) == 3
    assert "line " in capsys.readouterr().err
    failed = (tmp_path / "out" / "failed").read_text().splitlines()
    assert failed[:2] == ["phase=telemetry-setup", "type=FormatError"]


def test_replay_of_run_with_malformed_timeline_exits_source(tmp_path, capsys):
    tl = tmp_path / "recorded.csv"
    write_replay_timeline(tl)
    manifest = write_manifest(tmp_path / "m.ini", sources=(f"replay:{tl}",))
    out = tmp_path / "out"
    assert main(["--manifest", str(manifest), "run"]) == 0
    recorded = out / "timeline-replay-0.csv"
    recorded.write_text(recorded.read_text() + "0.0,abc,replay\n")
    assert main(["--out", str(tmp_path / "rp"), "replay", str(out)]) == 3
    assert "line " in capsys.readouterr().err


def test_replay_ignores_timelines_the_record_does_not_name(tmp_path):
    out = tmp_path / "out"
    assert main(["--manifest", str(write_manifest(tmp_path / "m.ini")), "run"]) == 0
    write_replay_timeline(out / "timeline-replay-0.csv")  # the power-less record names none
    assert read_csv(out / "summary.csv")[0]["mean_w"] == ""

    rp = tmp_path / "rp"
    assert main(["--out", str(rp), "replay", str(out)]) == 0
    assert (rp / "summary.csv").read_bytes() == (out / "summary.csv").read_bytes()


def test_replay_of_run_with_missing_named_timeline_exits_source(tmp_path, capsys):
    tl = tmp_path / "recorded.csv"
    write_replay_timeline(tl)
    manifest = write_manifest(tmp_path / "m.ini", sources=(f"replay:{tl}",))
    out = tmp_path / "out"
    assert main(["--manifest", str(manifest), "run"]) == 0
    (out / "timeline-replay-0.csv").unlink()
    assert main(["--out", str(tmp_path / "rp"), "replay", str(out)]) == 3
    assert "replay-0" in capsys.readouterr().err


@pytest.mark.parametrize("key,value,command", [
    ("reps", "abc", "run"),  # [gemm]
    ("reps", "abc", "sweep"),
    ("reps", "abc", "score"),
    ("reps", "0", "run"),  # checked by GemmConfig at load
    ("reps", "0", "sweep"),
    ("reps", "0", "score"),
    ("warmup_seconds", "-1", "run"),
    ("warmup_seconds", "-1", "sweep"),
    ("warmup_seconds", "-1", "score"),
    ("warmup_seconds", "inf", "score"),  # would never end a run's warm-up, so not run here
    ("warmup_seconds", "nan", "run"),  # would skip the warm-up
    ("warmup_seconds", "nan", "sweep"),
    ("lanes", "x", "run"),  # [model]
    ("lanes", "x", "sweep"),
    ("lanes", "x", "score"),
    ("lanes", "-1", "score"),
    ("value_modes", "bogus", "sweep"),  # [sweep]
    ("value_modes", "bogus", "score"),
    ("value_modes", "", "sweep"),
    ("trim_fraction", "0.6", "run"),  # [analysis]
    ("tdp_w", "nan", "run"),
    ("tdp_w", "inf", "sweep"),
    ("baseline_fixed_w", "nan", "run"),
    ("baseline_random_w", "-5", "run"),
    ("interval_ms", "0.5", "run"),  # [telemetry]: the sampler's 1 ms floor
    ("interval_ms", "0.5", "sweep"),
    ("interval_ms", "nan", "run"),
    ("interval_ms", "nan", "sweep"),
    ("interval_ms", "inf", "run"),
    ("interval_ms", "inf", "sweep"),
    ("lanes", "0", "run"),  # checked by ModelPlan at load
    ("lanes", "0", "sweep"),
    ("lanes", "0", "score"),
    ("max_n_dim", "-5", "run"),
    ("max_n_dim", "1", "score"),
])
def test_malformed_manifest_value_exits_config(tmp_path, capsys, key, value, command):
    manifest = write_manifest(tmp_path / "m.ini", sweep=SweepPlan())
    text = manifest.read_text()
    assert f"\n{key} = " in text
    manifest.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M))
    assert main(["--manifest", str(manifest), command]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err
    assert not (tmp_path / "out").exists()  # rejected before any run


@pytest.mark.parametrize("section,key", [("gemm", "rep"), ("model", "lane"), ("bogus", "x"),
                                         ("model", "tile_m"), ("model", "w_acc")])
def test_unknown_manifest_key_exits_config(tmp_path, capsys, section, key):
    manifest = write_manifest(tmp_path / "m.ini")
    text = manifest.read_text()
    if f"[{section}]" not in text:
        text += f"[{section}]\n"
    manifest.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{key} = 3\n"))
    assert main(["--manifest", str(manifest), "run"]) == 2
    assert f"unknown manifest key [{section}] {key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_after_a_failed_run_clears_the_failed_marker(tmp_path):
    out = tmp_path / "out"
    bad = write_manifest(tmp_path / "bad.ini", backend_id="cublas")
    assert main(["--manifest", str(bad), "run"]) == 2
    assert (out / "failed").exists()
    assert main(["--manifest", str(write_manifest(tmp_path / "m.ini")), "run"]) == 0
    assert not (out / "failed").exists()
    assert (out / "record.csv").exists()


def test_failed_run_clears_the_outputs_of_an_earlier_run(tmp_path, capsys):
    tl = tmp_path / "recorded.csv"
    write_replay_timeline(tl)
    out = tmp_path / "out"
    good = write_manifest(tmp_path / "m.ini", sources=(f"replay:{tl}",))
    assert main(["--manifest", str(good), "run"]) == 0
    bad = write_manifest(tmp_path / "bad.ini", backend_id="cublas")
    assert main(["--manifest", str(bad), "run"]) == 2
    assert sorted(p.name for p in out.iterdir()) == ["failed"]
    assert main(["--out", str(tmp_path / "rp"), "replay", str(out)]) == 2
    assert "no run directories" in capsys.readouterr().err


def test_run_refuses_to_clear_its_own_replay_source(tmp_path):
    tl = tmp_path / "recorded.csv"
    write_replay_timeline(tl)
    out = tmp_path / "out"
    first = write_manifest(tmp_path / "a.ini", sources=(f"replay:{tl}",))
    assert main(["--manifest", str(first), "run"]) == 0
    own = out / "timeline-replay-0.csv"
    before = sorted(p.name for p in out.iterdir())
    again = write_manifest(tmp_path / "b.ini", sources=(f"replay:{own}",))
    assert main(["--manifest", str(again), "run"]) == 2
    assert sorted(p.name for p in out.iterdir()) == before


@pytest.mark.parametrize("first,second", [(1, 2), (2, 1)])
def test_run_clears_the_runs_of_an_earlier_repetition_count(tmp_path, first, second):
    tl = tmp_path / "recorded.csv"
    write_replay_timeline(tl)
    out = tmp_path / "out"
    for reps in (first, second):
        manifest = write_manifest(tmp_path / f"m{reps}.ini", sources=(f"replay:{tl}",),
                                  repetitions_per_node=reps)
        assert main(["--manifest", str(manifest), "run"]) == 0
    assert len(list(out.glob("**/record.csv"))) == second
    assert main(["--out", str(tmp_path / "rp"), "replay", str(out)]) == 0
    assert len(read_csv(tmp_path / "rp" / "summary.csv")) == second


def test_run_refuses_to_clear_a_replay_source_in_a_repetitions_directory(tmp_path):
    tl = tmp_path / "recorded.csv"
    write_replay_timeline(tl)
    out = tmp_path / "out"
    first = write_manifest(tmp_path / "a.ini", sources=(f"replay:{tl}",), repetitions_per_node=2)
    assert main(["--manifest", str(first), "run"]) == 0
    before = sorted(out.glob("**/*"))
    own = out / "run-001" / "timeline-replay-0.csv"
    again = write_manifest(tmp_path / "b.ini", sources=(f"replay:{own}",))
    assert main(["--manifest", str(again), "run"]) == 2
    assert sorted(out.glob("**/*")) == before


def test_sweep_clears_the_points_and_series_of_an_earlier_sweep(tmp_path):
    tl = tmp_path / "recorded.csv"
    write_replay_timeline(tl)
    out = tmp_path / "out"
    wide = write_manifest(tmp_path / "wide.ini", sources=(f"replay:{tl}",),
                          sweep=SweepPlan(level_min=0, level_max=3))
    narrow = write_manifest(tmp_path / "narrow.ini", sources=(f"replay:{tl}",),
                            sweep=SweepPlan(level_min=1, level_max=2,
                                            value_modes=("independent",)))
    assert main(["--manifest", str(wide), "sweep"]) == 0
    assert main(["--manifest", str(narrow), "sweep"]) == 0
    assert [p.name for p in out.glob("series-*.csv")] == ["series-block_rowcol-independent.csv"]
    assert sorted(p.parent.name for p in out.glob("*/record.csv")) == [
        "block_rowcol-independent-L01", "block_rowcol-independent-L02"]
    assert sorted(p.name for p in out.glob("*/*")) == sorted(
        ["manifest", "manifest.sha256", "record.csv", "summary.csv",
         "timeline-replay-0.csv"] * 2)
    assert main(["--out", str(tmp_path / "rp"), "replay", str(out)]) == 0
    assert len(read_csv(tmp_path / "rp" / "summary.csv")) == 2


def test_sweep_refuses_to_clear_a_replay_source_in_a_point_it_does_not_run(tmp_path):
    tl = tmp_path / "recorded.csv"
    write_replay_timeline(tl)
    out = tmp_path / "out"
    first = write_manifest(tmp_path / "a.ini", sources=(f"replay:{tl}",),
                           sweep=SweepPlan(level_min=0, level_max=1))
    assert main(["--manifest", str(first), "sweep"]) == 0
    before = sorted(out.glob("**/*"))
    own = out / "block_rowcol-fixed_common-L00" / "timeline-replay-0.csv"
    again = write_manifest(tmp_path / "b.ini", sources=(f"replay:{own}",),
                           sweep=SweepPlan(level_min=1, level_max=1,
                                           value_modes=("independent",)))
    assert main(["--manifest", str(again), "sweep"]) == 2
    assert sorted(out.glob("**/*")) == before


def test_sweep_runs_all_levels_and_modes(tmp_path):
    tl = tmp_path / "recorded.csv"
    write_replay_timeline(tl)
    manifest = write_manifest(tmp_path / "m.ini", sources=(f"replay:{tl}",))
    out = tmp_path / "out"

    assert main(["--manifest", str(manifest), "sweep"]) == 0
    run_dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
    # N=64: levels 0..6, both value modes
    assert len(run_dirs) == 14
    assert "block_rowcol-independent-L00" in run_dirs
    assert "block_rowcol-fixed_common-L06" in run_dirs
    for mode in ("independent", "fixed_common"):
        rows = read_csv(out / f"series-block_rowcol-{mode}.csv")
        assert [int(r["level"]) for r in rows] == list(range(7))
        assert all(float(r["tdp_w"]) == 400.0 for r in rows)


def test_sweep_subrange(tmp_path):
    tl = tmp_path / "recorded.csv"
    write_replay_timeline(tl)
    manifest = write_manifest(
        tmp_path / "m.ini",
        sources=(f"replay:{tl}",),
        sweep=SweepPlan(level_min=3, level_max=5, value_modes=("independent",)),
    )
    out = tmp_path / "out"
    assert main(["--manifest", str(manifest), "sweep"]) == 0
    run_dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert len(run_dirs) == 3
    rows = read_csv(out / "series-block_rowcol-independent.csv")
    assert [int(r["level"]) for r in rows] == [3, 4, 5]


def test_backend_output_of_the_wrong_size_exits_source(tmp_path, monkeypatch, capsys):
    script = tmp_path / "backend.py"
    script.write_text("open('c_out.bin', 'wb').write(bytes(72))\n"
                      "open('result.manifest', 'w').write('wall_seconds=0.1\\n')\n")
    monkeypatch.setitem(gemm._BACKENDS, "test-short", gemm.make_subprocess_backend(
        [sys.executable, str(script)], tmp_path / "work"))
    manifest = write_manifest(tmp_path / "m.ini", pattern=PatternSpec(family="baseline_fixed",
                                                                       n_dim=4),
                              backend_id="test-short")
    assert main(["--manifest", str(manifest), "run"]) == 3
    assert "c_out.bin holds 72 bytes, expected 128" in capsys.readouterr().err
    failed = (tmp_path / "out" / "failed").read_text().splitlines()
    assert failed[:2] == ["phase=workload", "type=SourceError"]


def test_sweep_of_a_failing_backend_marks_every_point_and_exits_config(tmp_path):
    manifest = write_manifest(
        tmp_path / "m.ini",
        pattern=PatternSpec(family="block_rowcol", n_dim=4, seed=3),
        backend_id="cublas",
    )
    assert main(["--manifest", str(manifest), "sweep"]) == 2
    assert len(list((tmp_path / "out").glob("*/failed"))) == 6  # levels 0..2, two modes


def test_sweep_runs_every_point_and_writes_series_before_reporting_a_failure(
        tmp_path, monkeypatch):
    tl = tmp_path / "recorded.csv"
    write_replay_timeline(tl)
    manifest = write_manifest(
        tmp_path / "m.ini", sources=(f"replay:{tl}",),
        sweep=SweepPlan(level_min=0, level_max=2, value_modes=("independent",)),
    )
    original = cli.run_experiment

    def failing_at_level_1(config, **kwargs):
        if config.pattern.level == 1:
            raise SourceError("backend lost")
        return original(config, **kwargs)

    monkeypatch.setattr(cli, "run_experiment", failing_at_level_1)
    out = tmp_path / "out"
    assert main(["--manifest", str(manifest), "sweep"]) == 3
    assert [p.parent.name for p in out.glob("*/failed")] == ["block_rowcol-independent-L01"]
    rows = read_csv(out / "series-block_rowcol-independent.csv")
    assert [int(r["level"]) for r in rows] == [0, 2]


def test_run_keeps_going_after_a_failed_repetition(tmp_path, monkeypatch, capsys):
    manifest = write_manifest(tmp_path / "m.ini", repetitions_per_node=3)
    original = cli.run_experiment

    def failing_at_run_1(config, **kwargs):
        if kwargs["run_index"] == 1:
            raise SourceError("backend lost")
        return original(config, **kwargs)

    monkeypatch.setattr(cli, "run_experiment", failing_at_run_1)
    out = tmp_path / "out"
    assert main(["--manifest", str(manifest), "run"]) == 3
    assert f"run {out / 'run-001'} failed: backend lost" in capsys.readouterr().err
    assert (out / "run-000" / "record.csv").exists()
    assert (out / "run-001" / "failed").exists()
    assert not (out / "run-001" / "record.csv").exists()
    assert (out / "run-002" / "record.csv").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_run_and_sweep_reach_the_workload_through_cli_run_experiment(tmp_path, monkeypatch,
                                                                     command):
    manifest = write_manifest(tmp_path / "m.ini",
                              sweep=SweepPlan(level_min=1, level_max=1,
                                              value_modes=("independent",)))
    original, levels = cli.run_experiment, []

    def recording(config, **kwargs):
        levels.append(config.pattern.level)
        return original(config, **kwargs)

    monkeypatch.setattr(cli, "run_experiment", recording)
    assert main(["--manifest", str(manifest), command]) == 0
    assert levels == [1]


def test_sweep_runs_each_points_repetitions(tmp_path, capsys):
    tl = tmp_path / "recorded.csv"
    write_replay_timeline(tl, mean_w=330.0)
    manifest = write_manifest(
        tmp_path / "m.ini", sources=(f"replay:{tl}",), repetitions_per_node=3,
        sweep=SweepPlan(level_min=1, level_max=2, value_modes=("independent",)),
    )
    out = tmp_path / "out"
    assert main(["--manifest", str(manifest), "sweep"]) == 0
    for level in (1, 2):
        point = out / f"block_rowcol-independent-L{level:02d}"
        assert sorted(p.name for p in point.iterdir()) == ["run-000", "run-001", "run-002"]
        for rep in range(3):
            assert records.read_record(point / f"run-{rep:03d}" / "record.csv").run_index == rep
    rows = read_csv(out / "series-block_rowcol-independent.csv")
    assert [(int(r["level"]), float(r["mean_w"])) for r in rows] == [(1, 330.0), (2, 330.0)]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6 and all(line.startswith("run ") for line in lines)


def test_sweep_rejects_baseline(tmp_path):
    manifest = write_manifest(
        tmp_path / "m.ini",
        pattern=PatternSpec(family="baseline_random", n_dim=64, seed=3),
    )
    assert main(["--manifest", str(manifest), "sweep"]) == 2


def test_fixtures_then_replay_reproduces_headline(tmp_path, capsys):
    fx = tmp_path / "fx"
    assert main(["--out", str(fx), "fixtures"]) == 0
    # 8 curves x 15 levels + 2 baselines
    assert len(list(fx.glob("*/record.csv"))) == 122

    rp = tmp_path / "rp"
    assert main(["--out", str(rp), "replay", str(fx)]) == 0
    report = (rp / "report.txt").read_text()
    assert "percent_increase=66.96" in report

    rows = read_csv(rp / "summary.csv")
    assert len(rows) == 122
    series_files = sorted(p.name for p in rp.glob("series-*.csv"))
    assert len(series_files) == 8
    series = read_csv(rp / "series-sparse_diagonal-fixed_common.csv")
    assert len(series) == 15
    assert float(series[-1]["mean_w"]) == pytest.approx(
        256.6622386211853, rel=1e-12)


def fresh_python(code, *args):
    """Run code in a new interpreter that imports entrobench from this checkout."""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_and_manifest_load_without_numpy(tmp_path):
    manifest = write_manifest(tmp_path / "m.ini")
    code = ("import sys, entrobench.cli, entrobench.manifest as m\n"
            "m.load_manifest(sys.argv[1])\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'numpy'))\n")
    assert fresh_python(code, str(manifest)) == "[]\n"


def test_fixtures_then_replay_run_with_numpy_unimportable(tmp_path):
    code = ("import sys\n"
            "sys.modules['numpy'] = None  # import numpy now raises ImportError\n"
            "from entrobench.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    fx, rp = tmp_path / "fx", tmp_path / "rp"
    fresh_python(code, "--out", str(fx), "fixtures")
    fresh_python(code, "--out", str(rp), "replay", str(fx))
    assert (rp / "report.txt").read_text() == "percent_increase=66.96\n"


def test_fixtures_over_longer_files_rewrites_them_to_a_fresh_runs_bytes(tmp_path):
    fx, fresh = tmp_path / "fx", tmp_path / "fresh"
    assert main(["--out", str(fx), "fixtures"]) == 0
    for path in fx.glob("*/*"):
        path.write_bytes(path.read_bytes() + b"stale tail\n")
        os.utime(path, ns=(0, 0))
    assert main(["--out", str(fx), "fixtures"]) == 0
    assert main(["--out", str(fresh), "fixtures"]) == 0

    files = sorted(path.relative_to(fx) for path in fx.glob("*/*"))
    assert files == sorted(path.relative_to(fresh) for path in fresh.glob("*/*"))
    assert len(files) == 2 * 122
    for name in files:
        assert (fx / name).read_bytes() == (fresh / name).read_bytes()
        assert (fx / name).stat().st_mtime_ns > 0


def test_replay_clears_an_earlier_replays_outputs(tmp_path):
    fx, rp = tmp_path / "fx", tmp_path / "rp"
    assert main(["--out", str(fx), "fixtures"]) == 0
    assert main(["--out", str(rp), "replay", str(fx)]) == 0
    assert main(["--out", str(rp), "replay",
                 str(fx / "rec-sparse_diagonal-independent-L03")]) == 0
    assert sorted(p.name for p in rp.iterdir()) == [
        "series-sparse_diagonal-independent.csv", "summary.csv"]
    assert len(read_csv(rp / "summary.csv")) == 1


def test_replay_of_a_run_is_idempotent(tmp_path):
    tl = tmp_path / "recorded.csv"
    write_replay_timeline(tl, mean_w=280.0)
    manifest = write_manifest(tmp_path / "m.ini", sources=(f"replay:{tl}",))
    out = tmp_path / "out"
    assert main(["--manifest", str(manifest), "run"]) == 0

    rp = tmp_path / "rp"
    assert main(["--out", str(rp), "replay", str(out)]) == 0
    original = read_csv(out / "summary.csv")
    replayed = read_csv(rp / "summary.csv")
    assert replayed == original


@pytest.mark.parametrize("plan", [
    SweepPlan(level_min=2, level_max=2),  # two one-level curves
    SweepPlan(level_min=1, level_max=3, value_modes=("fixed_common",)),
])
def test_replay_of_a_sweep_with_its_manifest_reproduces_the_series(tmp_path, plan):
    tl = tmp_path / "recorded.csv"
    write_replay_timeline(tl, mean_w=310.0)
    manifest = write_manifest(tmp_path / "m.ini", sources=(f"replay:{tl}",), sweep=plan,
                              analysis=AnalysisPlan(tdp_w=350.0, baseline_fixed_w=200.0))
    out, rp = tmp_path / "out", tmp_path / "rp"
    assert main(["--manifest", str(manifest), "sweep"]) == 0
    assert main(["--manifest", str(manifest), "--out", str(rp), "replay", str(out)]) == 0
    swept = sorted(p.name for p in out.glob("series-*.csv"))
    assert swept and sorted(p.name for p in rp.glob("series-*.csv")) == swept
    for name in swept:
        assert (rp / name).read_bytes() == (out / name).read_bytes()


def run_at(tmp_path, name, watts, **overrides):
    """`run` into tmp_path/name with a constant replayed timeline of watts."""
    tl = tmp_path / f"{name}.csv"
    write_replay_timeline(tl, mean_w=watts)
    manifest = write_manifest(tmp_path / f"{name}.ini", sources=(f"replay:{tl}",),
                              out_dir=str(tmp_path / "runs" / name), **overrides)
    assert main(["--manifest", str(manifest), "run"]) == 0


def test_replay_averages_the_runs_of_repeated_sweeps(tmp_path):
    plan = SweepPlan(level_min=1, level_max=2, value_modes=("independent",))
    for name, watts in (("a", 300.0), ("b", 340.0)):
        tl = tmp_path / f"{name}.csv"
        write_replay_timeline(tl, mean_w=watts)
        manifest = write_manifest(tmp_path / f"{name}.ini", sources=(f"replay:{tl}",),
                                  sweep=plan, out_dir=str(tmp_path / "sweeps" / name))
        assert main(["--manifest", str(manifest), "sweep"]) == 0
    rp = tmp_path / "rp"
    assert main(["--out", str(rp), "replay", str(tmp_path / "sweeps")]) == 0
    rows = read_csv(rp / "series-block_rowcol-independent.csv")
    assert [(int(r["level"]), float(r["mean_w"])) for r in rows] == [(1, 320.0), (2, 320.0)]
    assert len(read_csv(rp / "summary.csv")) == 4


def test_replay_averages_baselines_over_nodes(tmp_path, capsys):
    for family, node, watts in (("baseline_random", "n1", 400.0),
                                ("baseline_random", "n2", 420.0),
                                ("baseline_fixed", "n1", 200.0),
                                ("baseline_fixed", "n2", 220.0)):
        run_at(tmp_path, f"{family}-{node}", watts, node_id=node,
               pattern=PatternSpec(family=family, n_dim=64, seed=3))
    rp = tmp_path / "rp"
    assert main(["--out", str(rp), "replay", str(tmp_path / "runs")]) == 0
    assert (rp / "report.txt").read_text() == "percent_increase=95.24\n"  # 410 W over 210 W
    assert capsys.readouterr().out.endswith("percent_increase=95.24\n")


def test_replay_point_is_the_mean_of_its_node_means(tmp_path):
    for name, node, watts in (("a0", "a", 300.0), ("a1", "a", 310.0), ("b0", "b", 400.0)):
        run_at(tmp_path, name, watts, node_id=node)
    rp = tmp_path / "rp"
    assert main(["--out", str(rp), "replay", str(tmp_path / "runs")]) == 0
    (row,) = read_csv(rp / "series-block_rowcol-independent.csv")
    assert (int(row["level"]), float(row["mean_w"])) == (1, 352.5)  # (305 + 400) / 2


def test_replay_writes_series_levels_ascending_whatever_the_directory_order(tmp_path):
    for name, level in (("a", 2), ("b", 0), ("c", 1)):  # names sort against levels
        run_at(tmp_path, name, 300.0 + level,
               pattern=PatternSpec(family="block_rowcol", n_dim=64, level=level, seed=3))
    rp = tmp_path / "rp"
    assert main(["--out", str(rp), "replay", str(tmp_path / "runs")]) == 0
    rows = read_csv(rp / "series-block_rowcol-independent.csv")
    assert [(int(r["level"]), float(r["mean_w"])) for r in rows] == [
        (0, 300.0), (1, 301.0), (2, 302.0)]


def test_replay_with_no_runs_exits_config(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["--out", str(tmp_path / "rp"), "replay", str(empty)]) == 2


def test_replay_finds_the_runs_below_a_run_directory(tmp_path):
    tl = tmp_path / "recorded.csv"
    write_replay_timeline(tl)
    manifest = write_manifest(
        tmp_path / "m.ini", pattern=PatternSpec(family="block_rowcol", n_dim=4, level=1, seed=3),
        sources=(f"replay:{tl}",))
    assert main(["--manifest", str(manifest), "run"]) == 0
    assert main(["--manifest", str(manifest), "sweep"]) == 0  # 6 points below the run
    rp = tmp_path / "rp"
    assert main(["--out", str(rp), "replay", str(tmp_path / "out")]) == 0
    assert len(read_csv(rp / "summary.csv")) == 7
    assert sorted(p.name for p in rp.glob("series-*.csv")) == [
        "series-block_rowcol-fixed_common.csv", "series-block_rowcol-independent.csv"]


def test_run_of_a_one_sample_replay_exits_insufficient_data(tmp_path, capsys):
    tl = tmp_path / "recorded.csv"
    telemetry.write_timeline(fixtures.constant_timeline(300.0, count=1), tl)
    manifest = write_manifest(tmp_path / "m.ini", sources=(f"replay:{tl}",))
    assert main(["--manifest", str(manifest), "run"]) == 4
    assert "degenerate measured window" in capsys.readouterr().err


@pytest.mark.parametrize("column,value", [("n", "3"), ("reps", "0"),
                                          ("warmup_seconds_config", "inf"),
                                          ("warmup_seconds_config", "nan")])
def test_replay_of_a_record_value_the_config_refuses_exits_source(tmp_path, capsys,
                                                                   column, value):
    tl = tmp_path / "recorded.csv"
    write_replay_timeline(tl)
    manifest = write_manifest(tmp_path / "m.ini", sources=(f"replay:{tl}",))
    assert main(["--manifest", str(manifest), "run"]) == 0
    path = tmp_path / "out" / "record.csv"
    schema, header, row = path.read_text().splitlines()
    values = next(csv.reader([row]))
    values[header.split(",").index(column)] = value
    path.write_text(f"{schema}\n{header}\n{','.join(values)}\n")
    assert main(["--out", str(tmp_path / "rp"), "replay", str(tmp_path / "out")]) == 3
    assert "malformed record file" in capsys.readouterr().err


def test_run_samples_live_pm_and_rapl_files(tmp_path):
    pm, rapl = tmp_path / "power", tmp_path / "energy_uj"
    pm.write_text("217.25 W 1663632013291527\n")
    rapl.write_text("123456789\n")  # a counter that does not move: 0 W
    pattern = PatternSpec(family="block_rowcol", n_dim=64, level=1, seed=3)
    manifest = write_manifest(
        tmp_path / "m.ini", sources=(f"pm:{pm}", f"rapl:{rapl}"), interval_ms=1.0,
        config=GemmConfig(pattern, reps=200, backend_id="reference", warmup_seconds=0.0))
    assert main(["--manifest", str(manifest), "run"]) == 0
    out = tmp_path / "out"
    pm_timeline = telemetry.read_timeline(out / "timeline-pm_counters-0.csv")
    rapl_timeline = telemetry.read_timeline(out / "timeline-rapl-1.csv")
    assert pm_timeline.samples and all(s.watts == 217.25 for s in pm_timeline.samples)
    assert rapl_timeline.samples and all(s.watts == 0.0 for s in rapl_timeline.samples)
    assert rapl_timeline.gap_count >= 1  # the first read only sets the baseline
    assert float(read_csv(out / "summary.csv")[0]["mean_w"]) == 217.25


def test_score_writes_ranked_csv(tmp_path, capsys):
    manifest = write_manifest(
        tmp_path / "m.ini",
        pattern=PatternSpec(family="sparse_rowcol", n_dim=16, seed=5),
        sweep=SweepPlan(level_min=0, level_max=3, value_modes=("independent",)),
        model=ModelPlan(lanes=4),
    )
    out = tmp_path / "out"
    assert main(["--manifest", str(manifest), "score"]) == 0
    rows = read_csv(out / "score.csv")
    assert len(rows) == 4
    assert [int(r["level"]) for r in rows] == [0, 1, 2, 3]
    scores = [float(r["score_per_flop"]) for r in rows]
    assert max(scores) == scores[3]  # the fully random level costs most
    printed = capsys.readouterr().out
    assert printed.startswith("#1 sparse_rowcol L3")
    # printed ranking is by descending score
    ranked = [float(line.rsplit("=", 1)[1])
              for line in printed.strip().splitlines()]
    assert ranked == sorted(ranked, reverse=True)


def test_score_ranking_keeps_ties_in_sweep_order(tmp_path, capsys, monkeypatch):
    from entrobench import model
    tie = model.ToggleReport(flops=64, mul_input_toggles=10, acc_toggles=6)
    monkeypatch.setattr(model, "score_spec", lambda spec, schedule: tie)
    manifest = write_manifest(
        tmp_path / "m.ini",
        pattern=PatternSpec(family="sparse_rowcol", n_dim=4, seed=5),
        sweep=SweepPlan(),
    )
    assert main(["--manifest", str(manifest), "score"]) == 0
    # sweep order: value modes outer (independent first), levels ascending
    sweep = [(mode, level) for mode in ("independent", "fixed_common") for level in range(3)]
    assert capsys.readouterr().out.splitlines() == [
        f"#{rank} sparse_rowcol L{level} {mode} score=0.250"
        for rank, (mode, level) in enumerate(sweep, start=1)]
    # score.csv stays in key order: value mode, then level
    rows = read_csv(tmp_path / "out" / "score.csv")
    assert [(r["value_mode"], r["level"]) for r in rows] == \
        [(mode, str(level)) for mode in ("fixed_common", "independent") for level in range(3)]


@pytest.mark.parametrize("line_buffered", [False, True])
def test_score_survives_a_reader_that_closes_early(tmp_path, capsys, monkeypatch, line_buffered):
    # as `score | head -n 1` and `sweep | head -n 1` once head has exited:
    # each command exits 0 and writes everything, and stderr stays empty
    def main_into_closed_pipe(manifest, command):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with os.fdopen(write_end, "w", buffering=1 if line_buffered else -1) as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            code = main(["--manifest", str(manifest), command])
            monkeypatch.undo()
        return code

    manifest = write_manifest(
        tmp_path / "m.ini",
        pattern=PatternSpec(family="sparse_rowcol", n_dim=16, seed=5),
        sweep=SweepPlan(level_min=0, level_max=3),
        model=ModelPlan(lanes=4),
    )
    assert main_into_closed_pipe(manifest, "score") == 0
    assert len(read_csv(tmp_path / "out" / "score.csv")) == 8

    tl = tmp_path / "recorded.csv"
    write_replay_timeline(tl)
    out = tmp_path / "sweep"
    manifest = write_manifest(
        tmp_path / "sweep.ini",
        pattern=PatternSpec(family="block_rowcol", n_dim=16, seed=5),
        sources=(f"replay:{tl}",),
        sweep=SweepPlan(level_min=0, level_max=4),
        out_dir=str(out),
    )
    assert main_into_closed_pipe(manifest, "sweep") == 0
    for mode in ("independent", "fixed_common"):
        for level in range(5):
            assert (out / f"block_rowcol-{mode}-L{level:02d}" / "record.csv").exists()
        assert [row["level"] for row in read_csv(out / f"series-block_rowcol-{mode}.csv")] == \
            [str(level) for level in range(5)]
    assert capsys.readouterr().err == ""


def test_score_budget_guard(tmp_path):
    manifest = write_manifest(
        tmp_path / "m.ini",
        pattern=PatternSpec(family="baseline_random", n_dim=4096, seed=0),
    )
    assert main(["--manifest", str(manifest), "score"]) == 2


@pytest.mark.parametrize("lanes,message", [
    (3, "lanes=3 gives a 1x3 tile, which does not divide n_dim=64"),
    # refused before the tile is factored, which would take ~10**9 steps
    (10**18, f"lanes={10**18} exceeds the 4096 cells of an n_dim=64 output"),
])
def test_score_refuses_a_lane_count_whose_tile_cannot_fit(tmp_path, capsys, lanes, message):
    manifest = write_manifest(tmp_path / "m.ini", model=ModelPlan(lanes=lanes))
    start = time.perf_counter()
    assert main(["--manifest", str(manifest), "score"]) == 2
    assert time.perf_counter() - start < 0.5
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("via_option", [False, True])
def test_percent_sign_in_a_manifest_value(tmp_path, via_option):
    out = tmp_path / "res%1"
    manifest = write_manifest(tmp_path / "m.ini", out_dir=str(out))
    argv = ["--manifest", str(manifest)]
    if via_option:
        out = tmp_path / "r%1"
        argv += ["--out", str(out)]
    assert main(argv + ["run"]) == 0
    assert not (out / "failed").exists()
    text = (out / "manifest").read_text()
    assert f"out = {out}\n" in text
    assert manifest_to_text(load_manifest(out / "manifest")) == text
    if not via_option:
        assert text == manifest.read_text()


@pytest.mark.parametrize("option", [["--seed", "1"], ["--interval-ms", "5"]])
def test_removed_options_exit_with_usage_error(tmp_path, capsys, option):
    manifest = write_manifest(tmp_path / "m.ini")
    with pytest.raises(SystemExit) as exc:
        main(["--manifest", str(manifest), *option, "run"])
    assert exc.value.code == 2
    assert "entrobench: error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
