import ast
import csv
import dataclasses
import hashlib
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from entrobench import cli, fixtures, gemm, records, telemetry
from entrobench.cli import main
from entrobench.errors import FormatError, SourceError
from entrobench.gemm import GemmConfig
from entrobench.manifest import (
    AnalysisPlan,
    ExperimentManifest,
    SweepPlan,
    load_manifest,
    manifest_to_text,
)
from entrobench.patterns import PatternSpec
from entrobench.spec import Schedule, write_file


def write_replay_timeline(path, mean_w=300.0):
    telemetry.write_timeline(fixtures.constant_timeline(mean_w), path)


def write_manifest(path, pattern=PatternSpec(family="block_rowcol", n_dim=64, level=1, seed=3),
                   backend_id="reference", **overrides):
    kw = dict(
        config=GemmConfig(pattern, reps=1, backend_id=backend_id, warmup_seconds=0.0),
        out_dir=str(path.parent / "out"),
    )
    kw.update(overrides)
    write_file(path, manifest_to_text(ExperimentManifest(**kw)))
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


@pytest.mark.parametrize("source", ["replay:{}/nope.csv", "pmx:x"])  # no file; unknown kind
def test_missing_replay_file_exits_and_marks_phase(tmp_path, source):
    manifest = write_manifest(tmp_path / "m.ini", sources=(source.format(tmp_path),))
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


def test_malformed_replay_source_is_named_in_failed(tmp_path):
    tl = tmp_path / "recorded.csv"
    write_replay_timeline(tl)
    tl.write_text(tl.read_text() + "0.0,abc,replay\n")
    manifest = write_manifest(tmp_path / "m.ini", sources=(f"replay:{tl}",))
    assert main(["--manifest", str(manifest), "run"]) == 3
    failed = (tmp_path / "out" / "failed").read_text().splitlines()
    assert failed[2].startswith(f"error={tl}: timeline line ")


def test_replay_of_fixtures_with_one_malformed_row_names_the_timeline(tmp_path, capsys):
    fx = tmp_path / "fx"
    assert main(["--out", str(fx), "fixtures"]) == 0
    bad = sorted(fx.glob("*/timeline-*.csv"))[-1]  # replay reads every other run first
    bad.write_text(bad.read_text() + "2000.0,abc,fixture\n")
    capsys.readouterr()
    assert main(["--out", str(tmp_path / "rp"), "replay", str(fx)]) == 3
    assert capsys.readouterr().err.startswith(f"source/backend error: {bad}: timeline line ")


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


def write_fixture_run(run_dir):
    """The first embedded fixture run, written into run_dir."""
    _, _, record, timeline = next(fixtures.iter_fixture_runs())
    run_dir.mkdir(parents=True)
    cli._write_run_dir(run_dir, record, {record.timeline_ids[0]: timeline})


@pytest.mark.parametrize("name", ["record.csv", "timeline-fixture-0.csv"])
def test_replay_of_a_run_file_that_is_not_utf8_exits_source(tmp_path, capsys, name):
    write_fixture_run(tmp_path / "fx" / "run")
    path = tmp_path / "fx" / "run" / name
    path.write_bytes(path.read_bytes().replace(b"fixture", b"fixt\xfcre"))  # Latin-1
    assert main(["--out", str(tmp_path / "rp"), "replay", str(tmp_path / "fx")]) == 3
    assert f"source/backend error: {path} is not UTF-8 text" in capsys.readouterr().err


def test_a_replay_source_that_is_not_utf8_exits_source(tmp_path, capsys):
    tl = tmp_path / "recorded.csv"
    write_replay_timeline(tl)
    tl.write_bytes(tl.read_bytes().replace(b"fixture", b"fixt\xfcre"))
    manifest = write_manifest(tmp_path / "m.ini", sources=(f"replay:{tl}",))
    assert main(["--manifest", str(manifest), "run"]) == 3
    assert f"{tl} is not UTF-8 text" in capsys.readouterr().err
    failed = (tmp_path / "out" / "failed").read_text().splitlines()
    assert failed[:2] == ["phase=telemetry-setup", "type=FormatError"]


def test_a_record_that_cannot_be_read_is_a_format_error_naming_it(tmp_path):
    with pytest.raises(FormatError, match=re.escape(str(tmp_path / "record.csv"))):
        cli._load_run_dir(tmp_path)


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
    ("value_modes", "independent,independent", "sweep"),  # would run each point twice
    ("value_modes", "independent,independent", "score"),
    ("tdp_w", "nan", "run"),  # [analysis]
    ("tdp_w", "inf", "sweep"),
    ("baseline_fixed_w", "nan", "run"),
    ("baseline_random_w", "-5", "run"),
    ("interval_ms", "0.5", "run"),  # [telemetry]: the sampler's 1 ms floor
    ("interval_ms", "0.5", "sweep"),
    ("interval_ms", "nan", "run"),
    ("interval_ms", "nan", "sweep"),
    ("interval_ms", "inf", "run"),
    ("interval_ms", "inf", "sweep"),
    ("lanes", "0", "run"),  # checked by Schedule at load
    ("lanes", "0", "sweep"),
    ("lanes", "0", "score"),
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


@pytest.mark.parametrize("command", ["run", "sweep", "score", "replay", "fixtures"])
@pytest.mark.parametrize("content,message", [
    (None, "No such file or directory"),
    (b"[experiment]\nnode = l\xfccal\n", "is not UTF-8 text"),  # Latin-1
], ids=["missing", "latin1"])
def test_a_manifest_that_cannot_be_read_exits_config(tmp_path, capsys, command, content,
                                                     message):
    manifest = tmp_path / "nope.ini"
    if content is not None:
        manifest.write_bytes(content)
    inputs = [str(tmp_path)] if command == "replay" else []
    out = tmp_path / "out"
    assert main(["--manifest", str(manifest), "--out", str(out), command, *inputs]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot read manifest: ")
    assert str(manifest) in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("section,key", [("gemm", "rep"), ("model", "lane"), ("bogus", "x"),
                                         ("model", "tile_m"), ("model", "w_acc"),
                                         ("DEFAULT", "lanes")])
def test_unknown_manifest_key_exits_config(tmp_path, capsys, section, key):
    manifest = write_manifest(tmp_path / "m.ini")
    text = manifest.read_text()
    if f"[{section}]" not in text:
        text += f"[{section}]\n"
    manifest.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{key} = 3\n"))
    assert main(["--manifest", str(manifest), "run"]) == 2
    assert f"unknown manifest key [{section}] {key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value", [("level", "3"), ("value_mode", "fixed_common")])
def test_a_baseline_with_a_level_or_value_mode_is_refused(tmp_path, capsys, key, value):
    # generate ignores both for a baseline, so its record and summary would claim a pattern
    # that never ran.
    tl = tmp_path / "recorded.csv"
    write_replay_timeline(tl)
    manifest = write_manifest(tmp_path / "m.ini", PatternSpec(family="baseline_random", n_dim=16),
                              sources=(f"replay:{tl}",))
    text = manifest.read_text()
    for command in ("run", "score"):
        manifest.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M))
        assert main(["--manifest", str(manifest), command]) == 2
        assert "baseline_random takes level 0 and value_mode independent" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()
    # A record that claims one is malformed.
    manifest.write_text(text)
    assert main(["--manifest", str(manifest), "run"]) == 0
    record = tmp_path / "out" / "record.csv"
    header, row = record.read_text().splitlines()[-2:]
    fields = row.split(",")
    fields[header.split(",").index(key)] = value
    record.write_text(record.read_text().replace(row, ",".join(fields)))
    assert main(["--out", str(tmp_path / "rp"), "replay", str(tmp_path / "out")]) == 3
    assert "malformed record file" in capsys.readouterr().err


# a manifest saved while these keys existed: any value, valid then or not, is refused
@pytest.mark.parametrize("key,value,command", [
    ("trim_fraction", "0.6", "run"),  # [analysis]
    ("max_n_dim", "-5", "run"),  # [model]
    ("max_n_dim", "1", "score"),
])
def test_a_manifest_setting_a_removed_key_exits_config(tmp_path, capsys, key, value, command):
    section = {"trim_fraction": "analysis", "max_n_dim": "model"}[key]
    manifest = write_manifest(tmp_path / "m.ini", sweep=SweepPlan())
    text = manifest.read_text()
    assert f"\n[{section}]\n" in text
    manifest.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n"))
    assert main(["--manifest", str(manifest), command]) == 2
    assert capsys.readouterr() == (
        "", f"configuration error: unknown manifest key [{section}] {key}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sweep", "score"])
# [sweeps] is a typo for [sweep]; [DEFAULT] is configparser's name for its default section
@pytest.mark.parametrize("section", ["sweeps", "DEFAULT"])
def test_an_unknown_manifest_section_exits_config_even_if_empty(tmp_path, capsys, section,
                                                                 command):
    manifest = tmp_path / "m.ini"
    manifest.write_text("[pattern]\nfamily = sparse_rowcol\nn = 16\n[gemm]\nreps = 1\n"
                        f"warmup_seconds = 0\n[{section}]\n")
    assert main(["--manifest", str(manifest), "--out", str(tmp_path / "out"), command]) == 2
    assert capsys.readouterr() == (
        "", f"configuration error: unknown manifest section [{section}]\n")
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


def test_run_keeps_going_after_a_repetition_directory_that_cannot_be_made(tmp_path, capsys):
    manifest = write_manifest(tmp_path / "m.ini", repetitions_per_node=3)
    out = tmp_path / "out"
    out.mkdir()
    (out / "run-001").write_text("a file\n")
    assert main(["--manifest", str(manifest), "run"]) == 2
    err = capsys.readouterr().err
    assert f"run {out / 'run-001'} failed: cannot create output directory" in err
    assert (out / "run-000" / "record.csv").exists()
    assert (out / "run-001").read_text() == "a file\n"
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


def tree_digest(root):
    """One sha256 over the relative name and the bytes of every file below root."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def test_fixtures_and_their_replay_write_pinned_bytes(tmp_path):
    """What fixtures and replay write is pinned byte for byte, so no codec change can move it."""
    fx, rp = tmp_path / "fx", tmp_path / "rp"
    assert main(["--out", str(fx), "fixtures"]) == 0
    assert main(["--out", str(rp), "replay", str(fx)]) == 0
    assert len(list(fx.rglob("*.csv"))) == 2 * 122
    assert tree_digest(fx) == "f19f8f5c53961699440c148f89053a86f05abc6f1921634804b64a76db3c21e5"
    assert len(list(rp.glob("series-*.csv"))) == 8
    assert sorted(p.name for p in rp.iterdir() if not p.name.startswith("series-")) == [
        "report.txt", "summary.csv"]
    assert tree_digest(rp) == "45a1ff0880e48d1d0c8a237591ea32b2b67430527fedadda10302aae682658eb"


def test_fixtures_and_their_replay_construct_no_power_sample(tmp_path, monkeypatch):
    made = []
    new = telemetry.PowerSample.__new__

    def spy(cls, *args):
        made.append(args)
        return new(cls, *args)

    monkeypatch.setattr(telemetry.PowerSample, "__new__", spy)
    assert len(fixtures.constant_timeline(1.0, count=2).samples) == len(made) == 2  # it spies
    made.clear()
    assert main(["--out", str(tmp_path / "fx"), "fixtures"]) == 0
    assert main(["--out", str(tmp_path / "rp"), "replay", str(tmp_path / "fx")]) == 0
    assert made == []


def fresh_run(code, *args, cwd=None):
    """Run code in a new interpreter that imports entrobench from this checkout."""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def fresh_python(code, *args):
    """fresh_run's standard output, once the interpreter has exited 0."""
    proc = fresh_run(code, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# What the installed entrobench script runs.
SCRIPT = "import sys\nfrom entrobench.cli import main\nsys.exit(main(sys.argv[1:]))\n"


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    """The output of one `fixtures` command, which a test must not change."""
    fx = tmp_path_factory.mktemp("fixtures")
    assert main(["--out", str(fx), "fixtures"]) == 0
    return fx


@pytest.mark.parametrize("pattern,change,code,label", [
    (None, None, 2, "configuration error"),  # fixtures with a --manifest that does not exist
    ("*/timeline-*.csv", lambda text: text + "2000.0,abc,fixture\n", 3, "source/backend error"),
    ("*/record.csv", lambda text: text.replace("record v1\n", "record v12\n"), 3,
     "source/backend error"),
    ("*/timeline-*.csv", lambda text: "".join(text.splitlines(True)[:7]), 4,  # 5 samples
     "insufficient data"),
], ids=["missing-manifest", "malformed-row", "record-v12", "short-timeline"])
def test_the_process_exits_with_the_code_of_its_error_class(tmp_path, fixture_dir, pattern,
                                                            change, code, label):
    out = tmp_path / "out"
    if pattern is None:
        argv = ["--manifest", str(tmp_path / "missing.ini"), "--out", str(out), "fixtures"]
    else:  # replay of the fixtures with one file changed
        fx = tmp_path / "fx"
        shutil.copytree(fixture_dir, fx)
        changed = sorted(fx.glob(pattern))[0]
        changed.write_text(change(changed.read_text()))
        argv = ["--out", str(out), "replay", str(fx)]
    proc = fresh_run(SCRIPT, *argv)
    assert proc.returncode == code
    assert proc.stderr.startswith(f"{label}: ")
    if code == 2:
        assert not out.exists()
    elif code == 3:
        assert str(changed) in proc.stderr


def reference_run(pattern, reps=1):
    """A manifest for one reference-backend run of pattern that replays {timeline}."""
    return (f"[pattern]\n{pattern}seed = 5\n[gemm]\nreps = {reps}\nalpha = 1.5\nbeta = 0.5\n"
            "backend = reference\nwarmup_seconds = 0.0\n[telemetry]\nsources = replay:{timeline}\n")


# Pins on the bits that the paper's claim rests on: a run's checksum_bits hold
# its operands and C, and score's output holds the toggle model.  name:
# (command, manifest, pin); a score pin is (ranking line 1, lines, sha256).
PINS = {
    # A kernel that sums in another order or fuses its multiply-adds moves C.
    "baseline_random": ("run", reference_run("family = baseline_random\nn = 64\n", reps=2),
                        "41022955a433be7a"),
    # generate fills A and B in four blocks of rows at N = 512.
    "sparse_diagonal": ("run", reference_run("family = sparse_diagonal\nn = 512\nlevel = 5\n"),
                        "41084578815bce19"),
    # The checkerboard, filled through its per-axis residue masks.
    "block_diagonal": ("run", reference_run("family = block_diagonal\nn = 512\nlevel = 5\n"),
                       "41680a9140f65de6"),
    # score's printed ranking and its score.csv.
    "score": ("score", "[pattern]\nfamily = sparse_rowcol\nn = 16\nseed = 5\n[sweep]\n"
              "[model]\nlanes = 4\n",
              ("#1 sparse_rowcol L4 independent score=68.375", 11,
               "8103b87122ed82614760f190c73882c750aa60ac67be9196d64ab73fb89928b3")),
    # Repeated tiles at 16 lanes: block_rowcol's zero stripes repeat rows of A
    # and columns of B.
    "tiles": ("score", "[pattern]\nfamily = block_rowcol\nn = 64\nseed = 5\n[sweep]\n"
              "[model]\nlanes = 16\n",
              ("#1 block_rowcol L0 independent score=60.333", 15,
               "8173074635498dcfab77a25ef6f38af7f6ea04f2833482e900637341b102773e")),
    # Repeated tiles at 1 lane, the default: sparse_diagonal's fixed_common
    # levels put several k steps in one chunk of the toggle counter.
    "lane": ("score", "[pattern]\nfamily = sparse_diagonal\nn = 64\nseed = 5\n[sweep]\n",
             ("#1 sparse_diagonal L6 independent score=79.326", 15,
              "915f9430c283a36c65769d79607be009db0e406bfc8a6930ddd259396bd10573")),
    # Repeated tiles at N = 256 with 4 lanes, where the toggle counter hashes
    # and compares its tile rows and columns in several chunks.
    "checker-score": ("score", "[pattern]\nfamily = block_diagonal\nn = 256\nseed = 5\n"
                      "[sweep]\n[model]\nlanes = 4\n",
                      ("#1 block_diagonal L0 independent score=66.533", 19,
                       "c16c376bd04a676e3ebc175ceb5fccbc0372e2253b3e3ea8908e2132501c99f8")),
}


def pin_cases():
    """Each run pin on both reference kernels at 1, 2 and 4 workers; each score pin once."""
    for name, (command, _, _) in PINS.items():
        if command == "score":
            yield pytest.param(name, None, None, id=name)
            continue
        for kernel in ("einsum", "loop"):
            for workers in (1, 2, 4):
                yield pytest.param(name, kernel, workers, id=f"{name}-{kernel}-{workers}")


@pytest.mark.parametrize("name,kernel,workers", pin_cases())
def test_pinned_manifests_keep_their_bits(tmp_path, capsys, monkeypatch, fixture_dir, name,
                                          kernel, workers):
    command, manifest, pin = PINS[name]
    if kernel is not None:
        if kernel == "einsum" and not gemm._einsum_is_exact():
            pytest.skip("this numpy fuses einsum's multiply-adds, so only the loop runs")
        monkeypatch.setattr(gemm, "_einsum_is_exact", lambda: kernel == "einsum")
        monkeypatch.setattr(gemm, "_usable_cpus", lambda: workers)
    path, out = tmp_path / "m.ini", tmp_path / "out"
    path.write_text(manifest.format(
        timeline=fixture_dir / "rec-baseline_random" / "timeline-fixture-0.csv"))
    assert main(["--manifest", str(path), "--out", str(out), command]) == 0
    if command == "run":
        assert records.read_record(out / "record.csv").checksum_bits == pin
    else:
        data = (out / "score.csv").read_bytes()
        ranking = capsys.readouterr().out.splitlines()
        assert (ranking[0], data.count(b"\n"), hashlib.sha256(data).hexdigest()) == pin


def test_main_calls_in_one_process_match_fresh_processes(tmp_path, capsys, monkeypatch):
    # One parser serves every main call in a process.  The same calls give
    # the same exit codes, output and files, each in a fresh interpreter: no
    # --out, --manifest or input list leaks into a later call, and an
    # argument error (exit 2) leaves the parser as it was.
    calls = [["--out", "fx", "fixtures"],
             ["--manifest", "score.ini", "--out", "scored", "score"],
             ["--out", "rp", "replay", "fx"],
             ["--manifest", "score.ini", "score"],  # to the manifest's out
             ["--manifest", "score.ini", "bogus"],
             ["score"],
             ["replay", "fx"]]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal's width
    manifest = ("[pattern]\nfamily = sparse_rowcol\nn = 8\nseed = 5\n[sweep]\n"
                "[model]\nlanes = 4\n[experiment]\nout = from-manifest\n")

    def in_process(argv):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        return (rc, *capsys.readouterr())

    def fresh(argv):
        proc = fresh_run(SCRIPT, *argv, cwd=fresh_dir)
        return proc.returncode, proc.stdout, proc.stderr

    def files(root):
        return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    shared_dir, fresh_dir = tmp_path / "shared", tmp_path / "fresh"
    for directory in (shared_dir, fresh_dir):
        directory.mkdir()
        (directory / "score.ini").write_text(manifest)
    monkeypatch.chdir(shared_dir)
    assert cli.build_parser() is cli.build_parser()
    shared = [in_process(argv) for argv in calls]
    assert [rc for rc, _, _ in shared] == [0, 0, 0, 0, 2, 2, 0]
    assert [fresh(argv) for argv in calls] == shared
    assert files(shared_dir) == files(fresh_dir)
    assert {"scored/score.csv", "from-manifest/score.csv", "rp/report.txt",
            "replay-out/report.txt"} <= set(files(shared_dir))


def test_cli_and_manifest_load_without_numpy(tmp_path):
    manifest = write_manifest(tmp_path / "m.ini")
    code = ("import sys, entrobench.cli, entrobench.manifest as m\n"
            "m.load_manifest(sys.argv[1])\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'numpy'))\n")
    assert fresh_python(code, str(manifest)) == "[]\n"


def test_cli_and_manifest_load_only_errors_spec_and_manifest(tmp_path):
    manifest = write_manifest(tmp_path / "m.ini")
    code = ("import sys, entrobench.cli, entrobench.manifest as m\n"
            "m.load_manifest(sys.argv[1])\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'entrobench'))\n")
    assert fresh_python(code, str(manifest)) == str([
        "entrobench", "entrobench.cli", "entrobench.errors", "entrobench.manifest",
        "entrobench.spec"]) + "\n"


def test_score_loads_no_telemetry_analysis_fixtures_or_records(tmp_path):
    manifest = write_manifest(tmp_path / "m.ini", pattern=PatternSpec("sparse_rowcol", 8),
                              sweep=SweepPlan(), model=Schedule(lanes=4))
    code = ("import sys\n"
            "from entrobench.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print(sorted(name for name in sys.modules if name in {\n"
            "    'entrobench.telemetry', 'entrobench.analysis', 'entrobench.fixtures',\n"
            "    'entrobench.records'}))\n")
    stdout = fresh_python(code, "--manifest", str(manifest), "score")
    assert stdout.splitlines()[-1] == "[]"
    assert len((tmp_path / "out" / "score.csv").read_text().splitlines()) == 1 + 2 * 4


def test_fixtures_then_replay_run_with_numpy_unimportable(tmp_path):
    # import numpy now raises ImportError
    code = "import sys\nsys.modules['numpy'] = None\n" + SCRIPT
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


def test_fixtures_over_a_file_named_like_a_fixture_run_exits_config(tmp_path, capsys):
    fx = tmp_path / "fx"
    fx.mkdir()
    taken = fx / "rec-baseline_fixed"
    taken.write_text("a file\n")
    assert main(["--out", str(fx), "fixtures"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot create output directory {taken}")
    assert taken.read_text() == "a file\n"
    assert list(fx.iterdir()) == [taken]  # refused before any run was written


def test_fixtures_over_a_dangling_link_named_like_a_fixture_run_writes_nothing(tmp_path, capsys):
    fx = tmp_path / "fx"
    fx.mkdir()
    taken = fx / "rec-baseline_random"
    taken.symlink_to(tmp_path / "gone")
    assert main(["--out", str(fx), "fixtures"]) == 2
    assert capsys.readouterr().err.startswith(
        f"configuration error: cannot create output directory {taken}")
    assert list(fx.iterdir()) == [taken]


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


def test_replay_finds_run_directories_in_path_order_without_following_links(tmp_path):
    root, elsewhere = tmp_path / "root", tmp_path / "elsewhere"
    for run_dir in (root / "a", root / "a" / "run-000", root / "a-b", root / ".hidden", elsewhere):
        write_fixture_run(run_dir)
    (root / "link").symlink_to(elsewhere, target_is_directory=True)
    (root / "dirrec" / "record.csv").mkdir(parents=True)  # a directory marks no run
    # Path order compares part by part: a string sort puts a-b before a/run-000.
    assert cli.discover_run_dirs([root]) == [
        root / ".hidden", root / "a", root / "a" / "run-000", root / "a-b"]
    rp = tmp_path / "rp"
    assert main(["--out", str(rp), "replay", str(root)]) == 0
    assert len(read_csv(rp / "summary.csv")) == 4


@pytest.mark.parametrize("typo", ["typo-dir", "fx/rec-baseline_fixed/record.csv"])
def test_replay_refuses_an_input_that_is_not_a_directory_before_removing_anything(
        tmp_path, capsys, monkeypatch, typo):
    fx, rp = tmp_path / "fx", tmp_path / "rp"
    assert main(["--out", str(fx), "fixtures"]) == 0
    assert main(["--out", str(rp), "replay", str(fx)]) == 0
    before = {path.name: path.read_bytes() for path in rp.iterdir()}
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    assert main(["--out", str(rp), "replay", "fx", typo]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"configuration error: replay input {typo} is not a directory\n"
    assert captured.out == ""
    assert {path.name: path.read_bytes() for path in rp.iterdir()} == before


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
                                          ("warmup_seconds_config", "nan"),
                                          ("flop_rate", "nan"), ("flop_rate", "inf"),
                                          ("flop_rate", "0.0"), ("flop_rate", "-1.0"),
                                          ("measured_seconds", "0.0"),
                                          ("warmup_seconds", "-1.0"),
                                          ("warmup_seconds", "inf"),
                                          ("measured_start_ms", "nan"),
                                          ("measured_start_ms", "-inf"),
                                          ("measured_end_ms", "nan"),
                                          ("measured_end_ms", "inf")])
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
    assert capsys.readouterr().err.startswith(
        f"source/backend error: {path}: malformed record file: ")


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
    assert pm_timeline.watts and all(w == 217.25 for w in pm_timeline.watts)
    assert rapl_timeline.watts and all(w == 0.0 for w in rapl_timeline.watts)
    assert rapl_timeline.gap_count >= 1  # the first read only sets the baseline
    assert float(read_csv(out / "summary.csv")[0]["mean_w"]) == 217.25


def test_a_failing_live_sampler_fails_the_run_with_exit_source(tmp_path, capsys):
    pm = tmp_path / "power"
    pm.write_text("abc W 1\n")  # every poll fails to parse
    pattern = PatternSpec(family="block_rowcol", n_dim=64, level=1, seed=3)
    # the warm-up outlasts the 11 failed polls in a row that stop the sampler
    manifest = write_manifest(
        tmp_path / "m.ini", sources=(f"pm:{pm}",), interval_ms=1.0,
        config=GemmConfig(pattern, reps=1, backend_id="reference", warmup_seconds=0.2))
    assert main(["--manifest", str(manifest), "run"]) == 3
    assert ("source/backend error: source pm_counters failed 11 consecutive reads"
            in capsys.readouterr().err)
    failed = (tmp_path / "out" / "failed").read_text().splitlines()
    assert failed[:2] == ["phase=workload", "type=SourceError"]


def test_score_writes_ranked_csv(tmp_path, capsys):
    manifest = write_manifest(
        tmp_path / "m.ini",
        pattern=PatternSpec(family="sparse_rowcol", n_dim=16, seed=5),
        sweep=SweepPlan(level_min=0, level_max=3, value_modes=("independent",)),
        model=Schedule(lanes=4),
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
        model=Schedule(lanes=4),
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


def test_score_has_no_size_limit(tmp_path):
    # like run: the toggle model's memory grows only as N^2
    manifest = write_manifest(
        tmp_path / "m.ini",
        pattern=PatternSpec(family="sparse_rowcol", n_dim=2048, seed=0),
        model=Schedule(lanes=4),
    )
    assert main(["--manifest", str(manifest), "score"]) == 0
    rows = read_csv(tmp_path / "out" / "score.csv")
    assert [(row["family"], row["level"], row["flops"]) for row in rows] == [
        ("sparse_rowcol", "0", str(2048 ** 3))]


@pytest.mark.parametrize("lanes,message", [
    (3, "lanes must be a power of two, got 3"),
    (10**18, f"lanes must be a power of two, got {10**18}"),
    (2**60, f"lanes={2**60} exceeds the 4096 cells of an n_dim=64 output"),
])
def test_score_refuses_a_lane_count_whose_tile_cannot_fit(tmp_path, capsys, lanes, message):
    manifest = write_manifest(tmp_path / "m.ini", model=Schedule(lanes=4))
    manifest.write_text(manifest.read_text().replace("\nlanes = 4\n", f"\nlanes = {lanes}\n"))
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


@pytest.mark.parametrize("command", ["run", "sweep", "score", "fixtures", "replay"])
def test_an_output_path_that_cannot_be_a_directory_exits_config_before_any_work(
        tmp_path, capsys, monkeypatch, command):
    from entrobench import model

    def work(*args, **kwargs):
        raise AssertionError(f"{command} started work")

    monkeypatch.setattr(cli, "run_experiment", work)
    monkeypatch.setattr(model, "score_spec", work)
    out = tmp_path / "taken"
    out.write_text("a file\n")
    manifest = write_manifest(tmp_path / "m.ini", sweep=SweepPlan(), model=Schedule(lanes=4))
    _, _, record, timeline = next(fixtures.iter_fixture_runs())
    (tmp_path / "fx").mkdir()
    cli._write_run_dir(tmp_path / "fx", record, {record.timeline_ids[0]: timeline})
    options = [] if command in ("fixtures", "replay") else ["--manifest", str(manifest)]
    inputs = [str(tmp_path / "fx")] if command == "replay" else []
    assert main([*options, "--out", str(out), command, *inputs]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"configuration error: cannot create output directory {out}")
    assert captured.out == ""
    assert out.read_text() == "a file\n"


@pytest.mark.parametrize("command,held,earlier", [
    ("replay", "summary.csv", True),
    ("run", "timeline-x.csv", True),
    ("score", "score.csv", False),
    ("fixtures", "rec-baseline_fixed/record.csv", False),
])
def test_a_directory_at_an_output_path_exits_config_naming_it(tmp_path, capsys, command, held,
                                                             earlier):
    fx, out = tmp_path / "fx", tmp_path / "out"
    assert main(["--out", str(fx), "fixtures"]) == 0
    timeline = fx / "rec-baseline_random" / "timeline-fixture-0.csv"
    manifest = write_manifest(tmp_path / "m.ini", sources=(f"replay:{timeline}",))
    options = ["--manifest", str(manifest)] if command in ("run", "score") else []
    inputs = [str(fx)] if command == "replay" else []
    argv = [*options, "--out", str(out), command, *inputs]
    if earlier:  # an earlier command's outputs, which the refused one must not remove
        assert main(argv) == 0
        (out / held).unlink(missing_ok=True)
    (out / held).mkdir(parents=True)
    before = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"configuration error: output path {out / held} is a directory\n")
    assert (out / held).is_dir()
    # nothing written, nor removed: for fixtures, not one run's record.csv
    assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == before


@pytest.mark.parametrize("option", [["--seed", "1"], ["--interval-ms", "5"]])
def test_removed_options_exit_with_usage_error(tmp_path, capsys, option):
    manifest = write_manifest(tmp_path / "m.ini")
    with pytest.raises(SystemExit) as exc:
        main(["--manifest", str(manifest), *option, "run"])
    assert exc.value.code == 2
    assert "entrobench: error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _calls_outside(tree, names, function):
    """Lines of calls to any of names made outside the function named function."""
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == function
              for node in ast.walk(fn)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in inside:
            func = node.func
            if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) \
                    in names:
                yield node.lineno


def test_main_loads_the_manifest_once_for_every_command():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "load_manifest"]
    assert len(calls) == 1
    assert list(_calls_outside(tree, {"load_manifest"}, "main")) == []


def test_output_directories_are_made_only_by_make_out_and_removed_only_by_clear():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    assert list(_calls_outside(tree, {"mkdir", "makedirs"}, "_make_out")) == []
    assert list(_calls_outside(
        tree, {"unlink", "remove", "rmdir", "removedirs", "rmtree"}, "_clear")) == []
