"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single
``[criterion N] PASS/FAIL`` line on the real terminal (capture disabled)
so the checklist is visible in any pytest run.
"""

import csv
import random

import numpy as np
import pytest

from entrobench import analysis, fixtures, model, records, telemetry
from entrobench.cli import main
from entrobench.gemm import GemmConfig, reference_gemm
from entrobench.manifest import ExperimentManifest, manifest_from_text, manifest_to_text
from entrobench.patterns import PatternSpec, generate, masks
from entrobench.spec import write_file

from golden_masks import GOLDEN, grid_to_mask


def _report(capsys, num, title, body):
    """Run body(); print one PASS/FAIL line; re-raise on failure."""
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"\n[criterion {num}] FAIL: {title}")
        raise
    with capsys.disabled():
        print(f"\n[criterion {num}] PASS: {title}")


def test_criterion_1_pattern_golden_masks(capsys):
    def body():
        for (family, level), (grid_a, grid_b) in GOLDEN.items():
            mask_a, mask_b = masks(PatternSpec(family=family, n_dim=8, level=level))
            assert np.array_equal(mask_a, grid_to_mask(grid_a)), (family, level, "A")
            assert np.array_equal(mask_b, grid_to_mask(grid_b)), (family, level, "B")
        for n in (8, 16, 64, 256):
            log2n = n.bit_length() - 1
            for family in ("block_rowcol", "block_diagonal"):
                for level in range(1, log2n + 1):
                    mask_a, mask_b = masks(
                        PatternSpec(family=family, n_dim=n, level=level))
                    assert mask_a.mean() == 0.5
                    assert mask_b.mean() == 0.5
            for family in ("sparse_rowcol", "sparse_diagonal"):
                for level in range(log2n + 1):
                    mask_a, mask_b = masks(
                        PatternSpec(family=family, n_dim=n, level=level))
                    assert mask_a.mean() == (1 << level) / n
                    assert mask_b.mean() == (1 << level) / n

    _report(capsys, 1, "pattern golden masks and random fractions", body)


def test_criterion_2_analysis_reference_numbers(capsys):
    def body():
        assert analysis.percent_increase(398.2, 238.5) == pytest.approx(
            66.96, abs=0.05)
        assert analysis.pj_per_flop(159.0, 19.4e12) == pytest.approx(
            8.20, abs=0.05)
        assert analysis.pj_per_flop(30.7, 2.0e12) == pytest.approx(
            15.35, abs=0.05)
        assert analysis.pj_per_flop(30.0, 2.0e12) == pytest.approx(
            15.00, abs=0.05)
        assert analysis.tdp_fraction(188.4, 280.0) == pytest.approx(
            0.673, abs=0.005)

    _report(capsys, 2, "recorded GPU/CPU headline metrics", body)


def test_criterion_3_fixture_replay_reproduces_curves(capsys, tmp_path):
    def body():
        fx = tmp_path / "fx"
        rp = tmp_path / "rp"
        assert main(["--out", str(fx), "fixtures"]) == 0
        assert main(["--out", str(rp), "replay", str(fx)]) == 0

        checked = 0
        for (family, mode), watts_by_level in fixtures.POWER_SWEEPS_W.items():
            path = rp / f"series-{family.value}-{mode.value}.csv"
            with open(path) as fh:
                rows = list(csv.DictReader(fh))
            assert [int(r["level"]) for r in rows] == list(range(15))
            for row, expected in zip(rows, watts_by_level):
                assert abs(float(row["mean_w"]) - expected) < 0.01, (
                    family, mode, row["level"])
                # reference lines must be carried exactly
                assert float(row["tdp_w"]) == 400.0
                assert float(row["baseline_random_w"]) == 398.2
                assert float(row["baseline_fixed_w"]) == 238.5
                checked += 1
        assert checked == 120

    _report(capsys, 3, "replay reproduces every recorded sweep point "
                       "(tolerance 0.01 W)", body)


def test_criterion_4_gemm_oracle_equivalence(capsys):
    def body():
        rng = np.random.default_rng(2024)
        py_rng = random.Random(2024)
        for _ in range(200):
            n = py_rng.randint(2, 64)
            a, b, c = rng.random((n, n)), rng.random((n, n)), rng.random((n, n))
            alpha, beta = py_rng.random(), py_rng.random()
            got = c.copy()
            reference_gemm(a, b, got, alpha, beta)
            # independent oracle: scalar accumulation via Python floats
            want = np.empty((n, n))
            al, bl, cl = a.tolist(), b.tolist(), c.tolist()
            for i in range(n):
                row_a = al[i]
                for j in range(n):
                    acc = 0.0
                    for k in range(n):
                        acc = acc + row_a[k] * bl[k][j]
                    want[i, j] = alpha * acc + beta * cl[i][j]
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), n
        for n in (4, 64, 256):
            pair = generate(PatternSpec(family="baseline_fixed", n_dim=n))
            out = np.ones((n, n))
            reference_gemm(pair.a, pair.b, out)
            assert np.all(out == n + 1), n

    _report(capsys, 4, "reference GEMM bit-identical to naive oracle; "
                       "fixed baseline gives C = N+1", body)


def test_criterion_5_toggle_model_ordering(capsys):
    def body():
        n = 64
        for lanes in (1, 4):
            schedule = model.schedule_for_lanes(lanes)
            fixed = model.score_spec(
                PatternSpec(family="baseline_fixed", n_dim=n), schedule)
            rand = model.score_spec(
                PatternSpec(family="baseline_random", n_dim=n, seed=1), schedule)
            assert fixed.mul_input_toggles == 0, lanes
            assert rand.score_per_flop > fixed.score_per_flop, lanes
            for family in ("block_rowcol", "block_diagonal"):
                for mode in ("independent", "fixed_common"):
                    for level in range(1, 7):
                        spec = PatternSpec(family=family, n_dim=n, level=level,
                                           value_mode=mode, seed=1)
                        score = model.score_spec(spec, schedule).score_per_flop
                        assert fixed.score_per_flop < score < rand.score_per_flop, (
                            lanes, family, mode, level)
            low = model.score_spec(
                PatternSpec(family="block_rowcol", n_dim=n, level=1,
                            value_mode="fixed_common", seed=1), schedule)
            high = model.score_spec(
                PatternSpec(family="block_rowcol", n_dim=n, level=6,
                            value_mode="fixed_common", seed=1), schedule)
            assert high.score_per_flop > low.score_per_flop, lanes

    _report(capsys, 5, "toggle scores order fixed < block patterns < random "
                       "at N=64, lanes 1 and 4", body)


def test_criterion_6_determinism_and_round_trips(capsys, tmp_path):
    def body():
        spec = PatternSpec(family="sparse_diagonal", n_dim=64, level=3, seed=9)
        first, second = generate(spec), generate(spec)
        assert np.array_equal(first.a.view(np.uint64), second.a.view(np.uint64))
        assert np.array_equal(first.b.view(np.uint64), second.b.view(np.uint64))

        timeline = fixtures.constant_timeline(321.0)
        assert telemetry.timeline_to_text(
            telemetry.timeline_from_text(telemetry.timeline_to_text(timeline))
        ) == telemetry.timeline_to_text(timeline)

        m = ExperimentManifest(config=GemmConfig(spec, warmup_seconds=0.0),
                               out_dir=str(tmp_path / "out"))
        assert manifest_to_text(manifest_from_text(manifest_to_text(m))) \
            == manifest_to_text(m)

        tl_path = tmp_path / "recorded.csv"
        telemetry.write_timeline(timeline, tl_path)
        import dataclasses

        write_file(tmp_path / "m.ini",
                   manifest_to_text(dataclasses.replace(m, sources=(f"replay:{tl_path}",))))
        assert main(["--manifest", str(tmp_path / "m.ini"), "run"]) == 0
        assert main(["--out", str(tmp_path / "rp"), "replay",
                     str(tmp_path / "out")]) == 0
        run_summary = (tmp_path / "out" / "summary.csv").read_text()
        replay_summary = (tmp_path / "rp" / "summary.csv").read_text()
        assert replay_summary == run_summary

    _report(capsys, 6, "bit-identical generation; byte-identical round-trips; "
                       "replay of a run matches the run", body)


def test_criterion_7_protocol_conformance_via_replay(capsys, tmp_path):
    def body():
        tl_path = tmp_path / "recorded.csv"
        telemetry.write_timeline(fixtures.constant_timeline(300.0), tl_path)
        m = ExperimentManifest(
            config=GemmConfig(PatternSpec(family="baseline_fixed", n_dim=16),
                              warmup_seconds=0.05),  # exercised, kept short for CI
            sources=(f"replay:{tl_path}",),
            repetitions_per_node=3,
            out_dir=str(tmp_path / "out"),
        )
        assert m.config.reps == 100        # protocol default
        assert m.interval_ms == 100.0      # protocol default
        write_file(tmp_path / "m.ini", manifest_to_text(m))
        assert main(["--manifest", str(tmp_path / "m.ini"), "run"]) == 0

        means = []
        for rep in range(3):
            run_dir = tmp_path / "out" / f"run-{rep:03d}"
            record = records.read_record(run_dir / "record.csv")
            assert record.config.reps == 100
            assert record.warmup_iterations >= 1
            assert record.warmup_seconds >= 0.05
            timeline = telemetry.read_timeline(
                run_dir / "timeline-replay-0.csv")
            assert timeline.interval_ms == 100.0
            means.append(analysis.steady_state_window(timeline, record).mean_w)

        agg = analysis.aggregate_runs({"node-a": means})
        assert agg.grand_mean == pytest.approx(300.0)
        assert not agg.spread_warning
        # the cross-node spread check trips above 2%
        assert analysis.aggregate_runs({"a": [398.0], "b": [406.0]}).spread_warning
        assert not analysis.aggregate_runs({"a": [398.0], "b": [405.0]}).spread_warning

    _report(capsys, 7, "measured protocol: warm-up, 100 reps, 100 ms sampling, "
                       "mean-of-3 with 2% spread check", body)
