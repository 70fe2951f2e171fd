import dataclasses
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrobench import fixtures
from entrobench.analysis import (
    MIN_WINDOW_SAMPLES,
    TRIM_FRACTION,
    PowerStats,
    aggregate_runs,
    percent_increase,
    pj_per_flop,
    steady_state_window,
    tdp_fraction,
)
from entrobench.errors import ConfigError, InsufficientDataError
from entrobench.patterns import PatternSpec
from entrobench.telemetry import Timeline


def ramp_timeline(values, interval_ms=100.0):
    t_ms = tuple(i * interval_ms for i in range(len(values)))
    return Timeline(t_ms, tuple(values), source="t", interval_ms=interval_ms)


def make_record(last_ms):
    spec = PatternSpec(family="baseline_fixed", n_dim=4)
    timeline = fixtures.constant_timeline(1.0, count=2)
    record = fixtures.fixture_record(spec, 1e12, timeline)
    return dataclasses.replace(record, measured_start_ms=0.0, measured_end_ms=last_ms)


def test_steady_state_trims_edges():
    # 20 samples at 100 ms; 5% trim of [0, 1900] keeps t in [95, 1805]:
    # samples 1..18, dropping the ramp values at both edges
    values = [0.0] + [300.0] * 18 + [9000.0]
    stats = steady_state_window(ramp_timeline(values), make_record(1900.0))
    assert stats.sample_count == 18
    assert stats.mean_w == 300.0


def test_steady_state_trim_is_fixed_at_five_percent():
    # 12 samples at 100 ms; 5% of [0, 1100] is 55 ms at each end, which drops
    # exactly the first and the last sample
    assert TRIM_FRACTION == 0.05
    values = [9000.0] + [100.0] * 10 + [0.0]
    stats = steady_state_window(ramp_timeline(values), make_record(1100.0))
    assert (stats.mean_w, stats.sample_count) == (100.0, 10)


def test_steady_state_insufficient_samples():
    with pytest.raises(InsufficientDataError):
        steady_state_window(ramp_timeline([1.0] * 5), make_record(400.0))


def test_steady_state_rejects_bad_inputs():
    with pytest.raises(InsufficientDataError):
        steady_state_window(ramp_timeline([1.0] * 12), make_record(0.0))


@pytest.mark.parametrize("start,end", [(float("nan"), 1900.0), (0.0, float("nan")),
                                       (float("nan"), float("nan"))])
def test_steady_state_refuses_a_nan_window(start, end):
    # RunRecord itself refuses nan, so a stand-in carries the window
    record = types.SimpleNamespace(measured_start_ms=start, measured_end_ms=end)
    with pytest.raises(InsufficientDataError, match="degenerate measured window"):
        steady_state_window(ramp_timeline([300.0] * 20), record)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_window_slice_equals_the_samples_between_the_trimmed_bounds(data):
    start = data.draw(st.floats(-100.0, 500.0))
    end = start + data.draw(st.floats(1.0, 1000.0))
    span = end - start
    lo, hi = start + TRIM_FRACTION * span, end - TRIM_FRACTION * span
    times = data.draw(st.lists(st.floats(0.0, 1200.0), max_size=30))
    first, steps = max(lo, 0.0), data.draw(st.integers(1, 30))
    grid = [first + (hi - first) * i / steps for i in range(steps)]
    t_ms = sorted({*times, *(t for t in (*grid, lo, hi) if t >= 0.0)})  # samples on lo and hi
    watts = data.draw(st.lists(st.floats(0.0, 1e4), min_size=len(t_ms), max_size=len(t_ms)))
    record = dataclasses.replace(make_record(1.0), measured_start_ms=start, measured_end_ms=end)
    inside = [w for t, w in zip(t_ms, watts) if lo <= t <= hi]
    timeline = Timeline(tuple(t_ms), tuple(watts))
    if len(inside) < MIN_WINDOW_SAMPLES:
        with pytest.raises(InsufficientDataError):
            steady_state_window(timeline, record)
    else:
        assert steady_state_window(timeline, record) == PowerStats(
            sum(inside) / len(inside), len(inside))


def test_headline_metric_values():
    assert percent_increase(398.2, 238.5) == pytest.approx(66.96, abs=0.005)
    assert percent_increase(188.4, 157.7) == pytest.approx(19.47, abs=0.005)
    # headline pJ/FLOP uses the rounded 159 W delta
    assert pj_per_flop(159.0, 19.4e12) == pytest.approx(8.196, abs=5e-4)
    assert pj_per_flop(188.4 - 157.7, 2.0e12) == pytest.approx(15.35, abs=5e-3)
    assert tdp_fraction(398.2, 400.0) == pytest.approx(0.9955)
    assert tdp_fraction(188.4, 280.0) == pytest.approx(0.673, abs=5e-4)


def test_metric_error_handling():
    with pytest.raises(ConfigError):
        percent_increase(100.0, 0.0)
    with pytest.raises(ConfigError):
        pj_per_flop(10.0, 0.0)
    with pytest.raises(ConfigError):
        tdp_fraction(100.0, -1.0)


@settings(max_examples=50, deadline=None)
@given(
    hi=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    lo=st.floats(min_value=1e-3, max_value=1e4, allow_nan=False),
    scale=st.floats(min_value=0.5, max_value=4.0, allow_nan=False),
)
def test_percent_increase_scale_invariant(hi, lo, scale):
    # the ratio metric is homogeneous of degree zero in the watt unit
    assert percent_increase(hi * scale, lo * scale) == pytest.approx(
        percent_increase(hi, lo), rel=1e-9, abs=1e-9
    )
    if hi >= lo:
        assert percent_increase(hi, lo) >= 0.0


def test_aggregate_example():
    result = aggregate_runs({"nid001": [397.0], "nid002": [398.0],
                             "nid003": [399.0]})
    assert result.grand_mean == 398.0
    assert result.max_spread == pytest.approx(2.0 / 397.0)
    assert not result.spread_warning


def test_aggregate_spread_warning():
    result = aggregate_runs({"a": [398.0], "b": [406.0]})
    assert result.max_spread == pytest.approx(8.0 / 398.0)  # just over 2%
    assert result.spread_warning


def test_aggregate_skips_nodes_without_runs():
    result = aggregate_runs({"a": [250.0, 252.0], "b": []})
    assert result.node_means == {"a": 251.0}
    assert result.grand_mean == 251.0
    assert result.max_spread == 0.0


def test_aggregate_rejects_empty():
    with pytest.raises(InsufficientDataError):
        aggregate_runs({})
    with pytest.raises(InsufficientDataError):
        aggregate_runs({"a": []})


def test_fixture_timelines_reproduce_recorded_means():
    for name, spec, record, timeline in fixtures.iter_fixture_runs():
        stats = steady_state_window(timeline, record)
        if spec.is_baseline:
            expected, _ = fixtures.GPU_BASELINES[spec.family]
        else:
            expected = fixtures.POWER_SWEEPS_W[(spec.family, spec.value_mode)][spec.level]
        assert stats.mean_w == pytest.approx(expected, rel=1e-12), name


def test_fixture_headline_chain():
    from entrobench.patterns import Family

    random_w, random_rate = fixtures.GPU_BASELINES[Family.BASELINE_RANDOM]
    fixed_w, fixed_rate = fixtures.GPU_BASELINES[Family.BASELINE_FIXED]
    assert percent_increase(random_w, fixed_w) == pytest.approx(66.96, abs=0.005)
    assert random_w - fixed_w == pytest.approx(159.0, abs=1.0)
    assert pj_per_flop(159.0, fixed_rate) == pytest.approx(8.196, abs=5e-4)
    assert random_rate == 18.6e12
