import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrobench import fixtures
from entrobench.analysis import (
    aggregate_runs,
    percent_increase,
    pj_per_flop,
    steady_state_window,
    tdp_fraction,
)
from entrobench.errors import ConfigError, InsufficientDataError
from entrobench.patterns import PatternSpec
from entrobench.telemetry import PowerSample, Timeline


def ramp_timeline(values, interval_ms=100.0):
    samples = tuple(
        PowerSample(t_ms=i * interval_ms, watts=w)
        for i, w in enumerate(values)
    )
    return Timeline(samples=samples, source="t", interval_ms=interval_ms)


def make_record(last_ms):
    spec = PatternSpec(family="baseline_fixed", n_dim=4)
    timeline = fixtures.constant_timeline(1.0, count=2)
    record = fixtures.fixture_record(spec, 1e12, timeline)
    from dataclasses import replace

    return replace(record, measured_start_ms=0.0, measured_end_ms=last_ms)


def test_steady_state_trims_edges():
    # 20 samples at 100 ms; 5% trim of [0, 1900] keeps t in [95, 1805]:
    # samples 1..18, dropping the ramp values at both edges
    values = [0.0] + [300.0] * 18 + [9000.0]
    stats = steady_state_window(ramp_timeline(values), make_record(1900.0))
    assert stats.sample_count == 18
    assert stats.mean_w == 300.0
    assert stats.window == (95.0, 1805.0)


def test_steady_state_zero_trim_keeps_all():
    values = [100.0] * 12
    stats = steady_state_window(ramp_timeline(values), make_record(1100.0),
                                trim_fraction=0.0)
    assert stats.sample_count == 12
    assert (stats.min_w, stats.max_w) == (100.0, 100.0)


def test_steady_state_insufficient_samples():
    with pytest.raises(InsufficientDataError):
        steady_state_window(ramp_timeline([1.0] * 5), make_record(400.0))


def test_steady_state_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        steady_state_window(ramp_timeline([1.0] * 12), make_record(1100.0),
                            trim_fraction=0.5)
    with pytest.raises(InsufficientDataError):
        steady_state_window(ramp_timeline([1.0] * 12), make_record(0.0))


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
