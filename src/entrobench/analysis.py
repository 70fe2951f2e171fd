"""Reductions from timelines and run records to power/efficiency metrics.

Steady-state means are computed over the measured phase with a fixed
symmetric 5% head/tail trim: startup/shutdown ramps and inter-GEMM dips at
the window edges would otherwise bias the mean.  Derived metrics
are percent increase over a baseline, TDP fraction, and the pJ/FLOP upper
bound (power delta divided by FLOP rate).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import ConfigError, InsufficientDataError
from .spec import RunRecord
from .telemetry import Timeline

TRIM_FRACTION = 0.05
MIN_WINDOW_SAMPLES = 10
NODE_SPREAD_WARN_FRACTION = 0.02


@dataclass(frozen=True)
class PowerStats:
    mean_w: float
    sample_count: int


@dataclass(frozen=True)
class AggregateResult:
    node_means: dict
    grand_mean: float
    max_spread: float  # (max node mean - min node mean) / min node mean
    spread_warning: bool


def steady_state_window(timeline: Timeline, record: RunRecord) -> PowerStats:
    """Stats over the measured phase, trimmed by TRIM_FRACTION of its span at both ends."""
    start, end = record.measured_start_ms, record.measured_end_ms
    if not start < end:  # a nan bound would otherwise open the window to every sample
        raise InsufficientDataError(f"degenerate measured window [{start}, {end}]")
    span = end - start
    lo = start + TRIM_FRACTION * span
    hi = end - TRIM_FRACTION * span
    t_ms = timeline.t_ms  # strictly increasing, so the window is one slice
    watts = timeline.watts[bisect_left(t_ms, lo):bisect_right(t_ms, hi)]
    if len(watts) < MIN_WINDOW_SAMPLES:
        raise InsufficientDataError(
            f"only {len(watts)} samples in window [{lo:.1f}, {hi:.1f}] ms; "
            f"need {MIN_WINDOW_SAMPLES}"
        )
    return PowerStats(mean_w=sum(watts) / len(watts), sample_count=len(watts))


def percent_increase(p_hi_w: float, p_lo_w: float) -> float:
    """100 * (p_hi - p_lo) / p_lo."""
    if p_lo_w <= 0:
        raise ConfigError(f"baseline power must be positive, got {p_lo_w}")
    return 100.0 * (p_hi_w - p_lo_w) / p_lo_w


def pj_per_flop(delta_watts: float, flop_rate: float) -> float:
    """Picojoules per FLOP implied by a power delta at a FLOP rate."""
    if flop_rate <= 0:
        raise ConfigError(f"flop_rate must be positive, got {flop_rate}")
    return 1e12 * delta_watts / flop_rate


def tdp_fraction(mean_w: float, tdp_w: float) -> float:
    if tdp_w <= 0:
        raise ConfigError(f"tdp_w must be positive, got {tdp_w}")
    return mean_w / tdp_w


def aggregate_runs(means_by_node) -> AggregateResult:
    """Per-node means of repetition means, plus cross-node spread.

    Accepts {node_id: [mean watts, ...]}.  Spread above 2%
    raises only a warning flag; the aggregation itself never fails on
    spread.
    """
    if not means_by_node or not any(means_by_node.values()):
        raise InsufficientDataError("aggregate_runs needs at least one run")
    node_means = {node: sum(runs) / len(runs) for node, runs in means_by_node.items() if runs}
    grand = sum(node_means.values()) / len(node_means)
    lo, hi = min(node_means.values()), max(node_means.values())
    spread = (hi - lo) / lo if lo > 0 else 0.0
    return AggregateResult(
        node_means=node_means,
        grand_mean=grand,
        max_spread=spread,
        spread_warning=spread > NODE_SPREAD_WARN_FRACTION,
    )

