"""Published measurement series embedded as replayable fixtures.

These are the recorded A100 sweep curves (mean watts per level for each
pattern family and value mode, 16K matrices) plus the headline GPU
reference numbers.  They let the full analysis pipeline run at desk scale:
each point is materialized as a constant-power timeline whose steady-state
mean reproduces the recorded wattage exactly.
"""

from __future__ import annotations

import functools

from .spec import (
    FIXED_INPUT_W,
    RANDOM_INPUT_W,
    Family,
    GemmConfig,
    PatternSpec,
    RunRecord,
    ValueMode,
    flop_count,
)
from .telemetry import Timeline

GPU_FLOP_RATE_RANDOM = 18.6e12
GPU_FLOP_RATE_FIXED = 19.4e12
GPU_N_DIM = 16384
GPU_REPS = 100

# Mean power [W] per level n = 0..14, one tuple per (family, value_mode).
POWER_SWEEPS_W = {
    (Family.BLOCK_ROWCOL, ValueMode.INDEPENDENT): (
        397.7619797979798, 367.05400039018855, 366.4409515474556,
        368.4516669624022, 369.9570964360587, 369.328523712047,
        368.5147659922209, 369.4372450052578, 367.0423095186136,
        367.4017505241091, 367.98909914946313, 373.39964552374505,
        373.71134291325006, 378.5723911605791, 390.8911433683268,
    ),
    (Family.BLOCK_ROWCOL, ValueMode.FIXED_COMMON): (
        256.96765509989467, 256.5506769107657, 253.14830918112511,
        255.25163117840728, 255.07423322032398, 255.19309655547588,
        255.4943248417754, 256.27922646800124, 256.6016067165895,
        257.3227672955973, 257.998135782023, 264.6394200626958,
        268.9404685898325, 280.92651991614247, 304.56256674536576,
    ),
    (Family.BLOCK_DIAGONAL, ValueMode.INDEPENDENT): (
        398.4254609929078, 334.67878558815977, 337.6056924681323,
        339.6100446526389, 339.8847949857482, 339.9311481025888,
        338.92486005491673, 338.899019767342, 339.51660879346235,
        340.7514405888537, 345.1066183097152, 353.3892522410718,
        353.6164657139825, 389.9899794299534, 397.89062379309604,
    ),
    (Family.BLOCK_DIAGONAL, ValueMode.FIXED_COMMON): (
        256.69062329678843, 253.12879146047348, 252.40521585923398,
        253.53782095125783, 254.2340077961218, 254.22988203439726,
        255.74747448459865, 255.5148696792254, 255.54490493290726,
        259.16483565958896, 264.96845921807557, 279.92750271090875,
        281.49524446296186, 346.7355832687596, 395.4594016821138,
    ),
    (Family.SPARSE_ROWCOL, ValueMode.INDEPENDENT): (
        271.95153625249674, 272.3092848164171, 272.49049590302155,
        275.94117770767616, 270.17193421183987, 270.18522544954357,
        269.845251572327, 271.2928696494026, 272.5724791506477,
        275.02801094067405, 280.6385570396647, 294.37294496141664,
        317.4964257035553, 367.4591140944076, 398.29110321023455,
    ),
    (Family.SPARSE_ROWCOL, ValueMode.FIXED_COMMON): (
        239.34223911200488, 239.6075017033542, 239.82366771159877,
        240.1326752822613, 237.88757381886526, 237.76539979146534,
        237.67900843174752, 238.81389089331807, 238.74597403983432,
        239.55906082569587, 241.5773914605643, 244.4184259971215,
        250.61876593911617, 256.6217770784863, 256.2804638118332,
    ),
    (Family.SPARSE_DIAGONAL, ValueMode.INDEPENDENT): (
        225.8550933022161, 226.13175604626704, 226.31965226937555,
        226.449395845245, 226.80720284081875, 226.7399833402338,
        227.59352750011487, 229.45069973952937, 232.5979337289616,
        239.3360236415881, 252.48740055031453, 276.4483762447591,
        320.11632055568833, 398.298434239159, 398.5338000407737,
    ),
    (Family.SPARSE_DIAGONAL, ValueMode.FIXED_COMMON): (
        225.57733926103603, 225.73500251307792, 225.55118662224064,
        225.9628940769045, 226.1342251191032, 227.21047318611977,
        228.35011308013534, 229.03404094601686, 232.6805861148898,
        240.2681453196742, 254.5054334182524, 278.804199750015,
        319.8487721630325, 394.48046162560144, 256.6622386211853,
    ),
}

# GPU headline baselines (timeline means and performance).
GPU_BASELINES = {
    Family.BASELINE_RANDOM: (RANDOM_INPUT_W, GPU_FLOP_RATE_RANDOM),
    Family.BASELINE_FIXED: (FIXED_INPUT_W, GPU_FLOP_RATE_FIXED),
}

FIXTURE_SAMPLE_COUNT = 20
FIXTURE_INTERVAL_MS = 100.0


def constant_timeline(mean_w: float, count: int = FIXTURE_SAMPLE_COUNT,
                      interval_ms: float = FIXTURE_INTERVAL_MS) -> Timeline:
    """Constant-power timeline whose trimmed-window mean is exactly mean_w."""
    return Timeline(_sample_times(count, interval_ms), (mean_w,) * count,
                    source="fixture", interval_ms=interval_ms)


@functools.lru_cache(maxsize=None, typed=True)
def _sample_times(count: int, interval_ms: float) -> tuple:
    """t_ms of every fixture timeline with this count and interval, built once."""
    return tuple(i * interval_ms for i in range(count))


def fixture_record(spec: PatternSpec, flop_rate: float, timeline: Timeline) -> RunRecord:
    """RunRecord provenance shell for a recorded fixture timeline."""
    config = GemmConfig(pattern=spec, reps=GPU_REPS, backend_id="external",
                        warmup_seconds=0.0)
    total = flop_count(spec.n_dim, GPU_REPS)
    last = timeline.t_ms[-1] if timeline.t_ms else 0.0
    return RunRecord(
        config=config,
        warmup_seconds=0.0,
        warmup_iterations=0,
        measured_seconds=total / flop_rate,
        total_flops=total,
        flop_rate=flop_rate,
        checksum=0.0,
        checksum_bits="0" * 16,
        timeline_ids=(f"{timeline.source}-0",),
        node_id="recorded",
        run_index=0,
        measured_start_ms=0.0,
        measured_end_ms=last,
    )


def iter_fixture_runs():
    """Yield (name, spec, record, timeline) for every embedded fixture point."""
    for (family, mode), watts_by_level in sorted(
        POWER_SWEEPS_W.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)
    ):
        for level, watts in enumerate(watts_by_level):
            spec = PatternSpec(family=family, n_dim=GPU_N_DIM, level=level,
                               value_mode=mode, seed=0)
            timeline = constant_timeline(watts)
            name = f"rec-{family.value}-{mode.value}-L{level:02d}"
            yield name, spec, fixture_record(spec, GPU_FLOP_RATE_RANDOM, timeline), timeline
    for family, (watts, rate) in sorted(
        GPU_BASELINES.items(), key=lambda kv: kv[0].value
    ):
        spec = PatternSpec(family=family, n_dim=GPU_N_DIM, seed=0)
        timeline = constant_timeline(watts)
        name = f"rec-{family.value}"
        yield name, spec, fixture_record(spec, rate, timeline), timeline
