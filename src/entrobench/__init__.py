"""Input-entropy power benchmarking toolkit for DGEMM workloads.

Generates entropy-controlled input matrices, runs power-instrumented GEMM
experiments, models dynamic switching activity at the bit level, and
reduces power timelines to steady-state means, percent deltas, TDP
fractions, and pJ/FLOP estimates.
"""

from .analysis import (
    PowerStats,
    aggregate_runs,
    percent_increase,
    pj_per_flop,
    steady_state_window,
    tdp_fraction,
)
from .gemm import GemmConfig, RunRecord, flop_count, reference_gemm, run_experiment
from .model import (
    FmaStream,
    Schedule,
    ToggleReport,
    operand_stream,
    predict_ordering,
    toggle_score,
)
from .patterns import (
    Family,
    MatrixPair,
    PatternSpec,
    ValueMode,
    generate,
    masks,
    random_fraction,
)
from .telemetry import (
    PowerSample,
    Timeline,
    parse_pm_counters,
    read_timeline,
    sample_loop,
    write_timeline,
)

__version__ = "0.1.0"
