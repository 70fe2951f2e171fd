"""Input-entropy power benchmarking toolkit for DGEMM workloads.

Generates entropy-controlled input matrices, runs power-instrumented GEMM
experiments, models dynamic switching activity at the bit level, and
reduces power timelines to steady-state means, percent deltas, TDP
fractions, and pJ/FLOP estimates.
"""

__version__ = "0.1.0"
