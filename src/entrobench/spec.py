"""What a run is: its pattern, its GEMM settings and its record.

These types are kept apart from the code that executes them, so that
manifests, records and timelines are read and written without numpy.
The text codec those files share (encode, decode_list) and the defaults a
manifest takes (sampling interval, TDP and baseline watts) live here too,
so that loading a manifest imports nothing else of the toolkit.
A PatternSpec is a family (two baselines plus four structured families),
a power-of-two dimension N, a level n selecting how finely the random
region is divided (0 <= n <= log2 N), and a value mode: independently
drawn random cells or one shared constant.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass

from .errors import ConfigError, FormatError

# Splitting constant so A and B get decorrelated streams from one user seed.
SEED_SPLIT = 0x9E3779B97F4A7C15

_U64 = 1 << 64

# A manifest's defaults: the sampling interval, and the A100's TDP and the
# recorded watts of its random-input and fixed-input baselines (fixtures).
DEFAULT_INTERVAL_MS = 100.0
TDP_W = 400.0
RANDOM_INPUT_W = 398.2
FIXED_INPUT_W = 238.5


class Family(str, enum.Enum):
    BASELINE_RANDOM = "baseline_random"
    BASELINE_FIXED = "baseline_fixed"
    BLOCK_ROWCOL = "block_rowcol"
    BLOCK_DIAGONAL = "block_diagonal"
    SPARSE_ROWCOL = "sparse_rowcol"
    SPARSE_DIAGONAL = "sparse_diagonal"


class ValueMode(str, enum.Enum):
    INDEPENDENT = "independent"
    FIXED_COMMON = "fixed_common"


BASELINE_FAMILIES = frozenset({Family.BASELINE_RANDOM, Family.BASELINE_FIXED})
PATTERN_FAMILIES = tuple(f for f in Family if f not in BASELINE_FAMILIES)

# Fixed-input operand values (the low-entropy reference workload).
FIXED_A_VALUE = 2.0
FIXED_B_VALUE = 0.5
FIXED_C_INIT = 1.0


def _log2_int(n: int) -> int:
    if n < 2 or n & (n - 1):
        raise ConfigError(f"n_dim must be a power of two >= 2, got {n}")
    return n.bit_length() - 1


@dataclass(frozen=True)
class PatternSpec:
    """Declarative description of one input-matrix entropy pattern."""

    family: Family
    n_dim: int
    level: int = 0
    value_mode: ValueMode = ValueMode.INDEPENDENT
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        object.__setattr__(self, "value_mode", ValueMode(self.value_mode))
        max_level = _log2_int(self.n_dim)
        if not 0 <= self.level <= max_level:
            raise ConfigError(
                f"level must be in [0, {max_level}] for n_dim={self.n_dim}, "
                f"got {self.level}"
            )
        # A baseline's matrices have no level or value mode, so a record must not claim one.
        if self.is_baseline and (self.level or self.value_mode is not ValueMode.INDEPENDENT):
            raise ConfigError(
                f"{self.family.value} takes level 0 and value_mode independent, "
                f"got level {self.level} and value_mode {self.value_mode.value}")
        if not 0 <= self.seed < _U64:
            raise ConfigError(f"seed must be an unsigned 64-bit value, got {self.seed}")

    @property
    def max_level(self) -> int:
        return _log2_int(self.n_dim)

    @property
    def is_baseline(self) -> bool:
        return self.family in BASELINE_FAMILIES


DEFAULT_REPS = 100
DEFAULT_WARMUP_SECONDS = 60.0


@dataclass(frozen=True)
class GemmConfig:
    pattern: PatternSpec
    reps: int = DEFAULT_REPS
    alpha: float = 1.0
    beta: float = 1.0
    backend_id: str = "reference"
    warmup_seconds: float = DEFAULT_WARMUP_SECONDS

    def __post_init__(self):
        if self.reps < 1:
            raise ConfigError(f"reps must be >= 1, got {self.reps}")
        # inf would never end the warm-up loop, and nan would silently skip it.
        if not 0 <= self.warmup_seconds < math.inf:
            raise ConfigError(
                f"warmup_seconds must be nonnegative and finite, got {self.warmup_seconds}")

    @property
    def n_dim(self) -> int:
        return self.pattern.n_dim


@dataclass(frozen=True)
class RunRecord:
    """Provenance for one experiment: timings, FLOP accounting, checksum."""

    config: GemmConfig
    warmup_seconds: float
    warmup_iterations: int
    measured_seconds: float
    total_flops: int
    flop_rate: float
    checksum: float
    checksum_bits: str
    timeline_ids: tuple[str, ...] = ()
    node_id: str = "local"
    run_index: int = 0
    # Measured-phase window in the time frame of the first attached timeline.
    measured_start_ms: float = 0.0
    measured_end_ms: float = 0.0
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        # Values no run measures (its measured time is floored at 1 ns); also rejects nan.
        for name in ("flop_rate", "measured_seconds"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not 0 <= self.warmup_seconds < math.inf:
            raise ConfigError(
                f"warmup_seconds must be nonnegative and finite, got {self.warmup_seconds}")
        # A live window may start before the sampler's epoch: only non-finite bounds are refused.
        for name in ("measured_start_ms", "measured_end_ms"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class Schedule:
    """Lane multiplexing model: interleaved logical threads per FMA port.

    `lanes` threads round-robin on one port, each owning one output cell of
    a tile of `lanes` cells; tiles are traversed row-major with the k-loop
    inside.  This is a declared model of warp/SMT time multiplexing, not a
    claim about any vendor kernel's real schedule.  `lanes` is a power of
    two, as N is, so that the tile divides N whenever lanes <= N^2.
    """

    lanes: int = 1

    def __post_init__(self):
        if self.lanes < 1 or self.lanes & (self.lanes - 1):
            raise ConfigError(f"lanes must be a power of two, got {self.lanes}")

    @property
    def tile(self) -> tuple[int, int]:
        """The most square (tm, tn) tile of `lanes` cells: tn = tm or 2 * tm.

        A square footprint avoids degenerate operand sharing (a 1xL tile
        reads the same A element on every lane of a cycle, which suppresses
        A-word toggles for high-entropy inputs and skews comparisons across
        patterns).
        """
        tm = 1 << (self.lanes.bit_length() - 1) // 2
        return tm, self.lanes // tm


def flop_count(n_dim: int, reps: int) -> int:
    """reps * 2 * N^3; the alpha/beta 3N^2 term is excluded by convention."""
    if n_dim < 1 or reps < 1:
        raise ConfigError("n_dim and reps must be positive")
    return reps * 2 * n_dim ** 3


def encode(value, sep: str) -> str:
    """A field as text: repr for floats, an enum's value, sep-joined tuples, "" for None."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return sep.join(value)
    return "" if value is None else str(value)


def decode_list(sep: str, item=str):
    """Decoder for a tuple that encode joined with sep; empty items are dropped."""
    return lambda text: tuple(item(s) for s in text.split(sep) if s)


def write_file(path, data) -> None:
    """Write data (bytes-like, or str as UTF-8) to path, rewriting a file in place.

    Every file the toolkit writes goes through here.  An existing file is
    overwritten and then cut to the new length, never truncated first:
    truncating frees the file's blocks, which on a file system mounted with
    `discard` is a synchronous device command per file.  A directory at path is a ConfigError.
    """
    view = memoryview(data.encode("utf-8") if isinstance(data, str) else data).cast("B")
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    except IsADirectoryError as exc:
        raise ConfigError(f"output path {path} is a directory") from exc
    try:
        written = 0
        while written < view.nbytes:  # os.write may write less than asked
            written += os.write(fd, view[written:])
        os.ftruncate(fd, view.nbytes)
    finally:
        os.close(fd)


def read_text(path) -> str:
    """The UTF-8 text of the file at path, its line ends kept as written.

    Every text file the toolkit reads goes through here.  The file is read
    as bytes and decoded whole; bytes that are not UTF-8 are a FormatError
    that names the file.  Errors opening or reading the file propagate as
    OSError, for the caller to say what the file was.
    """
    with open(path, "rb", buffering=0) as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc
