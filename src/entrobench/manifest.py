"""Experiment manifests: flat, diffable key/value documents.

A manifest is a single INI-style text file with one section per module
(pattern, gemm, telemetry, analysis, optional sweep and model) plus an
[experiment] section carrying schema version and provenance labels.  The
canonical serialization is deterministic, so manifests round-trip
byte-identically and can be archived next to their outputs.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, field

from . import fixtures
from .errors import ConfigError
from .gemm import DEFAULT_REPS, DEFAULT_WARMUP_SECONDS, GemmConfig
from .patterns import Family, PatternSpec, ValueMode
from .telemetry import DEFAULT_INTERVAL_MS

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SweepPlan:
    level_min: int = 0
    level_max: int | None = None  # None = log2(n_dim)
    value_modes: tuple[str, ...] = ("independent", "fixed_common")


@dataclass(frozen=True)
class ModelPlan:
    lanes: int = 1
    tile_m: int = 1
    tile_n: int = 1
    w_mul: float = 1.0
    w_acc: float = 1.0
    # Run-time guard: scoring costs ~N^3 port cycles per spec, while memory
    # stays O(N^2) plus about two blocks.
    max_n_dim: int = 1024


@dataclass(frozen=True)
class ExperimentManifest:
    pattern: PatternSpec
    reps: int = DEFAULT_REPS
    alpha: float = 1.0
    beta: float = 1.0
    backend_id: str = "reference"
    warmup_seconds: float = DEFAULT_WARMUP_SECONDS
    sources: tuple[str, ...] = ()
    interval_ms: float = DEFAULT_INTERVAL_MS
    tdp_w: float = fixtures.TDP_W
    baseline_random_w: float = fixtures.RANDOM_INPUT_W
    baseline_fixed_w: float = fixtures.FIXED_INPUT_W
    trim_fraction: float = 0.05
    node_id: str = "local"
    repetitions_per_node: int = 1
    out_dir: str = "out"
    sweep: SweepPlan | None = None
    model: ModelPlan = field(default_factory=ModelPlan)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(
                f"unrecognized manifest schema_version {self.schema_version}; "
                f"this build reads version {SCHEMA_VERSION}"
            )
        if self.tdp_w <= 0:
            raise ConfigError(f"tdp_w must be positive, got {self.tdp_w}")
        if self.repetitions_per_node < 1:
            raise ConfigError("repetitions_per_node must be >= 1")

    def gemm_config(self) -> GemmConfig:
        return GemmConfig(
            pattern=self.pattern,
            reps=self.reps,
            alpha=self.alpha,
            beta=self.beta,
            backend_id=self.backend_id,
            warmup_seconds=self.warmup_seconds,
        )

    def sweep_levels(self) -> range:
        plan = self.sweep or SweepPlan()
        hi = plan.level_max if plan.level_max is not None else self.pattern.max_level
        if not 0 <= plan.level_min <= hi <= self.pattern.max_level:
            raise ConfigError(
                f"sweep range [{plan.level_min}, {hi}] invalid for "
                f"n_dim={self.pattern.n_dim}"
            )
        return range(plan.level_min, hi + 1)


def manifest_to_text(m: ExperimentManifest) -> str:
    cp = configparser.ConfigParser()
    cp["experiment"] = {
        "schema_version": str(m.schema_version),
        "node": m.node_id,
        "repetitions": str(m.repetitions_per_node),
        "out": m.out_dir,
    }
    cp["pattern"] = {
        "family": m.pattern.family.value,
        "n": str(m.pattern.n_dim),
        "level": str(m.pattern.level),
        "value_mode": m.pattern.value_mode.value,
        "seed": str(m.pattern.seed),
    }
    cp["gemm"] = {
        "reps": str(m.reps),
        "alpha": repr(m.alpha),
        "beta": repr(m.beta),
        "backend": m.backend_id,
        "warmup_seconds": repr(m.warmup_seconds),
    }
    cp["telemetry"] = {
        "sources": ",".join(m.sources),
        "interval_ms": repr(m.interval_ms),
    }
    cp["analysis"] = {
        "tdp_w": repr(m.tdp_w),
        "baseline_random_w": repr(m.baseline_random_w),
        "baseline_fixed_w": repr(m.baseline_fixed_w),
        "trim_fraction": repr(m.trim_fraction),
    }
    if m.sweep is not None:
        cp["sweep"] = {
            "level_min": str(m.sweep.level_min),
            "level_max": "" if m.sweep.level_max is None else str(m.sweep.level_max),
            "value_modes": ",".join(m.sweep.value_modes),
        }
    cp["model"] = {
        "lanes": str(m.model.lanes),
        "tile_m": str(m.model.tile_m),
        "tile_n": str(m.model.tile_n),
        "w_mul": repr(m.model.w_mul),
        "w_acc": repr(m.model.w_acc),
        "max_n_dim": str(m.model.max_n_dim),
    }
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def manifest_from_text(text: str) -> ExperimentManifest:
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable manifest: {exc}") from exc

    def get(section, key, default=None, convert=str):
        if cp.has_option(section, key):
            value = cp.get(section, key)
        elif default is None:
            raise ConfigError(f"manifest missing [{section}] {key}")
        else:
            value = default
        try:
            return convert(value)
        except ValueError as exc:
            raise ConfigError(f"bad manifest value [{section}] {key}: {exc}") from exc

    pattern = PatternSpec(
        family=get("pattern", "family", convert=Family),
        n_dim=get("pattern", "n", convert=int),
        level=get("pattern", "level", "0", int),
        value_mode=get("pattern", "value_mode", "independent", ValueMode),
        seed=get("pattern", "seed", "0", int),
    )

    sweep = None
    if cp.has_section("sweep"):
        sweep = SweepPlan(
            level_min=get("sweep", "level_min", "0", int),
            level_max=get("sweep", "level_max", "", lambda t: int(t) if t else None),
            value_modes=get("sweep", "value_modes", "independent,fixed_common",
                            lambda t: tuple(ValueMode(s).value for s in t.split(",") if s)),
        )

    model = ModelPlan(
        lanes=get("model", "lanes", "1", int),
        tile_m=get("model", "tile_m", "1", int),
        tile_n=get("model", "tile_n", "1", int),
        w_mul=get("model", "w_mul", "1.0", float),
        w_acc=get("model", "w_acc", "1.0", float),
        max_n_dim=get("model", "max_n_dim", "1024", int),
    )

    sources = tuple(s for s in get("telemetry", "sources", "").split(",") if s)
    return ExperimentManifest(
        pattern=pattern,
        reps=get("gemm", "reps", str(DEFAULT_REPS), int),
        alpha=get("gemm", "alpha", "1.0", float),
        beta=get("gemm", "beta", "1.0", float),
        backend_id=get("gemm", "backend", "reference"),
        warmup_seconds=get("gemm", "warmup_seconds", repr(DEFAULT_WARMUP_SECONDS), float),
        sources=sources,
        interval_ms=get("telemetry", "interval_ms", repr(DEFAULT_INTERVAL_MS), float),
        tdp_w=get("analysis", "tdp_w", repr(fixtures.TDP_W), float),
        baseline_random_w=get("analysis", "baseline_random_w",
                              repr(fixtures.RANDOM_INPUT_W), float),
        baseline_fixed_w=get("analysis", "baseline_fixed_w",
                             repr(fixtures.FIXED_INPUT_W), float),
        trim_fraction=get("analysis", "trim_fraction", "0.05", float),
        node_id=get("experiment", "node", "local"),
        repetitions_per_node=get("experiment", "repetitions", "1", int),
        out_dir=get("experiment", "out", "out"),
        sweep=sweep,
        model=model,
        schema_version=get("experiment", "schema_version", str(SCHEMA_VERSION), int),
    )


def load_manifest(path) -> ExperimentManifest:
    with open(path) as fh:
        return manifest_from_text(fh.read())


def save_manifest(m: ExperimentManifest, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(manifest_to_text(m))


def manifest_digest(m: ExperimentManifest) -> str:
    return hashlib.sha256(manifest_to_text(m).encode()).hexdigest()
