"""Experiment manifests: flat, diffable key/value documents.

A manifest is a single INI-style text file with one section per module
(pattern, gemm, telemetry, analysis, optional sweep and model) plus an
[experiment] section carrying schema version and provenance labels.
MANIFEST_KEYS is the list of keys; a key or a section it does not list is
a configuration error, and an absent key takes the default of the dataclass
field it sets.  [pattern] and [gemm] load as the GemmConfig a run executes,
[model] lanes as the Schedule that score runs, and every part checks its
values when the manifest loads.  The canonical serialization is
deterministic, so manifests round-trip byte-identically and can be archived
next to their outputs.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import MISSING, dataclass, field, replace
from operator import attrgetter

from .errors import ConfigError, FormatError
from .spec import (
    DEFAULT_INTERVAL_MS,
    FIXED_INPUT_W,
    RANDOM_INPUT_W,
    TDP_W,
    Family,
    GemmConfig,
    PatternSpec,
    Schedule,
    ValueMode,
    decode_list,
    encode,
    read_text,
)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SweepPlan:
    level_min: int = 0
    level_max: int | None = None  # None = log2(n_dim)
    value_modes: tuple[str, ...] = ("independent", "fixed_common")

    def __post_init__(self):
        if not self.value_modes:
            raise ConfigError("sweep value_modes must name at least one value mode")
        if len(set(self.value_modes)) < len(self.value_modes):
            raise ConfigError("sweep value_modes names a value mode twice: "
                              + ",".join(self.value_modes))


@dataclass(frozen=True)
class AnalysisPlan:
    tdp_w: float = TDP_W
    baseline_random_w: float = RANDOM_INPUT_W
    baseline_fixed_w: float = FIXED_INPUT_W

    def __post_init__(self):
        for name in ("tdp_w", "baseline_random_w", "baseline_fixed_w"):
            if not 0 < getattr(self, name) < math.inf:  # also rejects nan
                raise ConfigError(f"{name} must be positive and finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class ExperimentManifest:
    config: GemmConfig
    sources: tuple[str, ...] = ()
    interval_ms: float = DEFAULT_INTERVAL_MS
    analysis: AnalysisPlan = field(default_factory=AnalysisPlan)
    node_id: str = "local"
    repetitions_per_node: int = 1
    out_dir: str = "out"
    sweep: SweepPlan | None = None
    model: Schedule = field(default_factory=Schedule)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(
                f"unrecognized manifest schema_version {self.schema_version}; "
                f"this build reads version {SCHEMA_VERSION}"
            )
        if self.repetitions_per_node < 1:
            raise ConfigError("repetitions_per_node must be >= 1")
        if not 1 <= self.interval_ms < math.inf:  # also rejects nan
            raise ConfigError(f"interval_ms must be >= 1 and finite, got {self.interval_ms}")

    def sweep_levels(self) -> range:
        plan, pattern = self.sweep or SweepPlan(), self.config.pattern
        hi = plan.level_max if plan.level_max is not None else pattern.max_level
        if not 0 <= plan.level_min <= hi <= pattern.max_level:
            raise ConfigError(
                f"sweep range [{plan.level_min}, {hi}] invalid for n_dim={pattern.n_dim}")
        return range(plan.level_min, hi + 1)

    def sweep_specs(self) -> list[PatternSpec]:
        """The pattern at each sweep point: value modes outer, levels ascending."""
        levels, modes = self.sweep_levels(), (self.sweep or SweepPlan()).value_modes
        return [replace(self.config.pattern, level=level, value_mode=mode)
                for mode in modes for level in levels]


# (section, key, attribute, decode), in written order.  The attribute is a
# path into ExperimentManifest: <field>, or <part>.<field> for a part that
# _PARTS names.  The [pattern] and [gemm] paths are those of RECORD_COLUMNS.
MANIFEST_KEYS = (
    ("experiment", "schema_version", "schema_version", int),
    ("experiment", "node", "node_id", str),
    ("experiment", "repetitions", "repetitions_per_node", int),
    ("experiment", "out", "out_dir", str),
    ("pattern", "family", "config.pattern.family", Family),
    ("pattern", "n", "config.pattern.n_dim", int),
    ("pattern", "level", "config.pattern.level", int),
    ("pattern", "value_mode", "config.pattern.value_mode", ValueMode),
    ("pattern", "seed", "config.pattern.seed", int),
    ("gemm", "reps", "config.reps", int),
    ("gemm", "alpha", "config.alpha", float),
    ("gemm", "beta", "config.beta", float),
    ("gemm", "backend", "config.backend_id", str),
    ("gemm", "warmup_seconds", "config.warmup_seconds", float),
    ("telemetry", "sources", "sources", decode_list(",")),
    ("telemetry", "interval_ms", "interval_ms", float),
    ("analysis", "tdp_w", "analysis.tdp_w", float),
    ("analysis", "baseline_random_w", "analysis.baseline_random_w", float),
    ("analysis", "baseline_fixed_w", "analysis.baseline_fixed_w", float),
    ("sweep", "level_min", "sweep.level_min", int),
    ("sweep", "level_max", "sweep.level_max", lambda t: int(t) if t else None),
    ("sweep", "value_modes", "sweep.value_modes", decode_list(",", lambda s: ValueMode(s).value)),
    ("model", "lanes", "model.lanes", int),
)

_PARTS = {"": ExperimentManifest, "config": GemmConfig, "config.pattern": PatternSpec,
          "analysis": AnalysisPlan, "sweep": SweepPlan, "model": Schedule}


def manifest_to_text(m: ExperimentManifest) -> str:
    sections = {}
    for section, key, attr, _ in MANIFEST_KEYS:
        if section != "sweep" or m.sweep is not None:  # only [sweep] is optional
            sections.setdefault(section, {})[key] = encode(attrgetter(attr)(m), ",")
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_dict(sections)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def manifest_from_text(text: str) -> ExperimentManifest:
    # No header can name a newline, so [DEFAULT] is checked like any other section.
    cp = configparser.ConfigParser(interpolation=None, default_section="\n")
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable manifest: {exc}") from exc
    known = {(section, key) for section, key, _, _ in MANIFEST_KEYS}
    sections = {section for section, _ in known}
    for section in cp.sections():
        for key in cp.options(section):
            if (section, key) not in known:
                raise ConfigError(f"unknown manifest key [{section}] {key}")
        if section not in sections:  # one with no key, too: [sweeps] is not [sweep]
            raise ConfigError(f"unknown manifest section [{section}]")

    parts = {part: {} for part in _PARTS}
    for section, key, attr, decode in MANIFEST_KEYS:
        part, _, name = attr.rpartition(".")
        if not cp.has_option(section, key):
            if _PARTS[part].__dataclass_fields__[name].default is MISSING:
                raise ConfigError(f"manifest missing [{section}] {key}")
            continue
        try:
            parts[part][name] = decode(cp.get(section, key))
        except ValueError as exc:
            raise ConfigError(f"bad manifest value [{section}] {key}: {exc}") from exc
    config = GemmConfig(pattern=PatternSpec(**parts["config.pattern"]), **parts["config"])
    sweep = SweepPlan(**parts["sweep"]) if cp.has_section("sweep") else None
    return ExperimentManifest(config=config, analysis=AnalysisPlan(**parts["analysis"]),
                              sweep=sweep, model=Schedule(**parts["model"]), **parts[""])


def load_manifest(path) -> ExperimentManifest:
    """The manifest in the file at path; a file that cannot be read as UTF-8 is a ConfigError."""
    try:
        return manifest_from_text(read_text(path))
    except (OSError, FormatError) as exc:
        raise ConfigError(f"cannot read manifest: {exc}") from exc


def text_digest(text: str) -> str:
    """The sha256 hex digest of a manifest's text."""
    import hashlib  # loads OpenSSL, which only run and sweep need
    return hashlib.sha256(text.encode()).hexdigest()
