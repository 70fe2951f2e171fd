import dataclasses
import re
from pathlib import Path

import pytest

from entrobench.cli import main
from entrobench.errors import ConfigError
from entrobench.gemm import GemmConfig
from entrobench.manifest import (
    MANIFEST_KEYS,
    AnalysisPlan,
    ExperimentManifest,
    SweepPlan,
    load_manifest,
    manifest_from_text,
    manifest_to_text,
    text_digest,
)
from entrobench.patterns import PatternSpec
from entrobench.spec import Schedule, write_file

README = Path(__file__).resolve().parents[1] / "README.md"


def sample_manifest(reps=5, **overrides):
    kw = dict(
        config=GemmConfig(PatternSpec(family="sparse_diagonal", n_dim=64, level=3,
                                      value_mode="fixed_common", seed=17),
                          reps=reps, warmup_seconds=0.0),
        sources=("replay:tl.csv",),
        sweep=SweepPlan(level_min=1, level_max=4),
        model=Schedule(lanes=4),
    )
    kw.update(overrides)
    return ExperimentManifest(**kw)


def test_round_trip_is_byte_identical():
    m = sample_manifest()
    text = manifest_to_text(m)
    back = manifest_from_text(text)
    assert back == m
    assert manifest_to_text(back) == text
    assert text_digest(manifest_to_text(back)) == text_digest(manifest_to_text(m))


# manifest_to_text(sample_manifest()), as written before the key table existed
SAMPLE_TEXT = """\
[experiment]
schema_version = 1
node = local
repetitions = 1
out = out

[pattern]
family = sparse_diagonal
n = 64
level = 3
value_mode = fixed_common
seed = 17

[gemm]
reps = 5
alpha = 1.0
beta = 1.0
backend = reference
warmup_seconds = 0.0

[telemetry]
sources = replay:tl.csv
interval_ms = 100.0

[analysis]
tdp_w = 400.0
baseline_random_w = 398.2
baseline_fixed_w = 238.5

[sweep]
level_min = 1
level_max = 4
value_modes = independent,fixed_common

[model]
lanes = 4

"""


def test_text_is_pinned():
    assert manifest_to_text(sample_manifest()) == SAMPLE_TEXT
    assert manifest_from_text(SAMPLE_TEXT) == sample_manifest()
    default_sweep = manifest_to_text(sample_manifest(sweep=SweepPlan()))
    assert "[sweep]\nlevel_min = 0\nlevel_max = \nvalue_modes = independent,fixed_common\n" \
        in default_sweep


def test_key_table_covers_each_field_once():
    keys = [(section, key) for section, key, _, _ in MANIFEST_KEYS]
    assert len(set(keys)) == len(keys)
    parts = {"config": GemmConfig, "config.pattern": PatternSpec, "analysis": AnalysisPlan,
             "sweep": SweepPlan, "model": Schedule}
    fields = [f.name for f in dataclasses.fields(ExperimentManifest)]
    for part, cls in parts.items():
        fields += [f"{part}.{f.name}" for f in dataclasses.fields(cls)]
    assert sorted(attr for _, _, attr, _ in MANIFEST_KEYS) == sorted(
        f for f in fields if f not in parts)


def test_readme_example_parses():
    example = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    m = manifest_from_text(example)
    assert m.config.pattern == PatternSpec(family="sparse_diagonal", n_dim=16384, level=4,
                                           seed=7)
    assert m.sources == ("pm:/sys/cray/pm_counters/power",)


def test_round_trip_without_sweep():
    m = sample_manifest(sweep=None)
    back = manifest_from_text(manifest_to_text(m))
    assert back.sweep is None
    assert back == m


def test_file_round_trip(tmp_path):
    m = sample_manifest()
    path = tmp_path / "exp.manifest"
    write_file(path, manifest_to_text(m))
    assert load_manifest(path) == m


def test_a_crlf_manifest_loads_equal_to_its_lf_form(tmp_path):
    m = sample_manifest()
    path = tmp_path / "crlf.ini"
    path.write_bytes(manifest_to_text(m).replace("\n", "\r\n").encode("utf-8"))
    assert load_manifest(path) == m


def test_minimal_text_uses_defaults():
    m = manifest_from_text(
        "[pattern]\nfamily = baseline_random\nn = 16\n"
    )
    assert m.config.reps == 100
    assert m.config.warmup_seconds == 60.0
    assert m.interval_ms == 100.0
    assert m.analysis == AnalysisPlan(tdp_w=400.0, baseline_random_w=398.2,
                                      baseline_fixed_w=238.5)
    assert m.config.backend_id == "reference"
    assert m.model == Schedule()
    assert m.sweep is None


def test_missing_required_keys():
    with pytest.raises(ConfigError):
        manifest_from_text("[pattern]\nfamily = baseline_random\n")
    with pytest.raises(ConfigError):
        manifest_from_text("[gemm]\nreps = 3\n")
    with pytest.raises(ConfigError):
        manifest_from_text("not an ini file [ at all")


def test_unknown_schema_version_rejected():
    text = manifest_to_text(sample_manifest()).replace(
        "schema_version = 1", "schema_version = 2"
    )
    with pytest.raises(ConfigError) as err:
        manifest_from_text(text)
    assert "schema_version" in str(err.value)


def test_digest_tracks_content():
    base = sample_manifest()
    changed = sample_manifest(reps=6)
    assert text_digest(manifest_to_text(base)) != text_digest(manifest_to_text(changed))
    assert len(text_digest(manifest_to_text(base))) == 64


def test_sweep_levels_range():
    m = sample_manifest()  # N=64, levels 1..4 requested
    assert list(m.sweep_levels()) == [1, 2, 3, 4]
    full = sample_manifest(sweep=SweepPlan())
    assert list(full.sweep_levels()) == [0, 1, 2, 3, 4, 5, 6]
    with pytest.raises(ConfigError):
        sample_manifest(sweep=SweepPlan(level_min=5, level_max=9)).sweep_levels()


def test_sweep_specs_are_modes_outer_levels_ascending():
    m = sample_manifest(sweep=SweepPlan(level_min=1, level_max=2))
    assert [(s.value_mode.value, s.level) for s in m.sweep_specs()] == [
        ("independent", 1), ("independent", 2), ("fixed_common", 1), ("fixed_common", 2)]
    assert all(s.family.value == "sparse_diagonal" and s.seed == 17 for s in m.sweep_specs())
    assert len(sample_manifest(sweep=None).sweep_specs()) == 14  # default plan, N=64


def test_validation_errors():
    with pytest.raises(ConfigError):
        sample_manifest(analysis=AnalysisPlan(tdp_w=0.0))
    with pytest.raises(ConfigError):
        sample_manifest(repetitions_per_node=0)
    with pytest.raises(ConfigError, match="value_modes"):
        SweepPlan(value_modes=())


@pytest.mark.parametrize("command", ["run", "score"])
def test_lane_count_not_a_power_of_two_exits_at_load(tmp_path, capsys, command):
    # refused by Schedule when the manifest loads, for every command,
    # although only score reads the lane count
    path = tmp_path / "m.ini"
    text = manifest_to_text(sample_manifest(out_dir=str(tmp_path / "out")))
    path.write_text(text.replace("\nlanes = 4\n", "\nlanes = 6\n"))
    assert main(["--manifest", str(path), command]) == 2
    assert "lanes must be a power of two, got 6" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
