import pytest

from entrobench.errors import ConfigError
from entrobench.manifest import (
    ExperimentManifest,
    ModelPlan,
    SweepPlan,
    load_manifest,
    manifest_digest,
    manifest_from_text,
    manifest_to_text,
    save_manifest,
)
from entrobench.patterns import PatternSpec


def sample_manifest(**overrides):
    kw = dict(
        pattern=PatternSpec(family="sparse_diagonal", n_dim=64, level=3,
                            value_mode="fixed_common", seed=17),
        reps=5,
        warmup_seconds=0.0,
        sources=("replay:tl.csv",),
        sweep=SweepPlan(level_min=1, level_max=4),
        model=ModelPlan(lanes=4, w_acc=0.5),
    )
    kw.update(overrides)
    return ExperimentManifest(**kw)


def test_round_trip_is_byte_identical():
    m = sample_manifest()
    text = manifest_to_text(m)
    back = manifest_from_text(text)
    assert back == m
    assert manifest_to_text(back) == text
    assert manifest_digest(back) == manifest_digest(m)


def test_round_trip_without_sweep():
    m = sample_manifest(sweep=None)
    back = manifest_from_text(manifest_to_text(m))
    assert back.sweep is None
    assert back == m


def test_file_round_trip(tmp_path):
    m = sample_manifest()
    path = tmp_path / "exp.manifest"
    save_manifest(m, path)
    assert load_manifest(path) == m


def test_minimal_text_uses_defaults():
    m = manifest_from_text(
        "[pattern]\nfamily = baseline_random\nn = 16\n"
    )
    assert m.reps == 100
    assert m.warmup_seconds == 60.0
    assert m.interval_ms == 100.0
    assert m.tdp_w == 400.0
    assert m.baseline_random_w == 398.2
    assert m.baseline_fixed_w == 238.5
    assert m.trim_fraction == 0.05
    assert m.backend_id == "reference"
    assert m.model == ModelPlan()
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
    assert manifest_digest(base) != manifest_digest(changed)
    assert len(manifest_digest(base)) == 64


def test_sweep_levels_range():
    m = sample_manifest()  # N=64, levels 1..4 requested
    assert list(m.sweep_levels()) == [1, 2, 3, 4]
    full = sample_manifest(sweep=SweepPlan())
    assert list(full.sweep_levels()) == [0, 1, 2, 3, 4, 5, 6]
    with pytest.raises(ConfigError):
        sample_manifest(sweep=SweepPlan(level_min=5, level_max=9)).sweep_levels()


def test_gemm_config_and_backend_check():
    m = sample_manifest()
    cfg = m.gemm_config()
    assert cfg.pattern == m.pattern
    assert cfg.reps == 5


def test_validation_errors():
    with pytest.raises(ConfigError):
        sample_manifest(tdp_w=0.0)
    with pytest.raises(ConfigError):
        sample_manifest(repetitions_per_node=0)
