import dataclasses
import math

import pytest

from entrobench.errors import ConfigError, FormatError
from entrobench.gemm import GemmConfig, RunRecord, run_experiment
from entrobench.patterns import PatternSpec
from entrobench.records import (
    RECORD_COLUMNS,
    read_record,
    record_from_text,
    record_to_text,
    write_record,
)

RECORD = RunRecord(
    config=GemmConfig(
        pattern=PatternSpec(family="block_diagonal", n_dim=32, level=2,
                            value_mode="fixed_common", seed=9),
        reps=3, alpha=1.5, beta=0.1, backend_id="reference", warmup_seconds=0.25,
    ),
    warmup_seconds=0.2503,
    warmup_iterations=7,
    measured_seconds=0.125,
    total_flops=3 * 2 * 32 ** 3,
    flop_rate=3 * 2 * 32 ** 3 / 0.125,
    checksum=-12.75,
    checksum_bits="c029800000000000",
    timeline_ids=("replay-0", "pm-1"),
    node_id="nid001",
    run_index=2,
    measured_start_ms=10.5,
    measured_end_ms=135.5,
    warnings=("pm-1: 2 samples lost, 1 gap",),
)

# record_to_text(RECORD), as written before the column table existed
RECORD_TEXT = (
    "# entrobench-record v1\n"
    "family,n,level,value_mode,seed,reps,alpha,beta,backend,warmup_seconds_config,"
    "warmup_seconds,warmup_iterations,measured_seconds,total_flops,flop_rate,checksum,"
    "checksum_bits,node_id,run_index,measured_start_ms,measured_end_ms,timeline_ids,warnings\n"
    "block_diagonal,32,2,fixed_common,9,3,1.5,0.1,reference,0.25,0.2503,7,0.125,196608,"
    "1572864.0,-12.75,c029800000000000,nid001,2,10.5,135.5,replay-0;pm-1,"
    '"pm-1: 2 samples lost, 1 gap"\n'
)


def test_text_is_pinned():
    assert record_to_text(RECORD) == RECORD_TEXT
    assert record_from_text(RECORD_TEXT) == RECORD


def test_file_round_trip_without_timelines(tmp_path):
    record = dataclasses.replace(RECORD, timeline_ids=(), warnings=())
    write_record(record, tmp_path / "record.csv")
    assert read_record(tmp_path / "record.csv") == record


def test_a_failed_samplers_warning_round_trips(tmp_path):
    class BadSampler:
        name = "bad"

        def start(self):
            raise RuntimeError("no; such\nsource\r")

    config = GemmConfig(pattern=PatternSpec(family="baseline_fixed", n_dim=4),
                        reps=1, warmup_seconds=0.0)
    record, _ = run_experiment(config, samplers=[BadSampler()])
    assert record.warnings == ("sampler bad failed: no, such\nsource\r",)
    assert record_from_text(record_to_text(record)) == record
    write_record(record, tmp_path / "record.csv")
    assert read_record(tmp_path / "record.csv") == record


def test_column_table_covers_each_field_once():
    columns = [column for column, _, _ in RECORD_COLUMNS]
    assert len(set(columns)) == len(columns)
    fields = [f"config.pattern.{f.name}" for f in dataclasses.fields(PatternSpec)]
    fields += [f"config.{f.name}" for f in dataclasses.fields(GemmConfig) if f.name != "pattern"]
    fields += [f.name for f in dataclasses.fields(RunRecord) if f.name != "config"]
    assert sorted(attr for _, attr, _ in RECORD_COLUMNS) == sorted(fields)


@pytest.mark.parametrize("text", [
    RECORD_TEXT.replace("v1", "v2"),
    RECORD_TEXT.rsplit(",", 2)[0] + "\n",  # row cut short
    RECORD_TEXT.replace(",7,", ",seven,"),
    RECORD_TEXT.replace("block_diagonal,", "block_spiral,"),
    RECORD_TEXT + RECORD_TEXT.splitlines()[-1] + "\n",  # two rows
    RECORD_TEXT.replace("record v1\n", "record v12\n"),  # a newer schema version
    RECORD_TEXT.replace("record v1\n", "record v1 x\n"),
    RECORD_TEXT.replace(",warnings\n", ",warnings,extra\n").replace('gap"\n', 'gap",x\n'),
    RECORD_TEXT.replace('gap"\n', 'gap",x\n'),  # a row longer than the header
    # a column named twice
    RECORD_TEXT.replace(",warnings\n", ",warnings,family\n")
    .replace('gap"\n', 'gap",block_diagonal\n'),
])
def test_malformed_record_is_a_format_error(text):
    with pytest.raises(FormatError):
        record_from_text(text)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name,written", [("measured_start_ms", "10.5"),
                                          ("measured_end_ms", "135.5")])
def test_a_non_finite_measured_window_is_refused(name, written, value):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        dataclasses.replace(RECORD, **{name: value})
    text = RECORD_TEXT.replace(f",{written},", f",{value!r},")
    with pytest.raises(FormatError, match=f"malformed record file: {name} must be finite"):
        record_from_text(text)


def test_a_measured_window_may_start_before_the_sampler_epoch():
    record = dataclasses.replace(RECORD, measured_start_ms=-2.5, measured_end_ms=-0.5)
    assert record_from_text(record_to_text(record)) == record


def test_record_with_crlf_line_ends_loads():
    assert record_from_text(RECORD_TEXT.replace("\n", "\r\n")) == RECORD
