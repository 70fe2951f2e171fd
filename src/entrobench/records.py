"""RunRecord persistence: one CSV file per run (header row + data row).

RECORD_COLUMNS lists the columns; the encode/decode_list codec is spec's.
"""

from __future__ import annotations

import csv
import io
from operator import attrgetter

from .errors import ConfigError, FormatError
from .spec import (
    Family,
    GemmConfig,
    PatternSpec,
    RunRecord,
    ValueMode,
    decode_list,
    encode,
    read_text,
    write_file,
)

RECORD_SCHEMA = "entrobench-record v1"


# (column, attribute, decode).  The attribute is a path into RunRecord:
# config.pattern.<field>, config.<field> or <field>.
RECORD_COLUMNS = (
    ("family", "config.pattern.family", Family),
    ("n", "config.pattern.n_dim", int),
    ("level", "config.pattern.level", int),
    ("value_mode", "config.pattern.value_mode", ValueMode),
    ("seed", "config.pattern.seed", int),
    ("reps", "config.reps", int),
    ("alpha", "config.alpha", float),
    ("beta", "config.beta", float),
    ("backend", "config.backend_id", str),
    ("warmup_seconds_config", "config.warmup_seconds", float),
    ("warmup_seconds", "warmup_seconds", float),
    ("warmup_iterations", "warmup_iterations", int),
    ("measured_seconds", "measured_seconds", float),
    ("total_flops", "total_flops", int),
    ("flop_rate", "flop_rate", float),
    ("checksum", "checksum", float),
    ("checksum_bits", "checksum_bits", str),
    ("node_id", "node_id", str),
    ("run_index", "run_index", int),
    ("measured_start_ms", "measured_start_ms", float),
    ("measured_end_ms", "measured_end_ms", float),
    ("timeline_ids", "timeline_ids", decode_list(";")),
    ("warnings", "warnings", decode_list(";")),
)


# Built once from RECORD_COLUMNS: the schema and header lines, a getter per
# column, and per column the (part, name, decode) that record_from_text fills,
# part being config.pattern, config or "" (the record itself).
_SCHEMA_LINE = f"# {RECORD_SCHEMA}"
_COLUMN_NAMES = [column for column, _, _ in RECORD_COLUMNS]
_HEADER_TEXT = f"{_SCHEMA_LINE}\n{','.join(_COLUMN_NAMES)}\n"
_GETTERS = tuple(attrgetter(attr) for _, attr, _ in RECORD_COLUMNS)
_FIELDS = tuple((*attr.rpartition(".")[::2], decode) for _, attr, decode in RECORD_COLUMNS)


def record_to_text(record: RunRecord) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([encode(get(record), ";") for get in _GETTERS])
    return _HEADER_TEXT + buf.getvalue()


def record_from_text(text: str) -> RunRecord:
    schema, _, body = text.partition("\n")
    if schema.rstrip("\r") != _SCHEMA_LINE:
        raise FormatError("unrecognized record schema version")
    # A quoted field may hold a line break; blank lines are skipped.
    rows = [row for row in csv.reader(io.StringIO(body)) if row]
    if len(rows) != 2:
        raise FormatError(f"record file must hold exactly one row, got {max(len(rows) - 1, 0)}")
    header, values = rows
    if header != _COLUMN_NAMES or len(values) > len(header):
        raise FormatError(f"record columns must be exactly those of {RECORD_SCHEMA}")
    if len(values) < len(header):
        raise FormatError(f"malformed record file: {len(values)} values for {len(header)} columns")
    parts = {"config.pattern": {}, "config": {}, "": {}}
    try:
        for (part, name, decode), value in zip(_FIELDS, values):
            parts[part][name] = decode(value)
        config = GemmConfig(pattern=PatternSpec(**parts["config.pattern"]), **parts["config"])
        return RunRecord(config=config, **parts[""])
    except (ConfigError, ValueError) as exc:  # a value PatternSpec or GemmConfig refuses, too
        raise FormatError(f"malformed record file: {exc}") from exc


def write_record(record: RunRecord, path) -> None:
    write_file(path, record_to_text(record))


def read_record(path) -> RunRecord:
    """The record in the file at path; a FormatError names the file."""
    text = read_text(path)
    try:
        return record_from_text(text)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
