"""RunRecord persistence: one CSV file per run (header row + data row).

RECORD_COLUMNS lists the columns; manifests share the encode/decode_list codec.
"""

from __future__ import annotations

import csv
import enum
import io
from operator import attrgetter

from .errors import ConfigError, FormatError
from .spec import Family, GemmConfig, PatternSpec, RunRecord, ValueMode, write_file

RECORD_SCHEMA = "entrobench-record v1"


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


def record_to_text(record: RunRecord) -> str:
    buf = io.StringIO()
    buf.write(f"# {RECORD_SCHEMA}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([column for column, _, _ in RECORD_COLUMNS])
    writer.writerow([encode(attrgetter(attr)(record), ";") for _, attr, _ in RECORD_COLUMNS])
    return buf.getvalue()


def record_from_text(text: str) -> RunRecord:
    schema, _, body = text.partition("\n")
    if not schema.startswith(f"# {RECORD_SCHEMA}"):
        raise FormatError("unrecognized record schema version")
    rows = list(csv.DictReader(io.StringIO(body)))  # a quoted field may hold a line break
    if len(rows) != 1:
        raise FormatError(f"record file must hold exactly one row, got {len(rows)}")
    parts = {"config.pattern": {}, "config": {}, "": {}}
    try:
        for column, attr, decode in RECORD_COLUMNS:
            part, _, name = attr.rpartition(".")
            parts[part][name] = decode(rows[0][column])
        config = GemmConfig(pattern=PatternSpec(**parts["config.pattern"]), **parts["config"])
        return RunRecord(config=config, **parts[""])
    # A short row reads None; a value PatternSpec or GemmConfig refuses is malformed too.
    except (AttributeError, ConfigError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed record file: {exc}") from exc


def write_record(record: RunRecord, path) -> None:
    write_file(path, record_to_text(record))


def read_record(path) -> RunRecord:
    with open(path, encoding="utf-8", newline="") as fh:  # keep a field's "\r"
        return record_from_text(fh.read())
