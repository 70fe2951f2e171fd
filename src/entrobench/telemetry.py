"""Power telemetry collection and parsing.

Timelines are ordered (t_ms, watts) samples from one source, held as two
columns: a Cray-style pm_counters file, a RAPL-style microjoule counter
file (power derived by finite differences), or a replay file.  A live source's read() returns
watts, or None for a poll that gave no reading.
Samples are taken at face value; no smoothing, and parsers never invent
samples for gaps.
"""

from __future__ import annotations

import csv
import math
import threading
import time
from collections import namedtuple
from dataclasses import dataclass, replace

from .errors import FormatError, SourceError
from .spec import DEFAULT_INTERVAL_MS, encode, read_text, write_file

MAX_CONSECUTIVE_FAILURES = 10

TIMELINE_SCHEMA = "entrobench-timeline v1"
TIMELINE_HEADER = "t_ms,watts,source"  # every row's source is the timeline's
# (key, decode) of the schema comment, in written order; each key is a Timeline field.
TIMELINE_KEYS = (("source", str), ("epoch", float), ("interval_ms", float), ("gap_count", int))


# One sample, as Timeline.samples gives it; a Timeline stores its samples as two columns.
PowerSample = namedtuple("PowerSample", "t_ms watts")


def _refusal(prev: float, t_ms: float, watts: float) -> str:
    """Why a sample at t_ms reading watts cannot follow one at prev, or "" if it can."""
    if not 0.0 <= t_ms < math.inf:
        return f"t_ms must be nonnegative and finite, got {t_ms}"
    if not 0.0 <= watts < math.inf:
        return f"watts must be nonnegative and finite, got {watts}"
    if not prev < t_ms:
        return f"samples must be strictly increasing in t_ms ({prev} -> {t_ms})"
    return ""


@dataclass(frozen=True)
class Timeline:
    t_ms: tuple[float, ...]
    watts: tuple[float, ...]
    source: str = "timeline"  # the label of every sample
    epoch: float = 0.0
    interval_ms: float = DEFAULT_INTERVAL_MS
    gap_count: int = 0  # polls that yielded no sample

    def __post_init__(self):
        if not 0 < self.interval_ms < math.inf:
            raise FormatError(f"interval_ms must be positive and finite, got {self.interval_ms}")
        if self.gap_count < 0:
            raise FormatError(f"gap_count must be nonnegative, got {self.gap_count}")
        if len(self.t_ms) != len(self.watts):
            raise FormatError(f"t_ms and watts must have equal lengths, "
                              f"got {len(self.t_ms)} and {len(self.watts)}")
        prev = -math.inf
        for t, w in zip(self.t_ms, self.watts):
            if not (prev < t < math.inf and t >= 0.0 and 0.0 <= w < math.inf):
                raise FormatError(_refusal(prev, t, w))
            prev = t

    def __len__(self) -> int:
        return len(self.t_ms)

    @property
    def samples(self) -> tuple[PowerSample, ...]:
        """The samples in order, as named tuples made anew on each access."""
        return tuple(map(PowerSample, self.t_ms, self.watts))


class FilePowerSource:
    """Reads a pm_counters-style power file on every poll.

    Default live path on Cray nodes: /sys/cray/pm_counters/power.
    """

    name = "pm_counters"

    def __init__(self, path):
        self.path = path

    def read(self) -> float:
        return parse_pm_counters(read_text(self.path))


class EnergyCounterSource:
    """A monotone microjoule counter file, as powercap's energy_uj; power by finite difference.

    Each poll reads the file's first whitespace token.  The first read, a
    counter wrap (value decreasing) and a clock that has not advanced give
    None, never a fabricated or negative wattage.
    """

    name = "rapl"

    def __init__(self, path):
        self.path = path
        self._last: tuple[float, float] | None = None  # (joules, perf seconds)

    def read(self) -> float | None:
        joules = float(read_text(self.path).split()[0]) * 1e-6
        now = time.perf_counter()
        last, self._last = self._last, (joules, now)
        if last is None or joules < last[0] or now <= last[1]:
            return None
        return (joules - last[0]) / (now - last[1])


def sample_loop(source, interval_ms: float, stop_signal: threading.Event) -> Timeline:
    """Poll a source at a nominal interval until stop_signal fires.

    Actual timestamps are recorded (jitter preserved) in ms since the
    loop's own perf_counter epoch, which the timeline carries.  A read of
    None is a gap.  A read that raises, or whose value is no valid sample
    (negative, inf, nan), is a gap and a failure; any read that returns
    otherwise ends a run of failures, and more than MAX_CONSECUTIVE_FAILURES
    in a row abort with a SourceError.
    """
    if interval_ms < 1:
        raise FormatError(f"interval_ms must be >= 1, got {interval_ms}")

    t_ms, watts = [], []
    gaps = 0
    consecutive_failures = 0
    epoch = time.perf_counter()
    tick = 0
    while not stop_signal.is_set():
        tick += 1
        try:
            reading = source.read()
            if reading is None:
                gaps += 1
            else:
                if not 0.0 <= reading < math.inf:
                    raise FormatError(f"watts must be nonnegative and finite, got {reading}")
                now_ms = (time.perf_counter() - epoch) * 1000.0
                if not t_ms or now_ms > t_ms[-1]:
                    t_ms.append(now_ms)
                    watts.append(reading)
            consecutive_failures = 0
        except Exception as exc:  # noqa: BLE001 - counted, then surfaced
            gaps += 1
            consecutive_failures += 1
            if consecutive_failures > MAX_CONSECUTIVE_FAILURES:
                raise SourceError(
                    f"source {source.name} failed {consecutive_failures} "
                    f"consecutive reads: {exc}"
                ) from exc
        next_deadline = epoch + tick * interval_ms / 1000.0
        remaining = next_deadline - time.perf_counter()
        if remaining > 0:
            stop_signal.wait(remaining)
    return Timeline(tuple(t_ms), tuple(watts), source=source.name, epoch=epoch,
                    interval_ms=interval_ms, gap_count=gaps)


class Sampler:
    """Runs sample_loop on a background thread alongside the workload.

    Samplers share one interface: name, start(), stop() -> Timeline and
    window(t_start, t_end), which maps two perf_counter instants to
    (start_ms, end_ms) in the stopped timeline's time frame.
    """

    def __init__(self, source, interval_ms: float = DEFAULT_INTERVAL_MS):
        self.source = source
        self.interval_ms = interval_ms
        self.name = source.name
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._outcome: Timeline | Exception | None = None  # what sample_loop returned or raised

    def start(self) -> None:
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        try:
            self._outcome = sample_loop(self.source, self.interval_ms, self._stop)
        except Exception as exc:  # noqa: BLE001 - reraised in stop()
            self._outcome = exc

    def stop(self) -> Timeline:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
        if isinstance(self._outcome, Exception):
            raise self._outcome
        return self._outcome

    def window(self, t_start: float, t_end: float) -> tuple[float, float]:
        epoch = self._outcome.epoch
        return (t_start - epoch) * 1000.0, (t_end - epoch) * 1000.0


class ReplaySampler:
    """A recorded timeline played back as a sampler, in its own time base.

    No thread: stop() returns the recorded timeline relabelled "replay",
    its samples, epoch, interval and gap count kept, and the measured
    window is the recorded span.
    """

    name = "replay"

    def __init__(self, timeline: Timeline):
        self._timeline = replace(timeline, source=self.name)

    def start(self) -> None:
        pass

    def stop(self) -> Timeline:
        return self._timeline

    def window(self, t_start: float, t_end: float) -> tuple[float, float]:
        t_ms = self._timeline.t_ms
        if not t_ms:
            return 0.0, (t_end - t_start) * 1000.0
        return t_ms[0], t_ms[-1]


def parse_pm_counters(text: str) -> float:
    """The watts of one pm_counters line: `<value> W <timestamp_us>`.

    The timestamp must be an integer but is not kept: sample_loop stamps
    each poll and refuses a negative or non-finite reading.  Energy files
    (unit J) go through the counter path; a non-W unit is rejected here.
    """
    tokens = text.split()
    if len(tokens) != 3:
        raise FormatError(f"expected '<value> <unit> <timestamp>', got {text!r}")
    value, unit, stamp = tokens
    if unit != "W":
        raise FormatError(f"expected unit W, got {unit!r}")
    try:
        int(stamp)
        return float(value)
    except ValueError:
        raise FormatError(f"non-numeric pm_counters fields in {text!r}") from None


def timeline_to_text(timeline: Timeline) -> str:
    """Bit-exact CSV form: schema comment with TIMELINE_KEYS, header, one sample per row."""
    meta = " ".join(f"{key}={encode(getattr(timeline, key), '')}" for key, _ in TIMELINE_KEYS)
    row_end = f",{timeline.source}\n"
    return "".join([f"# {TIMELINE_SCHEMA} {meta}\n{TIMELINE_HEADER}\n",
                    *[f"{t!r},{w!r}{row_end}" for t, w in zip(timeline.t_ms, timeline.watts)]])


_SCHEMA_TOKENS = ["#", *TIMELINE_SCHEMA.split()]
_DECODERS = dict(TIMELINE_KEYS)


def timeline_from_text(text: str) -> Timeline:
    """Inverse of timeline_to_text; a key the header omits takes Timeline's default."""
    lines = text.splitlines()
    tokens = lines[0].split() if lines else []
    if tokens[:3] != _SCHEMA_TOKENS:
        raise FormatError("unrecognized timeline schema version")
    meta = {}
    try:
        for token in tokens[3:]:
            key, sep, value = token.partition("=")
            if not sep or key not in _DECODERS or key in meta:
                raise FormatError(f"{'repeated' if key in meta else 'unknown'} token {token!r}")
            meta[key] = _DECODERS[key](value)
        source = Timeline((), (), **meta).source  # checks the metadata before any row
    except (ValueError, FormatError) as exc:
        raise FormatError(f"timeline line 1: malformed metadata: {exc}") from exc
    if len(lines) < 2 or lines[1] != TIMELINE_HEADER:
        raise FormatError(f"expected header {TIMELINE_HEADER!r}")
    t_ms, watts = [], []
    try:  # on any refusal, _first_bad_row finds the first bad row again and names its line
        for row in csv.reader(lines[2:]):
            if row:
                t_ms.append(float(row[0]))
                watts.append(float(row[1]))
                if row[2] != source:
                    raise FormatError(row[2])
        return Timeline(tuple(t_ms), tuple(watts), **meta)  # checks every sample
    except (IndexError, ValueError, FormatError):
        raise _first_bad_row(lines, source) from None


def _first_bad_row(lines, source: str) -> FormatError:
    """The error naming the first row of a timeline's text that timeline_from_text refuses."""
    prev = -math.inf
    for line_no, row in enumerate(csv.reader(lines[2:]), start=3):
        if not row:
            continue
        try:
            t, w = float(row[0]), float(row[1])
            refusal = _refusal(prev, t, w)
            if refusal:
                raise FormatError(refusal)
            if row[2] != source:
                raise FormatError(f"label {row[2]!r} is not the header's {source!r}")
        except (IndexError, ValueError, FormatError) as exc:
            return FormatError(f"timeline line {line_no}: malformed row {row!r}: {exc}")
        prev = t
    raise AssertionError("timeline_from_text refused a row that every check passes")


def write_timeline(timeline: Timeline, path) -> None:
    write_file(path, timeline_to_text(timeline))


def read_timeline(path) -> Timeline:
    """The timeline in the file at path; a FormatError names the file."""
    text = read_text(path)
    try:
        return timeline_from_text(text)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
