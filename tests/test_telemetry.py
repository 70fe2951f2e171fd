import dataclasses
import itertools
import math
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entrobench.errors import FormatError, SourceError
from entrobench.telemetry import (
    TIMELINE_KEYS,
    EnergyCounterSource,
    FilePowerSource,
    PowerSample,
    ReplaySampler,
    Sampler,
    Timeline,
    parse_pm_counters,
    read_timeline,
    sample_loop,
    timeline_from_text,
    timeline_to_text,
    write_timeline,
)

class CallablePowerSource:
    """Test fake: a power source that returns whatever `fn` returns."""

    def __init__(self, fn, name: str = "power"):
        self._fn = fn
        self.name = name

    def read(self) -> float:
        return float(self._fn())


def test_parse_pm_counters():
    watts = parse_pm_counters("158 W 1663632013291527")
    assert type(watts) is float and watts == 158.0
    with pytest.raises(FormatError, match="non-numeric"):
        parse_pm_counters("158 W 1663632013291.527")  # the timestamp is still checked


def test_parse_pm_counters_rejects_energy_unit():
    with pytest.raises(FormatError):
        parse_pm_counters("158 J 1")
    with pytest.raises(FormatError):
        parse_pm_counters("158 W")
    with pytest.raises(FormatError):
        parse_pm_counters("abc W 1")


def assert_sample_refused(t_ms, watts, match):
    """Timeline, timeline_from_text and (for a reading) sample_loop all refuse the sample."""
    with pytest.raises(FormatError, match=match):
        Timeline((t_ms,), (watts,))
    text = ("# entrobench-timeline v1\nt_ms,watts,source\n0.0,1.0,timeline\n"
            f"{t_ms!r},{watts!r},timeline\n")
    with pytest.raises(FormatError, match=f"line 4: .*{match}"):
        timeline_from_text(text)
    if t_ms == 0.0:  # sample_loop stamps its own times; a refused reading is a failed poll
        with pytest.raises(SourceError, match=f"failed 11 consecutive reads: .*{match}"):
            sample_loop(CallablePowerSource(lambda: watts), 1.0, threading.Event())


def test_sample_rejects_negative():
    assert_sample_refused(-1.0, 1.0, "t_ms must be nonnegative")
    assert_sample_refused(0.0, -1.0, "watts must be nonnegative")


def test_timeline_rejects_nonmonotone():
    with pytest.raises(FormatError, match="strictly increasing"):
        Timeline((0.0, 0.0), (1.0, 2.0), source="x")


def test_timeline_rejects_columns_of_unequal_length():
    with pytest.raises(FormatError, match="equal lengths"):
        Timeline((0.0, 1.0), (1.0,))


def make_timeline(pairs, **kw):
    return Timeline(tuple(t for t, _ in pairs), tuple(w for _, w in pairs), source="x", **kw)


def test_timeline_text_round_trip():
    tl = make_timeline([(0.0, 238.5), (100.0, 398.2), (200.5, 400.0)],
                       epoch=12.25, interval_ms=100.0)
    text = timeline_to_text(tl)
    back = timeline_from_text(text)
    assert back == tl
    assert timeline_to_text(back) == text


@pytest.mark.parametrize("gap_count", [0, 3])
def test_timeline_file_round_trip(tmp_path, gap_count):
    tl = make_timeline([(0.0, 1.0), (50.0, 2.0)], gap_count=gap_count)
    path = tmp_path / "tl.csv"
    write_timeline(tl, path)
    assert read_timeline(path) == tl


def test_timeline_without_gap_count_loads_with_zero():
    tl = timeline_from_text(
        "# entrobench-timeline v1 source=x epoch=0.0 interval_ms=100.0\n"
        "t_ms,watts,source\n"
        "0.0,1.0,x\n"
    )
    assert tl.gap_count == 0


def test_timeline_text_rejects_unknown_schema_and_dupes():
    with pytest.raises(FormatError):
        timeline_from_text("# other-schema v9\nt_ms,watts,source\n")
    for version in ("v12", "v1x"):  # not read as v1
        with pytest.raises(FormatError, match="unrecognized timeline schema version"):
            timeline_from_text(f"# entrobench-timeline {version} source=x\nt_ms,watts,source\n")
    with pytest.raises(FormatError, match="expected header"):
        timeline_from_text("# entrobench-timeline v1 source=x\nt_ms,watts\n0.0,1.0,x\n")
    tl_text = (
        "# entrobench-timeline v1 source=x epoch=0.0 interval_ms=100.0\n"
        "t_ms,watts,source\n"
        "0.0,1.0,x\n"
        "0.0,2.0,x\n"
    )
    with pytest.raises(FormatError):
        timeline_from_text(tl_text)


@pytest.mark.parametrize("meta,row,line", [
    ("epoch=0.0", "20.0,abc,x", "line 4"),  # watts not a number
    ("epoch=0.0", "20.0,1.0", "line 4"),    # source column missing
    ("epoch=abc", "20.0,1.0,x", "line 1"),  # metadata not a number
    ("gap_count=x", "20.0,1.0,x", "line 1"),   # gap count not an integer
    ("gap_count=-1", "20.0,1.0,x", "line 1"),  # gap count negative
])
def test_timeline_text_malformed_row_reports_line(meta, row, line):
    tl_text = (
        f"# entrobench-timeline v1 source=x {meta} interval_ms=100.0\n"
        "t_ms,watts,source\n"
        "10.0,1.0,x\n"
        f"{row}\n"
    )
    with pytest.raises(FormatError) as err:
        timeline_from_text(tl_text)
    assert line in str(err.value)


# Written by the implementation that stored a label in every sample; the bytes must not change.
PINNED_TIMELINE_TEXT = (
    "# entrobench-timeline v1 source=pm_counters epoch=12345.678901234 interval_ms=10.0 "
    "gap_count=2\n"
    "t_ms,watts,source\n"
    "0.0,238.5,pm_counters\n"
    "1e-05,0.1,pm_counters\n"
    "200.5,1e-07,pm_counters\n"
)


def test_timeline_text_is_pinned():
    tl = Timeline((0.0, 1e-05, 200.5), (238.5, 0.1, 1e-07),
                  source="pm_counters", epoch=12345.678901234, interval_ms=10.0, gap_count=2)
    assert timeline_to_text(tl) == PINNED_TIMELINE_TEXT
    assert timeline_from_text(PINNED_TIMELINE_TEXT) == tl


def test_timeline_keys_name_every_timeline_field_but_the_samples_in_written_order():
    fields = [f.name for f in dataclasses.fields(Timeline)]
    assert fields[:2] == ["t_ms", "watts"]
    assert [key for key, _ in TIMELINE_KEYS] == fields[2:]
    header = timeline_to_text(make_timeline([])).splitlines()[0]
    assert [part.split("=")[0] for part in header.split()[3:]] == [k for k, _ in TIMELINE_KEYS]


def test_timeline_header_without_keys_loads_with_the_timeline_defaults():
    tl = timeline_from_text("# entrobench-timeline v1\nt_ms,watts,source\n0.0,1.0,timeline\n")
    assert tl == Timeline((0.0,), (1.0,))


@pytest.mark.parametrize("meta,rows,line", [
    ("source=x", "10.0,1.0,x\n20.0,1.0,y", "line 4"),  # label differs from the header's
    ("", "10.0,1.0,timeline\n20.0,1.0,x", "line 4"),   # no source key: the label is "timeline"
    ("source=x", "10.0,1.0,x\n20.0,inf,x", "line 4"),  # watts not finite
    ("source=x", "nan,1.0,x", "line 3"),                # t_ms not finite
    ("source=x interval_ms=0", "10.0,1.0,x", "line 1"),
    ("source=x interval_ms=-1.0", "10.0,1.0,x", "line 1"),
    ("source=x interval_ms=nan", "10.0,1.0,x", "line 1"),
    ("source=x interval_ms=inf", "10.0,1.0,x", "line 1"),
    ("source=x intervl_ms=10", "10.0,1.0,x", "line 1"),  # a key TIMELINE_KEYS does not name
    ("source=x interval_ms=50.0 interval_ms=20.0", "10.0,1.0,x", "line 1"),  # a key twice
    ("source=x junk", "10.0,1.0,x", "line 1"),  # a token that is not key=value
    ("source=x samples=3", "10.0,1.0,x", "line 1"),
    ("source=x intervl_ms=10 interval_ms=50.0 interval_ms=20.0 junk", "10.0,1.0,x", "line 1"),
])
def test_timeline_text_refusals_name_their_line(meta, rows, line):
    with pytest.raises(FormatError) as err:
        timeline_from_text(f"# entrobench-timeline v1 {meta}\nt_ms,watts,source\n{rows}\n")
    assert line in str(err.value)


@pytest.mark.parametrize("t_ms,watts", [
    (float("inf"), 1.0), (0.0, float("inf")), (float("nan"), 1.0), (0.0, float("nan"))])
def test_sample_rejects_non_finite(t_ms, watts):
    assert_sample_refused(t_ms, watts, "must be nonnegative and finite")


def test_non_finite_pm_counters_readings_are_counted_gaps(tmp_path):
    texts = iter(["inf W 1", "200 W 2", "nan W 3", "210 W 4"])
    stop = threading.Event()

    class Readings:
        name = "pm_counters"

        def read(self):
            text = next(texts, None)
            if text is None:
                stop.set()
                return None
            return parse_pm_counters(text)

    tl = sample_loop(Readings(), 1.0, stop)
    assert tl.watts == (200.0, 210.0)
    assert tl.gap_count == 3  # two refused readings, then the poll that stops the loop


def test_invalid_readings_are_counted_gaps_and_the_sampler_still_stops():
    values = iter([100.0, math.inf, math.nan, -1.0, 100.0])
    exhausted = threading.Event()

    class Readings:
        name = "fake"
        idle_polls = 0  # polls after the last value, each a None

        def read(self):
            value = next(values, None)
            if value is None:
                self.idle_polls += 1
                exhausted.set()
            return value

    source = Readings()
    sampler = Sampler(source, interval_ms=1.0)
    sampler.start()
    assert exhausted.wait(10.0)
    tl = sampler.stop()
    assert tl.watts == (100.0, 100.0)
    assert tl.gap_count == 3 + source.idle_polls


def test_a_poll_that_returns_none_ends_a_run_of_failures():
    stop = threading.Event()
    polls = itertools.count()

    class Flaky:
        name = "flaky"

        def read(self):
            n = next(polls)
            if n == 20:
                stop.set()
            if n == 10:
                return None
            raise OSError("flaky")

    tl = sample_loop(Flaky(), 1.0, stop)  # ten failures, None, ten failures: no SourceError
    assert (len(tl), tl.gap_count) == (0, 21)


def test_an_energy_counter_file_holding_inf_fails_after_consecutive_failures(tmp_path):
    path = tmp_path / "energy_uj"
    path.write_text("inf\n")
    with pytest.raises(SourceError, match="failed 11 consecutive reads: watts must be .* got nan"):
        sample_loop(EnergyCounterSource(path), 1.0, threading.Event())


def test_a_pm_counters_file_that_is_not_utf8_is_a_failed_poll(tmp_path):
    path = tmp_path / "power"
    path.write_bytes(b"200 W 1\xfc\n")  # Latin-1
    with pytest.raises(FormatError, match="power is not UTF-8 text"):
        FilePowerSource(path).read()
    with pytest.raises(SourceError, match="failed 11 consecutive reads: .* is not UTF-8 text"):
        sample_loop(FilePowerSource(path), 1.0, threading.Event())


def test_a_blank_line_among_a_timelines_rows_is_skipped():
    tl = make_timeline([(0.0, 1.0), (50.0, 2.0), (100.0, 3.0)])
    lines = timeline_to_text(tl).splitlines(keepends=True)
    assert timeline_from_text("".join([*lines[:3], "\n", *lines[3:]])) == tl


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1e4,
                       allow_nan=False, allow_infinity=False),
             min_size=1, max_size=20),
)
def test_timeline_round_trip_property(watts):
    tl = make_timeline([(float(i) * 10.0, w) for i, w in enumerate(watts)])
    assert timeline_from_text(timeline_to_text(tl)) == tl


# Columns of any valid timeline: strictly increasing times, subnormals and 1e-300 among them.
sample_columns = st.lists(
    st.tuples(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
              st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)),
    max_size=30,
).map(lambda pairs: sorted(dict(pairs).items()))  # one watts per t_ms, in t_ms order


@settings(max_examples=60, deadline=None)
@given(sample_columns)
@example([])
@example([(0.0, 5e-324), (5e-324, 1e-300), (1e-300, 2.2250738585072014e-308)])
def test_timeline_columns_round_trip_byte_for_byte(pairs):
    tl = make_timeline(pairs, epoch=0.5, interval_ms=10.0, gap_count=1)
    text = timeline_to_text(tl)
    back = timeline_from_text(text)
    assert back == tl
    assert timeline_to_text(back) == text


# Ways to spoil a row at t_ms; the earlier rows sit at t_ms - 10.0 and below.
SPOILED_ROWS = [
    lambda t: f"{-t - 1.0!r},1.0,x",  # t_ms negative
    lambda t: "nan,1.0,x",
    lambda t: f"{t!r},inf,x",
    lambda t: f"{t!r},-1.0,x",
    lambda t: f"{t - 10.0!r},1.0,x",  # t_ms repeated, or negative in the first row
    lambda t: f"{t!r},abc,x",
    lambda t: f"{t!r},1.0,y",  # another label
    lambda t: f"{t!r},1.0",  # no label
]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_timeline_text_names_the_line_of_its_first_bad_row(data):
    n = data.draw(st.integers(1, 30))
    bad = data.draw(st.integers(0, n - 1))
    rows = [f"{10.0 * i!r},1.0,x" for i in range(n)]
    rows[bad] = data.draw(st.sampled_from(SPOILED_ROWS))(10.0 * bad)
    rows[bad + 1:] = [row.replace(",x", ",z") for row in rows[bad + 1:]]  # later rows are bad too
    blanks = data.draw(st.lists(st.integers(0, n), max_size=3))
    for at in sorted(blanks, reverse=True):
        rows.insert(at, "")  # blank lines are skipped but counted
    line = 3 + bad + sum(at <= bad for at in blanks)
    with pytest.raises(FormatError) as err:
        timeline_from_text("# entrobench-timeline v1 source=x\nt_ms,watts,source\n"
                           + "\n".join(rows) + "\n")
    assert str(err.value).startswith(f"timeline line {line}: malformed row ")


def test_samples_are_named_tuples_of_the_columns_in_order():
    pairs = [(0.0, 238.5), (10.0, 0.0), (25.5, 1e-300)]
    samples = make_timeline(pairs).samples
    assert all(type(s) is PowerSample for s in samples)
    assert [(s.t_ms, s.watts) for s in samples] == pairs
    assert PowerSample._fields == ("t_ms", "watts")


def test_replay_source_emitted_verbatim():
    pairs = [(0.0, 238.5), (100.0, 398.2)]
    sampler = ReplaySampler(make_timeline(pairs, epoch=12.25, interval_ms=50.0, gap_count=3))
    assert sampler.name == "replay"
    sampler.start()
    tl = sampler.stop()
    assert list(zip(tl.t_ms, tl.watts)) == pairs
    assert tl.source == "replay"
    assert (tl.epoch, tl.interval_ms, tl.gap_count) == (12.25, 50.0, 3)
    # the recorded span is the measured window, whatever the workload took
    assert sampler.window(5.0, 7.5) == (0.0, 100.0)
    assert ReplaySampler(make_timeline([])).window(5.0, 7.5) == (0.0, 2500.0)


def test_live_sampler_window_is_in_the_timeline_frame():
    reads = []

    def read():
        reads.append(time.perf_counter())
        return 100.0

    sampler = Sampler(CallablePowerSource(read, name="cb"), interval_ms=1.0)
    sampler.start()
    t_start = time.perf_counter()
    time.sleep(0.02)
    t_end = time.perf_counter()
    tl = sampler.stop()
    assert tl.t_ms
    epoch = tl.epoch
    assert sampler.window(t_start, t_end) == (
        (t_start - epoch) * 1000.0, (t_end - epoch) * 1000.0)
    # each sample is stamped after its read and before the next one
    read_ms = [sampler.window(r, r)[0] for r in reads]
    for i, t_ms in enumerate(tl.t_ms):
        assert read_ms[i] <= t_ms
        if i + 1 < len(read_ms):
            assert t_ms <= read_ms[i + 1]


def test_sample_loop_records_values_then_stops():
    stop = threading.Event()
    counter = itertools.count()

    def read():
        n = next(counter)
        if n >= 3:
            stop.set()
        return 100.0 + n

    tl = sample_loop(CallablePowerSource(read, name="cb"), 1.0, stop)
    assert len(tl) >= 3
    assert tl.watts[0] == 100.0
    assert tl.gap_count == 0


def test_sample_loop_aborts_after_consecutive_failures():
    def read():
        raise OSError("device unplugged")

    with pytest.raises(SourceError):
        sample_loop(CallablePowerSource(read, name="cb"), 1.0, threading.Event())


def test_sample_loop_rejects_an_interval_below_one_ms():
    with pytest.raises(FormatError, match="interval_ms must be >= 1"):
        sample_loop(CallablePowerSource(lambda: 1.0), 0.5, threading.Event())


def test_sample_loop_tolerates_intermittent_failures():
    stop = threading.Event()
    counter = itertools.count()

    def read():
        n = next(counter)
        if n >= 12:
            stop.set()
        if n % 2:
            raise OSError("flaky")
        return 50.0

    tl = sample_loop(CallablePowerSource(read, name="cb"), 1.0, stop)
    assert tl.gap_count >= 5
    assert all(w == 50.0 for w in tl.watts)


def counter_reads(monkeypatch, path, clock, counts):
    """Each read of an EnergyCounterSource on path, the file holding the next count."""
    import entrobench.telemetry as telemetry

    clock = iter(clock)
    monkeypatch.setattr(telemetry.time, "perf_counter", lambda: next(clock))
    src = EnergyCounterSource(path)
    for count in counts:
        path.write_text(count)
        yield src.read()


def test_energy_counter_finite_difference(monkeypatch, tmp_path):
    reads = counter_reads(monkeypatch, tmp_path / "energy_uj", [10.0, 10.1],
                          ["1000000000\n", "1025000000\n"])
    assert next(reads) is None  # first read only establishes the baseline
    assert next(reads) == pytest.approx(250.0)  # 25 J over 100 ms


def test_energy_counter_wrap_is_gap(monkeypatch, tmp_path):
    reads = counter_reads(monkeypatch, tmp_path / "energy_uj", [0.0, 1.0, 2.0],
                          ["1000000000", "5000000", "105000000"])
    assert next(reads) is None
    assert next(reads) is None  # counter went backwards: wrap, not a negative wattage
    assert next(reads) == pytest.approx(100.0)


def test_energy_counter_scale(monkeypatch, tmp_path):
    reads = counter_reads(monkeypatch, tmp_path / "energy_uj", [0.0, 1.0, 1.0],
                          ["0 uj", "200000000 uj trailing", "300000000"])
    assert next(reads) is None
    assert next(reads) == pytest.approx(200.0)
    assert next(reads) is None  # the clock has not advanced
