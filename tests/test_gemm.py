import sys
import threading

import numpy as np
import pytest

from entrobench import gemm
from entrobench.errors import ConfigError, SourceError
from entrobench.gemm import (
    GemmConfig,
    checksum,
    flop_count,
    get_backend,
    initial_c,
    make_subprocess_backend,
    reference_gemm,
    run_experiment,
)
from entrobench.patterns import PatternSpec
from entrobench.telemetry import PowerSample, ReplaySampler, Sampler, Timeline


def naive_gemm(a, b, c, alpha, beta):
    """Independent scalar triple-loop oracle, ascending-k accumulation."""
    n = len(a)
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for k in range(n):
                acc = acc + a[i][k] * b[k][j]
            out[i][j] = alpha * acc + beta * c[i][j]
    return np.array(out)


def test_identity_case():
    a = np.eye(2)
    b = np.array([[1.0, 2.0], [3.0, 4.0]])
    c = np.zeros((2, 2))
    assert reference_gemm(a, b, c) is None
    np.testing.assert_array_equal(c, b)


def test_hand_derived_case():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    c = np.ones((2, 2))
    reference_gemm(a, b, c, alpha=2.0, beta=3.0)
    np.testing.assert_array_equal(c, [[41.0, 47.0], [89.0, 103.0]])


def test_alpha_zero_leaves_c():
    rng = np.random.default_rng(0)
    a, b = rng.random((4, 4)), rng.random((4, 4))
    c = rng.random((4, 4))
    got = c.copy()
    reference_gemm(a, b, got, alpha=0.0, beta=1.0)
    np.testing.assert_array_equal(got, c)


def test_gemm_blocks_start_on_a_cache_line():
    for shape in ((1, 1), (3, 5), (128, 256)):
        for _ in range(8):  # several allocations, at different malloc offsets
            block = gemm._aligned_empty(shape)
            assert block.shape == shape and block.ctypes.data % 64 == 0


def test_dimension_mismatch():
    with pytest.raises(ConfigError):
        reference_gemm(np.zeros((2, 2)), np.zeros((3, 3)), np.zeros((2, 2)))


def test_bit_for_bit_vs_naive_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 17))
        a, b, c = rng.random((n, n)), rng.random((n, n)), rng.random((n, n))
        alpha, beta = float(rng.random()), float(rng.random())
        got = c.copy()
        reference_gemm(a, b, got, alpha, beta)
        want = naive_gemm(a.tolist(), b.tolist(), c.tolist(), alpha, beta)
        np.testing.assert_array_equal(
            got.view(np.uint64), want.view(np.uint64)
        )


def assert_same_bits(got, want):
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("block_rows", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 5, 17, 64])
def test_row_blocks_match_naive_oracle(monkeypatch, n, block_rows):
    monkeypatch.setattr(gemm, "GEMM_BLOCK", block_rows * n)
    rng = np.random.default_rng(n)
    a, b, c = rng.standard_normal((3, n, n))
    cases = [
        (a, b, c),
        (a.T, b.T, c.T),
        (np.asfortranarray(a), np.asfortranarray(b), np.asfortranarray(c)),
        (*rng.integers(-9, 10, (2, n, n)), rng.integers(-9, 10, (n, n)).astype(np.float64)),
    ]
    for a, b, c in cases:
        saved = a.copy(), b.copy()
        got = c.copy(order="K")  # keeps c's layout: C order, transposed or Fortran
        reference_gemm(a, b, got, 1.5, -0.75)
        want = naive_gemm(a.tolist(), b.tolist(), c.tolist(), 1.5, -0.75)
        assert_same_bits(got, want)
        for m, before in zip((a, b), saved):
            np.testing.assert_array_equal(m, before)


def test_special_values_match_scalar_loop():
    """inf, -0.0, overflow and NaN: every non-NaN cell has the scalar
    loop's bits and NaN cells are in the same places; NaN signs may differ."""
    rng = np.random.default_rng(3)
    specials = [np.inf, -np.inf, -0.0, 0.0, np.nan, 1e300, -1e300, 2.0, -3.5]
    for alpha, beta in [(1.5, -0.5), (-0.0, 2.0), (np.inf, 0.0), (1e300, np.nan)]:
        for n in (1, 4, 9):
            mats = rng.standard_normal((3, n, n))
            mask = rng.random(mats.shape) < 0.4
            mats[mask] = rng.choice(specials, int(mask.sum()))
            got = mats[2].copy()
            with np.errstate(all="ignore"):
                reference_gemm(mats[0], mats[1], got, alpha, beta)
            want = naive_gemm(*(m.tolist() for m in mats), alpha, beta)
            nan = np.isnan(want)
            np.testing.assert_array_equal(np.isnan(got), nan)
            assert_same_bits(got[~nan], want[~nan])
    # -0.0 products summed from +0.0 give +0.0, as in the scalar loop
    got = np.array([[-0.0]])
    reference_gemm([[-0.0]], [[1.0]], got, beta=0.0)
    assert_same_bits(got, np.array([[0.0]]))


def test_overflow_and_invalid_still_warn():
    big = np.full((2, 2), 1e300)
    out = np.zeros((2, 2))
    with pytest.warns(RuntimeWarning, match="overflow"):
        reference_gemm(big, big, out)
    assert np.all(out == np.inf)
    out = np.zeros((2, 2))
    with pytest.warns(RuntimeWarning, match="invalid"):
        reference_gemm([[np.inf, -np.inf], [1.0, 1.0]], np.ones((2, 2)), out)
    assert np.isnan(out[0]).all() and np.all(out[1] == 2.0)


def test_in_place_working_memory_is_two_blocks(traced_peak):
    n = 256
    rng = np.random.default_rng(1)
    a, b, c = rng.random((3, n, n))
    peak = traced_peak(lambda: reference_gemm(a, b, c, 1.5, 0.5))
    assert peak < 800_000, peak  # 2 x 256 KiB blocks and numpy's ufunc buffers


def test_c_that_may_share_memory_with_an_operand_is_refused():
    rng = np.random.default_rng(2)
    a, b, c = rng.random((3, 4, 4))
    saved = [m.copy() for m in (a, b, c)]
    for bad in (a, b, a[::-1], a.T, b[::-1]):
        with pytest.raises(ConfigError, match="share memory"):
            reference_gemm(a, b, bad)
    for bad in (np.empty((4, 5)), np.empty((4, 4), dtype=np.float32), c.tolist()):
        with pytest.raises(ConfigError, match="C must|operands must"):
            reference_gemm(a, b, bad)
    for m, before in zip((a, b, c), saved):
        np.testing.assert_array_equal(m, before)


def test_read_only_c_is_refused_before_any_work(monkeypatch):
    a, b, c = np.random.default_rng(3).random((3, 4, 4))
    c.setflags(write=False)
    monkeypatch.setattr(gemm, "_aligned_empty", lambda shape: pytest.fail("work began"))
    with pytest.raises(ConfigError, match="read-only"):
        reference_gemm(a, b, c)


@pytest.mark.parametrize("n", [4, 64])
def test_baseline_fixed_closed_form(n):
    spec = PatternSpec(family="baseline_fixed", n_dim=n)
    config = GemmConfig(pattern=spec, reps=1, warmup_seconds=0.0)
    from entrobench.patterns import generate

    pair = generate(spec)
    c = np.full((n, n), initial_c(spec))
    reference_gemm(pair.a, pair.b, c, config.alpha, config.beta)
    assert np.all(c == n + 1)


def test_flop_count_examples():
    assert flop_count(16384, 1) == 8796093022208
    assert float(flop_count(16384, 1)) == 8.796093022208e12
    assert flop_count(1, 1) == 2
    assert flop_count(256, 3) == 100663296
    # per-core CPU experiment accounting
    per_core = flop_count(3344, 30)
    assert per_core == 30 * 2 * 3344 ** 3
    with pytest.raises(ConfigError):
        flop_count(0, 1)


def test_checksum_is_row_major_ascending_sum():
    c = np.array([[1.0, 2.0], [3.0, 4.0]])
    value, bits = checksum(c)
    assert value == ((1.0 + 2.0) + 3.0) + 4.0
    assert bits == f"{int(np.float64(value).view(np.uint64)):016x}"


def test_checksum_chunks_match_scalar_loop(monkeypatch):
    rng = np.random.default_rng(5)
    c = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-8, 9, (7, 5))
    total = 0.0
    for v in c.ravel():
        total += float(v)
    for chunk in (1, 3, 35, 64):
        monkeypatch.setattr(gemm, "CHECKSUM_CHUNK", chunk)
        assert checksum(c) == (total, f"{int(np.float64(total).view(np.uint64)):016x}")
    assert checksum(np.empty((0, 0))) == (0.0, "0000000000000000")


def test_run_holds_three_matrices(traced_peak):
    n = 512
    config = GemmConfig(pattern=PatternSpec(family="baseline_random", n_dim=n, seed=0),
                        reps=2, warmup_seconds=0.0)
    run_experiment(config)  # numpy's first draw allocates extra memory once
    peak = traced_peak(lambda: run_experiment(config))
    assert peak < 3.4 * 8 * n * n, peak / (8 * n * n)  # A, B, C and two 1/8-matrix blocks


def test_run_experiment_flops_and_determinism():
    spec = PatternSpec(family="block_rowcol", n_dim=16, level=1, seed=9)
    config = GemmConfig(pattern=spec, reps=3, warmup_seconds=0.0)
    rec1, timelines = run_experiment(config)
    rec2, _ = run_experiment(config)
    assert timelines == {}
    assert rec1.total_flops == 3 * 2 * 16 ** 3
    assert rec1.warmup_iterations == 0
    assert rec1.measured_seconds > 0
    assert np.isfinite(rec1.flop_rate)
    assert rec1.checksum_bits == rec2.checksum_bits


def test_run_experiment_warmup_runs_iterations():
    spec = PatternSpec(family="baseline_fixed", n_dim=8)
    config = GemmConfig(pattern=spec, reps=1, warmup_seconds=0.01)
    record, _ = run_experiment(config)
    assert record.warmup_iterations >= 1
    assert record.warmup_seconds >= 0.01


def test_unregistered_backend_rejected():
    spec = PatternSpec(family="baseline_fixed", n_dim=4)
    config = GemmConfig(pattern=spec, reps=1, warmup_seconds=0.0, backend_id="cublas")
    with pytest.raises(ConfigError):
        run_experiment(config)
    with pytest.raises(ConfigError):
        get_backend("nope")


def test_failed_sampler_degrades_with_warning():
    class BrokenSampler:
        name = "broken"

        def start(self):
            raise RuntimeError("no such device")

    spec = PatternSpec(family="baseline_fixed", n_dim=4)
    config = GemmConfig(pattern=spec, reps=1, warmup_seconds=0.0)
    record, timelines = run_experiment(config, samplers=[BrokenSampler()])
    assert record.timeline_ids == ()
    assert timelines == {}
    assert any("broken" in w for w in record.warnings)


class ConstantSource:
    name = "const"

    def read(self) -> float:
        return 250.0


class FailingStopSampler(Sampler):
    def stop(self):
        super().stop()
        raise SourceError("sampler lost")


@pytest.mark.parametrize("warmup_seconds", [0.0, 0.01])  # timed loop, warm-up
@pytest.mark.parametrize("sampler_type", [Sampler, FailingStopSampler])
def test_failed_run_stops_its_samplers_and_raises_the_workloads_error(
        monkeypatch, warmup_seconds, sampler_type):
    def failing(a, b, c, alpha, beta):
        raise RuntimeError("backend lost")

    monkeypatch.setitem(gemm._BACKENDS, "test-failing", gemm.Backend(run=failing))
    config = GemmConfig(pattern=PatternSpec(family="baseline_fixed", n_dim=4), reps=1,
                        backend_id="test-failing", warmup_seconds=warmup_seconds)
    before = threading.active_count()
    for _ in range(3):
        samplers = [sampler_type(ConstantSource(), interval_ms=1.0) for _ in range(2)]
        with pytest.raises(RuntimeError, match="backend lost"):
            run_experiment(config, samplers=samplers)
    assert threading.active_count() == before


def test_every_sampler_stops_before_a_samplers_error_is_raised():
    config = GemmConfig(pattern=PatternSpec(family="baseline_fixed", n_dim=4), reps=1,
                        warmup_seconds=0.0)
    before = threading.active_count()
    samplers = [FailingStopSampler(ConstantSource(), interval_ms=1.0),
                Sampler(ConstantSource(), interval_ms=1.0)]
    with pytest.raises(SourceError, match="sampler lost"):
        run_experiment(config, samplers=samplers)
    assert threading.active_count() == before


def test_replay_keeps_every_sample_and_the_recorded_span():
    recorded = Timeline(
        samples=tuple(PowerSample(t_ms=10.0 * i, watts=300.0 + i % 7)
                      for i in range(2000)),
        source="fixture", epoch=3.5, interval_ms=10.0,
    )
    expected = [(s.t_ms, s.watts) for s in recorded.samples]
    config = GemmConfig(pattern=PatternSpec(family="baseline_random", n_dim=2),
                        reps=1, warmup_seconds=0.0)
    for _ in range(50):
        record, timelines = run_experiment(config, samplers=[ReplaySampler(recorded)])
        assert [(s.t_ms, s.watts) for s in timelines["replay-0"].samples] == expected
        assert (record.measured_start_ms, record.measured_end_ms) == (0.0, 19990.0)


BACKEND_SCRIPT = """\
import sys
import numpy as np

params = dict(
    line.strip().split("=", 1)
    for line in open(sys.argv[1])
    if "=" in line
)
n = int(params["n"])
load = lambda name: np.fromfile(params[name], dtype="<f8").reshape(n, n)
a, b, c = load("a"), load("b"), load("c")
out = float(params["alpha"]) * (a @ b) + float(params["beta"]) * c
out.astype("<f8").tofile("c_out.bin")
open("result.manifest", "w").write("wall_seconds=0.001\\nc_out=c_out.bin\\n")
"""


def test_subprocess_backend_protocol(tmp_path):
    script = tmp_path / "backend.py"
    script.write_text(BACKEND_SCRIPT)
    backend = make_subprocess_backend([sys.executable, str(script)], tmp_path / "work")
    rng = np.random.default_rng(5)
    a, b, c = rng.random((8, 8)), rng.random((8, 8)), rng.random((8, 8))
    want = 1.5 * (a @ b) + 0.25 * c
    assert backend.run(a, b, c, 1.5, 0.25) is None  # c is updated in place
    np.testing.assert_allclose(c, want, rtol=1e-12)


def test_subprocess_run_holds_three_matrices(tmp_path, monkeypatch, traced_peak):
    script = tmp_path / "backend.py"
    script.write_text(BACKEND_SCRIPT)
    monkeypatch.setitem(gemm._BACKENDS, "test-subprocess", make_subprocess_backend(
        [sys.executable, str(script)], tmp_path / "work"))
    n = 256  # at N = 128 the call's fixed ~128 KB would count as a whole matrix
    config = GemmConfig(pattern=PatternSpec(family="baseline_random", n_dim=n, seed=0),
                        reps=1, warmup_seconds=0.0, backend_id="test-subprocess")
    run_experiment(config)  # numpy's first draw allocates extra memory once
    peak = traced_peak(lambda: run_experiment(config))
    assert peak < 3.5 * 8 * n * n, peak / (8 * n * n)  # A, B and C


@pytest.mark.parametrize("size", [120, 127, 136])  # a 4x4 result is 128 bytes
def test_subprocess_backend_output_of_the_wrong_size_is_a_source_error(tmp_path, size):
    script = tmp_path / "backend.py"
    script.write_text(BACKEND_SCRIPT + f"import os\nos.truncate('c_out.bin', {size})\n")
    backend = make_subprocess_backend([sys.executable, str(script)], tmp_path / "work")
    a, c = np.eye(4), np.ones((4, 4))
    with pytest.raises(SourceError, match=r"no readable result: matrix file .*c_out\.bin holds"):
        backend.run(a, a, c, 1.0, 1.0)
    np.testing.assert_array_equal(c, np.ones((4, 4)))  # the size is checked before any read


@pytest.mark.parametrize("script", [
    "",  # exits 0 and writes nothing
    "open('result.manifest', 'wb').write(b'wall_seconds=\\xff\\n')",  # not UTF-8
    "open('result.manifest', 'w').write('wall_seconds=0.1\\nc_out=none.bin\\n')",
])
def test_subprocess_backend_without_a_readable_result_is_a_source_error(tmp_path, script):
    good = tmp_path / "good.py"
    good.write_text(BACKEND_SCRIPT)
    bad = tmp_path / "bad.py"
    bad.write_text(script)
    a = np.eye(4)
    # a good call first, so a result of an earlier call is in the work directory
    make_subprocess_backend([sys.executable, str(good)], tmp_path / "work").run(a, a, a, 1.0, 1.0)
    backend = make_subprocess_backend([sys.executable, str(bad)], tmp_path / "work")
    with pytest.raises(SourceError, match="no readable result"):
        backend.run(a, a, a, 1.0, 1.0)
    fresh = make_subprocess_backend([sys.executable, str(bad)], tmp_path / "fresh")
    with pytest.raises(SourceError, match="no readable result"):
        fresh.run(a, a, a, 1.0, 1.0)


def test_subprocess_backend_refuses_a_read_only_c_before_running(tmp_path):
    script = tmp_path / "backend.py"
    script.write_text("open('ran', 'w').close()\n" + BACKEND_SCRIPT)
    work = tmp_path / "work"
    backend = make_subprocess_backend([sys.executable, str(script)], work)
    a, c = np.eye(4), np.ones((4, 4))
    c.setflags(write=False)
    with pytest.raises(ConfigError, match="read-only"):
        backend.run(a, a, c, 1.0, 1.0)
    assert not work.exists()  # no matrix written and the command never ran
    backend.run(a, a, np.ones((4, 4)), 1.0, 1.0)
    assert (work / "ran").exists()  # the marker shows when the command runs
