import functools
import sys
import threading
import warnings

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
from entrobench.telemetry import ReplaySampler, Sampler, Timeline


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


@pytest.fixture
def kernels(monkeypatch):
    """kernels() forces reference_gemm onto each of its kernels in turn.

    It yields "einsum" with the first-use check forced to pass, then "loop"
    with it forced to fail.  The einsum pass is left out where this
    numpy's einsum fails the real check, since reference_gemm never runs
    it there.  The tests keep one id each and run both kernels in the body.
    """
    checked = gemm._einsum_is_exact()

    def each():
        for kernel, verdict in (("einsum", True), ("loop", False)):
            if verdict and not checked:
                continue
            monkeypatch.setattr(gemm, "_einsum_is_exact", lambda verdict=verdict: verdict)
            yield kernel
    return each


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


def assert_same_bits(got, want, kernel=""):
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64), err_msg=kernel)


def test_bit_for_bit_vs_naive_oracle(kernels):
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 17))
        a, b, c = rng.random((n, n)), rng.random((n, n)), rng.random((n, n))
        alpha, beta = float(rng.random()), float(rng.random())
        want = naive_gemm(a.tolist(), b.tolist(), c.tolist(), alpha, beta)
        for kernel in kernels():
            got = c.copy()
            reference_gemm(a, b, got, alpha, beta)
            assert_same_bits(got, want, kernel)


def use_workers(monkeypatch, workers):
    """Make reference_gemm share its blocks among this many workers."""
    monkeypatch.setattr(gemm, "_usable_cpus", lambda: workers)


def spy_threads(monkeypatch):
    """Record (thread ident, a_rows, buffer size, error state) per block kernel call."""
    calls = []
    for name in ("_einsum_rows", "_loop_rows"):
        def spy(a_rows, *args, kernel=getattr(gemm, name)):
            calls.append((threading.get_ident(), a_rows, np.getbufsize(), np.geterr()))
            return kernel(a_rows, *args)
        monkeypatch.setattr(gemm, name, spy)
    return calls


@pytest.mark.parametrize("block_rows", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 5, 17, 64])
def test_row_blocks_match_naive_oracle(monkeypatch, kernels, n, block_rows):
    rng = np.random.default_rng(n)
    a, b, c = rng.standard_normal((3, n, n))
    cases = [
        (a, b, c),
        (a.T, b.T, c.T),
        (a, b.T, c),  # einsum sums a transposed B in another order
        (np.asfortranarray(a), np.asfortranarray(b), np.asfortranarray(c)),
        (*rng.integers(-9, 10, (2, n, n)), rng.integers(-9, 10, (n, n)).astype(np.float64)),
    ]
    for a, b, c in cases:
        saved = a.copy(), b.copy()
        want = naive_gemm(a.tolist(), b.tolist(), c.tolist(), 1.5, -0.75)
        for workers in (1, 3):
            use_workers(monkeypatch, workers)
            monkeypatch.setattr(gemm, "GEMM_BLOCK", block_rows * n * workers)
            for kernel in kernels():
                got = c.copy(order="K")  # keeps c's layout: C order, transposed or Fortran
                reference_gemm(a, b, got, 1.5, -0.75)
                assert_same_bits(got, want, (kernel, workers))
                for m, before in zip((a, b), saved):
                    np.testing.assert_array_equal(m, before)


@pytest.fixture
def fast_switching():
    """Switch threads about every microsecond, so that a lost block would show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


@pytest.mark.parametrize("n", [1, 5, 17, 64, 256])
def test_bits_do_not_depend_on_the_worker_count(monkeypatch, kernels, fast_switching, n):
    # Blocks of 24 // W rows: short last blocks, and at W = 8 more workers than
    # blocks for N = 5 and 17.
    monkeypatch.setattr(gemm, "GEMM_BLOCK", 24 * n)
    rng = np.random.default_rng(n)
    a, b, c = rng.standard_normal((3, n, n))
    want = naive_gemm(a.tolist(), b.tolist(), c.tolist(), 1.5, -0.75) if n <= 64 else None
    calls = spy_threads(monkeypatch)
    for kernel in kernels():
        one = None
        for workers in (1, 2, 3, 8):
            use_workers(monkeypatch, workers)
            calls.clear()
            got = c.copy()
            reference_gemm(a, b, got, 1.5, -0.75)
            one = got if one is None else one
            assert got.tobytes() == one.tobytes(), (kernel, workers)
            if want is not None:
                assert_same_bits(got, want, (kernel, workers))
            # only einsum blocks are shared; the loop runs on the caller alone
            threads = {ident for ident, *_ in calls}
            shared = kernel == "einsum" and workers > 1 and len(calls) > 1
            assert len(threads) > 1 if shared else threads == {threading.get_ident()}


def test_special_values_match_scalar_loop(kernels):
    """inf, -0.0, overflow and NaN: every non-NaN cell has the scalar
    loop's bits and NaN cells are in the same places; NaN signs may differ."""
    rng = np.random.default_rng(3)
    specials = [np.inf, -np.inf, -0.0, 0.0, np.nan, 1e300, -1e300, 2.0, -3.5]
    for alpha, beta in [(1.5, -0.5), (-0.0, 2.0), (np.inf, 0.0), (1e300, np.nan)]:
        for n in (1, 4, 9):
            mats = rng.standard_normal((3, n, n))
            mask = rng.random(mats.shape) < 0.4
            mats[mask] = rng.choice(specials, int(mask.sum()))
            want = naive_gemm(*(m.tolist() for m in mats), alpha, beta)
            nan = np.isnan(want)
            for kernel in kernels():
                got = mats[2].copy()
                with np.errstate(all="ignore"):
                    reference_gemm(mats[0], mats[1], got, alpha, beta)
                np.testing.assert_array_equal(np.isnan(got), nan, err_msg=kernel)
                assert_same_bits(got[~nan], want[~nan], kernel)
    for kernel in kernels():
        # -0.0 products summed from +0.0 give +0.0, as in the scalar loop
        got = np.array([[-0.0]])
        reference_gemm([[-0.0]], [[1.0]], got, beta=0.0)
        assert_same_bits(got, np.array([[0.0]]), kernel)


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


@pytest.mark.parametrize("n", [7, 100])  # 2 N is not a multiple of 16
def test_callers_buffer_size_and_error_state_are_kept(kernels, n):
    rng = np.random.default_rng(n)
    a, b, c = rng.standard_normal((3, n, n))
    want = naive_gemm(a.tolist(), b.tolist(), c.tolist(), 1.5, -0.75)
    huge = a.copy()
    huge[:, -1] = 1e300  # overflows at the last k, partway through
    for kernel in kernels():
        state = np.getbufsize(), np.geterr()
        got = c.copy()
        reference_gemm(a, b, got, 1.5, -0.75)
        assert_same_bits(got, want, kernel)
        assert (np.getbufsize(), np.geterr()) == state
        with np.errstate(over="raise"):
            np.setbufsize(4096)
            state = np.getbufsize(), np.geterr()
            got = c.copy()
            reference_gemm(a, b, got, 1.5, -0.75)
            assert_same_bits(got, want, kernel)
            assert (np.getbufsize(), np.geterr()) == state
            with pytest.raises(FloatingPointError):
                reference_gemm(huge, huge, got)
            assert (np.getbufsize(), np.geterr()) == state


def test_underflow_is_still_signalled(kernels):
    tiny = np.full((2, 2), 1e-200)  # each product underflows to 0.0; einsum reports none
    for kernel in kernels():
        with np.errstate(under="raise"), pytest.raises(FloatingPointError, match="underflow"):
            reference_gemm(tiny, tiny, np.zeros((2, 2)))


def test_workers_follow_the_callers_error_state(monkeypatch, kernels):
    """Two workers of two-row blocks: rows 2-3 are worker 1's, a thread's,
    wherever the blocks are shared."""
    use_workers(monkeypatch, 2)
    monkeypatch.setattr(gemm, "GEMM_BLOCK", 16)
    big, tiny = np.ones((4, 4)), np.ones((4, 4))
    big[2:], tiny[2:] = 1e300, 1e-200  # 1e300 * 1e300 overflows; 1e-200**2 underflows
    caller = threading.get_ident()
    calls = spy_threads(monkeypatch)
    for kernel in kernels():
        with np.errstate(divide="ignore"):
            np.setbufsize(4096)
            state = np.getbufsize(), np.geterr()
            for a, errs, expect in (
                (big, {"over": "raise"}, pytest.raises(FloatingPointError)),
                (big, {"over": "warn"}, pytest.warns(RuntimeWarning, match="overflow")),
                (tiny, {"under": "raise"}, pytest.raises(FloatingPointError, match="underflow")),
            ):
                calls.clear()
                with np.errstate(**errs), expect:
                    reference_gemm(a, a.T.copy(), np.zeros((4, 4)))
                assert (np.getbufsize(), np.geterr()) == state, (kernel, errs)
                # The einsum blocks are shared, and a non-finite one is redone by
                # the loop on its worker; raising underflow needs the loop throughout.
                threads = {ident for ident, *_ in calls}
                extreme = {ident for ident, rows, *_ in calls if rows[0, 0] != 1.0}
                if kernel == "einsum" and "under" not in errs:
                    assert len(threads) == 2 and extreme and caller not in extreme, errs
                else:
                    assert threads == {caller}, (kernel, errs)
                # every block ran under the caller's error state, with the
                # kernel's buffer size of 2 N rounded up to 16
                want = (16, sorted({**state[1], **errs}.items()))
                assert all((size, sorted(err.items())) == want for *_, size, err in calls), errs
            with np.errstate(over="ignore"), warnings.catch_warnings():
                warnings.simplefilter("error")
                reference_gemm(big, big.T.copy(), np.zeros((4, 4)))
            assert (np.getbufsize(), np.geterr()) == state
        calls.clear()
        empty = np.empty((0, 0))
        reference_gemm(np.empty((0, 0)), np.empty((0, 0)), empty)
        assert empty.shape == (0, 0) and not calls


def ascending_k(subscripts, a, b, out, optimize):
    """The k-outer ufunc loop's operations, in its order."""
    out.fill(0.0)
    for k in range(len(b)):
        out += a[:, k:k + 1] * b[k]


def descending_k(subscripts, a, b, out, optimize):
    """The same products, summed from k = N-1 down to 0."""
    out.fill(0.0)
    for k in reversed(range(len(b))):
        out += a[:, k:k + 1] * b[k]


def long_double(subscripts, a, b, out, optimize):
    """Products and sums kept in long double, as a fused multiply-add keeps each product."""
    acc = np.zeros(out.shape, np.longdouble)
    for k in range(len(b)):
        acc += a[:, k:k + 1].astype(np.longdouble) * b[k]
    out[...] = acc


@pytest.mark.parametrize("einsum, exact", [
    (ascending_k, True), (descending_k, False), (long_double, False)])
def test_first_use_check_refuses_an_inexact_einsum(monkeypatch, einsum, exact):
    if einsum is long_double and np.finfo(np.longdouble).nmant <= 52:
        pytest.skip("long double is double here")
    monkeypatch.setattr(np, "einsum", einsum)
    unchecked = functools.cache(gemm._einsum_is_exact.__wrapped__)
    monkeypatch.setattr(gemm, "_einsum_is_exact", unchecked)
    rng = np.random.default_rng(4)
    a, b, c = rng.standard_normal((3, 9, 9))
    got = c.copy()
    reference_gemm(a, b, got, 1.5, -0.75)
    assert unchecked.cache_info().misses == 1  # checked at first use
    assert unchecked() is exact
    assert_same_bits(got, naive_gemm(a.tolist(), b.tolist(), c.tolist(), 1.5, -0.75))


def test_in_place_working_memory_is_two_blocks(kernels, traced_peak, monkeypatch):
    n = 256
    rng = np.random.default_rng(1)
    a, b, c = rng.random((3, n, n))
    for kernel in kernels():
        for workers in (1, 2, 4):  # the einsum blocks are shared by as many workers
            monkeypatch.setattr(gemm, "_usable_cpus", lambda workers=workers: workers)
            peak = traced_peak(lambda: reference_gemm(a, b, c, 1.5, 0.5))
            # 2 x 256 KiB blocks; copying the multiply through numpy's default
            # 8192-element ufunc buffers would add about 130 KB more
            assert peak < 560_000, (kernel, workers, peak)


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
        tuple(10.0 * i for i in range(2000)), tuple(300.0 + i % 7 for i in range(2000)),
        source="fixture", epoch=3.5, interval_ms=10.0,
    )
    expected = (recorded.t_ms, recorded.watts)
    config = GemmConfig(pattern=PatternSpec(family="baseline_random", n_dim=2),
                        reps=1, warmup_seconds=0.0)
    for _ in range(50):
        record, timelines = run_experiment(config, samplers=[ReplaySampler(recorded)])
        replayed = timelines["replay-0"]
        assert (replayed.t_ms, replayed.watts) == expected
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


UNREADABLE_RESULTS = [
    ("", "no readable result"),  # exits 0 and writes nothing
    ("open('result.manifest', 'wb').write(b'wall_seconds=\\xff\\n')",  # not UTF-8
     "no readable result"),
    ("open('result.manifest', 'w').write('wall_seconds=0.1\\nc_out=none.bin\\n')",
     "no readable result"),
    ("import sys; sys.exit(1)", "exited 1"),
    ("open('result.manifest', 'w').write('c_out=c_out.bin\\n')", "missing wall_seconds"),
]


@pytest.mark.parametrize("script,message", UNREADABLE_RESULTS,
                         ids=[script for script, _ in UNREADABLE_RESULTS])
def test_subprocess_backend_without_a_readable_result_is_a_source_error(tmp_path, script,
                                                                        message):
    good = tmp_path / "good.py"
    good.write_text(BACKEND_SCRIPT)
    bad = tmp_path / "bad.py"
    bad.write_text(script)
    a, c = np.eye(4), np.ones((4, 4))
    # a good call first, so a result of an earlier call is in the work directory
    make_subprocess_backend([sys.executable, str(good)], tmp_path / "work").run(a, a, a, 1.0, 1.0)
    backend = make_subprocess_backend([sys.executable, str(bad)], tmp_path / "work")
    with pytest.raises(SourceError, match=message):
        backend.run(a, a, c, 1.0, 1.0)
    fresh = make_subprocess_backend([sys.executable, str(bad)], tmp_path / "fresh")
    with pytest.raises(SourceError, match=message):
        fresh.run(a, a, c, 1.0, 1.0)
    np.testing.assert_array_equal(c, np.ones((4, 4)))


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


def test_backend_ids_list_the_reference_backend():
    ids = gemm.backend_ids()
    assert "reference" in ids and list(ids) == sorted(ids)
