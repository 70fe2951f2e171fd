"""DGEMM workload execution under the measured-power protocol.

An experiment generates one operand pair, runs an untimed warm-up phase
for a configured number of seconds, then runs a fixed count of timed
back-to-back C <- alpha*A*B + beta*C multiplications against a pluggable
backend.  Each backend call overwrites C in place, as DGEMM does (the
reference backend is reference_gemm itself), and C is carried across
repetitions without re-zeroing, so a run holds three N x N matrices: A, B
and C.  FLOP accounting uses the standard 2*N^3 per multiplication.
"""

from __future__ import annotations

import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import patterns
from .errors import ConfigError, FormatError, SourceError
from .patterns import MatrixPair, generate
from .spec import FIXED_C_INIT, Family, GemmConfig, PatternSpec, RunRecord, flop_count


GEMM_BLOCK = 1 << 15  # accumulator elements per block of output rows


def _aligned_empty(shape: tuple[int, int]) -> np.ndarray:
    """An uninitialised float64 array whose data starts on a 64-byte boundary.

    malloc aligns only to 16 bytes, and numpy's multiply loop runs about a
    third slower into an output that is not cache-line aligned, so
    reference_gemm's speed would otherwise follow the process's heap layout.
    """
    size = shape[0] * shape[1]
    raw = np.empty(size + 7)
    start = -raw.ctypes.data % 64 // 8
    return raw[start:start + size].reshape(shape)


def _check_writable(c: np.ndarray) -> None:
    """Refuse a read-only C before a backend does any work."""
    if not c.flags.writeable:
        raise ConfigError("C is read-only, but a backend overwrites it in place")


def reference_gemm(a, b, c: np.ndarray, alpha: float = 1.0, beta: float = 1.0) -> None:
    """C <- alpha*A*B + beta*C in place, with ascending-k per-cell summation.

    Output rows are computed in blocks of about GEMM_BLOCK elements, with
    k = 0..N-1 in the outer loop: each block's rounded products
    A[i,k]*B[k,j] go into one buffer and are added in place to an
    accumulator started at 0.0, then alpha*acc + beta*C overwrites that
    block of C.  Each cell thus gets the same additions in the same order
    as in a scalar triple loop, so results are bit-reproducible and
    bit-identical to it, infinities and signed zeros included.  NaN cells
    are in the same places, but where two NaNs meet, the sign of the result
    is unspecified by IEEE 754 and follows numpy's loop length and operand
    order, so it may differ.  Overflow and invalid-operation
    RuntimeWarnings are raised as numpy raises them.

    C must be a writable N x N float64 ndarray.  Each block of C is read
    before it is written, so working memory is only the two blocks.  A C
    that may share memory with A or B raises ConfigError, since a written
    block would change operands that later blocks read.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = a.shape[0]
    if not isinstance(c, np.ndarray) or c.dtype != np.float64:
        raise ConfigError(f"C must be a float64 ndarray, got {getattr(c, 'dtype', type(c))}")
    _check_writable(c)
    for m in (a, b, c):
        if m.shape != (n, n):
            raise ConfigError(f"operands must all be {n}x{n}, got {m.shape}")
    if np.may_share_memory(c, a) or np.may_share_memory(c, b):
        raise ConfigError("C must not share memory with A or B")
    rows = max(1, GEMM_BLOCK // max(n, 1))
    acc_buf = _aligned_empty((min(rows, n), n))
    prod_buf = _aligned_empty(acc_buf.shape)
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        acc, prod = acc_buf[:i1 - i0], prod_buf[:i1 - i0]
        acc.fill(0.0)
        for k in range(n):
            np.multiply(a[i0:i1, k:k + 1], b[k], out=prod)
            np.add(acc, prod, out=acc)
        np.multiply(alpha, acc, out=acc)
        np.multiply(beta, c[i0:i1], out=prod)
        np.add(acc, prod, out=c[i0:i1])


CHECKSUM_CHUNK = 1 << 14  # elements summed per np.add.accumulate call


def checksum(c: np.ndarray) -> tuple[float, str]:
    """Sum of all elements in ascending row-major order, plus its bit pattern.

    np.add.accumulate adds strictly left to right, so seeding each chunk
    with the running total gives the bits of a scalar loop.
    """
    flat = c.ravel()
    buf = np.empty(min(flat.size, CHECKSUM_CHUNK) + 1)
    total = 0.0
    with np.errstate(all="ignore"):  # inf/nan propagate silently, as in float +=
        for start in range(0, flat.size, CHECKSUM_CHUNK):
            chunk = flat[start:start + CHECKSUM_CHUNK]
            run = buf[:len(chunk) + 1]
            run[0] = total
            run[1:] = chunk
            np.add.accumulate(run, out=run)
            total = float(run[-1])
    bits = np.float64(total).view(np.uint64)
    return total, f"{int(bits):016x}"


@dataclass(frozen=True)
class Backend:
    """A DGEMM implementation, with DGEMM's contract.

    run(a, b, c, alpha, beta) overwrites c with alpha*A*B + beta*C and
    returns None; a and b are left unchanged.  reference_gemm is one.
    """

    run: object


_BACKENDS: dict[str, Backend] = {}


def register_backend(backend_id: str, backend: Backend) -> None:
    _BACKENDS[backend_id] = backend


def get_backend(backend_id: str) -> Backend:
    try:
        return _BACKENDS[backend_id]
    except KeyError:
        raise ConfigError(
            f"backend {backend_id!r} is not registered "
            f"(known: {sorted(_BACKENDS)})"
        ) from None


def backend_ids() -> tuple[str, ...]:
    return tuple(sorted(_BACKENDS))


register_backend("reference", Backend(run=reference_gemm))


def make_subprocess_backend(command: list[str], workdir) -> Backend:
    """Backend that hands operands to an external program via raw files.

    Protocol: the runner writes a.bin / b.bin / c.bin (raw little-endian
    float64, row-major) plus an `input.manifest` key=value file with n,
    alpha, beta, and the file names, then invokes `command input.manifest`.
    The program must exit 0 and leave a `result.manifest` with at least
    wall_seconds and the output file name (c_out, same raw layout); the
    runner deletes result.manifest first, so no call reads an earlier one.
    c_out is read straight into c.  A call that leaves no readable
    result.manifest, or a c_out missing or of the wrong size, raises
    SourceError; a c_out of the wrong size leaves c unchanged.  The program
    has read its inputs before c is written, so c may share memory with a
    or b.  A read-only c raises ConfigError before any file is written.
    """
    workdir = Path(workdir)

    def run(a, b, c, alpha, beta):
        _check_writable(c)
        workdir.mkdir(parents=True, exist_ok=True)
        n = a.shape[0]
        patterns.dump_matrix(a, workdir / "a.bin")
        patterns.dump_matrix(b, workdir / "b.bin")
        patterns.dump_matrix(c, workdir / "c.bin")
        patterns.write_file(
            workdir / "input.manifest",
            f"n={n}\nalpha={alpha!r}\nbeta={beta!r}\na=a.bin\nb=b.bin\nc=c.bin\n",
        )
        (workdir / "result.manifest").unlink(missing_ok=True)
        proc = subprocess.run([*command, "input.manifest"], cwd=workdir,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise SourceError(f"backend command {command} exited {proc.returncode}: {proc.stderr}")
        try:
            lines = (workdir / "result.manifest").read_text(encoding="utf-8").splitlines()
            pairs = (line.split("=", 1) for line in lines if "=" in line)
            result = {key.strip(): value.strip() for key, value in pairs}
            if "wall_seconds" not in result:
                raise SourceError("backend result.manifest is missing wall_seconds")
            patterns.load_matrix(workdir / result.get("c_out", "c_out.bin"), c)
        except (OSError, UnicodeDecodeError, FormatError) as exc:
            raise SourceError(f"backend command {command} left no readable result: {exc}") from exc

    return Backend(run=run)


def initial_c(spec: PatternSpec) -> float:
    """C starts at 1.0 for the fixed-input baseline, 0.0 otherwise."""
    return FIXED_C_INIT if spec.family is Family.BASELINE_FIXED else 0.0


def run_experiment(
    config: GemmConfig,
    samplers=(),
    node_id: str = "local",
    run_index: int = 0,
) -> tuple[RunRecord, dict]:
    """Execute one experiment; returns (record, {timeline_id: Timeline}).

    One C serves the warm-up and every repetition: each backend call
    updates it in place, so the run holds A, B and C, 3 * 8 * N^2 bytes.
    Samplers (telemetry.Sampler, telemetry.ReplaySampler) run concurrently
    with the workload.  The measured window is in the time frame of the
    first started sampler's timeline, the one a run's summary analyses.  A
    sampler that fails to start degrades the run to empty timeline_ids with
    a warning flag rather than aborting: power-less runs still carry valid
    FLOP-rate data.  Every started sampler is stopped, also when the
    workload raises; the workload's error then wins over a sampler's.
    """
    backend = get_backend(config.backend_id)
    pair: MatrixPair = generate(config.pattern)
    c = np.full((config.n_dim, config.n_dim), initial_c(config.pattern))

    warnings = []
    started = []
    for sampler in samplers:
        try:
            sampler.start()
            started.append(sampler)
        except Exception as exc:  # noqa: BLE001 - degrade, don't abort
            # ";" separates a record's warnings
            warnings.append(f"sampler {sampler.name} failed: {exc}".replace(";", ","))

    stopped = []  # each started sampler's timeline, or the error its stop() raised
    try:
        warmup_iters = 0
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < config.warmup_seconds:
            backend.run(pair.a, pair.b, c, config.alpha, config.beta)
            warmup_iters += 1
        warmup_elapsed = time.perf_counter() - t0

        t_start = time.perf_counter()
        for _ in range(config.reps):
            backend.run(pair.a, pair.b, c, config.alpha, config.beta)
        t_end = time.perf_counter()
    finally:
        for sampler in started:
            try:
                stopped.append(sampler.stop())
            except Exception as exc:  # noqa: BLE001 - raised below, unless the workload raised
                stopped.append(exc)
    measured = max(t_end - t_start, 1e-9)

    timelines = {}
    for idx, timeline in enumerate(stopped):
        if isinstance(timeline, Exception):
            raise timeline
        timelines[f"{timeline.source}-{idx}"] = timeline
    window = started[0].window(t_start, t_end) if started else (0.0, measured * 1000.0)

    total = flop_count(config.n_dim, config.reps)
    csum, cbits = checksum(c)
    record = RunRecord(
        config=config,
        warmup_seconds=warmup_elapsed,
        warmup_iterations=warmup_iters,
        measured_seconds=measured,
        total_flops=total,
        flop_rate=total / measured,
        checksum=csum,
        checksum_bits=cbits,
        timeline_ids=tuple(timelines),
        node_id=node_id,
        run_index=run_index,
        measured_start_ms=window[0],
        measured_end_ms=window[1],
        warnings=tuple(warnings),
    )
    return record, timelines
