"""The four perfbench workloads.

Each workload writes its inputs from the seed (`prepare`), runs one step
through the public CLI (`step`) and checks that step's outputs (`check`).
A step is one CLI invocation; for fixtures-replay it is one `fixtures` call
followed by one `replay` of its output.  `check` counts units as the
end-to-end metrics define them (a scored spec, a sweep point, a run, a
fixtures or replay call) and returns per-step values for the report.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import shutil
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from entrobench import cli, fixtures, gemm, model, patterns, telemetry

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0  # golden_score.csv holds the seed code's score.csv rows for it
MODES = ("independent", "fixed_common")
ALPHA, BETA = 1.5, 0.5  # not 1, so the oracle also checks how alpha and beta are applied
TRIM_FRACTION = 0.05  # the manifest default the steady-state window uses
SCORE_FIELDS = ("family", "level", "value_mode", "score_per_flop", "mul_toggles",
                "acc_toggles", "flops")


@dataclass
class Outcome:
    attempted: int
    failed: int
    values: dict = field(default_factory=dict)  # name -> list of per-unit samples


def run_cli(argv) -> int:
    """Call `entrobench.cli.main` with its console output captured.

    The module attribute is looked up on every call, so a traced step sees
    the wrapped `main`.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(arg) for arg in argv])
    if rc != 0 or err.getvalue():
        sys.stderr.write(err.getvalue())
    return rc


def write_ini(path: Path, sections: dict) -> Path:
    lines = []
    for name, items in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in items.items()]
        lines.append("")
    path.write_text("\n".join(lines))
    return path


def read_rows(path) -> list[dict]:
    """CSV rows of an output file, skipping its `#` schema line."""
    lines = [line for line in Path(path).read_text().splitlines()
             if line and not line.startswith("#")]
    return list(csv.DictReader(lines))


def float_bits(x: float) -> str:
    return f"{int(np.float64(x).view(np.uint64)):016x}"


def sequential_sum(c: np.ndarray) -> float:
    """Row-major ascending sum, one addition at a time."""
    return float(np.add.accumulate(c.ravel())[-1])


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def file_digest_of(matrix: np.ndarray) -> str:
    """Digest of the raw little-endian file patterns.dump_matrix writes."""
    return hashlib.sha256(np.ascontiguousarray(matrix, dtype="<f8").tobytes()).hexdigest()


def read_row_block(path, n: int, row: int, rows: int) -> np.ndarray:
    return np.fromfile(path, dtype="<f8", count=rows * n, offset=row * n * 8).reshape(rows, n)


def oracle_gemm_chain(a, b, alpha: float, beta: float, reps: int) -> np.ndarray:
    """reps back-to-back C <- alpha*A@B + beta*C from C = 0.

    k-outer ascending accumulation adds the same products in the same order
    per cell as a scalar triple loop, so the result is bit-exact against
    the reference kernel.
    """
    n = a.shape[0]
    c = np.zeros((n, n))
    for _ in range(reps):
        acc = np.zeros((n, n))
        for k in range(n):
            acc = acc + a[:, k:k + 1] * b[k]
        c = alpha * acc + beta * c
    return c


class Workload:
    name = ""
    CALIBRATION = ("int_loop",)  # calibration.Kernels kernels whose time tracks a step's
    setup_manifest: Path | None = None  # loaded by each set-up probe

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.pattern_seed = seed % (1 << 64)
        self.rng = np.random.default_rng(self.pattern_seed)
        self.out = work / "out"
        work.mkdir(parents=True, exist_ok=True)

    def prepare(self) -> None:
        """Write the seeded inputs; not timed."""

    def reset(self, i: int) -> None:
        """Remove the previous step's outputs, so every check sees fresh files."""
        shutil.rmtree(self.out, ignore_errors=True)

    def step(self, i: int) -> dict:
        raise NotImplementedError

    def check(self, i: int, result: dict | None) -> Outcome:
        raise NotImplementedError

    def probe(self, values: dict):
        """Context around each traced step, inside the tracer; may add to values."""
        return contextlib.nullcontext()

    def after_traced(self, i: int, values: dict) -> None:
        """Runs after each traced step, untimed and with the tracer removed."""

    def figures(self, steps: list[float], values: dict) -> dict:
        """Workload-specific end-to-end figures: name -> (value, unit, samples)."""
        return {}


def median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


class ScoreSweep(Workload):
    """Toggle-model `score` of every pattern family, one (family, level) per step.

    A step scores both value modes of one level; 32 steps cover the 64 specs.
    """

    name = "score-sweep"
    N = 128
    LANES = 4
    FAMILIES = tuple(f.value for f in patterns.PATTERN_FAMILIES)

    def prepare(self):
        levels = range(self.N.bit_length())  # 0 .. log2(N)
        self.points = [(family, level) for family in self.FAMILIES for level in levels]
        self.manifests = [
            write_ini(self.work / f"score-{family}-L{level}.ini", {
                "pattern": {"family": family, "n": self.N, "level": level,
                            "seed": self.pattern_seed},
                "sweep": {"level_min": level, "level_max": level, "value_modes": ",".join(MODES)},
                "model": {"lanes": self.LANES},
            })
            for family, level in self.points
        ]
        self.setup_manifest = self.manifests[0]
        self.peak_measured = set()
        # Default seed: each row must be the seed code's bytes.  Any other
        # seed: the bytes this run produced the first time it scored the spec.
        self.rows = {}
        if self.seed == DEFAULT_SEED:
            for line in (HERE / "golden_score.csv").read_text().splitlines()[1:]:
                family, level, mode = line.split(",")[:3]
                self.rows[family, int(level), mode] = line

    def step(self, i):
        manifest = self.manifests[i % len(self.manifests)]
        return {"rc": run_cli(["--manifest", manifest, "--out", self.out, "score"])}

    def check(self, i, result):
        family, level = self.points[i % len(self.points)]
        if result is None or result["rc"] != 0:
            return Outcome(len(MODES), len(MODES))
        good = set()
        try:
            for line in (self.out / "score.csv").read_text().splitlines()[1:]:
                row = dict(zip(SCORE_FIELDS, line.split(",")))
                key = (row["family"], int(row["level"]), row["value_mode"])
                if (key[:2] == (family, level) and key[2] in MODES and key not in good
                        and int(row["flops"]) == self.N ** 3
                        and math.isfinite(float(row["score_per_flop"]))
                        and int(row["mul_toggles"]) >= 0 and int(row["acc_toggles"]) >= 0
                        and self.rows.setdefault(key, line) == line):
                    good.add(key)
        except (OSError, KeyError, ValueError):
            good = set()
        return Outcome(len(MODES), len(MODES) - len(good))

    def after_traced(self, i, values):
        """Peak traced bytes per simulated FLOP, once per family and run.

        tracemalloc slows the model's many small allocations about threefold,
        so it runs here, on one extra spec, instead of inside the timed step.
        """
        family, level = self.points[i % len(self.points)]
        if family in self.peak_measured:
            return
        self.peak_measured.add(family)
        spec = patterns.PatternSpec(family=family, n_dim=self.N, level=level,
                                    seed=self.pattern_seed)
        tracemalloc.start()
        try:
            report = model.score_spec(spec, model.schedule_for_lanes(self.LANES))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        values["peak_bytes_per_flop"].append(peak / report.flops)

    def figures(self, steps, values):
        flops = len(MODES) * self.N ** 3
        return {"sim_gflop_per_s": (flops / median(steps) / 1e9, "GFLOP/s", len(steps))}


class SweepReference(Workload):
    """Reference-backend `sweep` of sparse_diagonal against a generated replay timeline.

    A step sweeps one point, so the 18-point sweep (9 levels x 2 value
    modes) takes 18 steps and a run holds enough steps for steady figures.
    """

    name = "sweep-reference"
    CALIBRATION = ("ufunc_loop",)
    N = 256
    REPS = 4
    TIMELINE_SAMPLES = 200
    TIMELINE_INTERVAL_MS = 100.0
    PROBE_INTERVAL_MS = 100.0

    def prepare(self):
        times = [i * self.TIMELINE_INTERVAL_MS for i in range(self.TIMELINE_SAMPLES)]
        watts = [float(w) for w in 200.0 + 200.0 * self.rng.random(self.TIMELINE_SAMPLES)]
        timeline = self.work / "timeline.csv"
        timeline.write_text(
            f"# entrobench-timeline v1 source=replay epoch=0.0 "
            f"interval_ms={self.TIMELINE_INTERVAL_MS!r}\n"
            "t_ms,watts,source\n"
            + "".join(f"{t!r},{w!r},replay\n" for t, w in zip(times, watts))
        )
        # A replayed run's measured window is the recorded span, trimmed at both ends.
        span = times[-1] - times[0]
        lo, hi = times[0] + TRIM_FRACTION * span, times[-1] - TRIM_FRACTION * span
        window = [w for t, w in zip(times, watts) if lo <= t <= hi]
        self.expected_mean_w = sum(window) / len(window)

        self.points = [(mode, level) for mode in MODES for level in range(self.N.bit_length())]
        self.manifests = [
            write_ini(self.work / f"sweep-{mode}-L{level}.ini", {
                "pattern": {"family": "sparse_diagonal", "n": self.N, "seed": self.pattern_seed},
                "gemm": {"reps": self.REPS, "alpha": ALPHA, "beta": BETA,
                         "backend": "reference", "warmup_seconds": 0.0},
                "telemetry": {"sources": f"replay:{timeline}",
                              "interval_ms": self.TIMELINE_INTERVAL_MS},
                "sweep": {"level_min": level, "level_max": level, "value_modes": mode},
            })
            for mode, level in self.points
        ]
        self.setup_manifest = self.manifests[0]
        self.pm_file = self.work / "probe-power"
        self.pm_file.write_text(f"{200 + int(self.rng.integers(0, 1600)) / 8!r} W 1000000\n")
        self.oracle_bits = {}

    def oracle(self, level: int, mode: str) -> str:
        key = (level, mode)
        if key not in self.oracle_bits:
            spec = patterns.PatternSpec(family="sparse_diagonal", n_dim=self.N, level=level,
                                        value_mode=mode, seed=self.pattern_seed)
            pair = patterns.generate(spec)
            c = oracle_gemm_chain(pair.a, pair.b, ALPHA, BETA, self.REPS)
            self.oracle_bits[key] = float_bits(sequential_sum(c))
        return self.oracle_bits[key]

    def step(self, i):
        manifest = self.manifests[i % len(self.manifests)]
        return {"rc": run_cli(["--manifest", manifest, "--out", self.out, "sweep"])}

    def check(self, i, result):
        mode, level = self.points[i % len(self.points)]
        point = self.out / f"sparse_diagonal-{mode}-L{level:02d}"
        try:
            record = read_rows(point / "record.csv")[0]
            summary = read_rows(point / "summary.csv")[0]
            ok = (result is not None and result["rc"] == 0
                  and not (point / "failed").exists()
                  and record["checksum_bits"] == self.oracle(level, mode)
                  and int(record["reps"]) == self.REPS
                  and int(record["warmup_iterations"]) == 0
                  and int(record["total_flops"]) == self.REPS * 2 * self.N ** 3
                  and float(summary["mean_w"]) == self.expected_mean_w)
        except (OSError, IndexError, KeyError, ValueError):
            return Outcome(1, 1)
        return Outcome(1, 0 if ok else 1, {"flop_rate": [float(record["flop_rate"])]})

    @contextlib.contextmanager
    def probe(self, values):
        """Live sampler next to the Python-bound sweep; shows how it is starved."""
        sampler = telemetry.Sampler(telemetry.FilePowerSource(self.pm_file),
                                    interval_ms=self.PROBE_INTERVAL_MS)
        t0 = time.perf_counter()
        sampler.start()
        try:
            yield
        finally:
            timeline = sampler.stop()
            ticks = (time.perf_counter() - t0) * 1000.0 // self.PROBE_INTERVAL_MS + 1
            values["live_yield_reference"].append(len(timeline) / ticks)

    def figures(self, steps, values):
        rates = values.get("flop_rate", [])
        return {"gflop_per_s": (median(rates) / 1e9, "GFLOP/s", len(rates))}


class RunExternal(Workload):
    """`run` with an out-of-process DGEMM and a live pm_counters source."""

    name = "run-external"
    CALIBRATION = ("spawn",)
    N = 1024
    REPS = 3
    WARMUP_SECONDS = 0.2
    INTERVAL_MS = 10.0
    BACKEND = "perfbench_ext"
    RTOL = 1e-12  # numpy matmul here against the same call in the child
    BLOCK_ROWS = 64

    def prepare(self):
        self.ext_dir = self.work / "ext"
        self.compute_log = self.work / "ext-compute.log"
        gemm.register_backend(self.BACKEND, gemm.make_subprocess_backend(
            [sys.executable, str(HERE / "ext_dgemm.py"), str(self.compute_log)], self.ext_dir))
        # Eighths are exact in binary, so a mean of equal readings is exact too.
        self.pm_watts = 150 + int(self.rng.integers(0, 2000)) / 8
        pm_file = self.work / "power"
        pm_file.write_text(f"{self.pm_watts!r} W {int(self.rng.integers(10**9, 10**12))}\n")
        self.manifest = write_ini(self.work / "run.ini", {
            "pattern": {"family": "baseline_random", "n": self.N, "seed": self.pattern_seed},
            "gemm": {"reps": self.REPS, "alpha": ALPHA, "beta": BETA,
                     "backend": self.BACKEND, "warmup_seconds": self.WARMUP_SECONDS},
            "telemetry": {"sources": f"pm:{pm_file}", "interval_ms": self.INTERVAL_MS},
        })
        self.setup_manifest = self.manifest
        pair = patterns.generate(patterns.PatternSpec(
            family="baseline_random", n_dim=self.N, seed=self.pattern_seed))
        self.input_digests = (file_digest_of(pair.a), file_digest_of(pair.b))

    def reset(self, i):
        super().reset(i)
        shutil.rmtree(self.ext_dir, ignore_errors=True)
        self.compute_log.unlink(missing_ok=True)

    def step(self, i):
        return {"rc": run_cli(["--manifest", self.manifest, "--out", self.out, "run"])}

    def check(self, i, result):
        if result is None or result["rc"] != 0:
            return Outcome(1, 1)
        try:
            record = read_rows(self.out / "record.csv")[0]
            summary = read_rows(self.out / "summary.csv")[0]
            (timeline_path,) = self.out.glob("timeline-*.csv")
            samples = [(float(r["t_ms"]), float(r["watts"])) for r in read_rows(timeline_path)]
            start, end = float(record["measured_start_ms"]), float(record["measured_end_ms"])
            in_window = sum(1 for t, _ in samples if start <= t <= end)
            sample_yield = in_window / ((end - start) / self.INTERVAL_MS)

            compute_s = [float(x) for x in self.compute_log.read_text().split()]
            warmups = int(record["warmup_iterations"])
            c_out_sum, c_out_ok = self.check_last_gemm()
            ok = (c_out_ok
                  and record["checksum_bits"] == float_bits(c_out_sum)
                  and int(record["reps"]) == self.REPS
                  and int(record["total_flops"]) == self.REPS * 2 * self.N ** 3
                  and len(compute_s) == warmups + self.REPS
                  and all(w == self.pm_watts for _, w in samples)
                  and float(summary["mean_w"]) == self.pm_watts)
        except (OSError, ValueError, KeyError, IndexError):
            return Outcome(1, 1)
        return Outcome(1, 0 if ok else 1, {
            "flop_rate": [float(record["flop_rate"])],
            "sample_yield": [sample_yield],
            "warmup_iterations": [warmups],
            "external_compute_s": [sum(compute_s)],
        })

    def check_last_gemm(self) -> tuple[float, bool]:
        """The backend's last call: inputs as generated, C' = alpha*A@B + beta*C.

        Reads row blocks, so the check never holds more than B and a few
        blocks; the process's peak memory stays the workload's own.
        Returns the sequential sum of C' and whether every check held.
        """
        ext = self.ext_dir
        ok = (file_digest(ext / "a.bin"), file_digest(ext / "b.bin")) == self.input_digests
        b = np.fromfile(ext / "b.bin", dtype="<f8").reshape(self.N, self.N)
        total = 0.0
        for row in range(0, self.N, self.BLOCK_ROWS):
            a, c_in, c_out = (read_row_block(ext / name, self.N, row, self.BLOCK_ROWS)
                              for name in ("a.bin", "c.bin", "c_out.bin"))
            expected = ALPHA * (a @ b) + BETA * c_in
            ok = ok and np.allclose(c_out, expected, rtol=self.RTOL, atol=0.0)
            total = sequential_sum(np.concatenate(([total], c_out.ravel())))
        return total, ok

    def figures(self, steps, values):
        rates, yields = values.get("flop_rate", []), values.get("sample_yield", [])
        return {"gflop_per_s": (median(rates) / 1e9, "GFLOP/s", len(rates)),
                "sample_yield": (median(yields), "frac", len(yields))}


class FixturesReplay(Workload):
    """`fixtures` then `replay` of the 122 embedded recorded runs."""

    name = "fixtures-replay"
    CALIBRATION = ("int_loop", "files")  # a step is part interpreter, part file system
    FIXTURE_RUNS = 122  # 8 curves x 15 levels + 2 baselines
    PERCENT_INCREASE = "percent_increase=66.96\n"
    SERIES_TOLERANCE_W = 0.01

    def prepare(self):
        self.fixtures_dir = self.out / "fixtures"
        self.replay_dir = self.out / "replay"
        self.marker = self.work / "step-started"

    def reset(self, i):
        """Keep the fixture directories, so each step rewrites the same files.

        Deleting and recreating 244 files a step makes the step time follow
        the disk's discard and allocation delays, not the toolkit.  Written
        files are checked for freshness against a marker touched here.
        """
        shutil.rmtree(self.replay_dir, ignore_errors=True)
        self.marker.touch()

    def step(self, i):
        t0 = time.perf_counter()
        rc_fixtures = run_cli(["--out", self.fixtures_dir, "fixtures"])
        t1 = time.perf_counter()
        rc_replay = run_cli(["--out", self.replay_dir, "replay", self.fixtures_dir])
        t2 = time.perf_counter()
        return {"rc": (rc_fixtures, rc_replay), "fixtures_s": t1 - t0, "replay_s": t2 - t1}

    def check(self, i, result):
        if result is None:
            return Outcome(2, 2)
        rc_fixtures, rc_replay = result["rc"]
        started_ns = self.marker.stat().st_mtime_ns
        written = [p for p in self.fixtures_dir.glob("*/*.csv") if p.stat().st_mtime_ns >= started_ns]
        fixtures_ok = rc_fixtures == 0 and len(written) == 2 * self.FIXTURE_RUNS
        try:
            points = 0
            for (family, mode), watts in fixtures.POWER_SWEEPS_W.items():
                rows = read_rows(self.replay_dir / f"series-{family.value}-{mode.value}.csv")
                for row in rows:
                    if abs(float(row["mean_w"]) - watts[int(row["level"])]) <= self.SERIES_TOLERANCE_W:
                        points += 1
            replay_ok = (rc_replay == 0 and points == sum(map(len, fixtures.POWER_SWEEPS_W.values()))
                         and (self.replay_dir / "report.txt").read_text() == self.PERCENT_INCREASE)
        except (OSError, KeyError, ValueError, IndexError):
            replay_ok = False
        return Outcome(2, (not fixtures_ok) + (not replay_ok), {
            "fixtures_s": [result["fixtures_s"]], "replay_s": [result["replay_s"]]})

    def figures(self, steps, values):
        fx, rp = values.get("fixtures_s", []), values.get("replay_s", [])
        out = {"fixtures_s_p50": (median(fx), "s", len(fx)),
               "replay_s_p50": (median(rp), "s", len(rp))}
        if len(rp) >= 100:  # p90 only with at least ten samples beyond it
            out["replay_s_p90"] = (float(np.percentile(rp, 90)), "s", len(rp))
        return out


WORKLOADS = {w.name: w for w in (ScoreSweep, SweepReference, RunExternal, FixturesReplay)}
