"""Spans around entrobench's public functions, from outside the package.

`Tracer.active()` replaces each traced function where its callers look it
up (a module attribute, a class attribute or the backend registry) with a
wrapper that records a span, and puts the originals back on exit.  Spans
are kept in memory as (id, parent, name, start, end, thread) and written
out once, at the end of the run.  A span's layer is the part of its name
before the first dot; its self time is its duration minus that of its
child spans.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict

import numpy as np

from entrobench import analysis, cli, gemm, model, patterns, records, telemetry

LAYERS = ("patterns", "gemm", "telemetry", "model", "analysis")


class Tracer:
    def __init__(self, external_backend: str):
        self.external_backend = external_backend
        self.spans = []
        self.values = defaultdict(list)  # name -> samples gathered at span boundaries
        self.ticks = defaultdict(list)   # id(live source) -> start time of each read
        self.sources = {}                # id(live source) -> (source, interval_ms)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name, fn, after=None):
        """fn inside a span; after(args, result) runs once the span has ended."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end, threading.get_ident()))
            if after is not None:
                after(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def active(self):
        saved = []

        def replace(owner, attr, new):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        def patch(owner, attr, name, after=None):
            replace(owner, attr, self.wrap(name, getattr(owner, attr), after))

        v = self.values
        patch(cli, "main", "cli.command")
        patch(cli, "discover_run_dirs", "cli.discover")
        patch(cli, "run_experiment", "gemm.run_experiment", self._on_run)
        patch(records, "write_record", "cli.records_write")
        patch(records, "read_record", "cli.records_read")
        patch(patterns, "generate", "patterns.generate")  # looked up by model.score_spec
        patch(gemm, "generate", "patterns.generate")      # looked up by gemm.run_experiment
        patch(patterns, "dump_matrix", "gemm.matrix_io")
        patch(patterns, "load_matrix", "gemm.matrix_io")
        patch(gemm, "checksum", "gemm.checksum",
              lambda args, _: v["checksum_elems"].append(np.size(args[0])))
        patch(telemetry, "write_timeline", "telemetry.write_timeline")
        patch(telemetry, "read_timeline", "telemetry.read_timeline",
              lambda _, timeline: v["samples_parsed"].append(len(timeline)))
        patch(model, "operand_stream", "model.operand_stream",
              lambda _, s: v["stream_bytes"].append(
                  s.a_vals.nbytes + s.b_vals.nbytes + s.acc_vals.nbytes))
        patch(model, "toggle_score", "model.toggle_score",
              lambda _, report: v["sim_flops"].append(report.flops))
        patch(analysis, "steady_state_window", "analysis.steady_state",
              lambda _, stats: v["window_samples"].append(stats.sample_count))

        # The sampler thread's loop only sleeps between reads, so it gets no
        # span; it registers the source so each read can be set against its tick.
        sample_loop = telemetry.sample_loop

        def registering_loop(source, interval_ms, stop_signal):
            self.sources[id(source)] = (source, interval_ms)  # keeps the id unique
            return sample_loop(source, interval_ms, stop_signal)

        replace(telemetry, "sample_loop", registering_loop)
        traced_read = self.wrap("telemetry.read", telemetry.FilePowerSource.read)

        def ticking_read(source):
            self.ticks[id(source)].append(time.perf_counter())
            return traced_read(source)

        replace(telemetry.FilePowerSource, "read", ticking_read)

        patch(model, "score_spec", "model.score_spec")

        backends = {"reference": ("gemm.reference", self._on_reference),
                    self.external_backend: ("gemm.backend_run", None)}
        originals = {bid: gemm.get_backend(bid) for bid in backends if bid in gemm.backend_ids()}
        for bid, original in originals.items():
            name, after = backends[bid]
            gemm.register_backend(bid, dataclasses.replace(
                original, run=self.wrap(name, original.run, after)))
        try:
            yield self
        finally:
            for bid, original in originals.items():
                gemm.register_backend(bid, original)
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _on_reference(self, args, _):
        self.values["reference_flops"].append(2 * args[0].shape[0] ** 3)

    def _on_run(self, _, result):
        record, timelines = result
        v = self.values
        v["warmup_iterations"].append(record.warmup_iterations)
        v["flop_rate"].append(record.flop_rate)
        start, end = record.measured_start_ms, record.measured_end_ms
        for timeline in timelines.values():
            if timeline.source == "replay":
                continue
            v["live_samples"].append(len(timeline))
            v["gap_count"].append(timeline.gap_count)
            inside = sum(1 for s in timeline.samples if start <= s.t_ms <= end)
            v["sample_yield"].append(inside / ((end - start) / timeline.interval_ms))

    def tick_lateness_ms(self) -> list[float]:
        """How late each live read started against its nominal tick."""
        late = []
        for source_id, starts in self.ticks.items():
            interval_s = self.sources[source_id][1] / 1000.0
            late += [(t - starts[0] - k * interval_s) * 1000.0 for k, t in enumerate(starts)]
        return late

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "thread"],
                       "spans": self.spans}, fh)

    def metrics(self, steps: int, step_s: list[float], pairs: list[tuple[float, float]],
                step_values: dict) -> dict:
        """Per-layer metrics; times and counts are per traced step.

        step_values holds what the workload's checks gathered on traced
        steps; pairs holds (untraced, traced) seconds of the same step.
        """
        total, calls, child = defaultdict(float), defaultdict(int), defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            child[parent] += end - start
        layer_self = defaultdict(float)
        for span_id, _, name, start, end, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            layer_self[name.split(".", 1)[0]] += end - start - child[span_id]

        v = self.values

        def per_step(x):
            return x / steps

        def ratio(a, b):
            return a / b if b else 0.0

        def pct(xs, q):
            return float(np.percentile(xs, q)) if xs else 0.0

        def med(xs):
            return statistics.median(xs) if xs else 0.0

        late = self.tick_lateness_ms()
        compute_s = sum(step_values.get("external_compute_s", []))
        fixtures_s, replay_s = step_values.get("fixtures_s", []), step_values.get("replay_s", [])
        out = {
            "patterns.generate_s": per_step(total["patterns.generate"]),
            "patterns.generate_calls": per_step(calls["patterns.generate"]),
            "gemm.reference_s": per_step(total["gemm.reference"]),
            "gemm.reference_calls": per_step(calls["gemm.reference"]),
            "gemm.reference_gflop_per_s":
                ratio(sum(v["reference_flops"]), total["gemm.reference"]) / 1e9,
            "gemm.checksum_s": per_step(total["gemm.checksum"]),
            "gemm.checksum_elems_per_s": ratio(sum(v["checksum_elems"]), total["gemm.checksum"]),
            "gemm.backend_run_s": per_step(total["gemm.backend_run"]),
            "gemm.matrix_io_s": per_step(total["gemm.matrix_io"]),
            "gemm.external_compute_s": per_step(compute_s),
            "gemm.external_overhead_frac":
                ratio(total["gemm.backend_run"] - compute_s, total["gemm.backend_run"]),
            "gemm.warmup_iterations": per_step(sum(v["warmup_iterations"])),
            "gemm.flop_rate_gflop_per_s": med(v["flop_rate"]) / 1e9,
            "telemetry.samples": per_step(sum(v["live_samples"])),
            "telemetry.gap_count": per_step(sum(v["gap_count"])),
            "telemetry.read_s": per_step(total["telemetry.read"]),
            "telemetry.tick_late_ms_p50": pct(late, 50),
            "telemetry.tick_late_ms_p90": pct(late, 90),
            "telemetry.sample_yield": med(v["sample_yield"]),
            "telemetry.live_yield_reference": med(v["live_yield_reference"]),
            "telemetry.write_timeline_s": per_step(total["telemetry.write_timeline"]),
            "telemetry.read_timeline_s": per_step(total["telemetry.read_timeline"]),
            "telemetry.samples_parsed_per_s":
                ratio(sum(v["samples_parsed"]), total["telemetry.read_timeline"]),
            "model.operand_stream_s": per_step(total["model.operand_stream"]),
            "model.toggle_score_s": per_step(total["model.toggle_score"]),
            "model.sim_flops": per_step(sum(v["sim_flops"])),
            "model.sim_gflop_per_s": ratio(sum(v["sim_flops"]), sum(step_s)) / 1e9,
            "model.peak_bytes_per_flop": max(v["peak_bytes_per_flop"], default=0.0),
            "model.stream_bytes_computed": max(v["stream_bytes"], default=0),
            "analysis.steady_state_s": per_step(total["analysis.steady_state"]),
            "analysis.window_samples": per_step(sum(v["window_samples"])),
            "cli.records_write_s": per_step(total["cli.records_write"]),
            "cli.records_read_s": per_step(total["cli.records_read"]),
            "cli.discover_s": per_step(total["cli.discover"]),
            "cli.self_s": per_step(layer_self["cli"] - total["cli.discover"]
                                   - total["cli.records_write"] - total["cli.records_read"]),
            "cli.layer_self_s": per_step(layer_self["cli"]),
            "cli.fixtures_s_p50": med(fixtures_s),
            "cli.replay_s_p50": med(replay_s),
            "cli.replay_s_p90": pct(replay_s, 90),
            "trace.overhead_frac": med([t / u - 1.0 for u, t in pairs]),
            "trace.overhead_s": med([t - u for u, t in pairs]),
            "trace.spans": per_step(len(self.spans)),
        }
        out.update({f"{layer}.self_s": per_step(layer_self[layer]) for layer in LAYERS})
        return out
