"""perfbench: entrobench's benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of an entrobench checkout; it imports the package from
`src/` there.  One process runs one workload as a closed loop of steps
through the public CLI for about --seconds of step time, checks every
step's outputs, and prints the machine details and every metric with its
unit.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
named in BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1.  A traced run alternates each step untraced and traced, so it
also gives the tracing overhead.  Inputs, outputs and traces stay inside
the checkout: inputs and outputs under .perfbench_work/, removed at the
end, and results and spans under .perfbench_out/.
"""

import os

# Before numpy loads; the external DGEMM and every other child inherit them.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from calibration import Kernels  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_out"
SETUP_PROBES = 9

# A set-up probe: a fresh interpreter importing the CLI and loading the
# workload's manifest, i.e. everything before the first layer call.
PROBE = ("import sys, entrobench.cli, entrobench.manifest as m\n"
         "if len(sys.argv) > 1: m.load_manifest(sys.argv[1])\n"
         "print('ready', flush=True)\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="step time to measure (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_details() -> dict:
    cpu_model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "threads": {name: os.environ.get(name) for name in THREAD_ENV},
        "loadavg_1m": os.getloadavg()[0],
    }


def setup_seconds(manifest) -> float:
    """Seconds from spawning a probe until it has imported and loaded the manifest."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    argv = [sys.executable, "-c", PROBE] + ([str(manifest)] if manifest else [])
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return t1 - t0


def measure(wl, seconds: float, tracer):
    """Closed loop of steps until `seconds` of step time; checks each step.

    The set-up probes are spread over the loop, between steps, so their
    median covers the same stretch of the host's load as the steps do.
    Each untraced step is bracketed by runs of the workload's calibration
    kernel; its time over their mean is its relative time.  With a tracer
    every step runs twice, untraced and traced, in an order that
    alternates, and both count towards `seconds`.
    """
    steps = {False: [], True: []}
    setup = []
    relative = []
    calibrations = []
    kernels = Kernels(wl.work / "calibration")

    def calibrate():
        calibrations.append(kernels.seconds(wl.CALIBRATION))
        return calibrations[-1]

    fresh_cal = None  # a calibration with no step after it yet
    values = {False: defaultdict(list), True: defaultdict(list)}
    attempted = failed = 0
    busy = 0.0
    i = 0
    while i == 0 or busy < seconds:
        order = (False,) if tracer is None else ((False, True) if i % 2 == 0 else (True, False))
        for traced in order:
            wl.reset(i)
            if not traced and fresh_cal is None:
                fresh_cal = calibrate()
            before = fresh_cal
            with contextlib.ExitStack() as stack:
                if traced:
                    stack.enter_context(tracer.active())
                    stack.enter_context(wl.probe(tracer.values))
                t0 = time.perf_counter()
                try:
                    result = wl.step(i)
                except Exception:  # noqa: BLE001 - counted as failed units, run goes on
                    traceback.print_exc()
                    result = None
                elapsed = time.perf_counter() - t0
            fresh_cal = None
            if traced:
                wl.after_traced(i, tracer.values)
            else:
                fresh_cal = calibrate()
                relative.append(elapsed / ((before + fresh_cal) / 2))
            outcome = wl.check(i, result)
            attempted += outcome.attempted
            failed += outcome.failed
            for name, xs in outcome.values.items():
                values[traced][name] += xs
            steps[traced].append(elapsed)
            busy += elapsed
        i += 1
        while len(setup) < SETUP_PROBES * min(busy / seconds, 1.0):
            setup.append(setup_seconds(wl.setup_manifest))
    return steps, setup, relative, calibrations, values, attempted, failed


def run_workload(args, spec) -> int:
    sys.path.insert(0, str(SRC))
    import entrobench

    if Path(entrobench.__file__).resolve().parent != (SRC / "entrobench").resolve():
        print(f"perfbench: imported entrobench from {entrobench.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS, RunExternal

    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    work = WORK / f"{args.workload}-{os.getpid()}"  # runs side by side must not share files
    wl = WORKLOADS[args.workload](work, args.seed)
    tracer = Tracer(RunExternal.BACKEND) if args.trace else None
    try:
        wl.prepare()
        steps, setup, relative, calibrations, values, attempted, failed = measure(
            wl, seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    plain = steps[False]

    report = {  # name -> (value, unit, samples)
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "step_s_p50": (statistics.median(plain), "s", len(plain)),
        "step_rel_p50": (statistics.median(relative), "calib", len(relative)),
        "calibration_s": (statistics.median(calibrations), "s", len(calibrations)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "wall_s": (sum(plain), "s", len(plain)),
        "failed_frac": (failed / attempted, "frac", attempted),
    }
    if len(plain) >= 100:  # a percentile needs at least ten samples beyond it
        report["step_s_p90"] = (float(np.percentile(plain, 90)), "s", len(plain))
    report.update(wl.figures(plain, values[False]))

    if tracer is not None:
        pairs = list(zip(steps[False], steps[True]))
        layer = tracer.metrics(len(steps[True]), steps[True], pairs, values[True])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: {"value": layer[name], "unit": units[name]} for name in units}
    else:
        metrics = {m["name"]: {"value": report[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    machine = machine_details()
    print(f"perfbench workload={wl.name} seed={args.seed} seconds={seconds:g} trace={args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for name, (value, unit, samples) in report.items():
        print(f"  {name:<18} {value:>14.6g} {unit:<8} n={samples}")
    if tracer is not None:
        for name, entry in metrics.items():
            print(f"  {name:<34} {entry['value']:>14.6g} {entry['unit']}")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (RESULTS / f"{stem}.json").write_text(json.dumps({
        **result, "workload": wl.name, "seed": args.seed, "seconds": seconds,
        "machine": machine, "setup_probes_s": setup, "steps_s": plain,
        "calibrations_s": calibrations,
        "report": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in report.items()},
    }, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(RESULTS / f"{stem}-spans.json")
    print(json.dumps(result))
    return 0


def run_all(args, spec) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for w in spec["workloads"]:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            argv += ["--seconds", str(args.seconds)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {w['name']} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[w["name"]] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "entrobench" / "__init__.py").is_file() or not SPEC.is_file():
        print("perfbench: run from the root of an entrobench checkout "
              "(needs src/entrobench/ and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r} (known: {names})", file=sys.stderr)
        return 2
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
