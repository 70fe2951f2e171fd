"""Calibration kernels: fixed work, written in the benchmark, timed next to each step.

A shared host changes speed from one second to the next, and different
kinds of work slow by different amounts when it does: interpreter-bound
code more than array-bound code, process start-up differently again.  A
step's time over the time of a kernel that slows the way the step does
cancels most of that drift.  The kernels are the benchmark's own code, so
no change to entrobench moves them.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np


class Kernels:
    def __init__(self, scratch: Path):
        rng = np.random.default_rng(0)
        self.a = rng.random((256, 256))
        self.b = rng.random(256)
        self.rows = "".join(f"{x!r},{x * 2.0!r},fixture\n" for x in rng.random(40))
        self.scratch = scratch

    def int_loop(self):
        """Pure interpreter work."""
        total = 0
        for k in range(150_000):
            total += k * k
        return total

    def ufunc_loop(self):
        """Small-array ufunc calls from a Python loop, like the reference GEMM."""
        acc = np.zeros(256)
        for k in range(7500):
            acc = acc + self.a[k & 255] * self.b
        return acc

    def files(self):
        """Rewrite and read back small text files, like record and timeline I/O."""
        self.scratch.mkdir(parents=True, exist_ok=True)
        for k in range(120):
            path = self.scratch / f"f{k:03d}.csv"
            path.write_text(self.rows)
            path.read_text()

    def spawn(self):
        """Two fresh interpreters importing numpy, like calls of the external backend.

        Two, because one start-up alone varies more than the steps do.
        """
        for _ in range(2):
            subprocess.run([sys.executable, "-c", "import numpy"], check=True)

    def seconds(self, names) -> float:
        """Seconds for the named kernels, run one after another."""
        t0 = time.perf_counter()
        for name in names:
            getattr(self, name)()
        return time.perf_counter() - t0
