"""External DGEMM program for the raw-file subprocess backend protocol.

Usage: python3 ext_dgemm.py <compute-log> input.manifest

Follows the protocol in entrobench.gemm.make_subprocess_backend: reads n,
alpha, beta and the raw little-endian float64 a/b/c files named in the
manifest, computes C' = alpha*A@B + beta*C with single-threaded numpy
matmul, and leaves c_out.bin plus a result.manifest carrying wall_seconds.
The runner discards wall_seconds, so the compute seconds are also appended
to <compute-log>, one line per call; the benchmark uses them as the base of
the external backend's overhead share.
"""

import os
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402  (thread settings must precede the import)


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    log_path, manifest_path = argv[1], argv[2]
    with open(manifest_path) as fh:
        fields = dict(line.split("=", 1) for line in fh.read().splitlines() if "=" in line)
    n = int(fields["n"])
    alpha, beta = float(fields["alpha"]), float(fields["beta"])
    a, b, c = (np.fromfile(fields[key], dtype="<f8").reshape(n, n) for key in ("a", "b", "c"))

    t0 = time.perf_counter()
    c_out = alpha * (a @ b) + beta * c
    compute_s = time.perf_counter() - t0

    c_out.astype("<f8").tofile("c_out.bin")
    with open("result.manifest", "w") as fh:
        fh.write(f"wall_seconds={compute_s!r}\nc_out=c_out.bin\n")
    with open(log_path, "a") as fh:
        fh.write(f"{compute_s!r}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
