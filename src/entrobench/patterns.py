"""Entropy-controlled DGEMM input matrix generation.

Input matrices are built from a declarative spec.PatternSpec: a family,
a power-of-two dimension N, a level and a value mode.

Block families keep the random fraction at exactly 50% for level >= 1,
arranged as row/column stripes or a checkerboard.  Sparse families grow
the random region from N cells (one row/column/diagonal) to the full
matrix.  All remaining cells are exactly 0.0.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError
from .spec import (FIXED_A_VALUE, FIXED_B_VALUE, SEED_SPLIT, Family, PatternSpec, ValueMode,
                   write_file)
from .spec import PATTERN_FAMILIES  # noqa: F401 - read as patterns.PATTERN_FAMILIES


@dataclass(frozen=True)
class MatrixPair:
    """Concrete A and B operands generated from a PatternSpec.

    Arrays are row-major float64 and frozen read-only, so a pair can be
    shared across threads after construction.
    """

    a: np.ndarray
    b: np.ndarray


def masks(spec: PatternSpec) -> tuple[np.ndarray, np.ndarray]:
    """Boolean random-designation masks (True = random cell) for A and B.

    Baseline families have trivially all-true masks and are rejected here;
    generate() handles them directly.
    """
    if spec.is_baseline:
        raise ConfigError(f"masks() does not apply to baseline family {spec.family.value}")

    n, lvl = spec.n_dim, spec.level
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]

    if lvl == 0 and spec.family in (Family.BLOCK_ROWCOL, Family.BLOCK_DIAGONAL):
        full = np.ones((n, n), dtype=bool)
        return full, full.copy()

    if spec.family is Family.BLOCK_ROWCOL:
        s = n // (1 << lvl)  # stripe height/width
        mask_a = np.broadcast_to((i // s) % 2 == 0, (n, n)).copy()
        mask_b = np.broadcast_to((j // s) % 2 == 0, (n, n)).copy()
        return mask_a, mask_b

    if spec.family is Family.BLOCK_DIAGONAL:
        # The stripe width s is a power of two, so i // s + j // s is even
        # exactly when i and j agree at bit s.
        s = n // (1 << lvl)
        mask_a = ((i ^ j) & s) == 0
        return mask_a, ~mask_a

    if spec.family is Family.SPARSE_ROWCOL:
        rows = 1 << lvl
        mask_a = np.broadcast_to(i < rows, (n, n)).copy()
        mask_b = np.broadcast_to(j < rows, (n, n)).copy()
        return mask_a, mask_b

    # sparse_diagonal: 2^level full diagonals, wrapping modulo N.  The
    # stride d is a power of two that divides N, so x & (d - 1) is x mod d,
    # for negative x too.
    d = n >> lvl
    mask_a = ((j - i) & (d - 1)) == 0
    mask_b = ((i + j) & (d - 1)) == d - 1
    return mask_a, mask_b


def random_fraction(mask: np.ndarray) -> float:
    """Fraction of random-designated cells in a mask."""
    return float(np.count_nonzero(mask)) / mask.size


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _uniform_open_closed(rng: np.random.Generator, count):
    """Draws on (0, 1], so none collides with the 0.0 zero-cell sentinel.

    An array draw is turned around in place, so it costs one array; a
    count of None draws one float.
    """
    x = rng.random(count)
    if count is None:
        return 1.0 - x
    return np.subtract(1.0, x, out=x)


def generate(spec: PatternSpec) -> MatrixPair:
    """Generate the A/B operand pair for a spec.

    Pure function of the spec: identical specs (including seed) yield
    bit-identical matrices.
    """
    n = spec.n_dim
    rng_a = _rng(spec.seed)
    rng_b = _rng(spec.seed ^ SEED_SPLIT)

    if spec.family is Family.BASELINE_FIXED:
        a = np.full((n, n), FIXED_A_VALUE)
        b = np.full((n, n), FIXED_B_VALUE)
    elif spec.family is Family.BASELINE_RANDOM:
        a = _uniform_open_closed(rng_a, (n, n))
        b = _uniform_open_closed(rng_b, (n, n))
    else:
        mask_a, mask_b = masks(spec)
        a = np.zeros((n, n))
        b = np.zeros((n, n))
        if spec.value_mode is ValueMode.FIXED_COMMON:
            common = _uniform_open_closed(rng_a, None)
            a[mask_a] = common
            b[mask_b] = common
        else:
            a[mask_a] = _uniform_open_closed(rng_a, int(np.count_nonzero(mask_a)))
            b[mask_b] = _uniform_open_closed(rng_b, int(np.count_nonzero(mask_b)))

    a.setflags(write=False)
    b.setflags(write=False)
    return MatrixPair(a=a, b=b)


def dump_matrix(matrix: np.ndarray, path) -> None:
    """Raw little-endian float64 dump, row-major, no header.

    Dimensions are carried by the owning manifest, not the file.
    """
    write_file(path, np.ascontiguousarray(matrix, dtype="<f8"))


def load_matrix(path, out: np.ndarray) -> None:
    """Read a dump_matrix file into out, which it overwrites.

    The file's size is checked before any byte is read, so a file of the
    wrong size raises FormatError naming it and leaves out unchanged.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size != out.size * 8:
            raise FormatError(f"matrix file {path} holds {size} bytes, "
                              f"expected {out.size * 8} for {out.shape[0]}x{out.shape[1]} float64")
        if out.flags.c_contiguous and out.dtype == np.dtype("<f8"):
            read = fh.readinto(memoryview(out).cast("B"))
            if read != size:
                raise FormatError(f"matrix file {path} ended after {read} of {size} bytes")
        else:
            out[...] = np.fromfile(fh, dtype="<f8").reshape(out.shape)
