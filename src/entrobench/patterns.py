"""Entropy-controlled DGEMM input matrix generation.

Input matrices are built from a declarative spec.PatternSpec: a family,
a power-of-two dimension N, a level and a value mode.

Block families keep the random fraction at exactly 50% for level >= 1,
arranged as row/column stripes or a checkerboard.  Sparse families grow
the random region from N cells (one row/column/diagonal) to the full
matrix.  All remaining cells are exactly 0.0.  B's mask is A's transpose
for the row/column families, its complement for the checkerboard (both
full at level 0), and its left-right mirror (anti-diagonals) for the
diagonals.
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

    Each family defines A's mask; B's is a fixed symmetry of it.  Both are
    C-contiguous, writable copies.  Baseline families have all-true masks
    and are rejected here; generate() handles them directly.
    """
    if spec.is_baseline:
        raise ConfigError(f"masks() does not apply to baseline family {spec.family.value}")

    n, lvl, family = spec.n_dim, spec.level, spec.family
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    s = n >> lvl  # block stripe width, or sparse diagonal stride; a power of two dividing n
    if family is Family.BLOCK_ROWCOL:  # row stripes, every row at level 0; B: transpose
        mask_a = np.broadcast_to((i // s) % 2 == 0, (n, n))
        mask_b = mask_a.T
    elif family is Family.SPARSE_ROWCOL:  # the first 2^level rows; B: transpose
        mask_a = np.broadcast_to(i < (1 << lvl), (n, n))
        mask_b = mask_a.T
    elif family is Family.BLOCK_DIAGONAL:  # s x s checkerboard; B: complement, full at level 0
        # i // s + j // s is even exactly when i and j agree at bit s.
        mask_a = ((i ^ j) & s) == 0
        mask_b = ~mask_a if lvl else mask_a
    else:  # sparse_diagonal: 2^level diagonals j - i = 0 mod s; B: left-right mirror
        # x & (s - 1) is x mod s, for negative x too.  Mirrored, the
        # diagonals are i + j = s - 1 mod s, since s divides n.
        mask_a = ((j - i) & (s - 1)) == 0
        mask_b = mask_a[:, ::-1]
    return mask_a.copy(), mask_b.copy()


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _uniform_open_closed(rng: np.random.Generator, count) -> np.ndarray:
    """Draws on (0, 1], so none collides with the 0.0 zero-cell sentinel.

    The draw is turned around in place, so it costs one array.
    """
    x = rng.random(count)
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
            common = _uniform_open_closed(rng_a, 1)[0]
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
