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

# Cells of A (and of B) that generate fills per block of rows: at least one row.
GEN_BLOCK = 1 << 16


@dataclass(frozen=True)
class MatrixPair:
    """Concrete A and B operands generated from a PatternSpec.

    Arrays are row-major float64 and frozen read-only, so a pair can be
    shared across threads after construction.
    """

    a: np.ndarray
    b: np.ndarray


def masks(spec: PatternSpec, rows: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Boolean random-designation masks (True = random cell) of A and B at rows.

    rows is a slice of consecutive rows (all N by default); the masks of
    any block of rows are those rows of the whole masks, and no array
    larger than the block is made.  Each family defines A's mask as a rule
    on row and column indices; B's is a fixed symmetry of that rule.  Both
    are C-contiguous, writable copies.  Baseline families have all-true
    masks and are rejected here; generate() handles them directly.
    """
    if spec.is_baseline:
        raise ConfigError(f"masks() does not apply to baseline family {spec.family.value}")

    n, lvl, family = spec.n_dim, spec.level, spec.family
    i, j = np.arange(n)[rows, None], np.arange(n)[None, :]
    s = n >> lvl  # block stripe width, or sparse diagonal stride; a power of two dividing n
    if family is Family.BLOCK_ROWCOL:  # row stripes, every row at level 0; B: transpose
        def rule(i, j): return (i // s) % 2 == 0
        mask_a, mask_b = rule(i, j), rule(j, i)
    elif family is Family.SPARSE_ROWCOL:  # the first 2^level rows; B: transpose
        def rule(i, j): return i < (1 << lvl)
        mask_a, mask_b = rule(i, j), rule(j, i)
    elif family is Family.BLOCK_DIAGONAL:  # s x s checkerboard; B: complement, full at level 0
        # i // s + j // s is even exactly when i and j agree at bit s.
        mask_a = (i & s) == (j & s)
        mask_b = ~mask_a if lvl else mask_a
    else:  # sparse_diagonal: 2^level diagonals j - i = 0 mod s; B: left-right mirror
        # j - i = 0 mod s exactly when i and j agree mod s, which x & (s - 1)
        # is.  Mirrored, the diagonals are i + j = s - 1 mod s, since s divides n.
        def rule(i, j): return (i & (s - 1)) == (j & (s - 1))
        mask_a, mask_b = rule(i, j), rule(i, n - 1 - j)
    return tuple(np.broadcast_to(m, (i.size, n)).copy() for m in (mask_a, mask_b))


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
    bit-identical matrices.  A pattern family's A and B are filled one
    block of rows at a time (GEN_BLOCK cells, at least one row), by one
    masked fill per operand for either value mode, so generation holds A,
    B and one block's masks and draws.  PCG64 draws the same doubles in
    chunks as in one call, and a masked fill writes in row-major order, so
    the block size never changes a bit.
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
        a = np.zeros((n, n))
        b = np.zeros((n, n))
        fixed = spec.value_mode is ValueMode.FIXED_COMMON
        common = _uniform_open_closed(rng_a, 1)[0] if fixed else None
        step = max(1, GEN_BLOCK // n)
        for start in range(0, n, step):
            rows = slice(start, start + step)
            for m, mask, rng in zip((a, b), masks(spec, rows), (rng_a, rng_b)):
                m[rows][mask] = (common if fixed
                                 else _uniform_open_closed(rng, np.count_nonzero(mask)))

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
