"""Desk-scale dynamic-power proxy: FMA operand bit-toggle counting.

Simulates the operand stream a lane-multiplexed, k-inner tiled GEMM would
feed one FMA port and counts cycle-to-cycle Hamming toggles over the two
64-bit multiplier operand words and the 64-bit accumulator word.  The
per-FLOP toggle score is a proxy for dynamic FPU power: it reproduces the
qualitative ordering of measured pattern power without hardware, not the
wattage itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .patterns import MatrixPair


@dataclass(frozen=True)
class Schedule:
    """Lane multiplexing model: interleaved logical threads per FMA port.

    `lanes` threads round-robin on one port, each owning one output cell of
    a tile of `lanes` cells; tiles are traversed row-major with the k-loop
    inside.  This is a declared model of warp/SMT time multiplexing, not a
    claim about any vendor kernel's real schedule.
    """

    lanes: int = 1

    def __post_init__(self):
        if self.lanes < 1:
            raise ConfigError(f"lanes must be >= 1, got {self.lanes}")

    @property
    def tile(self) -> tuple[int, int]:
        """The most square (tm, tn) tile of `lanes` cells, tm <= tn.

        A square footprint avoids degenerate operand sharing (a 1xL tile
        reads the same A element on every lane of a cycle, which suppresses
        A-word toggles for high-entropy inputs and skews comparisons across
        patterns).
        """
        tm = next(c for c in range(math.isqrt(self.lanes), 0, -1) if self.lanes % c == 0)
        return tm, self.lanes // tm


def schedule_for_lanes(lanes: int) -> Schedule:
    """The schedule of `lanes` lanes; its tile follows from the lane count."""
    return Schedule(lanes)


@dataclass(frozen=True)
class FmaStream:
    """Merged FMA-port operand stream: one entry per FMA cycle.

    a_vals/b_vals are the multiplier operand words; acc_vals is the
    accumulator word after each cycle's multiply-add (products accumulated
    in ascending-k order per lane).
    """

    a_vals: np.ndarray
    b_vals: np.ndarray
    acc_vals: np.ndarray


@dataclass(frozen=True)
class ToggleReport:
    """Toggle totals of one port stream; score_per_flop derives from them."""

    flops: int
    mul_input_toggles: int
    acc_toggles: int

    def __post_init__(self):
        if self.flops < 1:
            raise ConfigError("empty operand stream")

    @property
    def score_per_flop(self) -> float:
        return (self.mul_input_toggles + self.acc_toggles) / self.flops


# Accumulator words per block of the toggle counter: one word per lane of
# each tile in the block (128 KiB of float64).  Blocks hold whole tile
# rows, so a block is at least one tile row (tm * n_dim words).
ACC_BLOCK = 1 << 14


def _tile(n: int, schedule: Schedule) -> tuple[int, int]:
    """The schedule's tile, checked to divide an n x n output.

    More lanes than output cells are refused before the tile is factored,
    which bounds the factoring loop by n.
    """
    lanes = schedule.lanes
    if lanes > n * n:
        raise ConfigError(f"lanes={lanes} exceeds the {n * n} cells of an n_dim={n} output")
    tm, tn = schedule.tile
    if n % tm or n % tn:
        raise ConfigError(f"lanes={lanes} gives a {tm}x{tn} tile, "
                          f"which does not divide n_dim={n}")
    return tm, tn


def _output_order(n: int, schedule: Schedule) -> tuple[np.ndarray, np.ndarray]:
    """Row/col indices of output cells in tile-row-major order."""
    tm, tn = _tile(n, schedule)
    shape = (n // tm, n // tn, tm, tn)  # (tile row, tile col, di, dj)
    rows = np.arange(0, n, tm)[:, None, None, None] + np.arange(tm)[:, None]
    cols = np.arange(0, n, tn)[:, None, None] + np.arange(tn)
    return np.broadcast_to(rows, shape).ravel(), np.broadcast_to(cols, shape).ravel()


def _group_block(a: np.ndarray, bt: np.ndarray, rows: np.ndarray,
                 cols: np.ndarray) -> FmaStream:
    """Port stream of the lane-groups whose cells are rows[g, l], cols[g, l]."""
    groups, lanes = rows.shape
    a_blk, b_blk, acc = np.empty((3, groups, a.shape[1], lanes))
    # Gathering whole rows lane by lane beats transposing a gathered
    # (groups, lanes, n) block, whose inner copy runs are only `lanes` long.
    for lane in range(lanes):
        a_blk[:, :, lane] = a[rows[:, lane]]   # a[i_l, k] at [g, k, l]
        b_blk[:, :, lane] = bt[cols[:, lane]]  # b[k, j_l] at [g, k, l]
    np.multiply(a_blk, b_blk, out=acc)
    np.cumsum(acc, axis=1, out=acc)  # ascending-k, sequential per lane
    return FmaStream(a_vals=a_blk.ravel(),  # k-major, lane-minor interleave
                     b_vals=b_blk.ravel(),
                     acc_vals=acc.ravel())


def operand_stream(pair: MatrixPair, schedule: Schedule = Schedule()) -> FmaStream:
    """The merged FMA-port operand stream, built whole (O(N^3) memory).

    Each tile's `lanes` output cells share the port; within a tile the
    k-loop advances once per round-robin pass, so consecutive port cycles
    alternate lanes.  Accumulators run the actual arithmetic (product then
    add per cycle), so zero-propagation effects in the dot products show up
    in the accumulator word naturally.

    score_spec counts the same toggles without building this stream; this
    is the reference it is tested against.
    """
    rows, cols = _output_order(pair.a.shape[0], schedule)
    lanes = schedule.lanes
    return _group_block(pair.a, np.ascontiguousarray(pair.b.T),
                        rows.reshape(-1, lanes), cols.reshape(-1, lanes))


def _flips(x: np.ndarray, y: np.ndarray) -> int:
    """Bits that differ between each word of x and its pair in y, summed.

    x and y are arrays of 64-bit words of one shape, and may be strided
    views.
    """
    return int(np.bitwise_count(x.view(np.uint64) ^ y.view(np.uint64)).sum())


def toggle_score(stream: FmaStream) -> ToggleReport:
    """Cycle-to-cycle toggle totals over the port stream, per FLOP."""
    a, b, acc = (np.asarray(v, dtype=np.float64)
                 for v in (stream.a_vals, stream.b_vals, stream.acc_vals))
    mul = _flips(a[1:], a[:-1]) + _flips(b[1:], b[:-1])
    return ToggleReport(len(a), mul, _flips(acc[1:], acc[:-1]))


def score_spec(spec, schedule: Schedule = Schedule()) -> ToggleReport:
    """Generate a spec's matrices and score their port stream.

    The totals equal toggle_score(operand_stream(pair, schedule)), but the
    stream is never built.  Lane l of a tile reads A row l // tn and B
    column l % tn, so a tile's A words depend only on its tile row and its
    B words only on its tile column.  Their toggles have closed forms on
    views of A and B, counted once and multiplied by the number of tile
    columns (A) or rows (B).  Accumulator words are made k-outer, one k
    step of every tile in a block of tile rows at a time, with the same
    adds in the same order as the stream.  Memory is A, B, one XOR
    temporary, about two blocks and two words per tile: none of it grows
    with the lane count.
    """
    from .patterns import generate

    n, lanes = spec.n_dim, schedule.lanes
    tm, tn = _tile(n, schedule)
    tile_rows, tile_cols = n // tm, n // tn
    pair = generate(spec)
    a3 = pair.a.reshape(tile_rows, tm, n)  # a3[R, di, k] = a[R * tm + di, k]
    b3 = pair.b.reshape(n, tile_cols, tn)  # b3[k, C, dj] = b[k, C * tn + dj]

    # In a tile, each k step reads A rows di = 0 .. tm - 1 in turn, each for
    # tn lanes, and B columns dj = 0 .. tn - 1 once per row; then k + 1.
    a_tile = _flips(a3[:, 1:], a3[:, :-1]) + _flips(a3[:, -1, :-1], a3[:, 0, 1:])
    b_tile = (tm * _flips(b3[:, :, 1:], b3[:, :, :-1])
              + (tm - 1) * _flips(b3[:, :, -1], b3[:, :, 0])
              + _flips(b3[:-1, :, -1], b3[1:, :, 0]))
    # From each tile's last words to the next tile's first, tile-row-major.
    a_first, a_last = a3[:, 0, 0], a3[:, -1, -1]  # per tile row
    b_first, b_last = b3[0, :, 0], b3[-1, :, -1]  # per tile column
    mul = (tile_cols * a_tile + tile_rows * b_tile
           + (tile_cols - 1) * _flips(a_last, a_first) + _flips(a_last[:-1], a_first[1:])
           + tile_rows * _flips(b_last[:-1], b_first[1:])
           + (tile_rows - 1) * _flips(b_last[-1:], b_first[:1]))

    a_k = a3.transpose(2, 1, 0)[:, :, None, :, None]  # [k, di, 1, R, 1]
    b_k = b3.transpose(0, 2, 1)[:, None, :, None]     # [k, 1, dj, 1, C]
    step = max(1, ACC_BLOCK // (tm * n))  # tile rows per block
    width = min(step, tile_rows) * tile_cols
    accs, prods = np.empty((lanes + 1) * width), np.empty(lanes * width)
    first, last = np.empty((2, tile_rows * tile_cols), dtype=np.uint64)
    acc = 0
    for r0 in range(0, tile_rows, step):
        r1 = min(r0 + step, tile_rows)
        tiles = slice(r0 * tile_cols, r1 * tile_cols)
        m = (r1 - r0) * tile_cols
        # y[1 + l, t] is lane l's accumulator in the block's t-th tile and
        # y[0] the last lane's one cycle earlier, so the words of a k step
        # run down axis 0 (at k = 0, y[0] has no word to toggle from).
        # -0.0 is the additive identity, so the first add leaves the first
        # product as it is, as np.cumsum does.
        y = accs[:(lanes + 1) * m].reshape(lanes + 1, m)
        y.fill(-0.0)
        prod = prods[:lanes * m].reshape(lanes, m)
        products = prod.reshape(tm, tn, r1 - r0, tile_cols)  # lane l = di * tn + dj
        words, toggled = y.view(np.uint64), prod.view(np.uint64)
        a_blk = a_k[:, :, :, r0:r1]
        for k in range(n):  # k outer: ascending, one add per cycle and lane
            np.multiply(a_blk[k], b_k[k], out=products)
            y[0] = y[-1]
            np.add(y[1:], prod, out=y[1:])
            np.bitwise_xor(words[1:], words[:-1], out=toggled)
            acc += int(np.bitwise_count(toggled[0 if k else 1:]).sum())
            if k == 0:
                first[tiles] = words[1]
        last[tiles] = words[-1]
    acc += _flips(first[1:], last[:-1])
    return ToggleReport(n ** 3, mul, acc)
