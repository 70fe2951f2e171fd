"""Desk-scale dynamic-power proxy: FMA operand bit-toggle counting.

Simulates the operand stream a lane-multiplexed, k-inner tiled GEMM would
feed one FMA port and counts cycle-to-cycle Hamming toggles over the two
64-bit multiplier operand words and the 64-bit accumulator word.  The
per-FLOP toggle score is a proxy for dynamic FPU power: it reproduces the
qualitative ordering of measured pattern power without hardware, not the
wattage itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import patterns
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
        if self.lanes < 1 or self.lanes & (self.lanes - 1):
            raise ConfigError(f"lanes must be a power of two, got {self.lanes}")

    @property
    def tile(self) -> tuple[int, int]:
        """The most square (tm, tn) tile of `lanes` cells: tn = tm or 2 * tm.

        A square footprint avoids degenerate operand sharing (a 1xL tile
        reads the same A element on every lane of a cycle, which suppresses
        A-word toggles for high-entropy inputs and skews comparisons across
        patterns).
        """
        tm = 1 << (self.lanes.bit_length() - 1) // 2
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


# Words per block of the toggle counter (128 KiB of float64): one
# accumulator word per lane of each distinct tile in the block, and one
# word per tile column of each of its tile rows.  Blocks hold whole
# distinct tile rows, so a block is at least one of them.
ACC_BLOCK = 1 << 14


def _tile(n: int, schedule: Schedule) -> tuple[int, int]:
    """The schedule's tile, checked to fit and divide an n x n output.

    When n and the lane count are powers of two, a tile of at most n * n
    cells has sides of at most n, and they divide n.
    """
    lanes = schedule.lanes
    if lanes > n * n:
        raise ConfigError(f"lanes={lanes} exceeds the {n * n} cells of an n_dim={n} output")
    tm, tn = schedule.tile
    if n % tm or n % tn:
        raise ConfigError(f"lanes={lanes} gives a {tm}x{tn} tile, which does not divide n_dim={n}")
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

    count_toggles counts the same toggles without building this stream;
    this is the reference it is tested against.
    """
    rows, cols = _output_order(pair.a.shape[0], schedule)
    lanes = schedule.lanes
    return _group_block(pair.a, np.ascontiguousarray(pair.b.T),
                        rows.reshape(-1, lanes), cols.reshape(-1, lanes))


def _popcount(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bits that differ between each word of x and its pair in y, per word (uint8).

    x and y are arrays of 64-bit words of one shape, and may be strided
    views.  This is the one popcount in the model.
    """
    return np.bitwise_count(x.view(np.uint64) ^ y.view(np.uint64))


def _flips(x: np.ndarray, y: np.ndarray) -> int:
    """Bits that differ between each word of x and its pair in y, summed."""
    return int(_popcount(x, y).sum())


def toggle_score(stream: FmaStream) -> ToggleReport:
    """Cycle-to-cycle toggle totals over the port stream, per FLOP."""
    a, b, acc = (np.asarray(v, dtype=np.float64)
                 for v in (stream.a_vals, stream.b_vals, stream.acc_vals))
    mul = _flips(a[1:], a[:-1]) + _flips(b[1:], b[:-1])
    return ToggleReport(len(a), mul, _flips(acc[1:], acc[:-1]))


def _distinct(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group equal blocks: each block's group, each group's first block and size.

    Blocks are equal only bit for bit: -0.0 and 0.0 differ, and so do two
    NaN payloads.  A block joins the group whose first block has the same
    bytes; only the hash of those bytes is kept, not a copy of each
    distinct block.  Groups are numbered in order of first appearance.
    """
    by_hash: dict[int, list[int]] = {}  # groups whose first block's bytes hash alike
    group, firsts = [], []
    for block in blocks:
        data = block.tobytes()
        alike = by_hash.setdefault(hash(data), [])
        g = next((g for g in alike if blocks[firsts[g]].tobytes() == data), None)
        if g is None:
            g = len(firsts)
            alike.append(g)
            firsts.append(len(group))
        group.append(g)
    return np.array(group), np.array(firsts), np.bincount(group)


def _tile_row_block(a_rows: np.ndarray, b_k: np.ndarray, col_map: np.ndarray,
                    col_count: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Accumulator toggles of a block of distinct tile rows, per tile row.

    a_rows[r, di, k] holds the A rows of the block's r-th tile row, and
    b_k[k, 0, dj, 0, c] the B words of distinct tile column c; col_map
    maps each tile column to its distinct one, and col_count counts them.
    Returns, per tile row: its toggles within tiles and from each tile to
    the next, over every tile column; its first accumulator word (lane 0
    at k = 0 in its first tile); and its last (the last lane's final word
    in its last tile).
    """
    height, tm, n = a_rows.shape
    tn, width = b_k.shape[2], b_k.shape[4]
    lanes, m = tm * tn, height * width
    # y[1 + l, t] is lane l's accumulator in the block's t-th tile and
    # y[0] the last lane's one cycle earlier, so the words of a k step run
    # down axis 0 (at k = 0, y[0] has no word to toggle from).  -0.0 is the
    # additive identity, so the first add leaves the first product as it
    # is, as np.cumsum does.
    y = np.full((lanes + 1, m), -0.0)
    prod = np.empty((lanes, m))
    products = prod.reshape(tm, tn, height, width)  # lane l = di * tn + dj
    a_k = a_rows.transpose(2, 1, 0)[:, :, None, :, None]  # [k, di, 1, r, 1]
    flips = np.zeros((lanes, m), np.uint32)  # per word, summed over k
    for k in range(n):  # k outer: ascending, one add per cycle and lane
        np.multiply(a_k[k], b_k[k], out=products)
        y[0] = y[-1]
        np.add(y[1:], prod, out=y[1:])
        s = 0 if k else 1
        flips[s:] += _popcount(y[s + 1:], y[s:-1])
        if k == 0:
            first = y[1].reshape(height, width)[:, col_map]  # per tile column
    last = y[-1].reshape(height, width)[:, col_map]
    within = flips.sum(axis=0, dtype=np.int64).reshape(height, width) @ col_count
    between = _popcount(last[:, :-1], first[:, 1:]).sum(axis=1, dtype=np.int64)
    return within + between, first[:, 0], last[:, -1]


def count_toggles(a: np.ndarray, b: np.ndarray, schedule: Schedule = Schedule()) -> ToggleReport:
    """Toggle totals of the port stream of A times B, without building it.

    a and b are C-contiguous N x N float64 arrays; anything else raises
    ConfigError.  The totals equal toggle_score(operand_stream(pair,
    schedule)).  Lane l of a tile reads A row l // tn and B column l % tn,
    so a tile's A words depend only on its tile row and its B words only on
    its tile column.  Their toggles have closed forms on views of A and B,
    counted once and multiplied by the number of tile columns (A) or rows
    (B).

    A tile's accumulator words depend only on the bits of its tile row of A
    and its tile column of B, so tiles that repeat both are exact copies.
    The accumulator words are made for each distinct tile row against each
    distinct tile column, k-outer: one k step of every such tile in a block
    of tile rows at a time, with the same adds in the same order as the
    stream.  Each tile's toggles are weighted by how often its tile row and
    tile column repeat.  The toggles from each tile to the next, in
    tile-row-major order over the whole output, are counted at the end of
    each block through the maps from tile rows and columns to their
    distinct ones.  Memory is A, B, a copy of B's distinct tile columns if
    some repeat, one XOR temporary and about two blocks: none of it grows
    with the lane count.
    """
    if not all(isinstance(x, np.ndarray) and x.ndim == 2 and x.shape == (len(a),) * 2
               and x.dtype == np.float64 and x.flags.c_contiguous for x in (a, b)):
        raise ConfigError("operands must be C-contiguous N x N float64 arrays of one shape")
    n, lanes = len(a), schedule.lanes
    tm, tn = _tile(n, schedule)
    tile_rows, tile_cols = n // tm, n // tn
    a3 = a.reshape(tile_rows, tm, n)  # a3[R, di, k] = a[R * tm + di, k]
    b3 = b.reshape(n, tile_cols, tn)  # b3[k, C, dj] = b[k, C * tn + dj]

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

    row_map, row_reps, row_count = _distinct(a3)
    col_map, col_reps, col_count = _distinct(b3.transpose(1, 0, 2))
    # The distinct tile columns of B, and below each block's distinct tile
    # rows of A, are copies, unless they are all of them: a slice is a view.
    # np.take keeps the copy in row-major order (b3[:, col_reps] would put
    # the tile-column axis first in memory).
    b_cols = b3 if len(col_reps) == tile_cols else np.take(b3, col_reps, axis=1)
    b_k = b_cols.transpose(0, 2, 1)[:, None, :, None]  # [k, 1, dj, 1, c]
    counts = np.empty(len(row_reps), np.int64)
    row_first, row_last = np.empty((2, len(row_reps)))
    step = max(1, ACC_BLOCK // max(lanes * len(col_reps), tile_cols))  # tile rows per block
    for r0 in range(0, len(row_reps), step):
        block = slice(r0, r0 + step)
        rows = block if len(row_reps) == tile_rows else row_reps[block]
        counts[block], row_first[block], row_last[block] = _tile_row_block(
            a3[rows], b_k, col_map, col_count)
    # From each tile row's last word to the next tile row's first.
    acc = int(row_count @ counts) + _flips(row_last[row_map[:-1]], row_first[row_map[1:]])
    return ToggleReport(n ** 3, mul, acc)


def score_spec(spec, schedule: Schedule = Schedule()) -> ToggleReport:
    """Generate a spec's matrices and count their toggles with count_toggles.

    patterns.generate is looked up when called, so a caller may replace it.
    """
    pair = patterns.generate(spec)
    return count_toggles(pair.a, pair.b, schedule)
