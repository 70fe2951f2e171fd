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

    def __len__(self) -> int:
        return len(self.a_vals)


@dataclass(frozen=True)
class ToggleReport:
    flops: int
    mul_input_toggles: int
    acc_toggles: int
    score_per_flop: float


# Accumulator words per block of the toggle counter: one word per lane of
# each tile in the block (128 KiB of float64).  Blocks hold whole tile
# rows, so a block is at least one tile row (tm * n_dim words).  The
# multiplier copies are XORed in chunks of about as many words.
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


def _toggles(first: np.ndarray, last: np.ndarray | None = None) -> int:
    """Toggles from each last[i] to first[i + 1], summed; last defaults to first.

    On one (cycles, runs) array these are the toggles down axis 0, each
    column one run; on lane-groups' first and last words, the toggles from
    each group to the next.
    """
    last = first if last is None else last
    return int(np.bitwise_count(first.view(np.uint64)[1:]
                                ^ last.view(np.uint64)[:-1]).sum())


def _report(flops: int, mul: int, acc: int) -> ToggleReport:
    if flops == 0:
        raise ConfigError("empty operand stream")
    return ToggleReport(
        flops=flops,
        mul_input_toggles=mul,
        acc_toggles=acc,
        score_per_flop=(mul + acc) / flops,
    )


def toggle_score(stream: FmaStream) -> ToggleReport:
    """Cycle-to-cycle toggle totals over the port stream, per FLOP."""
    words = [np.ascontiguousarray(v, dtype=np.float64)
             for v in (stream.a_vals, stream.b_vals, stream.acc_vals)]
    mul = _toggles(words[0]) + _toggles(words[1])
    return _report(len(stream), mul, _toggles(words[2]))


def score_spec(spec, schedule: Schedule = Schedule()) -> ToggleReport:
    """Generate a spec's matrices and score their port stream.

    The totals equal toggle_score(operand_stream(pair, schedule)), but the
    stream is never built.  A tile's A words depend only on its tile row,
    and its B words only on its tile column, so their in-tile toggles are
    counted once on N^2-sized copies and multiplied by the number of tile
    columns (A) or rows (B).  Accumulator words are made k-outer, one k
    step of every tile in a block of tile rows at a time, with the same
    adds in the same order as the stream.  Toggles between consecutive
    tiles are counted last, from each tile's first and last words.  Memory
    is O(N^2): the matrices, the two copies and about two blocks.
    """
    from .patterns import generate

    n, lanes = spec.n_dim, schedule.lanes
    tm, tn = _tile(n, schedule)
    tile_rows, tile_cols = n // tm, n // tn
    lane = np.arange(lanes)[:, None]  # lane l owns cell (l // tn, l % tn) of its tile
    # a2[k, l, R] = a[row of lane l in tile row R, k];
    # b2[k, l, C] = b[k, column of lane l in tile column C].
    # Each matrix is dropped once its copy is made, to keep the peak low.
    pair = generate(spec)
    b = pair.b
    a2 = np.take(pair.a.T, np.arange(0, n, tm) + lane // tn, axis=1)
    del pair
    b2 = np.take(b, np.arange(0, n, tn) + lane % tn, axis=1)
    del b

    grid = (2, tile_rows, tile_cols)
    mul = 0
    for copy, repeats, ends in (
            (a2, tile_cols, a2[[0, -1], [0, -1]][:, :, None]),  # (2, R, 1)
            (b2, tile_rows, b2[[0, -1], [0, -1]][:, None])):    # (2, 1, C)
        runs = copy.reshape(n * lanes, -1)
        rows = max(1, ACC_BLOCK // runs.shape[1])
        mul += repeats * sum(_toggles(runs[t:t + rows + 1])  # one row overlap
                             for t in range(0, len(runs) - 1, rows))
        mul += _toggles(*np.broadcast_to(ends, grid).reshape(2, -1))

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
        products = prod.reshape(lanes, r1 - r0, tile_cols)
        words, toggled = y.view(np.uint64), prod.view(np.uint64)
        a_blk = a2[:, :, r0:r1, None]
        for k in range(n):  # k outer: ascending, one add per cycle and lane
            np.multiply(a_blk[k], b2[k, :, None], out=products)
            y[0] = y[-1]
            np.add(y[1:], prod, out=y[1:])
            np.bitwise_xor(words[1:], words[:-1], out=toggled)
            acc += int(np.bitwise_count(toggled[0 if k else 1:]).sum())
            if k == 0:
                first[tiles] = words[1]
        last[tiles] = words[-1]
    acc += _toggles(first, last)
    return _report(n ** 3, mul, acc)


def predict_ordering(specs, schedule: Schedule = Schedule()):
    """Rank specs by descending score_per_flop (ties keep input order).

    Intended to be rank-correlated with measured power for a shared N.
    """
    specs = list(specs)
    if not specs:
        raise ConfigError("predict_ordering needs at least one spec")
    dims = {s.n_dim for s in specs}
    if len(dims) > 1:
        raise ConfigError(f"all specs must share n_dim, got {sorted(dims)}")
    scored = [(spec, score_spec(spec, schedule)) for spec in specs]
    return sorted(scored, key=lambda pair: -pair[1].score_per_flop)  # stable: ties keep order
