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
from .spec import Schedule


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
# distinct tile rows, so a block is at least one of them.  It also bounds
# a chunk of k steps: a block's accumulator words of as many k steps as
# fit, at least one.
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


def operand_stream(pair: MatrixPair, schedule: Schedule = Schedule()) -> FmaStream:
    """The merged FMA-port operand stream, built whole (O(N^3) memory).

    Each tile's `lanes` output cells share the port; within a tile the
    k-loop advances once per round-robin pass, so consecutive port cycles
    alternate lanes.  Accumulators run the actual arithmetic (product then
    add per cycle), so zero-propagation effects in the dot products show up
    in the accumulator word naturally.

    count_toggles counts the same toggles without building this stream;
    this is the reference it is tested against, written as the schedule's
    definition: the words in port order (tile row, tile col, k, di, dj).
    """
    a, b = (np.asarray(x, np.float64) for x in (pair.a, pair.b))
    n = len(a)
    tm, tn = _tile(n, schedule)
    a_k = a.reshape(n // tm, 1, tm, n).transpose(0, 1, 3, 2)[..., None]  # a[R*tm+di, k]
    b_k = b.reshape(n, n // tn, tn).transpose(1, 0, 2)[None, :, :, None]  # b[k, C*tn+dj]
    acc = a_k * b_k
    np.cumsum(acc, axis=2, out=acc)  # ascending-k, sequential per lane
    return FmaStream(a_vals=np.broadcast_to(a_k, acc.shape).ravel(),
                     b_vals=np.broadcast_to(b_k, acc.shape).ravel(),
                     acc_vals=acc.ravel())


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


# SplitMix64's increment and the odd multipliers of its output mix.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))


def _mixed(x: np.ndarray) -> np.ndarray:
    """SplitMix64's output mix of each uint64 word of x, in place; returns x."""
    x ^= x >> 30
    x *= _MIX[0]
    x ^= x >> 27
    x *= _MIX[1]
    x ^= x >> 31
    return x


def _hashes(m: np.ndarray, size: int, axis: int) -> np.ndarray:
    """A 64-bit hash of each block of `size` rows (axis 0) or columns (axis 1) of m.

    Each word x is folded to x ^ (x >> 32), so that its high bits reach
    the low ones, and weighted by an odd key of its row and one of its
    column in the block; a block's hash is the sum of its weighted words
    modulo 2**64.  Equal blocks hash alike, and _distinct checks the
    converse.  m is read ACC_BLOCK words at a time (at least one row).
    """
    # SplitMix64's first outputs from seed 0, made odd.
    keys = _mixed(np.arange(1, size + m.shape[1 - axis] + 1, dtype=np.uint64) * _GAMMA)
    keys |= np.uint64(1)
    within, across = keys[:size], keys[size:]  # along axis in a block; along the other axis
    words = m.view(np.uint64)
    lines = np.zeros(m.shape[axis], np.uint64)  # each row (axis 0) or column's weighted sum
    rows = max(1, ACC_BLOCK // m.shape[1])
    for r0 in range(0, len(m), rows):
        x = words[r0:r0 + rows]
        x = x ^ (x >> 32)
        if axis == 0:
            lines[r0:r0 + rows] = x @ across
        else:
            lines += across[r0:r0 + rows] @ x
    return lines.reshape(-1, size) @ within


def _distinct(m: np.ndarray, size: int, axis: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the equal blocks of `size` rows (axis 0) or columns (axis 1) of m.

    Returns each block's group, each group's first block and each group's
    size.  Blocks are equal only bit for bit: -0.0 and 0.0 differ, and so
    do two NaN payloads.  Groups are numbered in order of first appearance.
    A block joins the group of the first block with its hash (_hashes) if
    all their words are equal; only blocks whose hash a block with other
    bits shares are then grouped one at a time, by their bytes.  Blocks are
    compared ACC_BLOCK words at a time (at least one block), so no copy of
    them all is made.
    """
    blocks = m.view(np.uint64).reshape((-1, size, m.shape[1]) if axis == 0
                                       else (m.shape[0], -1, size))
    count = blocks.shape[axis]
    _, first, inverse = np.unique(_hashes(m, size, axis), return_index=True, return_inverse=True)
    rep = first[inverse]  # each block's first block of its hash, until checked
    joins = np.flatnonzero(rep != np.arange(count))
    step = max(1, ACC_BLOCK // (size * m.shape[1 - axis]))  # blocks per chunk
    clash = np.zeros(count, bool)  # first blocks of hashes that blocks with other bits share
    for chunk in (joins[i:i + step] for i in range(0, len(joins), step)):
        differ = np.take(blocks, chunk, axis) != np.take(blocks, rep[chunk], axis)
        # Over each block's N-long axis, then its `size`-long one.
        clash[rep[chunk[differ.any(axis=2 - 2 * axis).any(axis=1)]]] = True
    alike: dict[int, list[int]] = {}  # a clashing hash's first block: its groups' first blocks
    for b in np.flatnonzero(clash[rep]):
        data = np.take(blocks, b, axis).tobytes()
        groups = alike.setdefault(int(rep[b]), [])
        rep[b] = next((f for f in groups if np.take(blocks, f, axis).tobytes() == data), b)
        if rep[b] == b:
            groups.append(b)
    firsts = np.flatnonzero(rep == np.arange(count))
    group = np.searchsorted(firsts, rep)
    return group, firsts, np.bincount(group)


def _tile_row_block(a_rows: np.ndarray, b_k: np.ndarray, col_map: np.ndarray,
                    col_count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Accumulator toggles of a block of distinct tile rows, per tile row.

    a_rows[r, di, k] holds the A rows of the block's r-th tile row, and
    b_k[k, 0, dj, 0, c] the B words of distinct tile column c; col_map
    maps each tile column to its distinct one, and col_count counts them.
    Returns, per tile row: its toggles within tiles and from each tile to
    the next, over every tile column; and its last accumulator word (the
    last lane's final word in its last tile).

    The k steps run in chunks of at most ACC_BLOCK words.  Per chunk, one
    multiply makes the products of all its k steps, and one XOR and
    popcount count all its toggles; per k step, one add continues the
    running sums, in the stream's order.
    """
    height, tm, n = a_rows.shape
    tn, width = b_k.shape[2], b_k.shape[4]
    lanes, m = tm * tn, height * width
    steps = max(1, min(n, ACC_BLOCK // (lanes * m)))  # k steps per chunk
    # y[1 + s * lanes + l, t] is lane l's accumulator at the chunk's s-th
    # k step in the block's t-th tile and y[0] the last lane's one cycle
    # before the chunk, so a chunk's words run down axis 0 in port order.
    # -0.0 is the additive identity, so a tile's first accumulator word is
    # its first product, bit for bit, as np.cumsum leaves it; y[0] starts
    # as that word, so lane 0 at k = 0 toggles nothing.
    first = a_rows[:, 0, :1] * b_k[0, 0, 0]  # [r, c]
    y = np.full((steps * lanes + 1, m), -0.0)
    y[0] = first.ravel()
    acc = y[1:].reshape(steps, lanes, m)
    prod = np.empty((steps, lanes, m))
    products = prod.reshape(steps, tm, tn, height, width)  # lane l = di * tn + dj
    a_k = a_rows.transpose(2, 1, 0)[:, :, None, :, None]  # [k, di, 1, r, 1]
    flips = np.zeros((steps * lanes, m), np.uint32)  # per word, summed over chunks

    def chunk(count):
        # The buffers' views for a chunk of `count` k steps, made once per
        # size, not per chunk: a step's add reads the step before, and the
        # chunk's first add acc[-1], the previous chunk's last step.
        words = count * lanes
        adds = [(acc[s - 1], prod[s], acc[s]) for s in range(count)]
        return products[:count], adds, flips[:words], y[1:words + 1], y[:words], y[words]

    full = chunk(steps)
    for k0 in range(0, n, steps):  # k outer: ascending, one add per cycle and lane
        out, adds, chunk_flips, words, before, final = full if k0 + steps <= n else chunk(n - k0)
        np.multiply(a_k[k0:k0 + steps], b_k[k0:k0 + steps], out=out)  # a slice stops at n
        for prev, p, sums in adds:
            np.add(prev, p, out=sums)
        chunk_flips += _popcount(words, before)
        y[0] = final
    last = y[0].reshape(height, width)[:, col_map]  # the last lane's final words
    within = flips.sum(axis=0, dtype=np.int64).reshape(height, width) @ col_count
    between = _popcount(last[:, :-1], first[:, col_map[1:]]).sum(axis=1, dtype=np.int64)
    return within + between, last[:, -1]


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
    distinct tile column, k-outer, a block of tile rows at a time: one
    multiply, XOR and popcount per chunk of k steps of every such tile in
    the block, and one add per k step, the same adds in the same order as
    the stream.  Each tile's toggles are weighted by how often its tile row
    and tile column repeat.  The toggles from each tile to the next, in
    tile-row-major order over the whole output, are counted at the end of
    each block through the maps from tile rows and columns to their
    distinct ones.  Memory is A, B, a copy of B's distinct tile columns if
    some repeat, one XOR temporary and about two chunks of at most
    ACC_BLOCK words: none of it grows with the lane count.
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

    row_map, row_reps, row_count = _distinct(a, tm, 0)
    col_map, col_reps, col_count = _distinct(b, tn, 1)
    # The distinct tile columns of B, and below each block's distinct tile
    # rows of A, are copies, unless they are all of them: a slice is a view.
    # np.take keeps the copy in row-major order (b3[:, col_reps] would put
    # the tile-column axis first in memory).
    b_cols = b3 if len(col_reps) == tile_cols else np.take(b3, col_reps, axis=1)
    b_k = b_cols.transpose(0, 2, 1)[:, None, :, None]  # [k, 1, dj, 1, c]
    counts = np.empty(len(row_reps), np.int64)
    row_last = np.empty(len(row_reps))
    step = max(1, ACC_BLOCK // max(lanes * len(col_reps), tile_cols))  # tile rows per block
    for r0 in range(0, len(row_reps), step):
        block = slice(r0, r0 + step)
        rows = block if len(row_reps) == tile_rows else row_reps[block]
        counts[block], row_last[block] = _tile_row_block(a3[rows], b_k, col_map, col_count)
    # From each tile row's last word to the next tile row's first, its first product.
    acc = int(row_count @ counts) + _flips(row_last[row_map[:-1]], a_first[1:] * b_first[0])
    return ToggleReport(n ** 3, mul, acc)


def score_spec(spec, schedule: Schedule = Schedule()) -> ToggleReport:
    """Generate a spec's matrices and count their toggles with count_toggles.

    patterns.generate is looked up when called, so a caller may replace it.
    """
    pair = patterns.generate(spec)
    return count_toggles(pair.a, pair.b, schedule)
