"""Desk-scale dynamic-power proxy: FMA operand bit-toggle counting.

Simulates the operand stream a lane-multiplexed, k-inner tiled GEMM would
feed one FMA port and counts cycle-to-cycle Hamming toggles over the two
64-bit multiplier operand words and the 64-bit accumulator word.  The
per-FLOP toggle score is a proxy for dynamic FPU power: it reproduces the
qualitative ordering of measured pattern power without hardware, not the
wattage itself.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .patterns import MatrixPair


@dataclass(frozen=True)
class Schedule:
    """Lane multiplexing model: interleaved logical threads per FMA port.

    `lanes` threads round-robin on one port, each owning one output cell of
    a (tm, tn) tile; tiles are traversed row-major with the k-loop inside.
    This is a declared model of warp/SMT time multiplexing, not a claim
    about any vendor kernel's real schedule.
    """

    lanes: int = 1
    tile: tuple[int, int] = (1, 1)
    traversal: str = "k_inner_row_major"

    def __post_init__(self):
        if self.lanes < 1:
            raise ConfigError(f"lanes must be >= 1, got {self.lanes}")
        tm, tn = self.tile
        if tm < 1 or tn < 1:
            raise ConfigError(f"tile dims must be positive, got {self.tile}")
        if (tm * tn) % self.lanes:
            raise ConfigError(
                f"tile of {tm * tn} cells does not divide evenly into "
                f"{self.lanes} lanes"
            )
        if self.traversal != "k_inner_row_major":
            raise ConfigError(f"unknown traversal {self.traversal!r}")


def schedule_for_lanes(lanes: int) -> Schedule:
    """Default schedule: one lane-group per most-square tile of `lanes` cells.

    A square footprint avoids degenerate operand sharing (a 1xL group reads
    the same A element on every lane of a cycle, which suppresses A-word
    toggles for high-entropy inputs and skews comparisons across patterns).
    """
    tm = 1
    for cand in range(1, int(lanes ** 0.5) + 1):
        if lanes % cand == 0:
            tm = cand
    return Schedule(lanes=lanes, tile=(tm, lanes // tm))


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
    w_mul: float = 1.0
    w_acc: float = 1.0


def bits64(x: float) -> int:
    """IEEE-754 binary64 bit pattern of x as an unsigned integer."""
    return int(np.float64(x).view(np.uint64))


def hamming(p: int, q: int) -> int:
    """Number of differing bits between two 64-bit patterns."""
    return ((p ^ q) & 0xFFFFFFFFFFFFFFFF).bit_count()


# Port cycles per streamed block (128 KiB per operand word array).  Blocks
# hold whole lane-groups, so a block is at least one group (n_dim * lanes
# cycles).  16 Ki measured fastest: larger blocks spend their time in page
# faults on freshly allocated arrays, smaller ones in per-block overhead.
BLOCK_CYCLES = 1 << 14


def _output_order(n: int, schedule: Schedule) -> tuple[np.ndarray, np.ndarray]:
    """Row/col indices of output cells in tile-row-major traversal order."""
    tm, tn = schedule.tile
    if n % tm or n % tn:
        raise ConfigError(f"tile {schedule.tile} does not divide n_dim {n}")
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


def stream_blocks(pair: MatrixPair,
                  schedule: Schedule = Schedule()) -> Iterator[FmaStream]:
    """Yield the merged FMA-port stream in blocks of whole lane-groups.

    Each lane-group of `lanes` consecutive output cells shares the port;
    within a group the k-loop advances once per round-robin pass, so
    consecutive port cycles alternate lanes.  Accumulators run the actual
    arithmetic (product then add per cycle), so zero-propagation effects
    in the dot products show up in the accumulator word naturally.

    Blocks cover about BLOCK_CYCLES cycles each, so memory stays O(N^2)
    plus one block however large N is.
    """
    n = pair.spec.n_dim
    lanes = schedule.lanes
    rows, cols = _output_order(n, schedule)
    rows = rows.reshape(-1, lanes)  # one row per lane-group
    cols = cols.reshape(-1, lanes)
    bt = np.ascontiguousarray(pair.b.T)
    groups = max(1, BLOCK_CYCLES // (n * lanes))
    for start in range(0, len(rows), groups):
        yield _group_block(pair.a, bt, rows[start:start + groups], cols[start:start + groups])


def operand_stream(pair: MatrixPair, schedule: Schedule = Schedule()) -> FmaStream:
    """The whole port stream in one piece (O(N^3) memory; see stream_blocks)."""
    blocks = list(stream_blocks(pair, schedule))
    return FmaStream(
        a_vals=np.concatenate([blk.a_vals for blk in blocks]),
        b_vals=np.concatenate([blk.b_vals for blk in blocks]),
        acc_vals=np.concatenate([blk.acc_vals for blk in blocks]),
    )


def _block_toggles(block: FmaStream):
    """Cycles, in-block toggles, first and last words of one non-empty block.

    The last three are lists over the a, b and acc words.
    """
    words = [np.ascontiguousarray(v, dtype=np.float64).view(np.uint64)
             for v in (block.a_vals, block.b_vals, block.acc_vals)]
    toggles = [int(np.bitwise_count(w[1:] ^ w[:-1]).sum()) for w in words]
    return len(block), toggles, [w[0] for w in words], [w[-1] for w in words]


def toggle_score(stream: FmaStream | Iterable[FmaStream],
                 w_mul: float = 1.0, w_acc: float = 1.0) -> ToggleReport:
    """Cycle-to-cycle toggle totals over the port stream, per FLOP.

    `stream` is one FmaStream or an iterable of consecutive blocks of one
    stream; each block's first words are compared with the previous
    block's last, so the totals do not depend on where blocks split.
    """
    blocks = [stream] if isinstance(stream, FmaStream) else stream
    flops = mul = acc = 0
    last = None
    # map() drops each block once it is counted, so one block is alive at a time
    for cycles, toggles, first, final in map(_block_toggles, filter(len, blocks)):
        if last is not None:
            toggles = [t + hamming(int(p), int(q)) for t, p, q in zip(toggles, last, first)]
        mul += toggles[0] + toggles[1]
        acc += toggles[2]
        flops += cycles
        last = final
    if flops == 0:
        raise ConfigError("empty operand stream")
    score = (w_mul * mul + w_acc * acc) / flops
    return ToggleReport(
        flops=flops,
        mul_input_toggles=mul,
        acc_toggles=acc,
        score_per_flop=score,
        w_mul=w_mul,
        w_acc=w_acc,
    )


def score_spec(spec, schedule: Schedule = Schedule(),
               w_mul: float = 1.0, w_acc: float = 1.0) -> ToggleReport:
    """Generate a spec's matrices and score its operand stream."""
    from .patterns import generate

    return toggle_score(stream_blocks(generate(spec), schedule), w_mul, w_acc)


def predict_ordering(specs, schedule: Schedule = Schedule(),
                     w_mul: float = 1.0, w_acc: float = 1.0):
    """Rank specs by descending score_per_flop (ties keep input order).

    Intended to be rank-correlated with measured power for a shared N.
    """
    specs = list(specs)
    if not specs:
        raise ConfigError("predict_ordering needs at least one spec")
    dims = {s.n_dim for s in specs}
    if len(dims) > 1:
        raise ConfigError(f"all specs must share n_dim, got {sorted(dims)}")
    scored = [(spec, score_spec(spec, schedule, w_mul, w_acc)) for spec in specs]
    order = sorted(range(len(scored)),
                   key=lambda idx: (-scored[idx][1].score_per_flop, idx))
    return [scored[idx] for idx in order]
