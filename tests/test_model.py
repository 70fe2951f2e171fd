import numpy as np
import pytest

from entrobench import model, patterns
from entrobench.errors import ConfigError
from entrobench.model import (
    FmaStream,
    Schedule,
    operand_stream,
    schedule_for_lanes,
    score_spec,
    toggle_score,
)
from entrobench.patterns import Family, MatrixPair, PatternSpec, ValueMode, generate


def test_schedule_validation():
    with pytest.raises(ConfigError):
        Schedule(lanes=0)


@pytest.mark.parametrize("lanes,tile", [(1, (1, 1)), (4, (2, 2)),
                                        (8, (2, 4)), (9, (3, 3)), (6, (2, 3))])
def test_schedule_for_lanes_prefers_square_tiles(lanes, tile):
    sched = schedule_for_lanes(lanes)
    assert sched.lanes == lanes
    assert sched.tile == tile


def test_stream_definition_single_lane():
    spec = PatternSpec(family="baseline_random", n_dim=4, seed=3)
    pair = generate(spec)
    stream = operand_stream(pair)
    n = 4
    assert len(stream.a_vals) == n ** 3

    a_expect, b_expect, acc_expect = [], [], []
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for k in range(n):
                acc = acc + pair.a[i, k] * pair.b[k, j]
                a_expect.append(pair.a[i, k])
                b_expect.append(pair.b[k, j])
                acc_expect.append(acc)
    np.testing.assert_array_equal(stream.a_vals, a_expect)
    np.testing.assert_array_equal(stream.b_vals, b_expect)
    np.testing.assert_array_equal(
        np.asarray(stream.acc_vals).view(np.uint64),
        np.asarray(acc_expect).view(np.uint64),
    )


@pytest.mark.parametrize("lanes,tile", [(2, (1, 2)), (4, (2, 2)), (8, (2, 4))])
def test_stream_matches_scalar_tiled_schedule(lanes, tile):
    n = 8
    pair = generate(PatternSpec(family="sparse_rowcol", n_dim=n, level=1, seed=6))
    schedule = Schedule(lanes=lanes)
    assert schedule.tile == tile
    stream = operand_stream(pair, schedule)

    tm, tn = tile
    cells = [(ti + di, tj + dj)
             for ti in range(0, n, tm) for tj in range(0, n, tn)
             for di in range(tm) for dj in range(tn)]
    a_expect, b_expect, acc_expect = [], [], []
    for start in range(0, len(cells), lanes):
        group = cells[start:start + lanes]
        accs = [0.0] * lanes
        for k in range(n):
            for lane, (i, j) in enumerate(group):
                accs[lane] = accs[lane] + pair.a[i, k] * pair.b[k, j]
                a_expect.append(pair.a[i, k])
                b_expect.append(pair.b[k, j])
                acc_expect.append(accs[lane])
    for got, expect in ((stream.a_vals, a_expect), (stream.b_vals, b_expect),
                        (stream.acc_vals, acc_expect)):
        np.testing.assert_array_equal(np.asarray(got).view(np.uint64),
                                      np.asarray(expect).view(np.uint64))


def test_stream_round_robin_two_lanes():
    spec = PatternSpec(family="baseline_random", n_dim=2, seed=1)
    pair = generate(spec)
    stream = operand_stream(pair, Schedule(lanes=2))
    # lane group = cells (0,0),(0,1): cycles alternate lanes with k inside
    a, b = pair.a, pair.b
    head_a = [a[0, 0], a[0, 0], a[0, 1], a[0, 1]]
    head_b = [b[0, 0], b[0, 1], b[1, 0], b[1, 1]]
    np.testing.assert_array_equal(stream.a_vals[:4], head_a)
    np.testing.assert_array_equal(stream.b_vals[:4], head_b)


def test_baseline_fixed_has_zero_multiplier_toggles():
    report = score_spec(PatternSpec(family="baseline_fixed", n_dim=8))
    assert report.mul_input_toggles == 0
    assert report.flops == 8 ** 3
    # accumulator still walks 1, 2, 3, ... so it does toggle
    assert report.acc_toggles > 0


def test_alternating_operands_toggle_count():
    # each operand word flips 10 bits per cycle (2.0 <-> 0.5), so the
    # merged multiplier toggle count is 20 per transition
    n_cycles = 9
    a_vals = np.array([2.0, 0.5] * n_cycles)[:n_cycles]
    b_vals = np.array([0.5, 2.0] * n_cycles)[:n_cycles]
    stream = FmaStream(a_vals=a_vals, b_vals=b_vals,
                       acc_vals=np.ones(n_cycles))
    report = toggle_score(stream)
    assert report.mul_input_toggles == 20 * (n_cycles - 1)
    assert report.acc_toggles == 0
    assert report.score_per_flop == 20 * (n_cycles - 1) / n_cycles


def test_score_per_flop_is_the_unweighted_toggle_sum():
    report = score_spec(PatternSpec(family="block_rowcol", n_dim=8, level=1, seed=2))
    assert report.mul_input_toggles > 0 and report.acc_toggles > 0
    assert report.score_per_flop == \
        (report.mul_input_toggles + report.acc_toggles) / report.flops


def test_empty_stream_rejected():
    empty = np.empty(0)
    with pytest.raises(ConfigError):
        toggle_score(FmaStream(a_vals=empty, b_vals=empty, acc_vals=empty))


@pytest.mark.parametrize("lanes,message", [
    (3, "lanes=3 gives a 1x3 tile, which does not divide n_dim=4"),
    # refused before the tile is factored: 17 would give a 1x17 tile
    (17, "lanes=17 exceeds the 16 cells of an n_dim=4 output"),
    (10**18, f"lanes={10**18} exceeds the 16 cells of an n_dim=4 output"),
])
def test_tile_must_divide_dimension(lanes, message):
    spec = PatternSpec(family="baseline_random", n_dim=4, seed=0)
    with pytest.raises(ConfigError, match=message):
        operand_stream(generate(spec), Schedule(lanes=lanes))
    with pytest.raises(ConfigError, match=message):
        score_spec(spec, Schedule(lanes=lanes))


def test_random_scores_above_fixed_baseline():
    random_score = score_spec(
        PatternSpec(family="baseline_random", n_dim=16, seed=7))
    fixed_score = score_spec(PatternSpec(family="baseline_fixed", n_dim=16))
    assert random_score.score_per_flop > fixed_score.score_per_flop


@pytest.mark.parametrize("family", ["sparse_rowcol", "sparse_diagonal"])
def test_sparse_score_monotone_in_level(family):
    n = 16
    scores = [
        score_spec(PatternSpec(family=family, n_dim=n, level=level,
                               seed=11)).score_per_flop
        for level in range(5)
    ]
    assert all(lo < hi for lo, hi in zip(scores, scores[1:]))


def test_score_is_deterministic():
    spec = PatternSpec(family="block_diagonal", n_dim=16, level=2, seed=21)
    first = score_spec(spec, schedule_for_lanes(4))
    second = score_spec(spec, schedule_for_lanes(4))
    assert first == second


@pytest.mark.parametrize("lanes", [1, 2, 4, 8, 16, 32, 256, 6])
@pytest.mark.parametrize("mode", list(ValueMode))
@pytest.mark.parametrize("family", list(Family))
def test_block_streamed_toggles_equal_whole_stream(family, mode, lanes, monkeypatch):
    n = 16
    schedule = Schedule(lanes=lanes)
    tile = schedule.tile  # 256 lanes: one 16x16 tile covers the output
    spec = PatternSpec(family=family, n_dim=n, level=2, value_mode=mode, seed=4)
    if n % tile[1]:  # no power-of-two n_dim takes a tile 3 wide
        with pytest.raises(ConfigError):
            operand_stream(generate(spec), schedule)
        with pytest.raises(ConfigError):
            score_spec(spec, schedule)
        return
    expected = toggle_score(operand_stream(generate(spec), schedule))
    assert model.ACC_BLOCK >= n * n  # one block
    assert score_spec(spec, schedule) == expected

    # one tile row per block, then 3 tile rows per block (3 divides no
    # tile-row count here, so the last block is short)
    for block in (1, 3 * tile[0] * n):
        monkeypatch.setattr(model, "ACC_BLOCK", block)
        assert score_spec(spec, schedule) == expected


@pytest.mark.parametrize("lanes", [1, 2, 4, 8, 16])
def test_score_spec_keeps_signed_zeros_and_subnormals(lanes, monkeypatch):
    # patterns hold no negative values; these operands make -0.0 first
    # products and sign changes in the accumulators, and stay finite.
    # With 8 lanes (a 2x4 tile) and 16, the multiplier counts also cross
    # adjacent A rows and wrap from the last B column to the first on them.
    n = 8
    rng = np.random.default_rng(5)
    values = np.array([-1.5, -0.0, 0.0, 0.75, 3.0, -2.5e-310])
    spec = PatternSpec(family="baseline_random", n_dim=n)
    pair = MatrixPair(a=rng.choice(values, (n, n)), b=rng.choice(values, (n, n)))
    monkeypatch.setattr(patterns, "generate", lambda _: pair)
    schedule = Schedule(lanes=lanes)
    expected = toggle_score(operand_stream(pair, schedule))
    for block in (1, model.ACC_BLOCK):
        monkeypatch.setattr(model, "ACC_BLOCK", block)
        assert score_spec(spec, schedule) == expected


@pytest.mark.parametrize("lanes", [1, 4, 16])
def test_score_spec_memory_is_bounded(traced_peak, lanes):
    # the whole N=256 stream is 16 Mi cycles (~400 MB as arrays); the
    # counter keeps A and B (1 MiB), one XOR temporary and about two
    # blocks, whatever the lane count (lane-scaled copies of A and B
    # peaked at 4.5 MiB with 16 lanes)
    spec = PatternSpec(family="baseline_random", n_dim=256, seed=0)
    peak = traced_peak(lambda: score_spec(spec, schedule_for_lanes(lanes)))
    assert peak < 4 * 2**20
