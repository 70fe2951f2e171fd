import unittest.mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entrobench.spec
from entrobench import model, patterns
from entrobench.errors import ConfigError
from entrobench.model import (
    FmaStream,
    Schedule,
    count_toggles,
    operand_stream,
    schedule_for_lanes,
    score_spec,
    toggle_score,
)
from entrobench.patterns import Family, MatrixPair, PatternSpec, ValueMode, generate


def test_schedule_validation():
    with pytest.raises(ConfigError):
        Schedule(lanes=0)


def test_model_scores_with_the_schedule_a_manifest_loads():
    assert Schedule is entrobench.spec.Schedule
    assert schedule_for_lanes(4) == entrobench.spec.Schedule(4)


# () marks a lane count that is refused: no power-of-two N takes a tile 3 wide
@pytest.mark.parametrize("lanes,tile", [(1, (1, 1)), (4, (2, 2)), (8, (2, 4)), (9, ()), (6, ()),
                                        (2, (1, 2)), (32, (4, 8))])
def test_schedule_for_lanes_prefers_square_tiles(lanes, tile):
    if not tile:
        with pytest.raises(ConfigError, match="lanes must be a power of two"):
            schedule_for_lanes(lanes)
        return
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
    schedule = Schedule(lanes=lanes)
    assert schedule.tile == tile
    tm, tn = tile
    pairs = [generate(PatternSpec(family="sparse_rowcol", n_dim=8, level=1, seed=6))]
    if 6 % tn == 0:  # n = 6 is no power of two; a 2x4 tile does not divide it
        pairs.append(MatrixPair(*np.random.default_rng(6).random((2, 6, 6))))
    for pair in pairs:
        n = len(pair.a)
        stream = operand_stream(pair, schedule)
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

        # Integer-valued operands give the stream of their float64 values.
        ints = [np.round(16 * x).astype(np.int64) for x in (pair.a, pair.b)]
        int_stream = operand_stream(MatrixPair(*ints), schedule)
        float_stream = operand_stream(MatrixPair(*(x.astype(np.float64) for x in ints)), schedule)
        for got, expect in zip(vars(int_stream).values(), vars(float_stream).values()):
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got.view(np.uint64), expect.view(np.uint64))


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
    (3, "lanes must be a power of two, got 3"),
    (17, "lanes must be a power of two, got 17"),
    (10**18, f"lanes must be a power of two, got {10**18}"),
    (32, "lanes=32 exceeds the 16 cells of an n_dim=4 output"),
    (2**60, f"lanes={2**60} exceeds the 16 cells of an n_dim=4 output"),
])
def test_tile_must_divide_dimension(lanes, message):
    spec = PatternSpec(family="baseline_random", n_dim=4, seed=0)
    pair = generate(spec)
    with pytest.raises(ConfigError, match=message):
        operand_stream(pair, Schedule(lanes=lanes))
    with pytest.raises(ConfigError, match=message):
        score_spec(spec, Schedule(lanes=lanes))
    with pytest.raises(ConfigError, match=message):
        count_toggles(pair.a, pair.b, Schedule(lanes=lanes))


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


# A baseline takes only level 0 and independent values, so it appears once.
FAMILY_MODES = [(family, mode) for family in Family for mode in ValueMode
                if family not in entrobench.spec.BASELINE_FAMILIES
                or mode is ValueMode.INDEPENDENT]


@pytest.mark.parametrize("lanes", [1, 2, 4, 8, 16, 32, 256, 6])
@pytest.mark.parametrize("family,mode", FAMILY_MODES)
def test_block_streamed_toggles_equal_whole_stream(family, mode, lanes, monkeypatch):
    n = 16
    if lanes & (lanes - 1):  # no power-of-two n_dim takes a tile 3 wide
        with pytest.raises(ConfigError, match="lanes must be a power of two"):
            Schedule(lanes=lanes)
        return
    schedule = Schedule(lanes=lanes)
    tile = schedule.tile  # 256 lanes: one 16x16 tile covers the output
    level = 0 if family in entrobench.spec.BASELINE_FAMILIES else 2
    spec = PatternSpec(family=family, n_dim=n, level=level, value_mode=mode, seed=4)
    pair = generate(spec)
    expected = toggle_score(operand_stream(pair, schedule))
    assert model.ACC_BLOCK >= n * n  # one block
    assert score_spec(spec, schedule) == expected
    assert count_toggles(pair.a, pair.b, schedule) == expected

    # one tile row per block, then 3 tile rows per block when every tile
    # column is distinct (3 divides no tile-row count here, so the last
    # block is short), more when tile columns repeat
    for block in (1, 3 * tile[0] * n):
        monkeypatch.setattr(model, "ACC_BLOCK", block)
        assert score_spec(spec, schedule) == expected
        assert count_toggles(pair.a, pair.b, schedule) == expected


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
        assert count_toggles(pair.a, pair.b, schedule) == expected


def _random_operands(kind: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A and B that no pattern family generates."""
    rng = np.random.default_rng(8)
    if kind == "signs":  # negative products and sign changes in the sums
        return rng.choice([-1.0, 1.0], (2, n, n)) * rng.random((2, n, n))
    if kind == "subnormals":  # subnormal A, so products and sums are subnormal
        return rng.standard_normal((2, n, n)) * np.array([2.0 ** -1060, 1.0])[:, None, None]
    pair = generate(PatternSpec(family="block_diagonal", n_dim=n, level=2, seed=9))
    return np.ascontiguousarray(pair.a.T), np.ascontiguousarray(pair.b.T)


@pytest.mark.parametrize("lanes", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("kind", ["signs", "subnormals", "transposed"])
def test_count_toggles_equals_whole_stream_on_any_operands(kind, lanes):
    a, b = _random_operands(kind, 16)
    schedule = Schedule(lanes)
    expected = toggle_score(operand_stream(MatrixPair(a=a, b=b), schedule))
    assert count_toggles(a, b, schedule) == expected


@pytest.mark.parametrize("a,b", [
    (np.ones((8, 8)).T, np.ones((8, 8))),                    # not C-contiguous
    (np.ones((8, 8)), np.ones((16, 16))[::2, ::2]),           # strided view
    (np.ones((8, 8), np.float32), np.ones((8, 8))),
    (np.ones((8, 8)), np.ones((8, 8), ">f8")),                 # byte-swapped
    (np.ones((8, 8)), np.ones((8, 8), np.int64)),
    (np.ones((8, 4)), np.ones((4, 8))),                       # not square
    (np.ones((8, 8)), np.ones((4, 4))),
    (np.ones(64), np.ones(64)),
    (np.ones((8, 8)), [[1.0] * 8] * 8),
], ids=["transposed", "strided", "float32", "big-endian", "int64", "not-square",
        "shapes-differ", "1-d", "list"])
def test_count_toggles_refuses_operands_that_are_not_c_contiguous_float64_squares(a, b):
    with pytest.raises(ConfigError, match="operands must be C-contiguous N x N float64 arrays"):
        count_toggles(a, b, Schedule(4))


def test_count_toggles_refuses_a_tile_that_does_not_divide_the_dimension():
    a = np.ones((6, 6))
    with pytest.raises(ConfigError, match="lanes=8 gives a 2x4 tile, which does not divide n_dim=6"):
        count_toggles(a, a, Schedule(8))
    assert count_toggles(a, a, Schedule(4)) == toggle_score(operand_stream(MatrixPair(a, a),
                                                                           Schedule(4)))


def _tiles_from_pools(pool_a, rows, pool_b, cols):
    """A with row i = pool_a[rows[i]], B with column j = pool_b[cols[j]]."""
    return np.ascontiguousarray(pool_a[rows]), np.ascontiguousarray(pool_b[cols].T)


@pytest.mark.parametrize("lanes", [1, 2, 4, 8])
@pytest.mark.parametrize("words", [
    (0.0, -0.0),  # equal under ==
    tuple(np.array([0x7FF8000000000001, 0x7FF8000000000002], np.uint64).view(np.float64)),
], ids=["signed-zero", "nan-payloads"])
def test_bit_different_tiles_are_never_merged(words, lanes):
    # Rows x and y of A, and columns y and x of B, differ in one word only,
    # whose two values compare equal or are both NaN.
    n = 8
    pool = np.full((2, n), 0.75)
    pool[:, 0] = words  # the first product: a zero sum keeps its sign
    a, b = _tiles_from_pools(pool, [0, 1] * (n // 2), pool, [1, 0] * (n // 2))
    groups, _, counts = model._distinct(a, 1, 0)
    assert groups.tolist() == [0, 1] * (n // 2) and counts.tolist() == [n // 2] * 2
    schedule = Schedule(lanes)
    expected = toggle_score(operand_stream(MatrixPair(a=a, b=b), schedule))
    assert count_toggles(a, b, schedule) == expected


def test_blocks_whose_hashes_collide_are_told_apart_by_their_bytes(monkeypatch):
    # Every block hashes alike, so each is compared byte for byte with the
    # first block of every group so far.
    monkeypatch.setattr(model, "_hashes",
                        lambda m, size, axis: np.zeros(m.shape[axis] // size, np.uint64))
    pool = np.array([[1.0, 2.0], [1.0, -0.0], [1.0, 0.0]])
    groups, firsts, counts = model._distinct(pool[[2, 0, 2, 1, 0, 1, 1]], 1, 0)
    assert groups.tolist() == [0, 1, 0, 2, 1, 2, 2]
    assert firsts.tolist() == [0, 1, 3] and counts.tolist() == [2, 2, 3]
    wide = np.tile(pool, 4)  # rows of 8 words
    a, b = _tiles_from_pools(wide, [0, 1, 2, 1] * 2, wide, [2, 2, 0, 1] * 2)
    schedule = Schedule(4)
    assert count_toggles(a, b, schedule) == toggle_score(operand_stream(MatrixPair(a, b), schedule))


def _distinct_by_bytes(blocks):
    """The grouping _distinct makes, keyed by each block's bytes: the oracle it is tested against."""
    keys = {}
    group = [keys.setdefault(block.tobytes(), len(keys)) for block in blocks]
    return group, [group.index(g) for g in range(len(keys))], np.bincount(group).tolist()


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_distinct_groups_blocks_as_their_bytes_do(data):
    # Blocks of rows of A and of columns of B, drawn from a few rows and
    # columns of words that compare equal (0.0 and -0.0) or are both NaN,
    # in a contiguous matrix or a strided view, hashed and compared in
    # chunks of ACC_BLOCK words, with real hashes or colliding ones; the
    # oracle reads B's tile columns as strided views.
    n = data.draw(st.sampled_from([1, 2, 4, 8, 16]), label="n")
    size = data.draw(st.sampled_from([s for s in (1, 2, 4, 8) if s <= n]), label="size")
    nans = tuple(np.array([0x7FF8000000000001, 0x7FFC000000000000], np.uint64).view(np.float64))
    values = st.sampled_from([0.0, -0.0, *nans, 1.0, -1.5])
    pool = np.array(data.draw(st.lists(st.lists(values, min_size=n, max_size=n),
                                       min_size=1, max_size=3), label="pool"))
    picks = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    a, b = _tiles_from_pools(pool, [i % len(pool) for i in data.draw(picks, label="rows")],
                             pool, [j % len(pool) for j in data.draw(picks, label="cols")])
    if data.draw(st.booleans(), label="strided"):
        a, b = (np.repeat(m, 2, axis=1)[:, ::2] for m in (a, b))
    acc_block = data.draw(st.sampled_from([1, 3, 16, model.ACC_BLOCK]), label="acc_block")
    hashes = data.draw(st.sampled_from([model._hashes, lambda m, size, axis: np.zeros(
        m.shape[axis] // size, np.uint64)]), label="hashes")  # or every block hashes alike
    with unittest.mock.patch.multiple(model, ACC_BLOCK=acc_block, _hashes=hashes):
        got = [model._distinct(a, size, 0), model._distinct(b, size, 1)]
    want = [_distinct_by_bytes(a.reshape(n // size, size, n)),
            _distinct_by_bytes(b.reshape(n, n // size, size).transpose(1, 0, 2))]
    assert [[x.tolist() for x in groups] for groups in got] == [list(w) for w in want]


@pytest.mark.parametrize("lanes", [1, 2, 4, 8])
def test_tiles_that_repeat_apart_are_counted_once_per_repeat(lanes, monkeypatch):
    # A's rows run x, y, z, w, x, y, ..., so with 1 or 2 rows per tile a
    # tile row recurs 4 or 2 tile rows later, never next to itself; B's
    # columns alike.  With one tile row per block, every block holds one
    # distinct tile row.
    n = 16
    rng = np.random.default_rng(12)
    pool_a, pool_b = rng.choice([-2.0, -0.0, 0.5, 1.25, 3.0], (2, 4, n))
    a, b = _tiles_from_pools(pool_a, [0, 1, 2, 3] * (n // 4), pool_b, [0, 1, 2, 3] * (n // 4))
    schedule = Schedule(lanes)
    expected = toggle_score(operand_stream(MatrixPair(a=a, b=b), schedule))
    monkeypatch.setattr(model, "ACC_BLOCK", 1)
    assert count_toggles(a, b, schedule) == expected


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_operands_drawn_from_a_few_rows_equal_the_whole_stream(data):
    n = data.draw(st.sampled_from([1, 2, 4, 8, 16]), label="n")
    lanes = data.draw(st.sampled_from([lanes for lanes in (1, 2, 4, 8, 16, 32) if lanes <= n * n]),
                      label="lanes")
    values = st.sampled_from([0.0, -0.0, 1.0, -1.5, 0.1, 3.0e-310, -7.0e150])
    pool = st.lists(st.lists(values, min_size=n, max_size=n), min_size=1, max_size=3)
    pool_a, pool_b = (np.array(data.draw(pool, label=name)) for name in ("pool_a", "pool_b"))
    picks = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    rows = [i % len(pool_a) for i in data.draw(picks, label="rows")]
    cols = [j % len(pool_b) for j in data.draw(picks, label="cols")]
    a, b = _tiles_from_pools(pool_a, rows, pool_b, cols)
    schedule = Schedule(lanes)
    assert count_toggles(a, b, schedule) == toggle_score(operand_stream(MatrixPair(a, b),
                                                                        schedule))


def test_accumulator_loop_runs_only_over_distinct_tiles(monkeypatch):
    # sparse_rowcol level 0 has one random row in A and one random column
    # in B, so with 2x2 tiles 2 of the 8 tile rows differ, and 2 of the 8
    # tile columns.  The multiplier terms and the step from tile row to
    # tile row go through _flips; every other popcount is the accumulator
    # loop's.
    n, lanes = 16, 4
    popcount, words = model._popcount, []
    monkeypatch.setattr(model, "_flips", lambda x, y: int(popcount(x, y).sum()))
    monkeypatch.setattr(model, "_popcount", lambda x, y: words.append(x.size) or popcount(x, y))
    spec = PatternSpec(family="sparse_rowcol", n_dim=n, level=0, seed=1)
    report = score_spec(spec, Schedule(lanes))
    assert report == toggle_score(operand_stream(generate(spec), Schedule(lanes)))
    # Each of the 2 x 2 distinct tiles: lanes * n words, one per cycle of
    # its stream (the first from its first product to itself).  Each of the
    # 2 distinct tile rows: its 7 steps from tile to tile.  All 64 tiles
    # would take 64 * 64 + 8 * 7 words.
    assert sum(words) == 2 * 2 * lanes * n + 2 * (n // 2 - 1)
    # One block; all n k steps of its 2 x 2 x lanes words fit one chunk, so
    # one popcount counts them, and one the steps from tile to tile.
    assert len(words) == 2


def _chunk_operands(kind: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    if kind in ("signs", "subnormals"):
        return _random_operands(kind, n)
    level = {"sparse_rowcol": 0, "block_rowcol": 2}[kind]
    pair = generate(PatternSpec(family=kind, n_dim=n, level=level, seed=3))
    return pair.a, pair.b


def _record_chunks(monkeypatch) -> list[list[int]]:
    """Record the k steps of each chunk of each block of the accumulator loop.

    In a block, every _popcount call but the last (the steps from tile to
    tile) counts one chunk: its k steps times lanes rows of words.
    """
    blocks, inside = [], []
    tile_row_block, popcount = model._tile_row_block, model._popcount

    def block(a_rows, b_k, *maps):
        inside.append([])
        try:
            return tile_row_block(a_rows, b_k, *maps)
        finally:
            lanes = a_rows.shape[1] * b_k.shape[2]
            blocks.append([len(x) // lanes for x in inside.pop()[:-1]])

    def count(x, y):
        if inside:
            inside[-1].append(x)
        return popcount(x, y)

    monkeypatch.setattr(model, "_tile_row_block", block)
    monkeypatch.setattr(model, "_popcount", count)
    return blocks


@pytest.mark.parametrize("steps", [1, 2, 3, 16])
@pytest.mark.parametrize("lanes", [1, 4, 16])
@pytest.mark.parametrize("kind", ["sparse_rowcol", "block_rowcol", "signs", "subnormals"])
def test_chunks_of_k_steps_equal_the_whole_stream(kind, lanes, steps, monkeypatch):
    # Chunks of 1, 2, 3 and all n k steps; 3 leaves a short last chunk of
    # 1, whose final words must come from its own last step.  A block of
    # `height` distinct tile rows holds height * cols tiles, so the
    # smallest ACC_BLOCK that gives it `steps` k steps per chunk is
    # steps * lanes * height * cols; the first height that makes every
    # block chunk so is kept.
    n = 16
    a, b = _chunk_operands(kind, n)
    schedule = Schedule(lanes)
    expected = toggle_score(operand_stream(MatrixPair(a=a, b=b), schedule))
    tm, tn = schedule.tile
    rows = len(np.unique(a.view(np.uint64).reshape(n // tm, -1), axis=0))
    cols = len(np.unique(b.view(np.uint64).reshape(n, n // tn, tn).transpose(1, 0, 2)
                         .reshape(n // tn, -1), axis=0))
    chunked = [steps] * (n // steps) + [n % steps] * (n % steps > 0)
    blocks = _record_chunks(monkeypatch)
    for height in range(1, rows + 1):
        monkeypatch.setattr(model, "ACC_BLOCK", steps * lanes * height * cols)
        blocks.clear()
        assert count_toggles(a, b, schedule) == expected
        if all(chunks == chunked for chunks in blocks):
            break
    else:
        pytest.fail(f"no block height gives chunks of {steps} k steps: {blocks}")


@pytest.mark.parametrize("lanes", [1, 4, 16])
def test_score_spec_memory_is_bounded(traced_peak, lanes):
    # the whole N=256 stream is 16 Mi cycles (~400 MB as arrays); the
    # counter keeps A and B (1 MiB), a copy of B's distinct tile columns
    # (half of B in block_rowcol, whose zero columns repeat; none when
    # all are distinct), one XOR temporary and about two blocks, whatever
    # the lane count (lane-scaled copies of A and B peaked at 4.5 MiB with
    # 16 lanes, and two accumulator words per tile at 2.9 MiB with 1 lane).
    # sparse_rowcol at level 0 has 2 x 2 distinct tiles, so its one chunk
    # holds all n k steps.  An untraced call first, so that the peak does
    # not depend on what ran before this test.
    score_spec(PatternSpec(family="baseline_random", n_dim=16, seed=0), schedule_for_lanes(lanes))
    for family, level in (("baseline_random", 0), ("block_rowcol", 2), ("sparse_rowcol", 0)):
        spec = PatternSpec(family=family, n_dim=256, level=level, seed=0)
        peak = traced_peak(lambda: score_spec(spec, schedule_for_lanes(lanes)))
        assert peak < 2.5 * 2**20, family
