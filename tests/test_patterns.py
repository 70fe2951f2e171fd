import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entrobench
from entrobench import patterns
from entrobench.errors import ConfigError
from entrobench.patterns import (
    Family,
    PatternSpec,
    ValueMode,
    dump_matrix,
    generate,
    load_matrix,
    masks,
    write_file,
)

from golden_masks import GOLDEN, grid_to_mask

BLOCK_FAMILIES = (Family.BLOCK_ROWCOL, Family.BLOCK_DIAGONAL)
SPARSE_FAMILIES = (Family.SPARSE_ROWCOL, Family.SPARSE_DIAGONAL)
MODES = tuple(ValueMode)


def _every_spec(n, levels=None):
    return [PatternSpec(family=family, n_dim=n, level=level, value_mode=mode)
            for family in BLOCK_FAMILIES + SPARSE_FAMILIES
            for level in (levels or range(n.bit_length())) for mode in MODES]


@pytest.mark.parametrize("family,level", sorted(GOLDEN))
def test_golden_masks_8x8(family, level):
    grid_a, grid_b = GOLDEN[(family, level)]
    spec = PatternSpec(family=family, n_dim=8, level=level)
    mask_a, mask_b = masks(spec)
    np.testing.assert_array_equal(mask_a, grid_to_mask(grid_a))
    np.testing.assert_array_equal(mask_b, grid_to_mask(grid_b))


@pytest.mark.parametrize("n", [8, 16, 64, 256])
@pytest.mark.parametrize("family", BLOCK_FAMILIES)
def test_block_fraction_exactly_half(n, family):
    for level in range(1, n.bit_length()):
        mask_a, mask_b = masks(PatternSpec(family=family, n_dim=n, level=level))
        assert mask_a.mean() == 0.5
        assert mask_b.mean() == 0.5


@pytest.mark.parametrize("n", [8, 16, 64, 256])
@pytest.mark.parametrize("family", SPARSE_FAMILIES)
def test_sparse_count_formula(n, family):
    log2n = n.bit_length() - 1
    for level in range(log2n + 1):
        mask_a, mask_b = masks(PatternSpec(family=family, n_dim=n, level=level))
        expected = n * n // (1 << (log2n - level))
        assert int(np.count_nonzero(mask_a)) == expected
        assert int(np.count_nonzero(mask_b)) == expected


def test_block_diagonal_masks_complementary():
    for n in (8, 32):
        for level in range(1, n.bit_length()):
            mask_a, mask_b = masks(
                PatternSpec(family="block_diagonal", n_dim=n, level=level)
            )
            np.testing.assert_array_equal(mask_b, ~mask_a)


@pytest.mark.parametrize("family", ["block_rowcol", "block_diagonal", "sparse_rowcol",
                                    "sparse_diagonal"])
def test_masks_equal_the_closed_formulas(family):
    # Each mask is written out without the symmetry that masks() derives
    # B's from (transpose, complement or mirror) and without its bit-and.
    for n in (2 ** m for m in range(1, 11)):
        i, j = np.arange(n)[:, None], np.arange(n)[None, :]
        for level in range(n.bit_length()):
            mask_a, mask_b = masks(PatternSpec(family=family, n_dim=n, level=level))
            s = n // (1 << level)  # stripe width, or diagonal stride
            if family == "block_rowcol":
                expected = ((i // s) % 2 == 0, (j // s) % 2 == 0)
            elif family == "sparse_rowcol":
                expected = (i < 2 ** level, j < 2 ** level)
            elif family == "block_diagonal" and level == 0:
                expected = (True, True)
            elif family == "block_diagonal":
                expected = ((i // s + j // s) % 2 == 0, (i // s + j // s) % 2 == 1)
            else:
                expected = ((j - i) % n % s == 0, (i + j) % n % s == s - 1)
            np.testing.assert_array_equal(mask_a, np.broadcast_to(expected[0], (n, n)))
            np.testing.assert_array_equal(mask_b, np.broadcast_to(expected[1], (n, n)))


@pytest.mark.parametrize("n", [8, 64])
@pytest.mark.parametrize("height", [1, 3])  # 3 leaves a short last block
def test_masks_of_a_block_of_rows_are_those_rows_of_the_whole_masks(n, height):
    for spec in _every_spec(n)[::len(MODES)]:  # the masks do not depend on the value mode
        whole = masks(spec)
        for start in range(0, n, height):
            block = masks(spec, slice(start, start + height))
            for part, full in zip(block, whole):
                assert part.flags.c_contiguous and part.flags.writeable
                np.testing.assert_array_equal(part, full[start:start + height])


@pytest.mark.parametrize("n,heights,levels", [
    (8, [8, 1, 3, None], None),  # rows per block: N is one block, None is GEN_BLOCK's default
    (64, [64, 1, 3, None], None),
    (256, [256, 3], None),  # the default is one block up to N = 256
    (512, [512, None], None),
    (1024, [1024, None], [0, 5, 10]),
])
def test_generate_gives_the_same_bytes_for_any_block_size(monkeypatch, n, heights, levels):
    default, calls = patterns.GEN_BLOCK, []

    def spy(spec, rows=slice(None)):
        calls.append(rows)
        return masks(spec, rows)

    monkeypatch.setattr(patterns, "masks", spy)
    for spec in _every_spec(n, levels):
        first = None
        for height in heights:
            monkeypatch.setattr(patterns, "GEN_BLOCK", default if height is None else height * n)
            calls.clear()
            pair = generate(spec)
            assert len(calls) == -(-n // (height or default // n)), (spec, height)
            if first is None:  # one block: each operand filled whole
                first = pair
            for m, expected in ((pair.a, first.a), (pair.b, first.b)):
                assert np.array_equal(m.view(np.uint64), expected.view(np.uint64)), (spec, height)


def test_generate_keeps_its_bytes():
    # Taken when generate filled each operand whole, before it filled a block of rows at a time.
    pair = generate(PatternSpec(family="sparse_diagonal", n_dim=512, level=5, seed=5))
    assert hashlib.sha256(pair.a.tobytes() + pair.b.tobytes()).hexdigest() == (
        "6289682d261784275667ee38b97c165a7d227454bafe33078e0b52d84be4e62d")


def test_block_rowcol_mask_b_is_transpose_of_a():
    for level in range(5):
        mask_a, mask_b = masks(
            PatternSpec(family="block_rowcol", n_dim=16, level=level)
        )
        np.testing.assert_array_equal(mask_b, mask_a.T)


def test_random_fraction_examples():
    mask_a, _ = masks(PatternSpec(family="block_rowcol", n_dim=16, level=2))
    assert mask_a.mean() == 0.5
    assert np.ones((8, 8), dtype=bool).mean() == 1.0
    # one full row of 8 random cells out of 64
    mask_a, _ = masks(PatternSpec(family="sparse_rowcol", n_dim=8, level=0))
    assert mask_a.mean() == 8 / 64


def test_masks_rejects_baselines_and_bad_level():
    with pytest.raises(ConfigError):
        masks(PatternSpec(family="baseline_random", n_dim=8))
    with pytest.raises(ConfigError):
        PatternSpec(family="block_rowcol", n_dim=8, level=4)
    with pytest.raises(ConfigError):
        PatternSpec(family="block_rowcol", n_dim=12)
    with pytest.raises(ConfigError):
        PatternSpec(family="block_rowcol", n_dim=8, seed=-1)


@pytest.mark.parametrize("family", ["baseline_random", "baseline_fixed"])
def test_baselines_refuse_a_level_or_value_mode(family):
    # generate ignores both for a baseline, so a spec claiming either would mislabel its record.
    with pytest.raises(ConfigError, match="level 0 and value_mode independent"):
        PatternSpec(family=family, n_dim=64, level=5)
    with pytest.raises(ConfigError, match="level 0 and value_mode independent"):
        PatternSpec(family=family, n_dim=64, value_mode="fixed_common")
    assert PatternSpec(family=family, n_dim=64).level == 0


def test_baseline_fixed_values():
    pair = generate(PatternSpec(family="baseline_fixed", n_dim=4))
    assert np.all(pair.a == 2.0)
    assert np.all(pair.b == 0.5)


def test_fixed_common_block_diagonal_counts():
    spec = PatternSpec(
        family="block_diagonal", n_dim=8, level=1,
        value_mode="fixed_common", seed=7,
    )
    pair = generate(spec)
    nonzero = pair.a[pair.a != 0.0]
    assert nonzero.size == 32
    common = nonzero[0]
    assert common == 1.0 - np.random.Generator(np.random.PCG64(7)).random()
    assert 0.0 < common <= 1.0
    assert np.all(nonzero == common)
    assert np.count_nonzero(pair.a == 0.0) == 32
    # B is the complementary checkerboard with the same constant
    b_nonzero = pair.b[pair.b != 0.0]
    assert b_nonzero.size == 32
    assert np.all(b_nonzero == common)
    np.testing.assert_array_equal(pair.a == 0.0, pair.b != 0.0)


def test_generate_deterministic_bit_identical():
    spec = PatternSpec(
        family="sparse_rowcol", n_dim=8, level=1,
        value_mode="independent", seed=1,
    )
    first = generate(spec)
    second = generate(spec)
    np.testing.assert_array_equal(
        first.a.view(np.uint64), second.a.view(np.uint64)
    )
    np.testing.assert_array_equal(
        first.b.view(np.uint64), second.b.view(np.uint64)
    )


def test_independent_values_in_open_closed_unit_range():
    spec = PatternSpec(family="baseline_random", n_dim=32, seed=3)
    pair = generate(spec)
    for m in (pair.a, pair.b):
        assert np.all(m > 0.0)
        assert np.all(m <= 1.0)


def test_zero_cells_exactly_zero():
    for family in BLOCK_FAMILIES + SPARSE_FAMILIES:
        spec = PatternSpec(family=family, n_dim=16, level=1, seed=5)
        pair = generate(spec)
        mask_a, mask_b = masks(spec)
        assert np.all(pair.a[~mask_a] == 0.0)
        assert np.all(pair.b[~mask_b] == 0.0)
        assert np.all(pair.a[mask_a] > 0.0)
        assert np.all(pair.b[mask_b] > 0.0)


def test_generate_holds_only_its_two_matrices(traced_peak):
    spec = PatternSpec(family="baseline_random", n_dim=256, seed=0)
    generate(spec)  # numpy's first draw allocates extra memory once
    peak = traced_peak(lambda: generate(spec))
    assert peak < 2.1 * 8 * 256 * 256, peak / (8 * 256 * 256)  # each draw is made in place


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("family", BLOCK_FAMILIES + SPARSE_FAMILIES)
def test_generate_holds_its_two_matrices_and_a_few_blocks(traced_peak, family, mode):
    # At each family's level with the most random cells: every cell of A
    # and B for the sparse families at the top level and the block ones at 0.
    n = 1024
    spec = PatternSpec(family=family, n_dim=n, level=0 if family in BLOCK_FAMILIES else 10,
                       value_mode=mode)
    generate(PatternSpec(family="baseline_random", n_dim=8))  # numpy's first draw allocates once
    peak = traced_peak(lambda: generate(spec))
    assert peak < 2 * 8 * n * n + 4 * 8 * patterns.GEN_BLOCK, peak / (8 * n * n)


def test_matrices_are_immutable():
    pair = generate(PatternSpec(family="baseline_fixed", n_dim=4))
    with pytest.raises(ValueError):
        pair.a[0, 0] = 3.0


def test_a_and_b_decorrelated_under_one_seed():
    pair = generate(PatternSpec(family="baseline_random", n_dim=16, seed=42))
    assert not np.array_equal(pair.a, pair.b)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from([f.value for f in BLOCK_FAMILIES + SPARSE_FAMILIES]),
    log2n=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
def test_mask_counts_property(family, log2n, data):
    n = 1 << log2n
    level = data.draw(st.integers(min_value=0, max_value=log2n))
    mask_a, mask_b = masks(PatternSpec(family=family, n_dim=n, level=level))
    if family.startswith("sparse"):
        expected = n * n // (1 << (log2n - level))
        assert np.count_nonzero(mask_a) == expected
        assert np.count_nonzero(mask_b) == expected
    elif level >= 1:
        assert mask_a.mean() == 0.5
        assert mask_b.mean() == 0.5
    else:
        assert mask_a.mean() == 1.0


def test_write_file_over_a_longer_file_leaves_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"a much longer earlier content\n" * 40)
    write_file(path, "short \u00b5\n")
    assert path.read_bytes() == "short \u00b5\n".encode("utf-8")
    write_file(path, b"")
    assert path.read_bytes() == b""


def test_dump_matrix_over_a_larger_matrix_loads_back(tmp_path):
    path = tmp_path / "m.bin"
    dump_matrix(np.arange(64.0).reshape(8, 8), path)
    small = np.arange(16.0).reshape(4, 4).T  # not contiguous: dump_matrix copies
    dump_matrix(small, path)
    for out in (np.empty((4, 4)), np.empty((4, 4)).T):  # read in place, or copied into a view
        load_matrix(path, out)
        np.testing.assert_array_equal(out, small)  # its size check sees any tail


def _writer_calls(tree):
    """Lines of calls that write a file other than through write_file."""
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "write_file"
              for node in ast.walk(fn)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in inside:
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("write_text", "write_bytes", "tofile"):
            yield node.lineno
        elif name == "open":
            if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
                yield node.lineno
                continue
            at = 0 if isinstance(func, ast.Attribute) else 1  # path.open(mode), open(path, mode)
            modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[at:at + 1]
            if modes and not (isinstance(modes[0], ast.Constant)
                              and not set(modes[0].value) & set("wax+")):
                yield node.lineno


def test_every_file_is_written_through_write_file():
    package = Path(entrobench.__file__).parent
    found = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
             for line in _writer_calls(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


# The one reader of each kind of file: text in spec, raw matrices (mode "rb") in patterns.
READERS = {"spec.py": "read_text", "patterns.py": "load_matrix"}


def _reader_calls(tree, reader, modules):
    """Lines of calls that open or read a file other than inside the function reader.

    A call X.read_text(...) on one of the package's modules is that module's
    read_text, not pathlib's.
    """
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == reader
              for node in ast.walk(fn)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in inside:
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        owner = getattr(func.value, "id", None) if isinstance(func, ast.Attribute) else None
        if name in ("read_text", "read_bytes"):
            if isinstance(func, ast.Attribute) and owner not in modules:
                yield node.lineno
        elif name in ("fromfile", "load", "loadtxt", "genfromtxt", "memmap"):
            if owner in ("np", "numpy"):
                yield node.lineno
        elif name == "open" and owner == "os":
            flags = {getattr(n, "attr", getattr(n, "id", None)) for n in ast.walk(node)}
            if "O_WRONLY" not in flags:  # O_RDONLY is 0, so a flag set without O_WRONLY reads
                yield node.lineno
        elif name == "open":
            at = 0 if isinstance(func, ast.Attribute) else 1  # path.open(mode), open(path, mode)
            modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[at:at + 1]
            if not modes or not isinstance(modes[0], ast.Constant) or "r" in modes[0].value \
                    or "+" in modes[0].value:
                yield node.lineno


def test_every_file_is_read_through_read_text_or_load_matrix():
    package = Path(entrobench.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    found = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
             for line in _reader_calls(ast.parse(path.read_text(encoding="utf-8")),
                                       READERS.get(path.name), modules)]
    assert found == []
