import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entrobench
from entrobench.errors import ConfigError
from entrobench.patterns import (
    Family,
    PatternSpec,
    ValueMode,
    dump_matrix,
    generate,
    load_matrix,
    masks,
    random_fraction,
    write_file,
)

from golden_masks import GOLDEN, grid_to_mask

BLOCK_FAMILIES = (Family.BLOCK_ROWCOL, Family.BLOCK_DIAGONAL)
SPARSE_FAMILIES = (Family.SPARSE_ROWCOL, Family.SPARSE_DIAGONAL)


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
        assert random_fraction(mask_a) == 0.5
        assert random_fraction(mask_b) == 0.5


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


@pytest.mark.parametrize("family", ["sparse_diagonal", "block_diagonal"])
def test_diagonal_masks_equal_the_modulo_formulas(family):
    # masks() builds these with a bit-and, since the stride and the stripe
    # width are powers of two; these are the modulo formulas they replace.
    for n in (2 ** m for m in range(1, 11)):
        i, j = np.arange(n)[:, None], np.arange(n)[None, :]
        for level in range(1 if family == "block_diagonal" else 0, n.bit_length()):
            mask_a, mask_b = masks(PatternSpec(family=family, n_dim=n, level=level))
            if family == "sparse_diagonal":
                d = n >> level
                expected = ((j - i) % n % d == 0, (i + j) % n % d == d - 1)
            else:
                s = n // (1 << level)
                expected = ((i // s + j // s) % 2 == 0, (i // s + j // s) % 2 == 1)
            np.testing.assert_array_equal(mask_a, expected[0])
            np.testing.assert_array_equal(mask_b, expected[1])


def test_block_rowcol_mask_b_is_transpose_of_a():
    for level in range(5):
        mask_a, mask_b = masks(
            PatternSpec(family="block_rowcol", n_dim=16, level=level)
        )
        np.testing.assert_array_equal(mask_b, mask_a.T)


def test_random_fraction_examples():
    mask_a, _ = masks(PatternSpec(family="block_rowcol", n_dim=16, level=2))
    assert random_fraction(mask_a) == 0.5
    assert random_fraction(np.ones((8, 8), dtype=bool)) == 1.0
    # one full row of 8 random cells out of 64
    mask_a, _ = masks(PatternSpec(family="sparse_rowcol", n_dim=8, level=0))
    assert random_fraction(mask_a) == 8 / 64


def test_masks_rejects_baselines_and_bad_level():
    with pytest.raises(ConfigError):
        masks(PatternSpec(family="baseline_random", n_dim=8))
    with pytest.raises(ConfigError):
        PatternSpec(family="block_rowcol", n_dim=8, level=4)
    with pytest.raises(ConfigError):
        PatternSpec(family="block_rowcol", n_dim=12)
    with pytest.raises(ConfigError):
        PatternSpec(family="block_rowcol", n_dim=8, seed=-1)


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
        assert random_fraction(mask_a) == 0.5
        assert random_fraction(mask_b) == 0.5
    else:
        assert random_fraction(mask_a) == 1.0


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
