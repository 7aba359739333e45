import tracemalloc

import numpy as np
import pytest

from gaugequandles import racks
from gaugequandles.errors import ShapeError, index_array


@pytest.mark.parametrize(
    "values",
    [[2, 0, 1], (2, 0, 1), np.array([2, 0, 1], dtype=np.int32), np.array([2, 0, 1], dtype=np.uint8)],
)
def test_index_array_reads_any_integer_input_as_a_frozen_int64_copy(values):
    out = index_array(values, 3, "indices")
    assert out.dtype == np.int64 and out.flags.c_contiguous and not out.flags.writeable
    assert out.tolist() == [2, 0, 1]
    if isinstance(values, np.ndarray):
        assert values.flags.writeable and not np.shares_memory(out, values)


def test_index_array_reads_scalars_and_empty_input():
    assert int(index_array(np.int32(2), 3, "index")) == 2
    assert int(index_array(2, 3, "index")) == 2
    assert index_array([], 3, "indices").dtype == np.int64
    assert index_array(np.asfortranarray(np.eye(2, dtype=np.int16)), 2, "table").flags.c_contiguous


@pytest.mark.parametrize(
    "values, message",
    [
        ([0, 1.0], "integers"),
        ([0, 1.5], "integers"),
        ([True, False], "integers"),
        (["1"], "integers"),
        ([None], "integers"),
        (1.0, "integers"),
        ([0, 3], r"0\.\.2, got 3"),
        ([-1, 0], r"0\.\.2, got -1"),
        (np.array([2**63], dtype=np.uint64), r"got 9223372036854775808"),
        ([0, True], "integers, got a bool"),
        ([[0, 1], [2, (0, False)]], "integers, got a bool"),
        ([[0, 1], [2]], "rectangular"),
        ([np.array([0, 1]), np.array([True, True])], "integers, got a bool"),
        ([1, 10**30], r"0\.\.2, got 1000000000000000000000000000000$"),
        ([[0, 10**23], [1, 1]], r"0\.\.2, got 100000000000000000000000$"),
        (10**29, r"0\.\.2, got 100000000000000000000000000000$"),
        ([0, -(10**26)], r"0\.\.2, got -100000000000000000000000000$"),
        ([0, 10**23, None], "integers, got dtype object"),
        # numpy reads these lists of Python ints as float64, not as objects.
        ([-1, 2**63], r"0\.\.2, got -1$"),
        ([1, 2**63], r"0\.\.2, got 9223372036854775808$"),
        ([[2**63, 0], [-1, 1]], r"0\.\.2, got 9223372036854775808$"),
        ([-1, 1.0, 2**63], "integers, got dtype float64"),
    ],
)
def test_index_array_rejects_non_integers_and_out_of_range_entries(values, message):
    with pytest.raises(ShapeError, match=message):
        index_array(values, 3, "indices")


def test_index_array_without_a_bound_checks_only_the_dtype():
    assert index_array([-5, 99], None, "entries").tolist() == [-5, 99]
    with pytest.raises(ShapeError, match="integers"):
        index_array([0.5], None, "entries")
    with pytest.raises(ShapeError, match="integers, got dtype object"):
        index_array([0, 10**30], None, "entries")


def test_index_array_copies_an_int64_array_but_not_the_array_it_reads_from_a_list():
    # A list is read into a new array, which is frozen in place; a caller's
    # C-ordered int64 array is copied, and stays writeable and unshared.
    values = np.array([[2, 0], [1, 2]], dtype=np.int64)
    out = index_array(values, 3, "indices")
    assert values.flags.writeable and not np.shares_memory(out, values)
    listed = index_array(values.tolist(), 3, "indices")
    for got in (out, listed):
        assert got.dtype == np.int64 and got.flags.c_contiguous and not got.flags.writeable
        assert got.tolist() == [[2, 0], [1, 2]]
    table = np.array([[0, 1], [1, 0]], dtype=np.int64)
    m = racks.magma_from_table(table)
    assert table.flags.writeable and not np.shares_memory(m.op, table)
    assert not racks.magma_from_table(table.tolist()).op.flags.writeable


def test_magma_from_table_reads_a_list_into_one_table():
    # read_array reads the list into a new int64 table, which is frozen in
    # place; at the parent, index_array copied it again, so the peak held two.
    n = 500
    table = np.random.default_rng(0).integers(0, n, (n, n)).tolist()
    tracemalloc.start()
    try:
        m = racks.magma_from_table(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.op.tolist() == table and not m.op.flags.writeable
    # One table of 8 bytes an entry, and the 1-byte mask of its 0/1 entries that read_array scans.
    assert peak < 1.5 * 8 * n * n, peak
