import numpy as np
import pytest

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
    ],
)
def test_index_array_rejects_non_integers_and_out_of_range_entries(values, message):
    with pytest.raises(ShapeError, match=message):
        index_array(values, 3, "indices")


def test_index_array_without_a_bound_checks_only_the_dtype():
    assert index_array([-5, 99], None, "entries").tolist() == [-5, 99]
    with pytest.raises(ShapeError, match="integers"):
        index_array([0.5], None, "entries")
