"""verify_rack's class-pair decision against the full n^3 scan, and its memory.

verify_rack decides self-distributivity at (x, y, z) for all x at once: it
gives each composite of two column classes an id and compares the ids of
R_z R_y and R_{y <| z} R_z on the n x k grid of (y, class c of z), then
expands the rows y with a failing class into (y, z) pairs and scans entry
by entry only those pairs. The tables below aim at that decision: gauge
tables with one column class rewritten, where only the class pairs that
meet the rewritten class can fail; tables with a single column class; and
tables where a failing pair has y and z in one class and y <| z in
another, so a decision that read cls(z) in place of cls(y <| z) would pass
it. Each runs against ref_verify_rack at chunk sizes down to one element,
and the last two kinds also with a hash under which every composite
collides. Rewritten tables where one failing (x, y) fails at several z of
one class test the expansion: every such z must be listed in (x, y, z)
order, and a witness cap reached between two of them must cut the list
there and still count them all. The last test bounds what verify_rack
allocates on a 1,008-point gauge table by the chunk size and the table
copies.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaugequandles import bundles, gauge, groups, racks
from test_loop_references import assert_witness_arrays, plain_report, ref_verify_rack, relabel, relabeled_groups, uncut

CHUNK_SIZES = [1, 50, 400, racks._CHUNK_ELEMENTS]


def column_classes(op):
    """cls[z]: the index of column z among the distinct columns."""
    return np.unique(op, axis=1, return_inverse=True)[1].ravel()


@st.composite
def rewritten_class_tables(draw):
    """A gauge table over two or three base points, its points relabeled,
    with every column of one class replaced by one new column."""
    G = draw(relabeled_groups(["Z4", "D3", "D4", "Q8", "S3"]))
    base = draw(st.integers(2, 3))
    values = draw(st.lists(st.integers(0, G.order - 1), min_size=base, max_size=base))
    f = bundles.EquivariantMap(bundles.DiscreteBundle(G, base), values)
    n = f.bundle.total_size
    op = relabel(gauge.build(f).table.op, draw(st.permutations(range(n))))
    cls = column_classes(op)
    column = draw(st.permutations(range(n)) | st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    op[:, cls == draw(st.integers(0, cls.max()))] = np.array(column)[:, None]
    return op


@st.composite
def one_class_tables(draw):
    """x <| y = c(x) for every y: all columns equal, so one class."""
    n = draw(st.integers(1, 12))
    column = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return np.repeat(np.array(column)[:, None], n, axis=1)


@st.composite
def class_moving_tables(draw):
    """Column f on class 0 and column g on class 1, with f(y0) in class 1 for
    some y0 in class 0. For z in class 0, R_z R_y0 = f f and R_{y0 <| z} R_z
    = g f, which differ where g f(x) != f f(x); the composites (0, 0) of
    R_z R_y0 and R_z R_z agree, so only cls(y0 <| z) finds the failure."""
    n = draw(st.integers(3, 10))
    in_one = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    assume(in_one.any() and not in_one.all())
    f = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    g = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    y0 = draw(st.sampled_from(np.flatnonzero(~in_one).tolist()))
    f[y0] = draw(st.sampled_from(np.flatnonzero(in_one).tolist()))
    assume((g[f] != f[f]).any())
    return np.where(in_one[None, :], g[:, None], f[:, None])


def check_against_the_full_scan(op, chunk_elements):
    m = racks.magma_from_table(op)
    ref = ref_verify_rack(m)
    with mock.patch.object(racks, "_CHUNK_ELEMENTS", chunk_elements), uncut(ref):
        got = racks.verify_rack(m)
    assert plain_report(got) == plain_report(ref)
    assert_witness_arrays(got, m.size)
    return ref


@pytest.mark.parametrize("chunk_elements", CHUNK_SIZES)
@settings(max_examples=40, deadline=None)
@given(op=rewritten_class_tables())
def test_gauge_tables_with_one_class_rewritten(op, chunk_elements):
    assert np.unique(op, axis=1).shape[1] < len(op)  # some columns repeat, so the ids decide
    check_against_the_full_scan(op, chunk_elements)


@pytest.mark.parametrize("chunk_elements", CHUNK_SIZES)
@settings(max_examples=30, deadline=None)
@given(op=one_class_tables())
def test_tables_with_one_column_class(op, chunk_elements):
    ref = check_against_the_full_scan(op, chunk_elements)
    assert not ref.sd_violations  # (x <| y) <| z = c(c(x)) = (x <| z) <| (y <| z)


@pytest.mark.parametrize("chunk_elements", CHUNK_SIZES)
@settings(max_examples=40, deadline=None)
@given(op=class_moving_tables())
def test_tables_where_y_z_leaves_the_class_of_z(op, chunk_elements):
    ref = check_against_the_full_scan(op, chunk_elements)
    cls = column_classes(op)
    assert any(cls[y] == cls[z] != cls[op[y, z]] for _, y, z in ref.sd_violations)


@pytest.mark.parametrize("chunk_elements", CHUNK_SIZES)
@settings(max_examples=30, deadline=None)
@given(op=rewritten_class_tables() | class_moving_tables())
def test_a_hash_that_always_collides_changes_no_report(op, chunk_elements):
    # Every composite hashes to 0, so only the entry comparison tells them
    # apart: equal composites that do not sort next to each other get
    # different ids, and the pass over the pairs the grid finds drops the
    # ones that do not fail.
    with mock.patch.object(racks, "_hash_weights", lambda n: np.zeros(n, dtype=np.uint64)):
        check_against_the_full_scan(op, chunk_elements)


def inside_a_class(sd, cls):
    """The indices i of the witness rows sd where row i - 1 has the same x and
    y and a z of the same class: a cut at i falls inside one failing (y, c)."""
    sd = np.asarray(sd, dtype=np.intp).reshape(-1, 3)
    same = (sd[1:, :2] == sd[:-1, :2]).all(axis=1) & (cls[sd[1:, 2]] == cls[sd[:-1, 2]])
    return np.flatnonzero(same) + 1


@st.composite
def class_wide_failures(draw):
    """A rewritten gauge table with its reference report, where some failing
    (x, y) fails at two or more z of one class, so the n x k grid's (y, c)
    stands for several pairs (y, z)."""
    op = draw(rewritten_class_tables())
    ref = ref_verify_rack(racks.magma_from_table(op))
    assume(len(inside_a_class(ref.sd_violations, column_classes(op))))
    return op, ref


@pytest.mark.parametrize("chunk_elements", CHUNK_SIZES)
@settings(max_examples=30, deadline=None)
@given(case=class_wide_failures())
def test_a_failing_class_lists_each_of_its_z_in_order(case, chunk_elements):
    check_against_the_full_scan(case[0], chunk_elements)


@pytest.mark.parametrize("chunk_elements", CHUNK_SIZES)
@settings(max_examples=30, deadline=None)
@given(case=class_wide_failures(), data=st.data())
def test_the_cap_reached_inside_a_class(case, chunk_elements, data):
    # The cut falls between two z of one failing (y, c): the list must stop
    # there, and the total must still count every z of every class.
    op, ref = case
    m = racks.magma_from_table(op)
    inside = inside_a_class(ref.sd_violations, column_classes(op)).tolist()
    for cap in {inside[0], inside[-1], data.draw(st.sampled_from(inside))}:
        with mock.patch.object(racks, "_CHUNK_ELEMENTS", chunk_elements), mock.patch.object(racks, "WITNESS_CAP", cap):
            got = racks.verify_rack(m)
        assert got.sd_violations.tolist() == [list(w) for w in ref.sd_violations[:cap]]
        assert got.sd_violation_count == ref.sd_violation_count > cap


def test_verify_rack_allocates_one_chunk_beyond_the_table_copies():
    # S4 over 42 base points: 1,008 points and at most 24 distinct columns.
    b = bundles.DiscreteBundle(groups.catalog("S4"), 42)
    m = gauge.build(bundles.EquivariantMap(b, np.random.default_rng(0).integers(0, 24, 42).tolist())).table
    n = m.size
    chunk = 1 << 14
    itemsize = np.min_scalar_type(n - 1).itemsize
    # The column classes read two copies of the table in its narrow dtype: the
    # transpose and its column bytes. Every other array holds at most k x n
    # entries or one chunk of at most chunk entries, none wider than 8 bytes;
    # the grid of one chunk holds about 13 bytes an entry across its arrays.
    bound = 2 * n * n * itemsize + 32 * chunk + (1 << 20)
    with mock.patch.object(racks, "_CHUNK_ELEMENTS", chunk):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            report = racks.verify_rack(m)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    assert report.is_quandle
    # An unchunked grid alone would take about 13 n^2 bytes, 13 MB here.
    assert peak <= bound, f"verify_rack peaked at {peak} bytes, above {bound}"
