"""The census's stacked quandle decision on the augmented form, against verify_rack, and its memory.

isomorphism_census decides the axioms of every orbit root that no search
compares in one stacked call of the decider verify_rack uses,
racks._decide, on the column-class forms that gauge._decided_quandles
reads off the |P| x |G| augmented forms aug[i, x, g] of the roots, whose
tables are aug[i][:, f[i]]. Each verdict must be verify_rack's on that
table: for stacks as built, with one entry changed to another point,
inside Im f or outside it, or two entries of a column swapped, and with the
identity map, whose table reads one column, among maps whose images are
larger; at chunk sizes down to one element. Rows of the augmented rack, a
quandle only for the identity map, give tables that fail idempotency alone.
The last test bounds what the pass allocates by its inputs and the chunk
size.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugequandles import bundles, gauge, groups, racks

CHUNK_SIZES = [1, 37, 500, racks._CHUNK_ELEMENTS]


@st.composite
def augmented_stacks(draw):
    """(aug, f) of one to four maps on one bundle, perhaps with the identity map, and perhaps changed.

    Each row is the gauge quandle's augmented form, from _augmented, or the
    augmented rack's, aug[x, g] = x * g, a quandle only for the identity
    map. One entry may then be changed to another point, inside Im f or
    outside it, or two entries of one column swapped at points where f is
    not that column, which keeps every column a permutation and x <| x.
    """
    G = groups.catalog(draw(st.sampled_from(["S3", "D4", "Q8", "S4", "Z4"])))
    base = draw(st.integers(1, 3))
    b = bundles.DiscreteBundle(G, base)
    n = b.total_size
    row = st.lists(st.integers(0, G.order - 1), min_size=base, max_size=base)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * base)
    aug, f = gauge._augmented(b, np.array(rows))
    aug = aug.copy()
    for i in draw(st.sets(st.integers(0, len(rows) - 1))):
        aug[i] = b.action_table()
    change = draw(st.sampled_from(["none", "entry", "swap"]))
    i = draw(st.integers(0, len(rows) - 1))
    image = st.sampled_from(sorted(set(f[i].tolist())))
    if change == "entry":
        g = draw(image | st.integers(0, G.order - 1))
        x, y = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        aug[i, x, g] = aug[i, y, g]
    elif change == "swap" and np.count_nonzero(f[i] != (g := draw(image))) > 1:
        # Two points where f is not g, so x <| x keeps its value too.
        x, y = draw(st.lists(st.sampled_from(np.flatnonzero(f[i] != g).tolist()), min_size=2, max_size=2, unique=True))
        aug[i, [x, y], g] = aug[i, [y, x], g]
    return aug, f


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
@settings(max_examples=100, deadline=None)
@given(stack=augmented_stacks())
def test_verdicts_are_verify_racks(stack, chunk):
    aug, f = stack
    expected = [racks.verify_rack(racks.magma_from_table(aug[i][:, f[i]])).is_quandle for i in range(len(f))]
    with mock.patch.object(racks, "_CHUNK_ELEMENTS", chunk):
        assert gauge._decided_quandles((aug, f)).tolist() == expected


def test_only_the_bijectivity_scan_rejects_a_table_with_constant_columns():
    # x <| y = y on two points, whose two columns are constant: idempotent and
    # self-distributive, but no rack.
    aug, f = np.array([[[0, 1], [0, 1]]], dtype=np.uint8), np.array([[0, 1]])
    report = racks.verify_rack(racks.magma_from_table(aug[0][:, f[0]]))
    assert len(report.bijectivity_violations) == 2 and not len(report.sd_violations) and not len(report.idem_violations)
    assert gauge._decided_quandles((aug, f)).tolist() == [False]


def test_only_the_bijectivity_scan_rejects_a_table_with_repeated_columns():
    # x <| y = r(x) for y in {0, 2} and x for y = 1, with the retraction
    # r = (0, 0, 2), which fixes 0 and 2: idempotent and self-distributive,
    # since r r = r, but no rack. Its two column classes are fewer than its
    # three elements, so the decision compares composite ids.
    aug, f = np.array([[[0, 0], [0, 1], [2, 2]]], dtype=np.uint8), np.array([[0, 1, 0]])
    report = racks.verify_rack(racks.magma_from_table(aug[0][:, f[0]]))
    assert report.bijectivity_violations.tolist() == [0, 2] and not report.sd_violation_count and not report.idem_violation_count
    assert gauge._decided_quandles((aug, f)).tolist() == [False]


def test_every_gauge_table_of_a_bundle_is_a_quandle():
    b = bundles.DiscreteBundle(groups.catalog("D4"), 2)
    assert gauge._decided_quandles(gauge._augmented(b, bundles.enumerate_maps(b))).all()


def test_verdicts_allocate_one_chunk_beyond_the_inputs():
    # The 35 key heads of S4 over 3 base points, each its own orbit root:
    # 72 points, and 1,728 pairs (y, h) a root.
    b = bundles.DiscreteBundle(groups.catalog("S4"), 3)
    values = bundles.enumerate_maps(b)
    cls = gauge._class_conjugators(b.group)[0]
    heads = values[np.unique(gauge._census_keys(b.group, cls, values)[0], return_index=True)[1]]
    target = gauge._augmented(b, heads)
    f = target[1]
    chunk = 1 << 14
    gauge._decided_quandles(gauge._augmented(b, heads[:1]))  # numpy's first-call imports are not the pass's
    # Beyond the verdicts, the class forms, the image mask and the
    # idempotency gather's int64 indices, a few times f's size, every array
    # holds at most one chunk of composites or grid entries, none wider than
    # 8 bytes an entry.
    bound = 4 * f.nbytes + 48 * chunk + (1 << 16)
    with mock.patch.object(racks, "_CHUNK_ELEMENTS", chunk):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ok = gauge._decided_quandles(target)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    assert len(ok) == 35 and ok.all()
    # At the default chunk, the 14,000 composites of the 35 roots, 72
    # entries each, take about 9 MB.
    assert peak <= bound, f"the verdicts peaked at {peak} bytes, above {bound}"
