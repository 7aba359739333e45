"""verify_rack's witness cap against the full n^3 scan.

verify_rack counts every violation of each kind but keeps only the first
racks.WITNESS_CAP witnesses of each, in order. Each capped report is checked
against ref_verify_rack: every list must be the reference's first cap
entries and every total the reference's count, at caps around each total and
at chunk sizes down to one element, on random tables, gauge tables with
swapped entries and the narrow-dtype boundary tables. The JSON form must add
a count key right after a list exactly when that list is cut, the human
lines must not change with the cap, and a random 160-element table must
verify within its table copies, one chunk and the capped witnesses.
"""

import dataclasses
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugequandles import racks
from test_loop_references import (
    assert_witness_arrays,
    boundary_table,
    json_text,
    random_tables,
    ref_verify_rack,
    swapped_gauge_tables,
    uncut,
)

CHUNK_SIZES = [1, 50, 400, racks._CHUNK_ELEMENTS]
KINDS = ("sd", "bijectivity", "idem")


def caps_around(ref):
    """1, 7, and one below, at and one above each of the reference's totals, at least 1."""
    totals = [getattr(ref, f"{kind}_violation_count") for kind in KINDS]
    return sorted({c for c in (1, 7, *(t + d for t in totals for d in (-1, 0, 1))) if c >= 1})


def verify(m, cap, chunk_elements=racks._CHUNK_ELEMENTS):
    with mock.patch.object(racks, "_CHUNK_ELEMENTS", chunk_elements), mock.patch.object(racks, "WITNESS_CAP", cap):
        return racks.verify_rack(m)


def check_the_cut(got, ref, cap, n):
    """Each list is the reference's first cap entries, each total its count, the verdicts its verdicts."""
    assert (got.is_rack, got.is_quandle) == (ref.is_rack, ref.is_quandle)
    for kind in KINDS:
        listed = np.asarray(getattr(ref, f"{kind}_violations"))
        assert getattr(got, f"{kind}_violations").tolist() == listed[:cap].tolist(), kind
        assert getattr(got, f"{kind}_violation_count") == len(listed), kind
    assert_witness_arrays(got, n)


def check_the_json(got, ref, cap):
    """A count key follows a list exactly when the list is cut; the text is json.dumps's."""
    obj = got.to_json()
    keys = ["is_rack", "is_quandle"]
    for kind in KINDS:
        keys.append(f"{kind}_violations")
        if getattr(ref, f"{kind}_violation_count") > cap:
            keys.append(f"{kind}_violation_count")
            assert obj[f"{kind}_violation_count"] == getattr(ref, f"{kind}_violation_count")
            assert type(obj[f"{kind}_violation_count"]) is int
    assert list(obj) == keys
    assert json_text(obj) == json.dumps(obj, indent=2, default=np.ndarray.tolist)


def check_every_cap(op, chunk_elements):
    m = racks.magma_from_table(op)
    ref = ref_verify_rack(m)
    with uncut(ref):
        lines = racks.verify_rack(m).lines()
    for cap in caps_around(ref):
        got = verify(m, cap, chunk_elements)
        check_the_cut(got, ref, cap, m.size)
        check_the_json(got, ref, cap)
        assert got.lines() == lines
        assert str(got) == "; ".join(" ".join(line.split()) for line in lines)


@pytest.mark.parametrize("chunk_elements", CHUNK_SIZES)
@settings(max_examples=40, deadline=None)
@given(op=random_tables() | swapped_gauge_tables())
def test_capped_reports_match_the_full_scan(op, chunk_elements):
    check_every_cap(op, chunk_elements)


@pytest.mark.parametrize("chunk_elements", CHUNK_SIZES)
@pytest.mark.parametrize("n", [255, 256, 257])
def test_capped_reports_at_the_narrow_dtype_boundary(n, chunk_elements):
    check_every_cap(boundary_table(n), chunk_elements)


def test_a_cut_report_differs_from_an_uncut_one_only_in_its_lists():
    # x <| y = x + 1 mod 5: a rack whose 5 idempotency witnesses all differ from x.
    m = racks.magma_from_table((np.arange(5)[:, None] + np.ones(5, dtype=int)) % 5)
    whole, cut = verify(m, 5), verify(m, 2)
    assert whole.idem_violation_count == cut.idem_violation_count == 5
    assert cut.idem_violations.tolist() == [0, 1] and whole.idem_violations.tolist() == [0, 1, 2, 3, 4]
    assert whole != cut and whole.lines() == cut.lines()
    assert cut != dataclasses.replace(cut, idem_violation_count=6)  # the totals are compared too
    assert "idem_violation_count" in cut.to_json() and "idem_violation_count" not in whole.to_json()


def test_a_cut_list_is_a_copy_of_its_first_entries():
    # The constant table x <| y = 0 on 64 points: 63 idempotency witnesses and
    # 64 non-bijective columns, cut at 3, hold no view of the whole lists.
    report = verify(racks.magma_from_table(np.zeros((64, 64), dtype=int)), 3)
    for witnesses in (report.bijectivity_violations, report.idem_violations):
        assert witnesses.base is None and not witnesses.flags.writeable and len(witnesses) == 3
    assert (report.bijectivity_violation_count, report.idem_violation_count) == (64, 63)


def test_random_160_verifies_within_the_capped_witnesses():
    # 160 distinct columns, so every (y, z) pair is compared at every x:
    # 4,070,444 witnesses, 98 MB as one intp array if all were kept.
    op = np.random.default_rng(0).integers(0, 160, (160, 160))
    m = racks.magma_from_table(op)
    n = m.size
    chunk = 1 << 14
    # Two narrow copies of the table for the column classes, one chunk of
    # comparisons at about 32 bytes an entry, and the kept witnesses.
    bound = 2 * n * n + 32 * chunk + 24 * racks.WITNESS_CAP + (1 << 20)
    with mock.patch.object(racks, "_CHUNK_ELEMENTS", chunk):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            report = racks.verify_rack(m)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    # (x <| y) <| z against (x <| z) <| (y <| z), one x at a time: [y, z]
    recount = sum(int(np.count_nonzero(op[op[x]] != op[op[x][None, :], op])) for x in range(n))
    assert report.sd_violation_count == recount == 4_070_444
    assert report.sd_violations.shape == (racks.WITNESS_CAP, 3)
    assert peak <= bound, f"verify_rack peaked at {peak} bytes, above {bound}"
