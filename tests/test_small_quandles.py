"""Every rack and quandle of small order, checked against the published counts.

The tables here come neither from the library nor from a random draw. A
column-by-column enumerator lists every labelled rack and quandle of small
order: each column x -> x <| y is a permutation, fixing y for a quandle,
and a partial table is pruned by self-distributivity on the columns
assigned so far. A canonical form, the least table over all n!
relabelings, sorts tables into isomorphism classes without the library's
search. Up to isomorphism there are 1, 1, 3, 7, 22 and 73 quandles of
order 1-6 (Ho and Nelson, Matrices and finite quandles, Homology Homotopy
Appl. 2005, through order 5; Henderson, Macedo and Nelson, Symbolic
computation with finite quandles, J. Symbolic Comput. 2006, order 6) and 1,
2, 6, 19 and 74 racks of order 1-5 (OEIS). verify_rack, find_isomorphism,
associated_quandle and isomorphism_census are checked against these tables.
Quandles of order 6 and racks of order 5 take 10-20 s each this way, so
their cases carry the exhaustive marker, which the default run deselects:
    python -m pytest -q -m exhaustive tests/test_small_quandles.py
"""

import functools
import itertools

import numpy as np
import pytest

from gaugequandles import bundles, gauge, groups, racks

QUANDLE_COUNTS = {1: (1, 1), 2: (1, 1), 3: (5, 3), 4: (36, 7), 5: (404, 22), 6: (6_658, 73)}  # (labelled, classes)
RACK_COUNTS = {1: (1, 1), 2: (2, 2), 3: (13, 6), 4: (114, 19), 5: (1_708, 74)}
EXHAUSTIVE = {(6, True), (5, False)}  # (order, quandle) cases that run only under the exhaustive marker


def _marks(order, quandle):
    return [pytest.mark.exhaustive] if (order, quandle) in EXHAUSTIVE else []


KINDS = [pytest.param(n, True, marks=_marks(n, True)) for n in QUANDLE_COUNTS] + [
    pytest.param(n, False, marks=_marks(n, False)) for n in RACK_COUNTS
]  # (order, quandle)
RACK_ORDERS = [pytest.param(n, marks=_marks(n, False)) for n in RACK_COUNTS]


def _distributes(cols, y, z):
    """(x <| y) <| z == (x <| z) <| (y <| z) for every x, read on the columns y, z and y <| z."""
    w = cols[z][y]
    return all(cols[z][cols[y][x]] == cols[w][cols[z][x]] for x in range(len(cols[0])))


@functools.lru_cache(maxsize=None)
def enumerate_tables(n, quandle):
    """Every labelled rack, or quandle, on 0..n-1 as an n x n table op[x, y] = x <| y, in column order.

    Column j is tried as every permutation (fixing j for a quandle). Each
    pair (y, z) is checked once, when the last of the columns y, z and
    y <| z is assigned.
    """
    perms = list(itertools.permutations(range(n)))
    found, cols = [], []

    def extend():
        j = len(cols)
        if j == n:
            found.append(np.array(cols).T)
            return
        for col in perms:
            if quandle and col[j] != j:
                continue
            cols.append(col)
            pairs = ((y, z) for y in range(j + 1) for z in range(j + 1) if max(y, z, cols[z][y]) == j)
            if all(_distributes(cols, y, z) for y, z in pairs):
                extend()
            cols.pop()

    extend()
    return found


@functools.lru_cache(maxsize=None)
def _relabelings(n):
    sigmas = np.array(list(itertools.permutations(range(n))), dtype=np.int64).reshape(-1, n)
    return sigmas, np.argsort(sigmas, axis=1)


def canonical(op):
    """The least flattened table over all relabelings sigma, sigma(x <| y) = sigma(x) <|' sigma(y), as a tuple."""
    sigmas, inverses = _relabelings(len(op))
    gathered = np.asarray(op)[inverses[:, :, None], inverses[:, None, :]].reshape(len(sigmas), -1)
    tables = np.take_along_axis(sigmas, gathered, axis=1)  # row s: sigma_s(op[sigma_s^-1 a, sigma_s^-1 b])
    return tuple(tables[np.lexsort(tables.T[::-1])[0]].tolist())


def is_isomorphism(f, a, b):
    """f is a bijection with f(x <| y) = f(x) <| f(y), checked entry by entry."""
    f = np.asarray(f)
    return sorted(f.tolist()) == list(range(a.size)) and np.array_equal(f[a.op], b.op[np.ix_(f, f)])


def classes_by_search(tables):
    """The index of each table's class: the first earlier representative find_isomorphism matches, or a new one."""
    reps, labels = [], []
    for m in tables:
        for k, rep in enumerate(reps):
            f = racks.find_isomorphism(rep, m)
            if f is not None:
                assert is_isomorphism(f, rep, m)
                labels.append(k)
                break
        else:
            labels.append(len(reps))
            reps.append(m)
    return labels


def _agree(labels, forms):
    """Two partitions of the same items, given as labels, are the same partition."""
    return len(set(labels)) == len(set(forms)) == len(set(zip(labels, forms)))


@pytest.mark.parametrize("order, quandle", KINDS)
def test_enumerated_tables_match_the_published_counts(order, quandle):
    labelled, classes = (QUANDLE_COUNTS if quandle else RACK_COUNTS)[order]
    tables = enumerate_tables(order, quandle)
    assert len(tables) == labelled
    assert len({t.tobytes() for t in tables}) == labelled
    forms = [canonical(t) for t in tables]
    assert len(set(forms)) == classes
    labels = classes_by_search([racks.magma_from_table(t) for t in tables])
    assert len(set(labels)) == classes
    assert _agree(labels, forms)


@pytest.mark.parametrize("order", RACK_ORDERS)
def test_every_enumerated_table_passes_verify_rack(order):
    quandles = {t.tobytes() for t in enumerate_tables(order, True)}
    for t in enumerate_tables(order, False):
        report = racks.verify_rack(racks.magma_from_table(t))
        assert report.is_rack
        assert report.is_quandle == (t.tobytes() in quandles)
    for t in enumerate_tables(order, True):
        assert racks.verify_rack(racks.magma_from_table(t)).is_quandle


def test_verify_rack_on_every_magma_of_order_3():
    """All 3^9 = 19,683 tables: exactly the enumerated 13 racks and 5 quandles pass."""
    rack_tables = {t.tobytes() for t in enumerate_tables(3, False)}
    quandle_tables = {t.tobytes() for t in enumerate_tables(3, True)}
    found_racks, found_quandles = set(), set()
    for entries in itertools.product(range(3), repeat=9):
        op = np.array(entries, dtype=np.int64).reshape(3, 3)
        report = racks.verify_rack(racks.magma_from_table(op))
        if report.is_rack:
            found_racks.add(op.tobytes())
        if report.is_quandle:
            found_quandles.add(op.tobytes())
    assert (len(found_racks), len(found_quandles)) == (13, 5)
    assert found_racks == rack_tables and found_quandles == quandle_tables


@pytest.mark.parametrize("order", RACK_ORDERS)
def test_associated_quandle_of_every_rack_is_an_enumerated_quandle(order):
    quandles = {t.tobytes() for t in enumerate_tables(order, True)}
    for t in enumerate_tables(order, False):
        q = racks.associated_quandle(racks.magma_from_table(t))
        assert racks.verify_rack(q).is_quandle
        assert q.op.tobytes() in quandles
        if t.tobytes() in quandles:
            assert np.array_equal(q.op, t)


@pytest.mark.parametrize("order, quandle", KINDS)
def test_find_isomorphism_finds_every_relabeled_copy(order, quandle):
    rng = np.random.default_rng(order)
    for t in enumerate_tables(order, quandle):
        sigma = rng.permutation(len(t))
        copy = np.empty_like(t)
        copy[np.ix_(sigma, sigma)] = sigma[t]  # sigma(x) <|' sigma(y) = sigma(x <| y)
        a, b = racks.magma_from_table(t), racks.magma_from_table(copy)
        assert canonical(copy) == canonical(t)
        f = racks.find_isomorphism(a, b)
        assert f is not None and is_isomorphism(f, a, b)


SMALL_BUNDLES = [
    (name, base)
    for name in groups.catalog_names()
    for base in range(1, 6 // groups.catalog(name).order + 1)
]


def test_small_bundles_cover_every_catalog_group_of_order_at_most_6():
    assert SMALL_BUNDLES == [
        ("Z1", 1), ("Z1", 2), ("Z1", 3), ("Z1", 4), ("Z1", 5), ("Z1", 6), ("Z2", 1), ("Z2", 2), ("Z2", 3),
        ("Z3", 1), ("Z3", 2), ("Z4", 1), ("Z5", 1), ("Z6", 1), ("D2", 1), ("D3", 1), ("S3", 1),
    ]


@pytest.mark.parametrize("name, base", SMALL_BUNDLES)
def test_census_classes_are_the_canonical_classes(name, base):
    b = bundles.DiscreteBundle(groups.catalog(name), base)
    classes = gauge.isomorphism_census(b)
    forms = [{canonical(gauge.build(bundles.EquivariantMap(b, member)).table.op) for member in c} for c in classes]
    assert all(len(f) == 1 for f in forms)
    assert len(set.union(*forms)) == len(classes)
    assert sum(map(len, classes)) == len(bundles.enumerate_maps(b))
