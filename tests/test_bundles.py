import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from gaugequandles import bundles, groups
from gaugequandles.errors import AlgebraError, CapExceeded, ShapeError
from conftest import every_map
from test_loop_references import ref_act, ref_equivariance_witnesses, ref_eval


def test_bundle_over_a_point_is_the_group():
    G = groups.catalog("S3")
    b = bundles.DiscreteBundle(G, 1)
    assert b.total_size == 6
    assert all(b.base(p) == 0 for p in range(b.total_size))
    assert np.array_equal(b.action_table(), G.table)


def test_trivial_group_bundle():
    b = bundles.DiscreteBundle(groups.catalog("Z1"), 4)
    assert b.total_size == 4
    assert b.action_table()[:, 0].tolist() == list(range(b.total_size))


def test_fiber_counting():
    b = bundles.DiscreteBundle(groups.catalog("Z2"), 3)
    assert b.total_size == 6
    for m in range(3):
        fiber = [p for p in range(b.total_size) if b.base(p) == m]
        assert len(fiber) == 2
    assert [(b.base(p), b.coord(p)) for p in range(b.total_size)] == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]


def test_chart_equivariance():
    G = groups.catalog("D3")
    b = bundles.DiscreteBundle(G, 2)
    act = b.action_table()
    for p in range(b.total_size):
        for g in range(G.order):
            assert b.coord(act[p, g]) == G.table[b.coord(p), g]
            assert b.base(act[p, g]) == b.base(p)


def test_eval_map_on_section_and_conjugates():
    G = groups.catalog("S3")
    b = bundles.DiscreteBundle(G, 2)
    vals = bundles.EquivariantMap(b, (1, 4)).total_values()
    assert [vals[b.point(m, 0)] for m in range(2)] == [1, 4]  # on the canonical section s(m) = (m, e)
    # Over a point: f(g) = g^-1 f(e) g
    b1 = bundles.DiscreteBundle(G, 1)
    assert np.array_equal(bundles.EquivariantMap(b1, (3,)).total_values(), G.conj[3])


def test_constant_identity_map():
    G = groups.catalog("Q8")
    b = bundles.DiscreteBundle(G, 2)
    assert np.array_equal(bundles.identity_map(b).total_values(), np.zeros(b.total_size))


def test_total_values_match_eval():
    G = groups.catalog("D4")
    b = bundles.DiscreteBundle(G, 3)
    f = bundles.EquivariantMap(b, (2, 5, 7))
    vals = f.total_values()
    assert [ref_eval(f, p) for p in range(b.total_size)] == vals.tolist()


def test_check_equivariance_holds_for_all_enumerated_maps():
    # The augmented-rack condition f(p * g) == g^-1 f(p) g for (P, G, f),
    # exhaustively per map, by the arrays and by the one-point references.
    for name, base_size in (("S3", 1), ("D3", 2), ("Z4", 3)):
        G = groups.catalog(name)
        b = bundles.DiscreteBundle(G, base_size)
        for f in every_map(b):
            assert ref_equivariance_witnesses(b, f.total_values()) == []
            for p in range(b.total_size):
                assert all(ref_eval(f, ref_act(b, p, g)) == G.conj[ref_eval(f, p), g] for g in range(G.order))


def test_corrupted_total_map_fails_equivariance():
    G = groups.catalog("S3")
    b = bundles.DiscreteBundle(G, 1)
    f = bundles.EquivariantMap(b, (1,))
    vals = f.total_values().copy()
    vals[2] = G.table[vals[2], 3]  # break one value
    witnesses = ref_equivariance_witnesses(b, vals)
    assert witnesses
    p, g = witnesses[0]
    assert vals[b.action_table()[p, g]] != G.conj[vals[p], g]


def test_to_gauge_identity():
    G = groups.catalog("Z6")
    b = bundles.DiscreteBundle(G, 2)
    phi = bundles.to_gauge(bundles.identity_map(b))
    assert np.array_equal(phi.values, np.arange(b.total_size))


def test_to_gauge_z4_shift():
    G = groups.catalog("Z4")
    b = bundles.DiscreteBundle(G, 1)
    phi = bundles.to_gauge(bundles.EquivariantMap(b, (1,)))
    assert phi.values.tolist() == [(g + 1) % 4 for g in range(4)]


def test_gauge_inverse_law():
    G = groups.catalog("S3")
    b = bundles.DiscreteBundle(G, 2)
    f = bundles.EquivariantMap(b, (1, 3))
    phi = bundles.to_gauge(f).values
    phi_inv = bundles.to_gauge(bundles.invert_map(f)).values
    vals = f.total_values()
    act = b.action_table()
    for p in range(b.total_size):
        assert phi_inv[p] == act[p, G.inverses[vals[p]]]
    assert np.array_equal(phi[phi_inv], np.arange(b.total_size))
    assert np.array_equal(phi_inv[phi], np.arange(b.total_size))


def test_gauge_transformations_preserve_fibers_and_act_by_left_multiplication():
    G = groups.catalog("D4")
    b = bundles.DiscreteBundle(G, 2)
    for f in every_map(b)[:10]:
        phi = bundles.to_gauge(f)
        for m in range(b.base_size):
            c = f.section_values[m]
            for g in range(G.order):
                assert phi.values[b.point(m, g)] == b.point(m, G.table[c, g])


def test_compose_invert_group_laws():
    G = groups.catalog("Z4")
    b = bundles.DiscreteBundle(G, 1)
    f = bundles.EquivariantMap(b, (1,))
    g = bundles.EquivariantMap(b, (2,))
    assert bundles.compose_maps(f, g).section_values == (3,)
    assert bundles.compose_maps(f, bundles.invert_map(f)) == bundles.identity_map(b)
    other = bundles.DiscreteBundle(G, 2)
    with pytest.raises(ShapeError, match="maps live on different bundles"):
        bundles.compose_maps(f, bundles.identity_map(other))


def test_to_gauge_composition_orientation():
    # phi_{f1 f2} = phi_{f1} after phi_{f2}: a homomorphism, not an anti-one.
    G = groups.catalog("S3")
    b = bundles.DiscreteBundle(G, 1)
    all_maps = every_map(b)
    for f1, f2 in itertools.product(all_maps, repeat=2):
        lhs = bundles.to_gauge(bundles.compose_maps(f1, f2))
        rhs = bundles.to_gauge(f1).values[bundles.to_gauge(f2).values]
        assert np.array_equal(lhs.values, rhs)


def test_to_gauge_injective():
    G = groups.catalog("Z2")
    b = bundles.DiscreteBundle(G, 3)
    images = set()
    for f in every_map(b):
        images.add(tuple(bundles.to_gauge(f).values.tolist()))
    assert len(images) == 2**3


def test_enumerate_counts():
    assert len(bundles.enumerate_maps(bundles.DiscreteBundle(groups.catalog("Z1"), 5))) == 1
    G = groups.catalog("S3")
    assert len(bundles.enumerate_maps(bundles.DiscreteBundle(G, 1))) == 6
    Z2 = groups.catalog("Z2")
    maps = every_map(bundles.DiscreteBundle(Z2, 2))
    assert len(maps) == 4
    assert len(set(maps)) == 4


def test_enumerate_cap():
    G = groups.catalog("Z12")
    b = bundles.DiscreteBundle(G, 6)  # 12^6 = 2,985,984 maps
    with pytest.raises(CapExceeded, match=f"2985984 maps exceed the cap {bundles.ENUMERATION_CAP}"):
        bundles.enumerate_maps(b)


@pytest.mark.parametrize("name, base", [("S3", 2), ("Z2", 19), ("Z1", 4096)])
def test_enumerate_maps_rows_come_in_product_order(name, base):
    # Z2 x 19 (524,288 maps) is the widest enumeration under the cap; Z1 x 4096
    # is one row wider than numpy's 64 dimensions.
    G = groups.catalog(name)
    rows = bundles.enumerate_maps(bundles.DiscreteBundle(G, base))
    expected = np.fromiter(
        itertools.chain.from_iterable(itertools.product(range(G.order), repeat=base)), dtype=np.int64
    )
    assert rows.shape == (G.order**base, base)
    assert rows.dtype.kind == "i" and rows.flags.c_contiguous and not rows.flags.writeable
    assert np.array_equal(rows.ravel(), expected)


def test_map_validation():
    G = groups.catalog("Z3")
    b = bundles.DiscreteBundle(G, 2)
    with pytest.raises(ShapeError):
        bundles.EquivariantMap(b, (1,))
    with pytest.raises(ShapeError):
        bundles.EquivariantMap(b, (1, 9))
    with pytest.raises(ShapeError):
        bundles.EquivariantMap(b, (1, 2.7))
    with pytest.raises(ShapeError):
        bundles.EquivariantMap(b, (-1, 0))
    f = bundles.EquivariantMap(b, np.array([1, 2], dtype=np.int32))
    assert f.section_values == (1, 2) and all(type(v) is int for v in f.section_values)


@pytest.mark.parametrize("obj", [{"group": "S3"}, {"base_size": 2}, ["S3", 2]])
def test_bundle_json_needs_group_and_base_size(obj):
    with pytest.raises(ShapeError, match="bundle JSON must carry 'group' and 'base_size'"):
        bundles.bundle_from_json(obj)


def test_bundle_json_round_trip(tmp_path):
    G = groups.catalog("D3")
    b = bundles.DiscreteBundle(G, 2)
    obj = bundles.bundle_to_json(b)
    assert obj == {"group": "D3", "base_size": 2}
    assert bundles.bundle_from_json(obj) == b

    f = bundles.EquivariantMap(b, (0, 5))
    mobj = bundles.map_to_json(f)
    assert bundles.map_from_json(b, mobj) == f

    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(obj))
    assert bundles.load_bundle(path) == b


def test_inline_group_bundle_json():
    # A table group is named in the file only when it is that catalog group;
    # the golden S3-relabeled table carries its own name and, renamed "S3",
    # a catalog name that is not its table.
    relabeled = json.loads((Path(__file__).parent / "golden" / "inputs" / "s3_relabeled.json").read_text())
    for G in [
        groups.group_from_table([[0, 1], [1, 0]]),
        groups.group_from_json(relabeled),
        groups.group_from_json({**relabeled, "name": "S3"}),
    ]:
        b = bundles.DiscreteBundle(G, 2)
        obj = bundles.bundle_to_json(b)
        assert isinstance(obj["group"], dict)
        back = bundles.bundle_from_json(obj)
        assert back == b and back.group.name == G.name


@pytest.mark.parametrize("name", groups.catalog_names())
@pytest.mark.parametrize("base_size", [1, 2, 3])
def test_encoding_facts_hold_for_every_catalog_bundle(name, base_size):
    # The facts the (m, g) encoding guarantees by construction: the chart is
    # a bijection on each fiber, the action is free and transitive on each
    # fiber, it preserves fibers, and the chart is equivariant.
    G = groups.catalog(name)
    b = bundles.DiscreteBundle(G, base_size)
    act = b.action_table()
    for m in range(base_size):
        fiber = [b.point(m, g) for g in range(G.order)]
        assert sorted(b.coord(p) for p in fiber) == list(range(G.order))
        for p in fiber:
            assert sorted(act[p].tolist()) == fiber
    for p in range(b.total_size):
        for g in range(G.order):
            q = int(act[p, g])
            assert q == ref_act(b, p, g)
            assert b.base(q) == b.base(p)
            assert b.coord(q) == G.table[b.coord(p), g]


def test_gauge_transformation_rejects_bad_values():
    G = groups.catalog("Z3")
    b = bundles.DiscreteBundle(G, 2)
    with pytest.raises(AlgebraError, match="permute"):
        bundles.GaugeTransformation(b, [0, 1, 2, 3, 4, 4])
    with pytest.raises(AlgebraError, match="permute"):
        bundles.GaugeTransformation(b, [0, 1, 2, 3, 4])
    with pytest.raises(AlgebraError, match="projection not preserved at point 2"):
        bundles.GaugeTransformation(b, [0, 1, 3, 2, 4, 5])
    with pytest.raises(AlgebraError, match="equivariance"):
        bundles.GaugeTransformation(b, [1, 0, 2, 3, 4, 5])
    assert bundles.GaugeTransformation(b, [1, 2, 0, 3, 4, 5]).values[0] == 1


def test_gauge_transformation_copies_its_values():
    b = bundles.DiscreteBundle(groups.catalog("Z3"), 2)
    values = np.array([1, 2, 0, 3, 4, 5], dtype=np.int64)
    phi = bundles.GaugeTransformation(b, values)
    assert values.flags.writeable and not phi.values.flags.writeable
    values[0] = 2
    assert phi.values[0] == 1


@pytest.mark.parametrize("values", [np.array([1.0, 2.0, 0.0, 3.0, 4.0, 5.0]), np.array([1.7, 2, 0, 3, 4, 5])])
def test_gauge_transformation_rejects_non_integer_arrays(values):
    b = bundles.DiscreteBundle(groups.catalog("Z3"), 2)
    with pytest.raises(ShapeError, match="integers"):
        bundles.GaugeTransformation(b, values)


@pytest.mark.parametrize("bad", [2.7, True, "1", None, [1]])
def test_map_json_accepts_only_integers(bad):
    b = bundles.DiscreteBundle(groups.catalog("S3"), 2)
    with pytest.raises(ShapeError, match="integer"):
        bundles.map_from_json(b, {"section_values": [bad, 3]})
    assert bundles.map_from_json(b, {"section_values": [2.0, 3]}).section_values == (2, 3)
    with pytest.raises(ShapeError, match="list"):
        bundles.map_from_json(b, {"section_values": 23})


@pytest.mark.parametrize("bad", [2.9, False, "2", None, True, np.True_, 2.5])
def test_bundle_json_accepts_only_integer_base_size(bad):
    with pytest.raises(ShapeError, match="integer"):
        bundles.bundle_from_json({"group": "S3", "base_size": bad})
    # Built directly, the count must have an integer type, so 2.0 fails too.
    for value in (bad, 2.0):
        with pytest.raises(ShapeError, match="base_size must be an integer"):
            bundles.DiscreteBundle(groups.catalog("S3"), value)


def test_bundle_base_size_takes_numpy_integers():
    G = groups.catalog("S3")
    b = bundles.DiscreteBundle(G, np.int64(2))
    assert type(b.base_size) is int and b == bundles.DiscreteBundle(G, 2)
    assert bundles.bundle_from_json({"group": "S3", "base_size": 2.0}) == b
    with pytest.raises(ShapeError, match="at least one point"):
        bundles.DiscreteBundle(G, np.int64(0))


def test_equal_groups_bundles_subgroups_and_maps_hash_equal_and_work_as_dict_keys():
    # Each pair is equal but two objects: the second group is read again from a list, as a group file is.
    G, H = groups.catalog("S3"), groups.group_from_table(groups.catalog("S3").table.tolist())
    b, c = bundles.DiscreteBundle(G, 2), bundles.DiscreteBundle(H, 2)
    pairs = [
        (G, H),
        (b, c),
        (groups.generated_subgroup(G, [3]), groups.subgroup(H, groups.generated_subgroup(G, [3]).elements)),
        (bundles.EquivariantMap(b, (1, 2)), bundles.EquivariantMap(c, [1, 2])),
    ]
    for x, y in pairs:
        assert x is not y and x == y and hash(x) == hash(y)
        assert {x: "first"}[y] == "first"
    keys = {x: i for i, (x, _) in enumerate(pairs)}
    assert [keys[y] for _, y in pairs] == [0, 1, 2, 3]
    # The same section values on another bundle are another map, so another key.
    other = bundles.EquivariantMap(bundles.DiscreteBundle(groups.catalog("Z6"), 2), (1, 2))
    assert other != pairs[3][0] and len({pairs[3][0]: 0, other: 1}) == 2
