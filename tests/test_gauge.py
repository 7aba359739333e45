import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugequandles import bundles, gauge, groups, racks
from gaugequandles.errors import AlgebraError, CentralizerViolation, NormalizerViolation, ShapeError
from conftest import every_map
from test_loop_references import relabel, relabeled_groups

S3_PERMS = groups.symmetric_group_elements(3)
TRANSPOSITION = S3_PERMS.index((1, 0, 2))
THREE_CYCLE = S3_PERMS.index((1, 2, 0))


def over_a_point(name):
    G = groups.catalog(name)
    return G, bundles.DiscreteBundle(G, 1)


def test_rack_from_identity_map_is_trivial():
    G, b = over_a_point("S3")
    m = gauge.rack_from_map(bundles.identity_map(b))
    assert m == racks.trivial_quandle(6)


def test_rack_from_map_z2_hand_table():
    # Over a point with Z2 and f(e) = 1: p <| q = p + 1, the constant shift.
    G, b = over_a_point("Z2")
    m = gauge.rack_from_map(bundles.EquivariantMap(b, (1,)))
    assert m.op.tolist() == [[1, 1], [0, 0]]
    report = racks.verify_rack(m)
    assert report.is_rack and not report.is_quandle


def test_rack_always_verifies_quandle_sometimes():
    G = groups.catalog("D3")
    b = bundles.DiscreteBundle(G, 2)
    for f in every_map(b):
        assert racks.verify_rack(gauge.rack_from_map(f)).is_rack


@settings(max_examples=100, deadline=None)
@given(relabeled_groups(["S3", "D4", "Q8", "S4", "Z4"]), st.integers(1, 3), st.data())
def test_associated_quandle_of_rack_equals_build(G, base, data):
    # The paper's construction: the gauge quandle is the quandle associated
    # with the augmented rack (P, G, f), whose iota is phi_f^-1.
    values = data.draw(st.lists(st.integers(0, G.order - 1), min_size=base, max_size=base))
    f = bundles.EquivariantMap(bundles.DiscreteBundle(G, base), values)
    assert racks.associated_quandle(gauge.rack_from_map(f)) == gauge.build(f).table


def test_build_and_rack_read_the_bundle_off_the_map():
    # Z6 and S3 have the same order, so a table of the wrong group has the right size.
    tables = {}
    for name in ("Z6", "S3"):
        G, b = over_a_point(name)
        f = bundles.EquivariantMap(b, (THREE_CYCLE,))
        q = gauge.build(f)
        assert q.map.bundle is b
        assert q.table == racks.generalized_alexander(G, G.inner_automorphism(THREE_CYCLE))
        rack = gauge.rack_from_map(f).op.tolist()
        # p1 <| p2 = p1 * f(p2), with f(p2) = p2^-1 * f(e) * p2 over a point
        assert rack == [[G.table[x, G.conj[THREE_CYCLE, y]] for y in range(G.order)] for x in range(G.order)]
        tables[name] = (q.table, rack)
    assert tables["Z6"][0] != tables["S3"][0] and tables["Z6"][1] != tables["S3"][1]


def test_build_trivial_cases():
    Gt, bt = over_a_point("Z1")
    q = gauge.build(bundles.identity_map(bt))
    assert q.table == racks.trivial_quandle(1)

    G = groups.catalog("S4")
    b = bundles.DiscreteBundle(G, 2)
    assert gauge.build(bundles.identity_map(b)).table == racks.trivial_quandle(48)

    # Trivial structure group over any base
    b3 = bundles.DiscreteBundle(groups.catalog("Z1"), 3)
    assert gauge.build(bundles.identity_map(b3)).table == racks.trivial_quandle(3)


def test_build_preserves_base():
    G = groups.catalog("D3")
    b = bundles.DiscreteBundle(G, 3)
    q = gauge.build(bundles.EquivariantMap(b, (1, 4, 2)))
    for p1 in range(b.total_size):
        for p2 in range(b.total_size):
            assert b.base(q.table.op[p1, p2]) == b.base(p1)


def test_build_validates_one_gauge_transformation(monkeypatch):
    # phi_f^-1 is read as phi_{f^-1}, so no second permutation is built and checked.
    made = []
    init = bundles.GaugeTransformation.__init__

    def counting_init(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(bundles.GaugeTransformation, "__init__", counting_init)
    b = bundles.DiscreteBundle(groups.catalog("S3"), 2)
    gauge.build(bundles.EquivariantMap(b, (TRANSPOSITION, THREE_CYCLE)))
    assert len(made) == 1


def test_build_over_point_equals_generalized_alexander():
    for name in ("Z4", "S3", "Q8"):
        G, b = over_a_point(name)
        for f in every_map(b):
            c = f.section_values[0]
            expected = racks.generalized_alexander(G, G.inner_automorphism(c))
            assert gauge.build(f).table == expected


def test_fiber_quandle_whole_space_over_point():
    G, b = over_a_point("S3")
    f = bundles.EquivariantMap(b, (2,))
    q = gauge.build(f)
    assert gauge.transport_fiber(q, 0) == q.table


def test_fiber_quandles_of_trivial_structure_group():
    b = bundles.DiscreteBundle(groups.catalog("Z1"), 3)
    q = gauge.build(bundles.identity_map(b))
    for m in range(3):
        assert gauge.transport_fiber(q, m) == racks.trivial_quandle(1)


def test_fiber_quandles_with_distinct_section_values():
    G = groups.catalog("S3")
    b = bundles.DiscreteBundle(G, 2)
    f = bundles.EquivariantMap(b, (TRANSPOSITION, THREE_CYCLE))
    q = gauge.build(f)
    for m in range(2):
        fib = gauge.transport_fiber(q, m)
        expected = racks.generalized_alexander(
            G, G.inner_automorphism(f.section_values[m])
        )
        assert racks.find_isomorphism(fib, expected) is not None


def test_transport_fiber_matches_generalized_alexander():
    G = groups.catalog("S3")
    b = bundles.DiscreteBundle(G, 3)
    f = bundles.EquivariantMap(b, (0, TRANSPOSITION, THREE_CYCLE))
    q = gauge.build(f)
    for m in range(3):
        transported = gauge.transport_fiber(q, m)
        expected = racks.generalized_alexander(
            G, G.inner_automorphism(f.section_values[m])
        )
        assert transported == expected


def test_transport_fiber_identity_map_trivial():
    G, b = over_a_point("D4")
    q = gauge.build(bundles.identity_map(b))
    transported = gauge.transport_fiber(q, 0)
    assert transported == racks.trivial_quandle(8)


def test_reduce_by_trivial_subgroup_is_identity():
    G = groups.catalog("S3")
    b = bundles.DiscreteBundle(G, 2)
    f = bundles.EquivariantMap(b, (1, 3))
    q = gauge.build(f)
    red = gauge.reduce(q, groups.subgroup(G, [0]))
    assert red.table == q.table
    assert all(len(c) == 1 for c in red.classes)


def test_reduce_by_whole_group_collapses_fibers():
    G = groups.catalog("S3")
    b = bundles.DiscreteBundle(G, 3)
    f = bundles.EquivariantMap(b, (1, 3, 5))
    q = gauge.build(f)
    red = gauge.reduce(q, groups.subgroup(G, list(range(G.order))))
    assert red.table == racks.trivial_quandle(3)


def test_reduce_s3_over_point_by_rotations():
    G, b = over_a_point("S3")
    H = groups.generated_subgroup(G, [THREE_CYCLE])
    f = bundles.EquivariantMap(b, (TRANSPOSITION,))
    red = gauge.reduce(gauge.build(f), H)
    assert red.table.size == 2
    assert racks.verify_rack(red.table).is_quandle


def test_reduce_class_map_is_a_quandle_morphism():
    G = groups.catalog("S3")
    b = bundles.DiscreteBundle(G, 2)
    H = groups.generated_subgroup(G, [THREE_CYCLE])
    f = bundles.EquivariantMap(b, (THREE_CYCLE, 0))
    q = gauge.build(f)
    red = gauge.reduce(q, H)
    assert racks.is_morphism(red.class_of, q.table, red.table)


def test_reduce_normalizer_violation_witness():
    G, b = over_a_point("S3")
    H = groups.generated_subgroup(G, [TRANSPOSITION])  # normalizer is H itself
    f = bundles.EquivariantMap(b, (THREE_CYCLE,))
    q = gauge.build(f)
    with pytest.raises(NormalizerViolation) as err:
        gauge.reduce(q, H)
    p, h = err.value.witness
    v = f.total_values()[p]
    assert h in H.elements
    assert G.conj[h, v] not in H.elements


def test_reduce_refuses_a_subgroup_of_another_group():
    G, b = over_a_point("S3")
    q = gauge.build(bundles.identity_map(b))
    H = groups.generated_subgroup(groups.catalog("Z6"), [3])
    with pytest.raises(ShapeError, match="subgroup belongs to a different group"):
        gauge.reduce(q, H)


def test_quotient_needs_class_indices_without_gaps():
    with pytest.raises(ShapeError, match=r"class index 0\.\.k-1"):
        gauge.quotient(racks.trivial_quandle(3).op, [0, 2, 2])


def test_homogeneous_with_trivial_subgroup_is_generalized_alexander():
    G = groups.catalog("S3")
    H = groups.subgroup(G, [0])
    c = THREE_CYCLE
    table = gauge.homogeneous_quandle(H, c)
    assert racks.magma_from_table(table.op) == racks.generalized_alexander(
        G, G.inner_automorphism(c)
    )


def test_homogeneous_with_identity_element_is_trivial():
    G = groups.catalog("S3")
    H = groups.generated_subgroup(G, [THREE_CYCLE])
    assert gauge.homogeneous_quandle(H, 0) == racks.trivial_quandle(2)


def test_homogeneous_centralizer_violation_witness():
    G = groups.catalog("S3")
    H = groups.generated_subgroup(G, [THREE_CYCLE])
    with pytest.raises(CentralizerViolation) as err:
        gauge.homogeneous_quandle(H, TRANSPOSITION)
    h = err.value.witness
    assert G.table[TRANSPOSITION, h] != G.table[h, TRANSPOSITION]


def test_homogeneous_matches_reduce_for_normal_subgroup():
    # Over a point with H normal and c centralizing H, the quotient table and
    # the coset table coincide under the canonical class identification.
    G, b = over_a_point("S3")
    H = groups.generated_subgroup(G, [THREE_CYCLE])
    for c in H.elements:  # the centralizer of H in S3 is H itself
        q = gauge.build(bundles.EquivariantMap(b, (c,)))
        red = gauge.reduce(q, H)
        hom = gauge.homogeneous_quandle(H, c)
        right = groups.cosets(H, "right")
        ident = [right.index(cls) for cls in red.classes]
        assert sorted(ident) == list(range(len(right)))
        assert racks.is_morphism(ident, red.table, hom)


def test_census_s3_over_point():
    G, b = over_a_point("S3")
    classes = gauge.isomorphism_census(b)
    assert sorted(map(len, classes)) == [1, 2, 3]
    # Members are section-value tuples, each class in enumeration order.
    assert sorted(m for c in classes for m in c) == [(g,) for g in range(6)]
    assert all(list(c) == sorted(c) for c in classes) and classes[0][0] == (0,)


def test_census_abelian_over_point_single_class():
    G, b = over_a_point("Z6")
    classes = gauge.isomorphism_census(b)
    assert len(classes) == 1 and len(classes[0]) == 6


def test_census_trivial_group():
    b = bundles.DiscreteBundle(groups.catalog("Z1"), 4)
    classes = gauge.isomorphism_census(b)
    assert len(classes) == 1 and len(classes[0]) == 1


def relabeled_group(name, seed):
    t = groups.catalog(name).table
    return groups.group_from_table(relabel(t, np.random.default_rng(seed).permutation(len(t))))


def count_searches(monkeypatch):
    """Record, for each search the census makes, whether it found a witness."""
    found = []

    def counted(a, b):
        f = racks.find_isomorphism(a, b)
        found.append(f is not None)
        return f

    monkeypatch.setattr(gauge, "find_isomorphism", counted)
    return found


@pytest.mark.parametrize("name, base", [("S3", 3), ("S4", 1)])
def test_census_keys_are_the_classes_for_s3_and_s4(name, base, monkeypatch):
    # Every conjugacy class is its own Aut-orbit, so no two keys are isomorphic
    # and the invariants tell the key representatives apart: nothing is searched.
    searches = count_searches(monkeypatch)
    for seed in range(3):
        gauge.isomorphism_census(bundles.DiscreteBundle(relabeled_group(name, seed), base))
    assert searches == []


@pytest.mark.parametrize(
    "name, base, sizes",
    [
        ("D4", 2, [2, 8, 8, 14, 16, 16]),
        ("Q8", 2, [2, 14, 24, 24]),
        ("D4", 3, [2, 6, 12, 12, 24, 24, 24, 24, 48, 48, 48, 48, 96, 96]),
    ],
)
def test_census_merges_that_no_key_explains_come_from_the_search(name, base, sizes, monkeypatch):
    # Outer automorphisms of D4 and Q8 join keys that no central shift,
    # conjugation or base permutation relates, and some isomorphic keys lie
    # in different Aut(G) orbits; only the search can merge those.
    searches = count_searches(monkeypatch)
    classes = gauge.isomorphism_census(bundles.DiscreteBundle(groups.catalog(name), base))
    assert sorted(map(len, classes)) == sizes
    assert any(searches)


def member_rows(values, member):
    """The rows of a stacked (r, k) section-value array that hold member."""
    return np.flatnonzero((values == member).all(axis=1))


def test_census_raises_when_a_witness_fails(monkeypatch):
    # One entry of the member (2, 0)'s augmented form is changed, at x = 3 and
    # g = e, the value of f on the fiber over base point 1, so its table
    # changes at (3, y) for every y in that fiber. Its key's first map is
    # (0, 1), whose table build verifies; the witness between them is still
    # a permutation, but no longer a morphism.
    augmented = gauge._augmented
    changed = []

    def one_entry_changed(b, values):
        aug, f = augmented(b, values)
        aug = aug.copy()
        for i in member_rows(values, (2, 0)):
            aug[i, 3, 0] = (aug[i, 3, 0] + 1) % b.total_size
            changed.append(i)
        return aug, f

    monkeypatch.setattr(gauge, "_augmented", one_entry_changed)
    with pytest.raises(AlgebraError, match=r"^census witness from \(2, 0\) to \(0, 1\) is not an isomorphism$"):
        gauge.isomorphism_census(bundles.DiscreteBundle(groups.catalog("S3"), 2))
    assert changed


def test_census_raises_when_a_witness_is_not_a_permutation(monkeypatch):
    # A constant map is a morphism into any quandle, since x <| x = x, so only
    # the permutation check can reject it.
    b = bundles.DiscreteBundle(groups.catalog("S3"), 2)
    witnesses = gauge._census_witnesses

    def constant_for_member(b, cls, conjugator, zs, rep_zs):
        phi = witnesses(b, cls, conjugator, zs, rep_zs)
        phi[member_rows(zs, (2, 0))] = 5  # S3's centre is trivial: zs holds the section values
        return phi

    source = gauge.build(bundles.EquivariantMap(b, (2, 0))).table
    target = gauge.build(bundles.EquivariantMap(b, (0, 1))).table
    assert racks.is_morphism(np.full(b.total_size, 5), source, target)
    monkeypatch.setattr(gauge, "_census_witnesses", constant_for_member)
    with pytest.raises(AlgebraError, match=r"^census witness from \(2, 0\) to \(0, 1\) is not an isomorphism$"):
        gauge.isomorphism_census(b)


@pytest.mark.parametrize("name, base, made", [("S3", 3, 0), ("Q8", 2, 4)])
def test_census_makes_map_objects_only_for_each_key_head(name, base, made, monkeypatch):
    # Map objects only for roots a search compares: each such root's head, and
    # its inverse inside build; the other heads and the members stay rows of
    # one array. Every S3 root is alone in its bucket, and 2 of Q8x2's 5 roots
    # share one (20 and 10 objects when every root was built, 22 for Q8x2 when
    # every key head was, 86 when every map was one).
    maps = []
    post_init = bundles.EquivariantMap.__post_init__

    def counting_post_init(self):
        maps.append(self)
        post_init(self)

    monkeypatch.setattr(bundles.EquivariantMap, "__post_init__", counting_post_init)
    classes = gauge.isomorphism_census(bundles.DiscreteBundle(groups.catalog(name), base))
    assert len(maps) == made and sum(map(len, classes)) == groups.catalog(name).order ** base


@pytest.mark.parametrize("name, base, built", [("S3", 2, 0), ("S4", 1, 0), ("D4", 2, 3), ("Q8", 2, 2)])
def test_census_builds_only_roots_a_search_compares(name, base, built, monkeypatch):
    # D4x2 and Q8x2 put 3 of 8 and 2 of 5 roots in shared buckets; every other
    # root's axioms are decided in one stacked call of the decider, on the
    # column-class forms read off the augmented form (6, 5, 8 and 5 builds
    # when every root was built).
    builds = count_calls(monkeypatch, gauge, "build")
    decided = count_calls(monkeypatch, gauge, "_decide")
    gauge.isomorphism_census(bundles.DiscreteBundle(relabeled_group(name, 2), base))
    assert len(builds) == built and len(decided) == 1


def test_verify_rack_and_the_census_reach_one_decider(monkeypatch):
    # One function decides the axioms of every table: verify_rack calls it
    # once a table. The D4x2 census has 8 orbit roots: it calls it once for
    # the 5 that share no bucket, and verify_rack calls it for each of the 3
    # that it builds.
    assert gauge._decide is racks._decide
    in_racks = count_calls(monkeypatch, racks, "_decide")
    in_gauge = count_calls(monkeypatch, gauge, "_decide")
    racks.verify_rack(racks.conjugation_quandle(groups.catalog("S3")))
    assert len(in_racks) == 1 and in_gauge == []
    gauge.isomorphism_census(bundles.DiscreteBundle(relabeled_group("D4", 2), 2))
    assert len(in_racks) == 4 and len(in_gauge) == 1 and len(in_gauge[0][0]) == 5


def test_census_reports_a_decided_root_that_fails_with_its_table(monkeypatch):
    # Every S3x2 root is alone in its bucket, so none is built. One entry of
    # the root (0, 1)'s augmented form is changed, at x = 3 and g = e, which f
    # takes on the fiber over base point 0: its table changes at (3, y) for
    # every y in that fiber, and verify_rack's report on that gathered table
    # is the census's error.
    augmented = gauge._augmented
    tables = []

    def one_entry_changed(b, values):
        aug, f = augmented(b, values)
        aug = aug.copy()
        for i in member_rows(values, (0, 1)):
            aug[i, 3, 0] = (aug[i, 3, 0] + 1) % b.total_size
            tables.append(aug[i][:, f[i]])
        return aug, f

    monkeypatch.setattr(gauge, "_augmented", one_entry_changed)
    builds = count_calls(monkeypatch, gauge, "build")
    with pytest.raises(AlgebraError, match=r"^constructed table fails quandle axioms: ") as raised:
        gauge.isomorphism_census(bundles.DiscreteBundle(groups.catalog("S3"), 2))
    report = racks.verify_rack(racks.magma_from_table(tables[-1]))
    assert not report.is_quandle and str(raised.value) == f"constructed table fails quandle axioms: {report}"
    assert builds == []


def test_census_members_are_tuples_of_python_ints():
    # The --json writer raises TypeError on numpy integers.
    classes = gauge.isomorphism_census(bundles.DiscreteBundle(groups.catalog("D4"), 2))
    members = [m for c in classes for m in c]
    assert len(members) == 64
    assert all(type(m) is tuple and all(type(v) is int for v in m) for m in members)


def test_census_raises_when_an_orbit_witness_is_not_a_morphism(monkeypatch):
    # Q8 over a point: the key of (4,) joins the class of (2,) through an
    # automorphism. Two points of its witness are swapped, so it stays a
    # permutation but is no longer a morphism.
    witness = gauge._orbit_witness
    swapped = []

    def two_points_swapped(*args):
        phi = witness(*args).copy()
        phi[:, [1, 2]] = phi[:, [2, 1]]
        swapped.append(phi)
        return phi

    monkeypatch.setattr(gauge, "_orbit_witness", two_points_swapped)
    b = bundles.DiscreteBundle(groups.catalog("Q8"), 1)
    with pytest.raises(AlgebraError, match=r"^census witness from \(4,\) to \(2,\) is not an isomorphism$"):
        gauge.isomorphism_census(b)
    assert [sorted(phi[0].tolist()) for phi in swapped] == [list(range(8))]


def test_census_raises_when_an_orbit_witness_is_not_a_permutation(monkeypatch):
    # A constant map is a morphism into any quandle, since x <| x = x, so only
    # the permutation check can reject it.
    b = bundles.DiscreteBundle(groups.catalog("Q8"), 1)
    monkeypatch.setattr(gauge, "_orbit_witness", lambda *args: np.full((1, 8), 5))
    source = gauge.build(bundles.EquivariantMap(b, (4,))).table
    target = gauge.build(bundles.EquivariantMap(b, (2,))).table
    assert racks.is_morphism(np.full(8, 5), source, target)
    with pytest.raises(AlgebraError, match=r"^census witness from \(4,\) to \(2,\) is not an isomorphism$"):
        gauge.isomorphism_census(b)


def count_calls(monkeypatch, module, name):
    """Record the arguments of each call to module.name."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("name, base, searches", [("Q8", 2, [True]), ("D4", 2, [True, True]), ("Q8", 5, [])])
def test_census_searches_only_between_orbit_roots(name, base, searches, monkeypatch):
    # 7, 5 and 55 searches, every one of them finding a witness, when the
    # census merged keys by search alone.
    found = count_searches(monkeypatch)
    gauge.isomorphism_census(bundles.DiscreteBundle(groups.catalog(name), base))
    assert found == searches


@pytest.mark.parametrize("name, base, searches", [("Q8", 2, 7), ("D4", 2, 5), ("D4", 3, 16)])
def test_census_without_automorphisms_searches_as_before(name, base, searches, monkeypatch):
    # A node budget of 0 leaves only the identity, so every key is its own
    # orbit root: the same classes, through the searches the census made
    # before it used Aut(G).
    G = relabeled_group(name, 3)
    classes = gauge.isomorphism_census(bundles.DiscreteBundle(G, base))
    monkeypatch.setattr(gauge, "_AUTOMORPHISM_NODES", 0)
    assert gauge._automorphisms(G, gauge._class_conjugators(G)[0]).tolist() == [list(range(G.order))]
    found = count_searches(monkeypatch)
    assert gauge.isomorphism_census(bundles.DiscreteBundle(G, base)) == classes
    assert len(found) == searches


@pytest.mark.parametrize("name, base, computed", [("S3", 3, 0), ("S4", 1, 0), ("D4", 2, 1), ("Q8", 3, 1)])
def test_census_enumerates_automorphisms_only_when_a_bucket_is_shared(name, base, computed, monkeypatch):
    # S3 and S4 keys each meet an empty bucket, so those censuses pay nothing for Aut(G).
    calls = count_calls(monkeypatch, gauge, "_automorphisms")
    gauge.isomorphism_census(bundles.DiscreteBundle(relabeled_group(name, 1), base))
    assert len(calls) == computed


@pytest.mark.parametrize("name, base, keys", [("Z1", 4, 1), ("Z3", 1, 1), ("S3", 1, 3), ("S3", 2, 6)])
def test_census_of_one_key_computes_no_invariants(name, base, keys, monkeypatch):
    # A key's invariants serve only to compare it with another key whose
    # fiber sizes are the same: one key has no such key, and no two of S3's
    # keys over one or two points have the same sizes, so none of these
    # censuses fingerprints a table or searches one.
    stacked = count_calls(monkeypatch, gauge, "element_invariants")
    searches = count_calls(monkeypatch, gauge, "find_isomorphism")
    classes = gauge.isomorphism_census(bundles.DiscreteBundle(groups.catalog(name), base))
    assert len(classes) == keys and len(searches) == 0 and len(stacked) == 0


@pytest.mark.parametrize("name, base, keys, fingerprinted", [("S3", 3, 10, [5, 6]), ("S4", 1, 5, [1, 4])])
def test_census_fingerprints_only_heads_that_share_fiber_sizes(name, base, keys, fingerprinted, monkeypatch):
    # Of S3x3's ten heads and S4x1's five, only two share their fiber sizes;
    # their invariants still tell them apart, so nothing is searched.
    b = bundles.DiscreteBundle(groups.catalog(name), base)
    stacked = count_calls(monkeypatch, gauge, "element_invariants")
    searches = count_calls(monkeypatch, gauge, "find_isomorphism")
    assert len(gauge.isomorphism_census(b)) == keys and len(searches) == 0
    values = bundles.enumerate_maps(b)
    heads = values[np.unique(gauge._census_keys(b.group, gauge._class_conjugators(b.group)[0], values)[0],
                             return_index=True)[1]]
    [(ops,)] = stacked
    tables = [gauge.build(bundles.EquivariantMap(b, heads[i])).table.op for i in fingerprinted]
    assert ops.shape == (2, b.total_size, b.total_size) and np.array_equal(ops, tables)


def test_census_allocates_a_few_chunks_beyond_the_maps():
    # S3 over 5 base points: 7,776 maps of 30 points, whose witnesses
    # (_check_witnesses) span 1.4 million augmented entries.
    b = bundles.DiscreteBundle(groups.catalog("S3"), 5)
    values_bytes = bundles.enumerate_maps(b).nbytes
    chunk = 1 << 14
    gauge.isomorphism_census(bundles.DiscreteBundle(groups.catalog("S3"), 2))  # first-call imports
    # The map-sized arrays (the section values, their least shifts, key
    # numbers) and the returned tuples take about 6 times the section
    # values' bytes; beyond them a few arrays of one chunk each, none
    # wider than 8 bytes an entry.
    bound = 8 * values_bytes + 64 * chunk + (1 << 20)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(racks, "_CHUNK_ELEMENTS", chunk)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            classes = gauge.isomorphism_census(b)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    assert len(classes) == 21 and sum(map(len, classes)) == 7_776
    # Checking every witness in one stack, unchunked, peaks at about 23 MB.
    assert peak <= bound, f"the census peaked at {peak} bytes, above {bound}"


def elementary_abelian(k):
    """Z2^k as the xor table on 0..2^k - 1."""
    idx = np.arange(2**k)
    return groups.group_from_table(idx[:, None] ^ idx)


@pytest.mark.parametrize(
    "G, size",
    [
        *[(groups.catalog(name), size) for name, size in
          [("Z1", 1), ("Z2", 1), ("Z4", 2), ("Z8", 4), ("Z12", 4), ("S3", 6), ("D4", 8), ("Q8", 24),
           ("D5", 20), ("D6", 12), ("S4", 24)]],
        (elementary_abelian(2), 6),
        (elementary_abelian(3), 168),
    ],
    ids=repr,
)
def test_automorphisms_are_the_whole_group(G, size):
    autos = gauge._automorphisms(G, gauge._class_conjugators(G)[0])
    assert autos.shape == (size, G.order) and len(np.unique(autos, axis=0)) == size
    assert list(range(G.order)) in autos.tolist()
    for alpha in autos:
        assert racks.check_automorphism(G, alpha) is not None


def test_automorphisms_past_the_budget_are_the_identity():
    # Z2^4 has |GL(4, 2)| = 20160 automorphisms among 15^4 candidate tuples.
    G = elementary_abelian(4)
    assert gauge._automorphisms(G, gauge._class_conjugators(G)[0]).tolist() == [list(range(16))]


@st.composite
def section_maps(draw, names=("Z1", "Z4", "Z6", "D3", "D4", "D5", "Q8", "S3", "S4")):
    G = groups.catalog(draw(st.sampled_from(names)))
    base = draw(st.integers(1, 3))
    values = draw(st.lists(st.integers(0, G.order - 1), min_size=base, max_size=base))
    return bundles.EquivariantMap(bundles.DiscreteBundle(G, base), values)


@settings(max_examples=30, deadline=None)
@given(section_maps(names=("D4", "Q8", "Z6")))
def test_central_shift_gives_the_same_table(f):
    G, b = f.bundle.group, f.bundle
    centre = [z for z in range(G.order) if (G.conj[z] == z).all()]
    assert len(centre) > 1
    table = gauge.build(f).table
    for z in centre:
        assert gauge.build(bundles.EquivariantMap(b, G.table[z, f.section_values])).table == table


@settings(max_examples=40, deadline=None)
@given(section_maps(), st.data())
def test_gauge_conjugation_witness_is_an_isomorphism(f, data):
    # s'(m) = h_m^-1 s(m) h_m, and phi(m, g) = (m, h_m^-1 g) carries <|_s onto <|_s'.
    G, b = f.bundle.group, f.bundle
    h = np.array(data.draw(st.lists(st.integers(0, G.order - 1), min_size=b.base_size, max_size=b.base_size)))
    conjugated = bundles.EquivariantMap(b, G.conj[f.section_values, h])
    phi = b.point(np.arange(b.base_size)[:, None], G.table[G.inverses[h]]).ravel()
    assert racks.is_morphism(phi, gauge.build(f).table, gauge.build(conjugated).table)


@settings(max_examples=40, deadline=None)
@given(section_maps(), st.data())
def test_base_permutation_witness_is_an_isomorphism(f, data):
    # s'(pi(m)) = s(m), and phi(m, g) = (pi(m), g) carries <|_s onto <|_s'.
    G, b = f.bundle.group, f.bundle
    pi = np.array(data.draw(st.permutations(range(b.base_size))))
    values = np.empty(b.base_size, dtype=np.int64)
    values[pi] = f.section_values
    phi = b.point(pi[:, None], np.arange(G.order)).ravel()
    assert racks.is_morphism(phi, gauge.build(f).table, gauge.build(bundles.EquivariantMap(b, values)).table)


@settings(max_examples=40, deadline=None)
@given(section_maps(names=("Z4", "D4", "D5", "Q8", "S3")), st.data())
def test_automorphism_witness_is_an_isomorphism(f, data):
    # phi(m, g) = (m, alpha(g)) carries <|_s onto <|_(alpha o s): the gauge
    # operation reads G only through its product.
    G, b = f.bundle.group, f.bundle
    autos = gauge._automorphisms(G, gauge._class_conjugators(G)[0])
    alpha = autos[data.draw(st.integers(0, len(autos) - 1))]
    image = bundles.EquivariantMap(b, alpha[np.asarray(f.section_values)])
    phi = b.point(np.arange(b.base_size)[:, None], alpha).ravel()
    assert racks.is_morphism(phi, gauge.build(f).table, gauge.build(image).table)

def test_gauge_quandle_provenance_json():
    G, b = over_a_point("Z4")
    f = bundles.EquivariantMap(b, (2,))
    obj = gauge.gauge_quandle_to_json(gauge.build(f))
    assert obj["provenance"]["bundle"] == {"group": "Z4", "base_size": 1}
    assert obj["provenance"]["section_values"] == [2]
    assert racks.magma_from_json(obj) == gauge.build(f).table


# ---------------------------------------------------------------------------
# Independent oracles for the single code paths in gauge.py
# ---------------------------------------------------------------------------

def gauge_table_by_shift(b, f):
    """The other defining form, p1 <|f p2 = p1 * (f(p1)^-1 f(p2))."""
    G = b.group
    fvals = f.total_values()
    shift = G.table[np.ix_(G.inverses[fvals], fvals)]
    return b.action_table()[np.arange(b.total_size)[:, None], shift]


def quotient_by_loop(op, class_of):
    """Reference quotient: every representative pair of every class pair."""
    k = int(max(class_of)) + 1
    classes = [[x for x in range(len(op)) if class_of[x] == i] for i in range(k)]
    table = np.full((k, k), -1, dtype=np.int64)
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            images = {int(class_of[op[x][y]]) for x in ci for y in cj}
            if len(images) != 1:
                raise AlgebraError(
                    f"quotient not well-defined on classes ({i}, {j}): images {sorted(images)}"
                )
            table[i, j] = images.pop()
    return table


@pytest.mark.parametrize("name", ["S3", "D4"])
def test_gauge_table_forms_agree_on_every_map(name):
    b = bundles.DiscreteBundle(groups.catalog(name), 2)
    for f in every_map(b):
        q = gauge.build(f)
        assert np.array_equal(q.table.op, gauge_table_by_shift(b, f))


def test_build_table_is_c_contiguous():
    G = groups.catalog("S4")
    b = bundles.DiscreteBundle(G, 8)
    f = bundles.EquivariantMap(b, (1, 5, 9, 13, 17, 21, 3, 0))
    op = gauge.build(f).table.op
    assert op.shape == (192, 192) and op.flags.c_contiguous


@st.composite
def congruences(draw):
    """A quandle table with a congruence: right H-orbits of a gauge quandle
    under the normalizer condition, or right cosets of H in a generalized
    Alexander quandle under the centralizer condition. Class indices are
    shuffled so the quotient cannot rely on their order."""
    G = groups.catalog(draw(st.sampled_from(["Z4", "S3", "D4", "Q8"])))
    H = groups.generated_subgroup(G, draw(st.lists(st.integers(0, G.order - 1), max_size=2)))
    if draw(st.booleans()):
        norm = set(groups.normalizer(H).elements)
        usable = [c for c in range(G.order) if all(G.conj[c, g] in norm for g in range(G.order))]
        b = bundles.DiscreteBundle(G, draw(st.integers(1, 2)))
        values = draw(st.lists(st.sampled_from(usable), min_size=b.base_size, max_size=b.base_size))
        op = gauge.build(bundles.EquivariantMap(b, tuple(values))).table.op
        blocks = [sorted(set(b.action_table()[p, list(H.elements)].tolist())) for p in range(b.total_size)]
    else:
        c = draw(st.sampled_from([c for c in range(G.order) if groups.centralizes(c, H)]))
        op = racks.generalized_alexander(G, G.inner_automorphism(c)).op
        blocks = [sorted(G.table[list(H.elements), g].tolist()) for g in range(G.order)]
    blocks = sorted({tuple(block) for block in blocks})
    order = draw(st.permutations(range(len(blocks))))
    class_of = np.empty(len(op), dtype=np.int64)
    for i, block in zip(order, blocks):
        class_of[list(block)] = i
    return op, class_of


@settings(max_examples=60, deadline=None)
@given(congruences())
def test_quotient_matches_reference_loop_on_congruences(case):
    op, class_of = case
    assert np.array_equal(gauge.quotient(op, class_of).op, quotient_by_loop(op, class_of))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=6, max_size=6))
def test_quotient_agrees_with_reference_on_any_partition(labels):
    # Relabel to classes 0..k-1 in order of first appearance.
    first = {}
    class_of = np.array([first.setdefault(v, len(first)) for v in labels])
    op = racks.conjugation_quandle(groups.catalog("S3")).op
    try:
        expected = quotient_by_loop(op, class_of)
    except AlgebraError as exc:
        with pytest.raises(AlgebraError) as err:
            gauge.quotient(op, class_of)
        assert str(err.value) == str(exc)
    else:
        assert np.array_equal(gauge.quotient(op, class_of).op, expected)


def test_quotient_names_the_first_bad_class_pair():
    # In the conjugation quandle of S3, {0, 1} is not a block of a congruence:
    # 0 <| 2 = 0 but 1 <| 2 = 5, which is alone in class 4.
    op = racks.conjugation_quandle(groups.catalog("S3")).op
    class_of = np.array([0, 0, 1, 2, 3, 4])
    with pytest.raises(AlgebraError, match=r"classes \(0, 1\): images \[0, 4\]") as err:
        gauge.quotient(op, class_of)
    with pytest.raises(AlgebraError) as ref:
        quotient_by_loop(op, class_of)
    assert str(err.value) == str(ref.value)


@pytest.mark.parametrize(
    "call",
    [
        lambda G, q, op: gauge.homogeneous_quandle(groups.subgroup(G, [0]), 1.5),
        lambda G, q, op: gauge.homogeneous_quandle(groups.subgroup(G, [0]), 6),
        lambda G, q, op: gauge.transport_fiber(q, 0.5),
        lambda G, q, op: gauge.transport_fiber(q, True),
        lambda G, q, op: gauge.transport_fiber(q, -1),
        lambda G, q, op: gauge.quotient(op, [0, 0, 0, 0, 0, 0.0]),
        lambda G, q, op: gauge.quotient(op, [0, 0, 0, 0, 0, 6]),
        lambda G, q, op: gauge.quotient(op[:, :5], [0, 0, 0, 0, 0, 0]),
    ],
)
def test_element_arguments_must_be_integer_indices(call):
    G, b = over_a_point("S3")
    q = gauge.build(bundles.EquivariantMap(b, (0,)))
    with pytest.raises(ShapeError):
        call(G, q, racks.conjugation_quandle(G).op)


def test_element_arguments_accept_numpy_integers():
    G, b = over_a_point("S3")
    q = gauge.build(bundles.EquivariantMap(b, (2,)))
    assert gauge.transport_fiber(q, np.int32(0)) == q.table
    trivial = groups.subgroup(G, [0])
    assert gauge.homogeneous_quandle(trivial, np.int64(2)) == gauge.homogeneous_quandle(trivial, 2)
    op = racks.conjugation_quandle(G).op
    assert gauge.quotient(op, np.zeros(6, dtype=np.int32)).size == 1


def test_axiom_guard_messages_are_one_short_line():
    # 60 elements drawn at random: thousands of self-distributivity witnesses.
    op = np.random.default_rng(0).integers(0, 60, (60, 60))
    m = racks.magma_from_table(op)
    first = tuple(racks.verify_rack(m).sd_violations[0].tolist())
    for guarded in (lambda: gauge.quotient(op, np.arange(60)), lambda: racks.associated_quandle(m)):
        with pytest.raises(AlgebraError) as info:
            guarded()
        message = str(info.value)
        assert "\n" not in message and len(message.encode()) < 1000
        assert f"first sd witness (x, y, z): {first}" in message
