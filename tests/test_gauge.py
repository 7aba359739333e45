import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugequandles import bundles, gauge, groups, racks
from gaugequandles.errors import AlgebraError, CentralizerViolation, NormalizerViolation, ShapeError

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
    for f in bundles.enumerate_maps(b):
        assert racks.verify_rack(gauge.rack_from_map(f)).is_rack


def test_associated_quandle_of_rack_equals_build():
    G = groups.catalog("D4")
    b = bundles.DiscreteBundle(G, 2)
    for f in bundles.enumerate_maps(b):
        rack = gauge.rack_from_map(f)
        q = gauge.build(f)
        assert racks.associated_quandle(rack) == q.table


def test_build_and_rack_read_the_bundle_off_the_map():
    # Z6 and S3 have the same order, so a table of the wrong group has the right size.
    tables = {}
    for name in ("Z6", "S3"):
        G, b = over_a_point(name)
        f = bundles.EquivariantMap(b, (THREE_CYCLE,))
        q = gauge.build(f)
        assert q.bundle is b
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


def test_build_over_point_equals_generalized_alexander():
    for name in ("Z4", "S3", "Q8"):
        G, b = over_a_point(name)
        for f in bundles.enumerate_maps(b):
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
    assert sum(c.size for c in classes) == 6
    assert sorted(c.size for c in classes) == [1, 2, 3]


def test_census_abelian_over_point_single_class():
    G, b = over_a_point("Z6")
    classes = gauge.isomorphism_census(b)
    assert len(classes) == 1 and classes[0].size == 6


def test_census_trivial_group():
    b = bundles.DiscreteBundle(groups.catalog("Z1"), 4)
    classes = gauge.isomorphism_census(b)
    assert len(classes) == 1 and classes[0].size == 1


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
    for f in bundles.enumerate_maps(b):
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
