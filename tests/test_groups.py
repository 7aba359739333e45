import numpy as np
import pytest

from gaugequandles import groups
from gaugequandles.errors import AxiomViolation, CapExceeded, ShapeError

S3_PERMS = groups.symmetric_group_elements(3)


def s3_index(perm):
    return S3_PERMS.index(tuple(perm))


def test_catalog_orders():
    expected = {"Z1": 1, "Z4": 4, "Z12": 12, "D2": 4, "D4": 8, "D6": 12, "S3": 6, "S4": 24, "Q8": 8}
    for name, order in expected.items():
        assert groups.catalog(name).order == order
    with pytest.raises(KeyError):
        groups.catalog("trivial")


def test_trivial_group():
    G = groups.group_from_table([[0]])
    assert G.order == 1
    assert G.inverses[0] == 0


def test_z3_from_table():
    G = groups.group_from_table([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert G.table[1, 2] == 0
    assert G.inverses[1] == 2


def test_s3_conjugacy_classes_by_brute_force():
    G = groups.catalog("S3")
    classes = set()
    for a in range(G.order):
        classes.add(frozenset(G.conj[a].tolist()))
    assert len(classes) == 3
    assert sorted(len(c) for c in classes) == [1, 2, 3]


def test_identity_relabeled_to_zero():
    z3 = groups.catalog("Z3").table
    perm = np.array([2, 0, 1])
    scrambled = np.empty_like(z3)
    for a in range(3):
        for b in range(3):
            scrambled[perm[a], perm[b]] = perm[z3[a, b]]
    G = groups.group_from_table(scrambled)
    assert np.array_equal(G.table[0], np.arange(3))
    assert np.array_equal(G.table[:, 0], np.arange(3))
    # Same group back again: a cyclic group of order 3
    assert np.array_equal(G.table, z3)


def test_catalog_round_trip():
    for name in groups.catalog_names():
        G = groups.catalog(name)
        rebuilt = groups.group_from_table(G.table, name=name)
        assert np.array_equal(rebuilt.table, G.table)


def test_non_square_raises():
    with pytest.raises(ShapeError):
        groups.group_from_table([[0, 1], [1, 0], [0, 1]])


def test_associativity_cap_raises_cap_exceeded():
    n = groups.ASSOCIATIVITY_CAP + 1
    cyclic = (np.arange(n)[:, None] + np.arange(n)) % n
    with pytest.raises(CapExceeded, match=f"order {n} exceeds the associativity check cap {n - 1}"):
        groups.group_from_table(cyclic)


def test_closure_violation():
    with pytest.raises(AxiomViolation) as err:
        groups.group_from_table([[0, 1], [1, 7]])
    assert err.value.axiom == "closure"


def test_associativity_violation_with_witness():
    with pytest.raises(AxiomViolation) as err:
        groups.group_from_table([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    assert err.value.axiom == "associativity"
    a, b, c = err.value.witness
    t = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
    assert t[t[a][b]][c] != t[a][t[b][c]]


def test_missing_identity():
    with pytest.raises(AxiomViolation) as err:
        groups.group_from_table([[0, 0], [1, 1]])
    assert err.value.axiom == "identity"


def test_relabeled_identity_detected():
    # Z2 written with the identity at index 1
    G = groups.group_from_table([[1, 0], [0, 1]])
    assert np.array_equal(G.table, [[0, 1], [1, 0]])


def test_missing_inverse():
    with pytest.raises(AxiomViolation) as err:
        groups.group_from_table([[0, 1], [1, 1]])
    assert err.value.axiom == "inverse"


def test_inverse_examples():
    assert groups.catalog("Z4").inverses[1] == 3
    G = groups.catalog("S3")
    transpositions = [s3_index(p) for p in S3_PERMS if sorted(p) == [0, 1, 2] and sum(p[i] != i for i in range(3)) == 2]
    for a in transpositions:
        # Scan the Cayley row for the identity: a transposition is its own inverse
        row = G.table[a].tolist()
        assert row.index(0) == a
        assert G.inverses[a] == a


def test_inverse_is_involution():
    for name in groups.catalog_names():
        G = groups.catalog(name)
        for a in range(G.order):
            assert G.inverses[G.inverses[a]] == a


def test_conjugation_by_identity_and_in_abelian_groups():
    G = groups.catalog("S4")
    for a in range(G.order):
        assert G.conj[a, 0] == a
    A = groups.catalog("Z6")
    for a in range(A.order):
        for g in range(A.order):
            assert A.conj[a, g] == a


def test_s3_conjugation_against_permutation_composition():
    G = groups.catalog("S3")
    a = s3_index((1, 0, 2))   # swap 0,1
    g = s3_index((2, 1, 0))   # swap 0,2
    ginv = S3_PERMS[G.inverses[g]]
    expected = groups.compose_permutations(
        groups.compose_permutations(ginv, S3_PERMS[a]), S3_PERMS[g]
    )
    assert G.conj[a, g] == s3_index(expected)
    assert s3_index(expected) == s3_index((0, 2, 1))  # swap 1,2


def test_catalog_table_matches_permutation_composition():
    G = groups.catalog("S3")
    for i, a in enumerate(S3_PERMS):
        for j, b in enumerate(S3_PERMS):
            assert G.table[i, j] == s3_index(groups.compose_permutations(a, b))


@pytest.mark.parametrize("name", [n for n in groups.catalog_names() if groups.catalog(n).order <= 24])
def test_inner_automorphisms_are_automorphisms(name):
    G = groups.catalog(name)
    for g in range(G.order):
        sigma = G.inner_automorphism(g)
        assert sorted(sigma.tolist()) == list(range(G.order))
        assert np.array_equal(sigma[G.table], G.table[np.ix_(sigma, sigma)])


def test_subgroup_validation():
    G = groups.catalog("Z6")
    H = groups.subgroup(G, [0, 3])
    assert H.elements == (0, 3)
    with pytest.raises(AxiomViolation):
        groups.subgroup(G, [1, 3])  # not closed
    with pytest.raises(AxiomViolation):
        groups.subgroup(G, [3])  # missing identity
    for bad in ([0, 1.9], [True, False], [0, True], [0, 6], [0, -3]):
        with pytest.raises(ShapeError):
            groups.subgroup(G, bad)
    assert groups.subgroup(G, np.array([3, 0], dtype=np.int32)) == H
    assert groups.subgroup(G, {np.int64(0), 3}) == H


def test_generated_subgroup():
    G = groups.catalog("S3")
    three_cycle = s3_index((1, 2, 0))
    H = groups.generated_subgroup(G, [three_cycle])
    assert H.order == 3
    assert groups.generated_subgroup(G, []).elements == (0,)
    for bad in ([99], [6], [-1], [1.0]):
        with pytest.raises(ShapeError):
            groups.generated_subgroup(G, bad)


def test_normalizer_extremes():
    G = groups.catalog("S4")
    whole = groups.subgroup(G, list(range(G.order)))
    trivial = groups.subgroup(G, [0])
    assert groups.normalizer(whole).order == G.order
    assert groups.normalizer(trivial).order == G.order


def test_normalizer_of_transposition_subgroup_in_s3():
    G = groups.catalog("S3")
    H = groups.generated_subgroup(G, [s3_index((1, 0, 2))])
    N = groups.normalizer(H)
    # Brute force over all six elements
    expected = [
        g for g in range(G.order)
        if {G.conj[h, g] for h in H.elements} == set(H.elements)
    ]
    assert list(N.elements) == expected == list(H.elements)


def test_cosets_examples():
    G = groups.catalog("Z6")
    H = groups.subgroup(G, [0, 3])
    assert groups.cosets(H, "left") == [(0, 3), (1, 4), (2, 5)]
    whole = groups.subgroup(G, list(range(G.order)))
    assert groups.cosets(whole, "left") == [tuple(range(G.order))]
    trivial = groups.subgroup(G, [0])
    assert groups.cosets(trivial, "right") == [(a,) for a in range(G.order)]


def _cyclic_subgroups(G):
    seen = set()
    out = []
    for a in range(G.order):
        H = groups.generated_subgroup(G, [a])
        if H.elements not in seen:
            seen.add(H.elements)
            out.append(H)
    return out


@pytest.mark.parametrize("name", [n for n in groups.catalog_names() if groups.catalog(n).order <= 24])
def test_cosets_coincide_iff_normal(name):
    G = groups.catalog(name)
    for H in _cyclic_subgroups(G):
        same = groups.cosets(H, "left") == groups.cosets(H, "right")
        assert same == groups.is_normal(H)


@pytest.mark.parametrize("name", [n for n in groups.catalog_names() if groups.catalog(n).order <= 24])
def test_normalizer_contains_subgroup(name):
    G = groups.catalog(name)
    for H in _cyclic_subgroups(G):
        N = groups.normalizer(H)
        assert set(H.elements) <= set(N.elements)


def test_is_normal_examples():
    G = groups.catalog("S3")
    assert groups.is_normal(groups.subgroup(G, list(range(G.order))))
    assert groups.is_normal(groups.subgroup(G, [0]))
    assert not groups.is_normal(groups.generated_subgroup(G, [s3_index((1, 0, 2))]))


def test_centralizes():
    G = groups.catalog("S3")
    rotations = groups.generated_subgroup(G, [s3_index((1, 2, 0))])
    assert groups.centralizes(0, rotations)
    assert not groups.centralizes(s3_index((1, 0, 2)), rotations)
    A = groups.catalog("Z8")
    H = groups.generated_subgroup(A, [2])
    for g in range(A.order):
        assert groups.centralizes(g, H)


def test_group_json_round_trip():
    G = groups.catalog("D4")
    obj = groups.group_to_json(G)
    assert obj["order"] == 8
    back = groups.group_from_json(obj)
    assert back == G
    assert groups.group_from_json("Q8") == groups.catalog("Q8")


def test_q8_structure():
    G = groups.catalog("Q8")
    # -1 is the unique element of order 2 and it is central
    order2 = [a for a in range(G.order) if a != 0 and G.table[a, a] == 0]
    assert len(order2) == 1
    minus_one = order2[0]
    for g in range(G.order):
        assert G.table[minus_one, g] == G.table[g, minus_one]
    # i^2 = j^2 = k^2 = -1 for the remaining non-central elements
    for a in range(G.order):
        if a not in (0, minus_one):
            assert G.table[a, a] == minus_one
