import itertools

import numpy as np
import pytest

from gaugequandles import groups, racks
from gaugequandles.errors import AutomorphismRequired, NotARack, ShapeError, SizeMismatch

S3_PERMS = groups.symmetric_group_elements(3)


def brute_force_report(op):
    """Triple-loop oracle for the axiom scan, independent of the numpy path."""
    n = len(op)
    sd = [
        (x, y, z)
        for x in range(n) for y in range(n) for z in range(n)
        if op[op[x][y]][z] != op[op[x][z]][op[y][z]]
    ]
    bij = [y for y in range(n) if sorted(op[x][y] for x in range(n)) != list(range(n))]
    idem = [x for x in range(n) if op[x][x] != x]
    return sd, bij, idem


def test_trivial_quandle_is_quandle():
    m = racks.trivial_quandle(5)
    report = racks.verify_rack(m)
    assert report.is_rack and report.is_quandle
    assert racks.verify_quandle(racks.trivial_quandle(7)).is_quandle


def test_projection_magma_is_not_a_rack():
    # x <| y = y: every right translation is constant
    m = racks.magma_from_table([[0, 1], [0, 1]])
    report = racks.verify_rack(m)
    assert not report.is_rack
    assert report.bijectivity_violations == (0, 1)


def test_conjugation_quandle_s3():
    G = groups.catalog("S3")
    m = racks.conjugation_quandle(G)
    assert racks.verify_quandle(m).is_quandle
    # Orbits under all right translations are the conjugacy classes
    parent = list(range(6))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for x in range(6):
        for y in range(6):
            a, b = find(x), find(m.apply(x, y))
            if a != b:
                parent[a] = b
    orbits = {}
    for x in range(6):
        orbits.setdefault(find(x), []).append(x)
    assert sorted(len(o) for o in orbits.values()) == [1, 2, 3]


def test_conjugation_quandle_abelian_is_trivial():
    G = groups.catalog("Z5")
    assert racks.conjugation_quandle(G) == racks.trivial_quandle(5)
    assert racks.conjugation_quandle(groups.catalog("Z1")) == racks.trivial_quandle(1)


@pytest.mark.parametrize("name", groups.catalog_names())
def test_conjugation_quandle_every_catalog_group(name):
    m = racks.conjugation_quandle(groups.catalog(name))
    assert racks.verify_quandle(m).is_quandle


def test_verify_matches_brute_force_on_random_tables():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        op = rng.integers(0, n, size=(n, n))
        report = racks.verify_rack(racks.magma_from_table(op))
        sd, bij, idem = brute_force_report(op.tolist())
        assert list(report.sd_violations) == sd
        assert list(report.bijectivity_violations) == bij
        assert list(report.idem_violations) == idem
        assert report.is_rack == (not sd and not bij)


def test_generalized_alexander_identity_gives_trivial():
    for name in groups.catalog_names():
        G = groups.catalog(name)
        m = racks.generalized_alexander(G, np.arange(G.order))
        assert m == racks.trivial_quandle(G.order)


def test_generalized_alexander_s3_spot_entries():
    G = groups.catalog("S3")
    c = S3_PERMS.index((1, 0, 2))  # conjugate by a transposition
    m = racks.generalized_alexander(G, G.inner_automorphism(c))
    assert racks.verify_quandle(m).is_quandle
    cinv = S3_PERMS[G.inverse(c)]
    cperm = S3_PERMS[c]
    for g1, g2 in itertools.product(range(6), repeat=2):
        # Independent oracle: compose the permutations by hand
        p1, p2 = S3_PERMS[g1], S3_PERMS[g2]
        p2inv = tuple(sorted(range(3), key=lambda i: p2[i]))
        prod = groups.compose_permutations(p1, p2inv)
        sig = groups.compose_permutations(groups.compose_permutations(cinv, prod), cperm)
        expected = groups.compose_permutations(sig, p2)
        assert m.apply(g1, g2) == S3_PERMS.index(expected)


def test_generalized_alexander_rejects_non_automorphism():
    G = groups.catalog("S3")
    swap = np.arange(6)
    swap[[1, 2]] = [2, 1]  # swaps two transpositions, not multiplicative
    with pytest.raises(AutomorphismRequired) as err:
        racks.generalized_alexander(G, swap)
    a, b = err.value.witness
    assert swap[G.mul(a, b)] != G.mul(swap[a], swap[b])


def test_associated_quandle_of_quandle_is_identity():
    G = groups.catalog("S4")
    m = racks.conjugation_quandle(G)
    assert racks.associated_quandle(m) == m


def test_associated_quandle_of_constant_rack():
    # op[x][y] = pi(x) for a fixed permutation pi is a rack; its associated
    # quandle is trivial (iota = pi^-1).
    pi = [2, 0, 3, 4, 1]
    n = 5
    op = [[pi[x]] * n for x in range(n)]
    m = racks.magma_from_table(op)
    report = racks.verify_rack(m)
    assert report.is_rack and not report.is_quandle
    iota = racks.rack_iota(m)
    pinv = [pi.index(x) for x in range(n)]
    assert iota.tolist() == pinv
    assert racks.associated_quandle(m) == racks.trivial_quandle(n)


def test_associated_quandle_requires_rack():
    with pytest.raises(NotARack):
        racks.associated_quandle(racks.magma_from_table([[0, 1], [0, 1]]))


def test_associated_quandle_idempotent_transform():
    pi = [1, 2, 0]
    op = [[pi[x]] * 3 for x in range(3)]
    once = racks.associated_quandle(racks.magma_from_table(op))
    assert racks.associated_quandle(once) == once


def rack_corpus():
    out = [racks.conjugation_quandle(groups.catalog(n)) for n in ("Z4", "S3", "D4")]
    for pi in ([1, 0], [2, 0, 3, 4, 1], [1, 2, 3, 0]):
        n = len(pi)
        out.append(racks.magma_from_table([[pi[x]] * n for x in range(n)]))
    G = groups.catalog("Q8")
    for c in (1, 2, 5):
        out.append(racks.generalized_alexander(G, G.inner_automorphism(c)))
    return out


def test_associated_quandle_over_corpus():
    for m in rack_corpus():
        assert racks.verify_rack(m).is_rack
        q = racks.associated_quandle(m)
        assert racks.verify_quandle(q).is_quandle
        assert racks.associated_quandle(q) == q


def test_is_morphism_basics():
    G = groups.catalog("S3")
    m = racks.conjugation_quandle(G)
    assert racks.is_morphism(np.arange(6), m, m)
    # Constant map to an idempotent element
    assert racks.is_morphism(np.full(6, 3), m, m)
    bad = np.array([0, 2, 1, 3, 4, 5])
    witnesses = racks.morphism_witnesses(bad, m, m)
    assert witnesses and not racks.is_morphism(bad, m, m)
    x, y = witnesses[0]
    assert bad[m.apply(x, y)] != m.apply(bad[x], bad[y])


def test_find_isomorphism_trivial_quandles():
    a, b = racks.trivial_quandle(4), racks.trivial_quandle(4)
    f = racks.find_isomorphism(a, b)
    assert f is not None and racks.is_morphism(f, a, b)


def test_find_isomorphism_rules_out_conjugation_vs_trivial():
    m = racks.conjugation_quandle(groups.catalog("S3"))
    assert racks.find_isomorphism(m, racks.trivial_quandle(6)) is None


def test_find_isomorphism_size_mismatch():
    with pytest.raises(SizeMismatch):
        racks.find_isomorphism(racks.trivial_quandle(2), racks.trivial_quandle(3))


def test_find_isomorphism_between_relabeled_tables():
    rng = np.random.default_rng(11)
    m = racks.conjugation_quandle(groups.catalog("S4"))
    perm = rng.permutation(m.size)
    relabeled = np.empty_like(m.op)
    for x in range(m.size):
        for y in range(m.size):
            relabeled[perm[x], perm[y]] = perm[m.op[x, y]]
    other = racks.magma_from_table(relabeled)
    f = racks.find_isomorphism(m, other)
    assert f is not None
    assert racks.is_morphism(f, m, other)
    # Witness symmetry: the inverse bijection is a morphism the other way
    finv = np.empty(m.size, dtype=int)
    finv[f] = np.arange(m.size)
    assert racks.is_morphism(finv, other, m)


def brute_force_isomorphic(a, b):
    """Exhaustive permutation search, the independent oracle for small n."""
    for perm in itertools.permutations(range(a.size)):
        if racks.is_morphism(list(perm), a, b):
            return True
    return False


def test_find_isomorphism_matches_brute_force_on_small_tables():
    rng = np.random.default_rng(29)
    for _ in range(120):
        n = int(rng.integers(2, 5))
        a = racks.magma_from_table(rng.integers(0, n, size=(n, n)))
        if rng.uniform() < 0.5:
            perm = rng.permutation(n)
            relabeled = np.empty((n, n), dtype=int)
            for x in range(n):
                for y in range(n):
                    relabeled[perm[x], perm[y]] = perm[a.op[x, y]]
            b = racks.magma_from_table(relabeled)
        else:
            b = racks.magma_from_table(rng.integers(0, n, size=(n, n)))
        found = racks.find_isomorphism(a, b)
        assert (found is not None) == brute_force_isomorphic(a, b)
        if found is not None:
            assert racks.is_morphism(found, a, b)


def test_find_isomorphism_defers_pairs_mapped_late():
    # Regression: a pair (u, v) whose op value is the last element assigned
    # must still be checked; this relabeled pair once came back None.
    a = racks.magma_from_table([[0, 3, 1, 3], [1, 2, 3, 1], [1, 1, 0, 1], [0, 0, 1, 3]])
    b = racks.magma_from_table([[2, 3, 3, 3], [3, 1, 2, 2], [3, 1, 2, 1], [1, 3, 3, 0]])
    f = racks.find_isomorphism(a, b)
    assert f is not None
    assert racks.is_morphism(f, a, b)


def test_found_witnesses_respect_cycle_types():
    G = groups.catalog("S3")
    a = racks.generalized_alexander(G, G.inner_automorphism(1))
    b = racks.generalized_alexander(G, G.inner_automorphism(2))
    f = racks.find_isomorphism(a, b)
    assert f is not None
    inv_a = racks.element_invariants(a)
    inv_b = racks.element_invariants(b)
    for x in range(a.size):
        assert inv_a[x][0] == inv_b[f[x]][0]


def test_magma_json_round_trip():
    m = racks.conjugation_quandle(groups.catalog("D3"))
    obj = racks.magma_to_json(m)
    assert obj["size"] == 6
    assert racks.magma_from_json(obj) == m
    labeled = racks.magma_from_table([[0]], labels=["e"])
    assert racks.magma_from_json(racks.magma_to_json(labeled)).labels == ("e",)


def test_report_json_sorted_witnesses():
    op = np.array([[1, 1], [0, 0]])  # constant-shift rack, x <| x != x
    report = racks.verify_rack(racks.magma_from_table(op))
    obj = report.to_json()
    assert obj["is_rack"] and not obj["is_quandle"]
    assert obj["idem_violations"] == sorted(obj["idem_violations"]) == [0, 1]


def test_bad_table_shapes():
    with pytest.raises(ShapeError):
        racks.magma_from_table([[0, 1]])
    with pytest.raises(ShapeError):
        racks.magma_from_table([[0, 5], [1, 0]])
    with pytest.raises(ShapeError):
        racks.magma_from_table([[0.5, 0], [1, 0]])


def test_tables_are_stored_c_contiguous_copies():
    op = np.asfortranarray(racks.conjugation_quandle(groups.catalog("S3")).op.copy())
    assert not op.flags.c_contiguous
    m = racks.magma_from_table(op)
    assert m.op.flags.c_contiguous and not m.op.flags.writeable
    assert np.array_equal(m.op, op)
    assert op.flags.writeable
    op[0, 0] = 1  # the caller's array is neither frozen nor shared
    assert m.op[0, 0] == 0
