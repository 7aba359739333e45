import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugequandles import bundles, gauge, groups, racks
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
    assert racks.verify_rack(racks.trivial_quandle(7)).is_quandle


def test_projection_magma_is_not_a_rack():
    # x <| y = y: every right translation is constant
    m = racks.magma_from_table([[0, 1], [0, 1]])
    report = racks.verify_rack(m)
    assert not report.is_rack
    assert report.bijectivity_violations == (0, 1)


def test_conjugation_quandle_s3():
    G = groups.catalog("S3")
    m = racks.conjugation_quandle(G)
    assert racks.verify_rack(m).is_quandle
    # Orbits under all right translations are the conjugacy classes
    parent = list(range(6))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for x in range(6):
        for y in range(6):
            a, b = find(x), find(int(m.op[x, y]))
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
    assert racks.verify_rack(m).is_quandle


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
    assert racks.verify_rack(m).is_quandle
    cinv = S3_PERMS[G.inverses[c]]
    cperm = S3_PERMS[c]
    for g1, g2 in itertools.product(range(6), repeat=2):
        # Independent oracle: compose the permutations by hand
        p1, p2 = S3_PERMS[g1], S3_PERMS[g2]
        p2inv = tuple(sorted(range(3), key=lambda i: p2[i]))
        prod = groups.compose_permutations(p1, p2inv)
        sig = groups.compose_permutations(groups.compose_permutations(cinv, prod), cperm)
        expected = groups.compose_permutations(sig, p2)
        assert m.op[g1, g2] == S3_PERMS.index(expected)


def test_generalized_alexander_rejects_non_automorphism():
    G = groups.catalog("S3")
    swap = np.arange(6)
    swap[[1, 2]] = [2, 1]  # swaps two transpositions, not multiplicative
    with pytest.raises(AutomorphismRequired) as err:
        racks.generalized_alexander(G, swap)
    a, b = err.value.witness
    assert swap[G.table[a, b]] != G.table[swap[a], swap[b]]


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
        assert racks.verify_rack(q).is_quandle
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
    assert bad[m.op[x, y]] != m.op[bad[x], bad[y]]


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
        # The whole fingerprint, which starts with the sorted cycle lengths of - <| x.
        assert inv_a[x] == inv_b[f[x]]


def relabel_table(op, perm):
    """The table with element x renamed perm[x]."""
    inv = np.argsort(perm)
    return perm[np.asarray(op)[np.ix_(inv, inv)]]


def is_isomorphism(f, a, b):
    return sorted(f) == list(range(a.size)) and racks.is_morphism(f, a, b)


def gauge_quandle(name, base, values):
    b = bundles.DiscreteBundle(groups.catalog(name), base)
    return gauge.build(bundles.EquivariantMap(b, tuple(values))).table


def vf2_isomorphic(a, b):
    """networkx VF2 on the table as a labelled digraph: element nodes, and one
    node per pair (x, y) with edges to x, y and x <| y, each edge labelled
    with the roles ("left", "right", "out") its element plays for the pair."""
    nx = pytest.importorskip("networkx")

    def digraph(m):
        g = nx.DiGraph()
        g.add_nodes_from(range(m.size), kind="element")
        # VF2 matches the out-neighbours of matched nodes first, earliest
        # inserted first: so the inputs of a matched pair are matched right
        # after it, and pairs go in by max(x, y), which matches the pairs
        # among the elements met so far before a new element is tried. With
        # edges into the pair node, or in row-major order, a 16-element
        # search ran for minutes.
        for k in range(m.size):
            for x, y in [p for j in range(k) for p in ((j, k), (k, j))] + [(k, k)]:
                pair = ("pair", x, y)
                g.add_node(pair, kind="pair")
                roles: dict[int, tuple[str, ...]] = {}
                for role, z in (("left", x), ("right", y), ("out", int(m.op[x, y]))):
                    roles[z] = roles.get(z, ()) + (role,)
                for z, r in roles.items():
                    g.add_edge(pair, z, roles=r)
        return g

    return nx.is_isomorphic(
        digraph(a), digraph(b),
        node_match=lambda u, v: u["kind"] == v["kind"],
        edge_match=lambda u, v: u["roles"] == v["roles"],
    )


@pytest.mark.parametrize("name, base", [("S3", 2), ("D4", 2), ("Q8", 2), ("S3", 3), ("S4", 1)])
def test_find_isomorphism_agrees_with_vf2(name, base):
    G = groups.catalog(name)
    rng = np.random.default_rng(base * 100 + G.order)
    tables = [gauge_quandle(name, base, rng.integers(0, G.order, size=base)) for _ in range(6)]
    keys = [sorted(racks.element_invariants(t)) for t in tables]
    # Two pairs from one invariant class (the search runs to a witness) and
    # one from two classes; the second table of each pair is relabeled.
    pairs = [(i, j) for i in range(6) for j in range(i, 6) if keys[i] == keys[j]][:2]
    pairs += [(0, j) for j in range(1, 6) if keys[0] != keys[j]][:1]
    for i, j in pairs:
        a = tables[i]
        b = racks.magma_from_table(relabel_table(tables[j].op, rng.permutation(a.size)))
        found = racks.find_isomorphism(a, b)
        assert (found is not None) == vf2_isomorphic(a, b)
        assert found is None or is_isomorphism(found, a, b)


def invariants_by_loop(op):
    """Per-element loop reference for element_invariants."""
    n = len(op)
    out = []
    for x in range(n):
        cycles = []
        for p in range(n):
            cur, length = op[p][x], 1
            while cur != p and length < n:
                cur, length = op[cur][x], length + 1
            cycles.append(length if cur == p else 0)
        col = [sum(op[p][x] == v for p in range(n)) for v in range(n)]
        row = [op[x].count(v) for v in range(n)]
        occurrences = sum(r.count(x) for r in op)
        out.append(tuple(sorted(cycles) + sorted(col) + sorted(row) + [int(op[x][x] == x), occurrences]))
    return out


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n),
    st.permutations(range(n)),
)))
def test_element_invariants_match_loop_and_follow_relabeling(case):
    op, perm = case
    perm = np.array(perm)
    m = racks.magma_from_table(op)
    inv = racks.element_invariants(m)
    assert inv == invariants_by_loop(op)
    inv_relabeled = racks.element_invariants(racks.magma_from_table(relabel_table(m.op, perm)))
    assert all(inv_relabeled[perm[x]] == inv[x] for x in range(m.size))
    assert all(type(v) is int for row in inv for v in row)


@st.composite
def relabeled_gauge_quandles(draw):
    name = draw(st.sampled_from(["Z4", "S3", "D4", "Q8"]))
    base = draw(st.integers(1, 2))
    values = draw(st.lists(st.integers(0, groups.catalog(name).order - 1), min_size=base, max_size=base))
    q = gauge_quandle(name, base, values)
    perm = np.array(draw(st.permutations(range(q.size))))
    return q, racks.magma_from_table(relabel_table(q.op, perm))


@settings(max_examples=60, deadline=None)
@given(relabeled_gauge_quandles())
def test_find_isomorphism_finds_every_relabeling(case):
    q, relabeled = case
    f = racks.find_isomorphism(q, relabeled)
    assert f is not None and is_isomorphism(f, q, relabeled)


@pytest.mark.parametrize("seed", range(5))
def test_census_of_relabeled_s4_over_a_point(seed):
    t = groups.catalog("S4").table
    G = groups.group_from_table(relabel_table(t, np.random.default_rng(seed).permutation(len(t))))
    classes = gauge.isomorphism_census(bundles.DiscreteBundle(G, 1))
    assert sorted(c.size for c in classes) == [1, 3, 6, 6, 8]


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
    with pytest.raises(ShapeError):
        racks.magma_from_table([[True, False], [False, True]])
    with pytest.raises(ShapeError):
        racks.magma_from_table([[0, -1], [1, 0]])
    for mixed_or_ragged in (
        [[0, True], [True, 0]],
        [[0, 1], [1]],
        ((0, 1), [1, np.True_]),
        [np.array([0, 1]), np.array([True, True])],
    ):
        with pytest.raises(ShapeError):
            racks.magma_from_table(mixed_or_ragged)
        with pytest.raises(ShapeError):
            groups.group_from_table(mixed_or_ragged)


@pytest.mark.parametrize(
    "call",
    [
        lambda G, m: racks.check_automorphism(G, [0.0, 1.2, 2, 3, 4, 5]),
        lambda G, m: racks.check_automorphism(G, [0, 1, 2, 3, 4, 6]),
        lambda G, m: racks.morphism_witnesses([0.5, 1, 2, 3, 4, 5], m, m),
        lambda G, m: racks.morphism_witnesses([0, 1, 2, 3, 4, -1], m, m),
    ],
)
def test_maps_of_elements_must_be_integer_indices(call):
    G = groups.catalog("S3")
    with pytest.raises(ShapeError):
        call(G, racks.conjugation_quandle(G))


def test_maps_of_elements_accept_any_integer_dtype():
    G = groups.catalog("S3")
    m = racks.conjugation_quandle(G)
    ident = np.arange(6, dtype=np.int32)
    assert racks.check_automorphism(G, ident).tolist() == list(range(6))
    assert racks.is_morphism(ident, m, m)


def test_tables_are_stored_c_contiguous_copies():
    op = np.asfortranarray(racks.conjugation_quandle(groups.catalog("S3")).op.copy())
    assert not op.flags.c_contiguous
    m = racks.magma_from_table(op)
    assert m.op.flags.c_contiguous and not m.op.flags.writeable
    assert np.array_equal(m.op, op)
    assert op.flags.writeable
    op[0, 0] = 1  # the caller's array is neither frozen nor shared
    assert m.op[0, 0] == 0
