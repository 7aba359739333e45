"""The array forms of the finite layers against their per-element loop forms.

Each reference below is the loop the library used before its tables became
array expressions: one element, pair or point at a time, in the order the
witnesses are reported. Hypothesis runs them against the library on catalog
groups relabeled by random permutations that move the identity off index 0,
on random element subsets, and on random total-value arrays.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugequandles import bundles, gauge, groups, racks
from gaugequandles.errors import AxiomViolation

NAMES = ["Z1", "Z2", "Z4", "Z6", "D3", "D4", "D5", "Q8", "S3", "S4"]


# ---------------------------------------------------------------------------
# Loop references
# ---------------------------------------------------------------------------

def ref_group_from_table(t):
    """Identity, inverses and relabel, one element at a time.

    Returns (table, inverses) with the identity at 0, or raises the
    AxiomViolation for the first missing identity or inverse.
    """
    t = np.asarray(t, dtype=np.int64)
    n = len(t)
    idx = np.arange(n)
    identity = None
    for e in range(n):
        if np.array_equal(t[e], idx) and np.array_equal(t[:, e], idx):
            identity = e
            break
    if identity is None:
        raise AxiomViolation("identity", None, "no two-sided identity element")
    inverses = np.full(n, -1, dtype=np.int64)
    for a in range(n):
        for b in np.flatnonzero(t[a] == identity):
            if t[b, a] == identity:
                inverses[a] = b
                break
        if inverses[a] < 0:
            raise AxiomViolation("inverse", (a,))
    relabel = np.empty(n, dtype=np.int64)
    old_order = [identity] + [a for a in range(n) if a != identity]
    for new, old in enumerate(old_order):
        relabel[old] = new
    new_t = np.empty_like(t)
    for a in range(n):
        new_t[relabel[a], relabel] = relabel[t[a]]
    return new_t, relabel[inverses[np.argsort(relabel)]]


def ref_conj(t, inverses):
    n = len(t)
    conj = np.empty((n, n), dtype=np.int64)
    for a in range(n):
        for g in range(n):
            conj[a, g] = t[t[inverses[g], a], g]
    return conj


def ref_act(b, p, g):
    """The right action p * g, one point at a time: (m, h) * g = (m, h * g) with p = m * |G| + h."""
    m, h = divmod(p, b.group.order)
    return m * b.group.order + int(b.group.table[h, g])


def ref_eval(f, p):
    """f(p) one point at a time: f(m, g) = g^-1 * f(s(m)) * g."""
    m, g = divmod(p, f.bundle.group.order)
    return int(f.bundle.group.conj[f.section_values[m], g])


def ref_subgroup(G, elements):
    """The sorted elements, or the first failing axiom and its witness."""
    elems = sorted(set(elements))
    member = set(elems)
    if 0 not in member:
        return ("identity", None)
    for a in elems:
        if G.inverses[a] not in member:
            return ("inverse", (a,))
        for b in elems:
            if G.table[a, b] not in member:
                return ("closure", (a, b))
    return tuple(elems)


def lib_subgroup(G, elements):
    try:
        return groups.subgroup(G, elements).elements
    except AxiomViolation as exc:
        return (exc.axiom, exc.witness)


def ref_generated(G, generators):
    closure = {0}
    frontier = {0, *generators}
    while frontier:
        closure |= frontier
        frontier = {int(G.table[a, b]) for a in closure for b in closure} | {int(G.inverses[a]) for a in closure}
        frontier -= closure
    return tuple(sorted(closure))


def ref_normalizer(G, H):
    helems = set(H.elements)
    return tuple(g for g in range(G.order) if {int(G.conj[h, g]) for h in H.elements} == helems)


def ref_cosets(G, H, side):
    seen, blocks = set(), []
    for g in range(G.order):
        if g in seen:
            continue
        if side == "left":
            block = sorted(int(G.table[g, h]) for h in H.elements)
        else:
            block = sorted(int(G.table[h, g]) for h in H.elements)
        seen.update(block)
        blocks.append(tuple(block))
    return sorted(blocks, key=lambda b: b[0])


def ref_equivariance_witnesses(b, vals):
    G = b.group
    bad = []
    for p in range(b.total_size):
        for g in range(G.order):
            if vals[ref_act(b, p, g)] != G.conj[vals[p], g]:
                bad.append((p, g))
    return bad


def ref_morphism_witnesses(f, src, dst):
    return [
        (x, y)
        for x in range(src.size)
        for y in range(src.size)
        if f[src.op[x, y]] != dst.op[f[x], f[y]]
    ]


def ref_rack_iota(m):
    iota = np.empty(m.size, dtype=np.int64)
    for x in range(m.size):
        iota[x] = int(np.flatnonzero(m.op[:, x] == x)[0])
    return iota


def ref_generalized_alexander(G, s):
    t = G.table
    op = np.empty((G.order, G.order), dtype=np.int64)
    for g2 in range(G.order):
        op[:, g2] = t[s[t[:, G.inverses[g2]]], g2]
    return op


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

def relabel(t, perm):
    """The table with catalog element a renamed perm[a]."""
    perm = np.asarray(perm)
    new = np.empty_like(t)
    new[np.ix_(perm, perm)] = perm[t]
    return new


@st.composite
def relabeled_tables(draw, names=NAMES):
    t = groups.catalog(draw(st.sampled_from(names))).table
    n = len(t)
    perm = draw(st.permutations(range(n)))
    if n > 1 and perm[0] == 0:  # move the identity off index 0
        perm[0], perm[-1] = perm[-1], perm[0]
    return relabel(t, perm)


@st.composite
def relabeled_groups(draw, names=NAMES):
    return groups.group_from_table(draw(relabeled_tables(names)))


@st.composite
def groups_with_subsets(draw):
    G = draw(relabeled_groups())
    subset = draw(st.sets(st.integers(0, G.order - 1), max_size=G.order))
    return G, subset


@st.composite
def groups_with_subgroups(draw):
    G = draw(relabeled_groups())
    gens = draw(st.lists(st.integers(0, G.order - 1), max_size=2))
    return G, groups.generated_subgroup(G, gens)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(relabeled_tables())
def test_group_from_table_and_conj_match_loops(t):
    G = groups.group_from_table(t)
    table, inverses = ref_group_from_table(t)
    assert np.array_equal(G.table, table)
    assert np.array_equal(G.inverses, inverses)
    assert np.array_equal(G.conj, ref_conj(table, inverses))
    assert all(not arr.flags.writeable for arr in (G.table, G.inverses, G.conj))


@settings(max_examples=80, deadline=None)
@given(relabeled_tables(), st.data())
def test_group_from_table_failures_match_loops(t, data):
    # One corrupted entry, either anywhere or where a*b was the identity (so
    # that a loses its inverse); associativity is skipped so that the
    # identity and inverse checks see the broken table.
    n = len(t)
    e = int(np.flatnonzero((t == np.arange(n)).all(axis=1))[0])
    t = t.copy()
    a = data.draw(st.integers(0, n - 1))
    if data.draw(st.booleans()):
        b = int(np.flatnonzero(t[a] == e)[0])
        t[a, b] = (e + data.draw(st.integers(1, max(1, n - 1)))) % n
    else:
        b = data.draw(st.integers(0, n - 1))
        t[a, b] = data.draw(st.integers(0, n - 1))
    try:
        expected = ref_group_from_table(t)
    except AxiomViolation as exc:
        with pytest.raises(AxiomViolation) as got:
            groups.group_from_table(t, verify_associativity=False)
        assert (got.value.axiom, got.value.witness, str(got.value)) == (exc.axiom, exc.witness, str(exc))
        assert got.value.witness is None or all(type(w) is int for w in got.value.witness)
        return
    G = groups.group_from_table(t, verify_associativity=False)
    assert np.array_equal(G.table, expected[0]) and np.array_equal(G.inverses, expected[1])


@settings(max_examples=150, deadline=None)
@given(groups_with_subsets())
def test_subgroup_first_witness_matches_loop(case):
    G, subset = case
    got = lib_subgroup(G, subset)
    assert got == ref_subgroup(G, subset)
    if got and got[0] in ("inverse", "closure"):
        assert all(type(w) is int for w in got[1])


@settings(max_examples=80, deadline=None)
@given(relabeled_groups(), st.lists(st.integers(0, 23), max_size=3))
def test_generated_subgroup_matches_loop(G, gens):
    gens = [g % G.order for g in gens]
    assert groups.generated_subgroup(G, gens).elements == ref_generated(G, gens)


@settings(max_examples=80, deadline=None)
@given(groups_with_subgroups())
def test_normalizer_cosets_and_centralizer_match_loops(case):
    G, H = case
    assert groups.normalizer(H).elements == ref_normalizer(G, H)
    assert groups.is_normal(H) == (ref_normalizer(G, H) == tuple(range(G.order)))
    for side in ("left", "right"):
        assert groups.cosets(H, side) == ref_cosets(G, H, side)
    for g in range(G.order):
        assert groups.centralizes(g, H) == all(G.table[g, h] == G.table[h, g] for h in H.elements)


@settings(max_examples=60, deadline=None)
@given(relabeled_groups(["Z4", "D3", "D4", "Q8", "S3"]), st.integers(1, 2), st.data())
def test_equivariance_witnesses_match_loop(G, base, data):
    b = bundles.DiscreteBundle(G, base)
    values = data.draw(st.lists(st.integers(0, G.order - 1), min_size=base, max_size=base))
    vals = bundles.EquivariantMap(b, values).total_values()
    if data.draw(st.booleans()):  # break equivariance at one point
        p = data.draw(st.integers(0, b.total_size - 1))
        vals = vals.copy()
        vals[p] = data.draw(st.integers(0, G.order - 1))
    got = bundles.equivariance_witnesses(b, vals)
    assert got == ref_equivariance_witnesses(b, vals)
    assert all(type(p) is int and type(g) is int for p, g in got)


@settings(max_examples=60, deadline=None)
@given(relabeled_groups(), st.data())
def test_morphism_witnesses_match_loop(G, data):
    # An inner automorphism is an endomorphism of the conjugation quandle;
    # a random map is one only by chance.
    m = racks.conjugation_quandle(G)
    if data.draw(st.booleans()):
        f = G.inner_automorphism(data.draw(st.integers(0, G.order - 1))).tolist()
    else:
        f = data.draw(st.lists(st.integers(0, G.order - 1), min_size=G.order, max_size=G.order))
    got = racks.morphism_witnesses(f, m, m)
    assert got == ref_morphism_witnesses(f, m, m)
    assert all(type(x) is int and type(y) is int for x, y in got)


@settings(max_examples=60, deadline=None)
@given(relabeled_groups(["Z4", "D3", "D4", "Q8", "S3"]), st.integers(1, 2), st.data())
def test_rack_iota_matches_loop(G, base, data):
    b = bundles.DiscreteBundle(G, base)
    values = data.draw(st.lists(st.integers(0, G.order - 1), min_size=base, max_size=base))
    m = gauge.rack_from_map(bundles.EquivariantMap(b, values))
    assert np.array_equal(racks.rack_iota(m), ref_rack_iota(m))


@settings(max_examples=60, deadline=None)
@given(relabeled_groups(), st.data())
def test_generalized_alexander_matches_loop(G, data):
    c = data.draw(st.integers(0, G.order - 1))
    sigma = G.inner_automorphism(c)
    assert np.array_equal(racks.generalized_alexander(G, sigma).op, ref_generalized_alexander(G, sigma))
    assert np.array_equal(racks.conjugation_quandle(G).op, ref_conj(G.table, G.inverses))
