"""The array forms of the finite layers against their per-element loop forms.

Each reference below is the loop the library used before its tables became
array expressions: one element, pair or point at a time, in the order the
witnesses are reported. Hypothesis runs them against the library on catalog
groups relabeled by random permutations that move the identity off index 0,
on random element subsets, and on random total-value arrays. The catalog
tables are checked against products of the elements they stand for, and the
census against one isomorphism search per map on seeded relabelings, its
key-head buckets against fingerprinting every head, its witness check on
the augmented form against the full-table check it replaced,
find_isomorphism's starting colours against the tuple and dict colouring
they replaced, and verify_rack against the full n^3 scan on gauge,
rack and random tables, and its witness listing against the broadcast
spread it replaced. read_array is checked against a recursive walk of
the type of every entry before numpy reads the list. The CLI's --json
writer is checked against json.dumps(obj, indent=2), the call it replaced,
on generated JSON trees, and on trees holding integer arrays against
json.dumps of the same trees with each array as its tolist(), and on
arrays whose pad bytes are dense or sparse. The Lie closed forms are
checked against the forms they replaced: the SO3 and SU2 exponential
against Rodrigues' formula written with np.sinc and A @ A, the summed
complex product against numpy's @, a flow exp(tA) against exp and the
Taylor series of tA, and the einsum Frobenius norm against
np.linalg.norm. The sweep's shared evaluation plan is checked against
each check composed from its own op_t calls on the same draw, and the
one-call Noether sweep against its four-call form.
"""

import functools
import itertools
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gaugequandles import bundles, cli, gauge, groups, lie, racks
from gaugequandles.errors import AlgebraError, AxiomViolation, NonFinite, ShapeError, read_array
from conftest import every_map

NAMES = ["Z1", "Z2", "Z4", "Z6", "D3", "D4", "D5", "Q8", "S3", "S4"]


# ---------------------------------------------------------------------------
# Loop references
# ---------------------------------------------------------------------------

def ref_group_from_table(t):
    """Identity, associativity, inverses and relabel, one element at a time.

    Returns (table, inverses) with the identity at 0, or raises the
    AxiomViolation for the first missing identity, associative triple
    (a, b, c) in lexicographic order, or inverse, checked in that order.
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
    for a, b, c in itertools.product(range(n), repeat=3):
        if t[t[a, b], c] != t[a, t[b, c]]:
            raise AxiomViolation("associativity", (a, b, c))
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


def ref_table_from_elements(elements, compose):
    """The Cayley table of `elements` under `compose`, one pair at a time."""
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    t = np.empty((n, n), dtype=np.int64)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            t[i, j] = index[compose(a, b)]
    return t


def ref_compose_permutations(a, b):
    """(a*b)(i) = a(b(i)): apply b first, then a."""
    return tuple(a[b[i]] for i in range(len(a)))


# Quaternion units 1, i, j, k: u1 * u2 = sign * unit.
QUATERNION_RULES = {
    ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
    ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
    ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
    ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
    ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
}


def ref_catalog_table(name):
    """A catalog group's table from its elements, in catalog order.

    Z_n: residues k under addition mod n. D_n: r^k s^e as (k, e), rotations
    first, (k1, e1)(k2, e2) = (k1 + (-1)^e1 k2 mod n, e1 xor e2). S_n:
    permutations in lexicographic order. Q8: +1, -1, +i, -i, +j, -j, +k, -k.
    """
    kind, n = name[0], int(name[1:])
    if kind == "Z":
        return ref_table_from_elements(list(range(n)), lambda a, b: (a + b) % n)
    if kind == "D":
        def dihedral(x, y):
            (k1, e1), (k2, e2) = x, y
            return ((k1 - k2) % n if e1 else (k1 + k2) % n, e1 ^ e2)

        return ref_table_from_elements([(k, e) for e in (0, 1) for k in range(n)], dihedral)
    if kind == "S":
        return ref_table_from_elements(sorted(itertools.permutations(range(n))), ref_compose_permutations)

    def quaternion(x, y):
        (s1, u1), (s2, u2) = x, y
        s3, u3 = QUATERNION_RULES[(u1, u2)]
        return (s1 * s2 * s3, u3)

    return ref_table_from_elements([(s, u) for u in "1ijk" for s in (1, -1)], quaternion)


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


def ref_verify_rack(m):
    """The n^3 self-distributivity scan, one x at a time: every triple (x, y, z)
    in lexicographic order, with no grouping of equal columns. Bijectivity and
    idempotency are read off the whole table."""
    op = m.op
    n = m.size
    idx = np.arange(n)
    bij = tuple(int(y) for y in np.flatnonzero(~(np.sort(op, axis=0) == idx[:, None]).all(axis=0)))
    idem = tuple(int(x) for x in np.flatnonzero(np.diagonal(op) != idx))
    sd = []
    for x in range(n):
        lhs = op[op[x]]                 # [y, z] = (x <| y) <| z
        rhs = op[op[x][None, :], op]    # [y, z] = (x <| z) <| (y <| z)
        sd.extend((x, y, z) for y, z in np.argwhere(lhs != rhs).tolist())
    is_rack = not sd and not bij
    return racks.RackReport(
        is_rack=is_rack,
        is_quandle=is_rack and not idem,
        sd_violations=tuple(sd),
        bijectivity_violations=bij,
        idem_violations=idem,
        sd_violation_count=len(sd),
        bijectivity_violation_count=len(bij),
        idem_violation_count=len(idem),
    )


def uncut(ref):
    """A patch of racks.WITNESS_CAP to one above every count of the report ref,
    so that verify_rack lists every witness and all of them are compared."""
    counts = (ref.sd_violation_count, ref.bijectivity_violation_count, ref.idem_violation_count)
    return mock.patch.object(racks, "WITNESS_CAP", max(counts) + 1)


def plain_report(report):
    """A report's fields as Python values, the witnesses as nested lists of ints.

    verify_rack stores its witnesses as arrays and ref_verify_rack as tuples;
    both sides go through this before they are compared.
    """
    return {name: np.asarray(v).tolist() for name, v in vars(report).items()}


def ref_sd_witnesses(composites, k, ys, zs, cls, op, narrow):
    """_sd_witnesses with the rows of each chunk spread from its [x, pair]
    failure mask, a transposed view, by one repeat for x and two boolean
    gathers of broadcast ys and zs over the whole x by pair grid."""
    if not len(ys):
        return np.empty((0, 3), dtype=np.intp), 0
    n = len(op)
    left = cls[zs] * k + cls[ys]
    right = cls[op[ys, zs]] * k + cls[zs]
    total = kept = 0
    blocks = []
    for start, stop in racks._chunks(n, k * k + len(ys)):
        T = composites(start, stop)
        b = (T.take(left, axis=0) != T.take(right, axis=0)).T  # [i, p]: pair p fails at x = start + i
        count = int(np.count_nonzero(b))
        total += count
        if not count or kept == racks.WITNESS_CAP:
            continue
        per_x = np.count_nonzero(b, axis=1)
        rows = int(np.searchsorted(per_x.cumsum(), racks.WITNESS_CAP - kept)) + 1
        b, per_x = b[:rows], per_x[:rows]
        block = np.empty((int(per_x.sum()), 3), dtype=narrow)
        block[:, 0] = np.repeat(np.arange(start, start + len(b), dtype=narrow), per_x)
        block[:, 1] = np.broadcast_to(ys, b.shape)[b]
        block[:, 2] = np.broadcast_to(zs, b.shape)[b]
        blocks.append(block[:racks.WITNESS_CAP - kept])
        kept += len(blocks[-1])
    sd = np.concatenate(blocks, dtype=np.intp) if blocks else np.empty((0, 3), dtype=np.intp)
    return sd, total


def json_text(obj):
    """The --json text of obj: the join of cli._stream_json's chunks."""
    chunks = []
    cli._stream_json(obj, [chunks.append])
    return "".join(chunks)


def ref_listed(v):
    """v with each 1-D or 2-D array of non-negative ints in a str-keyed dict, list or tuple made its tolist().

    The --json writer writes those arrays as their lists; an array anywhere
    else is left for json.dumps to reject.
    """
    if type(v) is np.ndarray and v.dtype.kind in "iu" and v.ndim in (1, 2) and (v >= 0).all():
        return v.tolist()
    if type(v) is dict and all(type(k) is str for k in v):
        return {k: ref_listed(x) for k, x in v.items()}
    if type(v) in (list, tuple):
        return [ref_listed(x) for x in v]
    return v


def ref_holds_bool(values):
    """Whether nested lists and tuples hold a bool or a bool array at any depth, one entry at a time, depth first."""
    for v in values:
        if isinstance(v, (list, tuple)):
            if ref_holds_bool(v):
                return True
        elif isinstance(v, (bool, np.bool_)) or isinstance(v, np.ndarray) and v.dtype == bool:
            return True
    return False


def ref_read_array(values, what):
    """read_array with the type of every entry of a list walked before np.asarray reads it."""
    if isinstance(values, (list, tuple)) and ref_holds_bool(values):
        raise ShapeError(f"{what} must be integers, got a bool")
    try:
        return np.asarray(values)
    except ValueError as err:
        got = "nesting past numpy's dimension limit" if "maximum number of dimension" in str(err) else "ragged rows"
        raise ShapeError(f"{what} must form a rectangular array, got {got}") from None


def ref_isomorphism_census(b):
    """One search per map: each table against every earlier class
    representative with the same sorted invariants, in enumeration order."""
    buckets = {}
    classes = []
    for f in every_map(b):
        q = gauge.build(f)
        inv = racks.element_invariants(q.table.op[None])[0]
        bucket = buckets.setdefault(tuple(sorted(map(tuple, inv.tolist()))), [])
        for rep, members in bucket:
            if racks.find_isomorphism(q.table, rep.table) is not None:
                break
        else:
            members = []
            bucket.append((q, members))
            classes.append(members)
        members.append(f.section_values)
    return [tuple(members) for members in classes]


def ref_invariant_buckets(b, heads):
    """bucket[i]: a number shared by exactly the rows of heads whose tables
    have equal sorted element invariants, numbered in order of their first
    head: every head's table gathered from the augmented form and
    fingerprinted, in chunks of at most _CHUNK_ELEMENTS entries, before the
    census split the heads by their fiber sizes."""
    n = b.total_size
    seen = {}
    bucket = []
    for start, stop in racks._chunks(len(heads), n * n):
        aug, f = gauge._augmented(b, heads[start:stop])
        inv = racks.element_invariants(np.take_along_axis(aug, f[:, None, :], axis=2))
        order = np.argsort(racks._row_ids(inv.reshape(-1, inv.shape[2])).reshape(len(f), n), axis=1, kind="stable")
        for rows in np.take_along_axis(inv, order[..., None], axis=1):
            bucket.append(seen.setdefault(rows.tobytes(), len(seen)))
    return np.array(bucket, dtype=np.int64)


def ref_initial_colours(a, b):
    """find_isomorphism's starting colours as tuples: each table's
    element_invariants rows as int tuples, None when the sorted tuples of the
    two tables differ, else each tuple's index among the sorted distinct ones
    through a dict, stacked (2, n)."""
    inv_a, inv_b = ([tuple(row) for row in racks.element_invariants(m.op[None])[0].tolist()] for m in (a, b))
    if sorted(inv_a) != sorted(inv_b):
        return None
    ids = {v: i for i, v in enumerate(sorted(set(inv_a)))}
    return np.array([[ids[v] for v in inv_a], [ids[v] for v in inv_b]])


def ref_member_tables(b, values):
    """The gauge tables of the maps with section values values[i], stacked (r, |P|, |P|).

    build's formula act[phi_f^-1(p1), f(p2)], with phi_f^-1(p) = p * f^-1(p),
    for every row at once: the full tables the census checked its witnesses
    on before it read the augmented form.
    """
    G = b.group
    act = b.action_table()
    r, n = len(values), b.total_size
    fvals = G.conj[values].reshape(r, n)  # f(p), in total_values order
    phi_inv = act[np.arange(n), G.conj[G.inverses[values]].reshape(r, n)]
    return act[phi_inv[:, :, None], fvals[:, None, :]]


def ref_witnesses_hold(phi, tables, target):
    """Whether each phi[i] is a permutation and a morphism from tables[i] onto target, on all |P|^2 entries."""
    images = np.take_along_axis(phi, tables.reshape(len(phi), -1), axis=1)  # phi(x <| y)
    products = target.op[phi[:, :, None], phi[:, None, :]].reshape(len(phi), -1)  # phi(x) <| phi(y)
    return (np.sort(phi, axis=1) == np.arange(target.size)).all(axis=1) & (images == products).all(axis=1)


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
def corrupted_tables(draw, tables=relabeled_tables()):
    """A relabeled catalog table (or one drawn from tables) with one entry
    changed, either anywhere or where a*b was the identity, so that a loses
    its inverse."""
    t = draw(tables).copy()
    n = len(t)
    e = int(np.flatnonzero((t == np.arange(n)).all(axis=1))[0])
    a = draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        b = int(np.flatnonzero(t[a] == e)[0])
        t[a, b] = (e + draw(st.integers(1, max(1, n - 1)))) % n
    else:
        b = draw(st.integers(0, n - 1))
        t[a, b] = draw(st.integers(0, n - 1))
    return t


@st.composite
def relabeled_monoids(draw):
    """a*b mod n for n >= 2, relabeled: associative with identity 1, but 0 has no inverse."""
    n = draw(st.integers(2, 12))
    idx = np.arange(n)
    return relabel(idx[:, None] * idx[None, :] % n, draw(st.permutations(range(n))))


def _gauge_inputs(draw, names):
    G = draw(relabeled_groups(names))
    base = draw(st.integers(1, 2))
    values = draw(st.lists(st.integers(0, G.order - 1), min_size=base, max_size=base))
    return bundles.EquivariantMap(bundles.DiscreteBundle(G, base), values)


@st.composite
def swapped_gauge_tables(draw):
    """A gauge quandle over a relabeled group, its points relabeled too, with up to three pairs of entries swapped."""
    f = _gauge_inputs(draw, ["Z4", "D3", "D4", "Q8", "S3", "S4"])
    op = relabel(gauge.build(f).table.op, draw(st.permutations(range(f.bundle.total_size)))).ravel()
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.integers(0, op.size - 1)), draw(st.integers(0, op.size - 1))
        op[a], op[b] = op[b], op[a]
    return op.reshape(f.bundle.total_size, -1)


@st.composite
def repeated_column_tables(draw):
    """An n x n table whose columns are drawn from at most four random columns."""
    n = draw(st.integers(1, 16))
    column = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    cols = draw(st.lists(column, min_size=1, max_size=4))
    return np.array(cols)[draw(st.lists(st.integers(0, len(cols) - 1), min_size=n, max_size=n))].T


@st.composite
def augmented_rack_tables(draw):
    return gauge.rack_from_map(_gauge_inputs(draw, ["Z4", "D3", "D4", "Q8", "S3"])).op


@st.composite
def random_tables(draw):
    n = draw(st.integers(1, 9))
    row = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    return np.array(draw(st.lists(row, min_size=n, max_size=n)))


@st.composite
def table_pairs(draw):
    """Two tables of one size: a gauge table with a relabeled copy of itself
    or of another map's table on its bundle, or a random table with a
    relabeled copy of itself or another random table; half the time the
    second has one entry changed, so the invariant multisets may differ."""
    if draw(st.booleans()):
        f = _gauge_inputs(draw, ["Z4", "D3", "D4", "Q8", "S3"])
        a = gauge.build(f).table.op
        values = draw(st.lists(st.integers(0, f.bundle.group.order - 1), min_size=f.bundle.base_size,
                               max_size=f.bundle.base_size))
        other = gauge.build(bundles.EquivariantMap(f.bundle, values)).table.op
    else:
        a = draw(random_tables())
        other = np.array(draw(st.lists(st.lists(st.integers(0, len(a) - 1), min_size=len(a), max_size=len(a)),
                                        min_size=len(a), max_size=len(a))))
    n = len(a)
    b = relabel(a if draw(st.booleans()) else other, draw(st.permutations(range(n))))
    if draw(st.booleans()):
        b[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(st.integers(0, n - 1))
    return racks.magma_from_table(a), racks.magma_from_table(b)


# Leaves whose text json.dumps decides: ints past 64 bits, negative ints,
# bools, None, special floats, and strings with quotes, backslashes,
# control characters and non-ASCII; numpy integers, which it rejects.
JSON_INTS = st.integers(-(2**80), 2**80)
JSON_STRINGS = st.text(st.sampled_from('a"\\/\x00\x1f\n\t\x7fé€\u2028😀'), max_size=4) | st.text(max_size=4)
JSON_LEAVES = st.one_of(
    JSON_INTS,
    st.booleans(),
    st.none(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e-300]),
    st.floats(),
    JSON_STRINGS,
    JSON_INTS.filter(lambda v: -(2**63) <= v < 2**63).map(np.int64),
)
# Int cells with now and then a bool or a numpy integer among them.
INT_CELLS = st.one_of(JSON_INTS, JSON_INTS, JSON_INTS, st.booleans(), st.integers(0, 9).map(np.int64))


def _lists_or_tuples(elements, **kw):
    return st.one_of(st.lists(elements, **kw), st.lists(elements, **kw).map(tuple))


@st.composite
def int_rows(draw):
    """Equal-length int rows (tables, witness triples), ragged rows, or empty rows."""
    width = draw(st.integers(0, 4))
    cells = INT_CELLS if draw(st.booleans()) else JSON_INTS
    equal = _lists_or_tuples(_lists_or_tuples(cells, min_size=width, max_size=width), max_size=5)
    return draw(st.one_of(equal, _lists_or_tuples(_lists_or_tuples(cells, max_size=4), max_size=5)))


JSON_TREES = st.recursive(
    st.one_of(JSON_LEAVES, _lists_or_tuples(JSON_INTS), _lists_or_tuples(INT_CELLS), int_rows()),
    lambda children: st.one_of(
        _lists_or_tuples(children, max_size=4),
        st.dictionaries(JSON_STRINGS, children, max_size=4),
        st.dictionaries(st.one_of(JSON_STRINGS, JSON_INTS, st.booleans(), st.none()), children, max_size=3),
    ),
    max_leaves=20,
)


# Array values at the digit-width edges, up to and past the writer's digit table.
ARRAY_EDGES = [0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10**4, 10**7 - 1, 10**7,
               cli._DIGIT_TABLE_CAP - 1, cli._DIGIT_TABLE_CAP, 2**63 - 1, 2**64 - 1]


def _array_shapes(max_rows=12):
    return st.one_of(st.tuples(st.integers(0, max_rows)), st.tuples(st.integers(0, max_rows), st.integers(0, 4)))


@st.composite
def int_arrays(draw):
    """A 1-D or 2-D array of non-negative ints in one of five dtypes; empty and (N, 0) shapes included."""
    dtype = np.dtype(draw(st.sampled_from(["int64", "int32", "uint8", "uint16", "uint64"])))
    shape = draw(_array_shapes())
    top = int(np.iinfo(dtype).max)
    value = st.one_of(st.sampled_from([v for v in ARRAY_EDGES if v <= top]), st.integers(0, min(top, 2000)))
    values = draw(st.lists(value, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.array(values, dtype=dtype).reshape(shape)


@st.composite
def other_arrays(draw):
    """Arrays json.dumps rejects and the int-array writer must not take: bool, float, negative or not 1-D/2-D."""
    other_ndims = st.one_of(st.just(()), st.tuples(*[st.integers(0, 3)] * 3))
    kind = draw(st.sampled_from(["bool", "float", "negative", "int"]))
    if kind == "negative":
        shape = draw(st.one_of(st.tuples(st.integers(1, 6)), st.tuples(st.integers(1, 6), st.integers(1, 4))))
    else:
        shape = draw(other_ndims if kind == "int" else st.one_of(_array_shapes(6), other_ndims))
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, 20, shape)
    if kind == "negative":
        values.flat[draw(st.integers(0, values.size - 1))] = -1
    return values > 9 if kind == "bool" else values.astype(float) if kind == "float" else values


@st.composite
def nested(draw, leaf):
    """leaf in a dict of a list, depth 0 to 3, beside a scalar now and then, with the same nesting of leaf.tolist()."""
    obj, plain = leaf, leaf.tolist()
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            obj, plain = {"k": [obj]}, {"k": [plain]}
        else:
            obj, plain = {"n": 1, "k": [obj, "s"]}, {"n": 1, "k": [plain, "s"]}
    return obj, plain


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


@st.composite
def head_stacks(draw):
    """A bundle over a relabeled group and a stack of one to eight section-value rows, some of them repeated."""
    G = draw(relabeled_groups(["S3", "D4", "Q8", "S4", "D5", "D6", "Z4"]))
    base = draw(st.integers(1, 3))
    row = st.lists(st.integers(0, G.order - 1), min_size=base, max_size=base)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), rows[draw(st.integers(0, len(rows) - 1))])
    return bundles.DiscreteBundle(G, base), np.array(rows, dtype=np.int64)


# Entries that numpy reads as 0 or 1 from a bool, often enough that an
# integer result hides one; small ints, so that most tables read as ints;
# ints past int64, which numpy reads as objects or floats; and floats.
BOOL_ENTRIES = st.one_of(
    st.booleans(),
    st.booleans().map(np.bool_),
    st.booleans().map(np.array),
    st.lists(st.booleans(), min_size=1, max_size=2).map(np.array),
)
READ_ENTRIES = st.one_of(
    st.integers(-2, 3), st.integers(-2, 3), st.integers(0, 1), st.integers(-2, 3).map(np.int64),
    BOOL_ENTRIES, st.integers(2**63, 2**64), st.sampled_from([0.0, 1.0, 2.5]),
)


@st.composite
def read_inputs(draw):
    """Nested lists and tuples of 1 to 3 levels, mostly rectangular, of
    READ_ENTRIES or now and then an innermost row that is a bool or int
    array; one row in eight is one entry short, so the nesting is ragged."""
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    mostly_ints = draw(st.booleans())

    def level(depth):
        size = shape[depth] - (draw(st.integers(0, 7)) == 0 and shape[depth] > 1)
        if depth == len(shape) - 1:
            if draw(st.integers(0, 5)) == 0:
                return np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)),
                                dtype=draw(st.sampled_from([bool, np.int64])))
            entry = st.integers(2, 9) if mostly_ints and draw(st.booleans()) else READ_ENTRIES
            row = draw(st.lists(entry, min_size=size, max_size=size))
        else:
            row = [level(depth + 1) for _ in range(size)]
        return tuple(row) if draw(st.booleans()) else row

    return level(0)


@st.composite
def pad_arrays(draw):
    """A non-empty 1-D or 2-D array of values from 100 to 999, whose zero
    bytes are dense, or from 0 to 9, which have none, in a dict of a list at
    depth 0 or 1, with the same nesting of its tolist()."""
    wide = draw(st.booleans())
    shape = draw(st.one_of(st.tuples(st.integers(1, 12)), st.tuples(st.integers(1, 12), st.integers(1, 4))))
    values = st.integers(100, 999) if wide else st.integers(0, 9)
    a = np.array(draw(st.lists(values, min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))),
                 dtype=draw(st.sampled_from(["int64", "uint16", "int32"]))).reshape(shape)
    obj, plain = (a, a.tolist()) if draw(st.booleans()) else ({"k": [a]}, {"k": [a.tolist()]})
    return wide, obj, plain


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


@settings(max_examples=120, deadline=None)
# Catalog tables keep the identity at 0, so a*b*c associates for a = 0 and
# a triple that fails has a > 0: past the first block of one row.
@given(st.one_of(corrupted_tables(), relabeled_monoids(),
                 corrupted_tables(st.sampled_from(NAMES).map(lambda name: groups.catalog(name).table))))
def test_group_from_table_failures_match_loops(t):
    try:
        expected = ref_group_from_table(t)
    except AxiomViolation as exc:
        expected = exc
    # The whole table in one block of rows, then one row a block, so that a
    # failing triple can lie past the first block.
    for chunk in (groups._ASSOCIATIVITY_CHUNK_ELEMENTS, 1):
        with mock.patch.object(groups, "_ASSOCIATIVITY_CHUNK_ELEMENTS", chunk):
            if isinstance(expected, AxiomViolation):
                with pytest.raises(AxiomViolation) as got:
                    groups.group_from_table(t)
                assert (got.value.axiom, got.value.witness, str(got.value)) == \
                    (expected.axiom, expected.witness, str(expected))
                assert got.value.witness is None or all(type(w) is int for w in got.value.witness)
            else:
                G = groups.group_from_table(t)
                assert np.array_equal(G.table, expected[0]) and np.array_equal(G.inverses, expected[1])


@pytest.mark.parametrize("name", groups.catalog_names())
def test_catalog_table_matches_element_loop(name):
    assert np.array_equal(groups.catalog(name).table, ref_catalog_table(name))


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
    # A map's total values have no witness. With a value changed at one
    # point p the loop lists the pairs of the array form, each at p or moved
    # onto p.
    b = bundles.DiscreteBundle(G, base)
    values = data.draw(st.lists(st.integers(0, G.order - 1), min_size=base, max_size=base))
    vals = bundles.EquivariantMap(b, values).total_values()
    assert ref_equivariance_witnesses(b, vals) == []
    p = data.draw(st.integers(0, b.total_size - 1))
    vals = vals.copy()
    vals[p] = data.draw(st.integers(0, G.order - 1))
    got = ref_equivariance_witnesses(b, vals)
    act = b.action_table()
    assert got == list(map(tuple, np.argwhere(vals[act] != G.conj[vals]).tolist()))
    assert all(p in (q, act[q, g]) for q, g in got)


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
    assert racks.is_morphism(f, m, m) is (not ref_morphism_witnesses(f, m, m))


@settings(max_examples=100, deadline=None)
@given(st.one_of(random_tables(), swapped_gauge_tables()), st.data())
def test_is_morphism_agrees_with_the_witness_list(op, data):
    # The identity onto the table itself is a morphism, and onto a copy with
    # one entry changed fails at that pair alone; a constant map is one
    # exactly when its value is idempotent in the target; a random map onto
    # a random target is one only by chance.
    src = racks.magma_from_table(op)
    kind = data.draw(st.sampled_from(["identity", "one entry changed", "constant", "random"]))
    if kind == "identity":
        dst, f = src, list(range(src.size))
    elif kind == "one entry changed":
        changed = op.copy()
        x, y = data.draw(st.integers(0, src.size - 1)), data.draw(st.integers(0, src.size - 1))
        changed[x, y] = data.draw(st.integers(0, src.size - 1))
        dst, f = racks.magma_from_table(changed), list(range(src.size))
    else:
        dst = racks.magma_from_table(data.draw(random_tables()))
        value = st.integers(0, dst.size - 1)
        f = [data.draw(value)] * src.size if kind == "constant" else data.draw(
            st.lists(value, min_size=src.size, max_size=src.size))
    assert racks.is_morphism(f, src, dst) is (not ref_morphism_witnesses(f, src, dst))


@settings(max_examples=60, deadline=None)
@given(relabeled_groups(["Z4", "D3", "D4", "Q8", "S3"]), st.integers(1, 2), st.data())
def test_rack_iota_matches_loop(G, base, data):
    b = bundles.DiscreteBundle(G, base)
    values = data.draw(st.lists(st.integers(0, G.order - 1), min_size=base, max_size=base))
    m = gauge.rack_from_map(bundles.EquivariantMap(b, values))
    assert np.array_equal(racks.rack_iota(m), ref_rack_iota(m))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(swapped_gauge_tables(), repeated_column_tables(), augmented_rack_tables(), random_tables()),
    st.sampled_from([1, 50, 400, racks._CHUNK_ELEMENTS]),
)
def test_verify_rack_matches_the_full_scan(op, chunk_elements):
    m = racks.magma_from_table(op)
    ref = ref_verify_rack(m)
    with mock.patch.object(racks, "_CHUNK_ELEMENTS", chunk_elements), uncut(ref):
        got = racks.verify_rack(m)
    assert plain_report(got) == plain_report(ref)
    assert got.sd_violations.shape == (len(ref.sd_violations), 3)
    for witnesses in (got.sd_violations, got.bijectivity_violations, got.idem_violations):
        assert witnesses.dtype.kind in "iu" and not witnesses.flags.writeable
    assert json_text(got.to_json()) == json.dumps(ref.to_json(), indent=2)


def test_verify_rack_tells_apart_columns_that_agree_mod_256():
    # The trivial quandle on 257 elements with 0 <| 1 = 256: column 1 agrees
    # with the others modulo 256, so grouping columns by a byte would merge it.
    op = np.broadcast_to(np.arange(257)[:, None], (257, 257)).copy()
    op[0, 1] = 256
    m = racks.magma_from_table(op)
    ref = ref_verify_rack(m)
    with uncut(ref):
        got = racks.verify_rack(m)
    assert got.bijectivity_violations.tolist() == [1] and plain_report(got) == plain_report(ref)


def assert_witness_arrays(report, n):
    """Witnesses are read-only intp arrays and the sd triples come in strict (x, y, z) order."""
    for witnesses in (report.sd_violations, report.bijectivity_violations, report.idem_violations):
        assert witnesses.dtype == np.intp and not witnesses.flags.writeable
    x, y, z = report.sd_violations.T
    assert (np.diff((x * n + y) * n + z) > 0).all()


def boundary_table(n):
    """The dihedral quandle x <| y = 2y - x mod n with rows n - 2 and n - 1 of
    column n - 1 swapped, so that column reads n - 1 and 0 there.

    Its columns all differ for odd n and pair up for even n but the swapped
    one, so n = 255 and 257 scan every pair of columns and n = 256, with 129
    distinct columns, is decided on its 256 x 129 grid through the composite
    ids."""
    idx = np.arange(n)
    op = (2 * idx[None, :] - idx[:, None]) % n
    op[[n - 2, n - 1], n - 1] = op[[n - 1, n - 2], n - 1]
    return op


@pytest.mark.parametrize("n", [255, 256, 257])
def test_verify_rack_at_the_narrow_dtype_boundary(n):
    # uint8 holds the elements up to n = 256; at 257 a wrapped entry would read the wrong row.
    m = racks.magma_from_table(boundary_table(n))
    ref = ref_verify_rack(m)
    with uncut(ref):
        got = racks.verify_rack(m)
    assert plain_report(got) == plain_report(ref)
    assert (got.sd_violations == n - 1).any()
    assert_witness_arrays(got, n)


def seeded_tables():
    """Each table with its count of distinct columns: a swapped S4x6 gauge
    table (144 points, 24 distinct columns before three swaps split some), a
    random table whose columns all differ and one with n - 1 distinct columns."""
    rng = np.random.default_rng(7)
    b = bundles.DiscreteBundle(groups.catalog("S4"), 6)
    swapped = gauge.build(bundles.EquivariantMap(b, rng.integers(0, 24, 6).tolist())).table.op.flatten()
    for _ in range(3):
        i, j = rng.integers(0, swapped.size, 2)
        swapped[[i, j]] = swapped[[j, i]]
    distinct = rng.integers(0, 12, (12, 12))
    one_repeat = distinct.copy()
    one_repeat[:, 11] = one_repeat[:, 3]
    return {"swapped S4x6": (swapped.reshape(144, 144), 29), "distinct": (distinct, 12), "one repeat": (one_repeat, 11)}


@pytest.mark.parametrize("chunk_elements", [1, 50, racks._CHUNK_ELEMENTS])
@pytest.mark.parametrize("name", ["swapped S4x6", "distinct", "one repeat"])
def test_verify_rack_with_repeated_and_distinct_columns(name, chunk_elements):
    op, distinct_columns = seeded_tables()[name]
    n = len(op)
    m = racks.magma_from_table(op)
    assert np.unique(op, axis=1).shape[1] == distinct_columns
    ref = ref_verify_rack(m)
    with mock.patch.object(racks, "_CHUNK_ELEMENTS", chunk_elements), uncut(ref):
        got = racks.verify_rack(m)
    assert len(got.sd_violations)
    assert plain_report(got) == plain_report(ref)
    assert_witness_arrays(got, n)


@settings(max_examples=60, deadline=None)
@given(relabeled_groups(), st.data())
def test_generalized_alexander_matches_loop(G, data):
    c = data.draw(st.integers(0, G.order - 1))
    sigma = G.inner_automorphism(c)
    assert np.array_equal(racks.generalized_alexander(G, sigma).op, ref_generalized_alexander(G, sigma))
    assert np.array_equal(racks.conjugation_quandle(G).op, ref_conj(G.table, G.inverses))


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize(
    "name, base",
    [("S3", 2), ("S3", 3), ("D4", 2), ("Q8", 2), ("Z4", 3), ("Z6", 2), ("D6", 2), ("S4", 1)],
)
def test_isomorphism_census_matches_per_map_search(name, base, seed):
    t = groups.catalog(name).table
    G = groups.group_from_table(relabel(t, np.random.default_rng(seed).permutation(len(t))))
    b = bundles.DiscreteBundle(G, base)
    assert gauge.isomorphism_census(b) == ref_isomorphism_census(b)


@pytest.mark.parametrize("chunk_elements", [1, 10**9])
@pytest.mark.parametrize("name, base", [("S3", 3), ("D4", 2), ("Q8", 2)])
def test_isomorphism_census_matches_per_map_search_in_any_chunking(name, base, chunk_elements):
    # A budget of 1 puts one map in each chunk, 10**9 every map in one.
    t = groups.catalog(name).table
    G = groups.group_from_table(relabel(t, np.random.default_rng(7).permutation(len(t))))
    b = bundles.DiscreteBundle(G, base)
    with mock.patch.object(racks, "_CHUNK_ELEMENTS", chunk_elements):
        assert gauge.isomorphism_census(b) == ref_isomorphism_census(b)


@settings(max_examples=150, deadline=None)
@given(head_stacks(), st.sampled_from([1, 500, racks._CHUNK_ELEMENTS]))
def test_invariant_buckets_match_fingerprinting_every_head(stack, chunk_elements):
    b, heads = stack
    with mock.patch.object(racks, "_CHUNK_ELEMENTS", chunk_elements):
        assert np.array_equal(gauge._invariant_buckets(b, heads), ref_invariant_buckets(b, heads))


@settings(max_examples=100, deadline=None)
@given(head_stacks())
def test_fiber_sizes_are_read_off_the_fixed_points_of_the_table(stack):
    # Column y of a gauge table fixes the points of its fiber, so each
    # fiber of size c gives c columns that fix c points each.
    b, heads = stack
    sizes = gauge._fiber_sizes(b, heads)
    assert sizes.shape == (len(heads), b.group.order)
    for row, head in zip(sizes, heads):
        op = gauge.build(bundles.EquivariantMap(b, head)).table.op
        fixed = (op == np.arange(b.total_size)[:, None]).sum(axis=0)
        assert np.array_equal(np.repeat(row, row), np.sort(fixed))


def ref_automorphisms(G):
    """Every permutation of G that fixes e and is a homomorphism, one permutation at a time."""
    found = []
    for rest in itertools.permutations(range(1, G.order)):
        alpha = np.array((0, *rest))
        if (alpha[G.table] == G.table[np.ix_(alpha, alpha)]).all():
            found.append(alpha.tolist())
    return found


def elementary_abelian_table(k):
    """Z2^k as the xor table on 0..2^k - 1."""
    idx = np.arange(2**k)
    return idx[:, None] ^ idx


AUT_TABLES = {
    **{name: groups.catalog(name).table for name in ("Z4", "Z6", "Z8", "S3", "D4", "Q8")},
    **{f"Z2^{k}": elementary_abelian_table(k) for k in (2, 3, 4)},
}


@pytest.mark.parametrize("name", ["Z4", "Z6", "Z8", "S3", "D4", "Q8", "Z2^2", "Z2^3"])
def test_automorphisms_match_every_permutation_checked(name):
    G = groups.group_from_table(relabel(AUT_TABLES[name], np.random.default_rng(4).permutation(len(AUT_TABLES[name]))))
    got = gauge._automorphisms(G, gauge._class_conjugators(G)[0])
    assert sorted(got.tolist()) == ref_automorphisms(G)


@pytest.mark.parametrize(
    "name, base",
    [("D4", 1), ("D4", 3), ("Q8", 1), ("Q8", 3), ("Z4", 2), ("Z2^2", 1), ("Z2^2", 3), ("Z2^3", 2), ("Z2^3", 3),
     ("Z2^4", 1), ("Z2^4", 2)],
)
def test_isomorphism_census_with_automorphisms_matches_per_map_search(name, base):
    # The Z2^k groups have large Aut(G); Z2^4's candidates exceed the node
    # budget, so its keys merge by search alone.
    t = AUT_TABLES[name]
    G = groups.group_from_table(relabel(t, np.random.default_rng(5).permutation(len(t))))
    b = bundles.DiscreteBundle(G, base)
    assert gauge.isomorphism_census(b) == ref_isomorphism_census(b)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([256, 65536, 2**40]), st.data())
def test_row_ids_number_rows_as_unique_along_axis_0(floor, data):
    # Entries a * floor + c tie in their low bytes and differ in higher ones,
    # so only a byte order that reads the high bytes first numbers them right.
    shape = (data.draw(st.integers(1, 30)), data.draw(st.integers(1, 5)))
    high = data.draw(hnp.arrays(np.int64, shape, elements=st.integers(0, 3)))
    low = data.draw(hnp.arrays(np.int64, shape, elements=st.integers(0, 2)))
    sig = high * floor + low
    assert np.array_equal(racks._row_ids(sig), np.unique(sig, axis=0, return_inverse=True)[1].ravel())


@settings(max_examples=300, deadline=None)
@given(table_pairs())
def test_initial_colours_match_the_tuple_colouring(pair):
    # Equal colours, or both refuse the pair; so the search started from the
    # tuple colouring returns the same witness, or None.
    a, b = pair
    got, ref = racks._initial_colours(a, b), ref_initial_colours(a, b)
    assert (got is None) == (ref is None)
    assert ref is None or np.array_equal(got, ref)
    found = racks.find_isomorphism(a, b)
    with mock.patch.object(racks, "_initial_colours", ref_initial_colours):
        assert racks.find_isomorphism(a, b) == found


@pytest.mark.parametrize("name, base", [("S3", 2), ("D4", 2), ("Q8", 2), ("Z1", 300)])
def test_member_tables_are_the_built_tables(name, base):
    # The augmented form gathers the same tables: aug[i][:, f[i]]. Z1x300
    # has more points than uint8 holds.
    b = bundles.DiscreteBundle(groups.catalog(name), base)
    maps = every_map(b)
    tables = ref_member_tables(b, bundles.enumerate_maps(b))
    assert tables.shape == (len(maps), b.total_size, b.total_size)
    for f, op in zip(maps, tables):
        assert np.array_equal(op, gauge.build(f).table.op)
    aug, fvals = gauge._augmented(b, bundles.enumerate_maps(b))
    assert np.array_equal(np.take_along_axis(aug, fvals[:, None, :], axis=2), tables)


@functools.lru_cache(maxsize=None)
def census_witnesses(name, base, seed):
    """The bundle, and each witness its census checks with its source and target section values.

    seed None is the catalog group, and an int a relabeling of it. The
    witnesses are recorded from _check_witnesses during one census, so they
    include the orbit witnesses composed with member witnesses.
    """
    t = groups.catalog(name).table
    G = groups.group_from_table(t if seed is None else relabel(t, np.random.default_rng(seed).permutation(len(t))))
    b = bundles.DiscreteBundle(G, base)
    recorded = []
    check = gauge._check_witnesses

    def recording(b, phi, values, target, rows, heads):
        recorded.append((phi, values, heads[rows]))
        check(b, phi, values, target, rows, heads)

    with mock.patch.object(gauge, "_check_witnesses", recording):
        gauge.isomorphism_census(b)
    return (b, *map(np.concatenate, zip(*recorded)))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([("S3", 2), ("D4", 2), ("Q8", 2), ("S4", 1)]),
    st.sampled_from([None, 0, 1]),
    st.sampled_from(["census", "swapped", "random"]),
    st.data(),
)
def test_augmented_witness_check_matches_the_full_table_check(bundle, seed, kind, data):
    # The census's own witnesses, the same with two points swapped, and
    # random permutations, each against the verified table of its target.
    b, phis, sources, heads = census_witnesses(*bundle, seed)
    i = data.draw(st.integers(0, len(phis) - 1))
    phi = phis[i].copy()
    if kind == "swapped":
        p, q = data.draw(st.lists(st.integers(0, b.total_size - 1), min_size=2, max_size=2, unique=True))
        phi[[p, q]] = phi[[q, p]]
    elif kind == "random":
        phi = np.array(data.draw(st.permutations(range(b.total_size))))
    source, head = sources[i:i + 1], heads[i:i + 1]
    target = gauge.build(bundles.EquivariantMap(b, head[0])).table
    expected = ref_witnesses_hold(phi[None], ref_member_tables(b, source), target)[0]
    try:
        gauge._check_witnesses(b, phi[None], source, gauge._augmented(b, head), np.zeros(1, dtype=np.int64), head)
        accepted = True
    except AlgebraError:
        accepted = False
    assert accepted == expected
    assert accepted or kind != "census"


def _read_outcome(read, values):
    """What read(values, ...) gives: the array's dtype, shape and entries, or the ShapeError's text."""
    try:
        arr = read(values, "entries")
    except ShapeError as err:
        return "ShapeError", str(err)
    return arr.dtype.str, arr.shape, repr(arr.tolist())


@settings(max_examples=500, deadline=None)
@given(read_inputs())
def test_read_array_matches_walking_every_entry_first(values):
    assert _read_outcome(read_array, values) == _read_outcome(ref_read_array, values)


@pytest.mark.parametrize(
    "values",
    [
        [],
        [[]],
        [np.array([], dtype=bool)],
        [np.array([], dtype=bool), np.array([], dtype=np.int64)],
        [[np.array([], dtype=bool)], [np.array([], dtype=np.int64)]],
        [[0, 1], [np.True_, 2]],
        [np.array(True), 2],
        [np.ma.array([True, False]), [2, 3]],
        [[2.5, 3], np.ma.array([True, False])],
        [np.array([[1, 0]], dtype=bool), [[2, 3]]],
        ((5, 6), (7, np.array(False))),
        [[0, 1], [2, True, 3]],
        [[[0] * 3] * 2, [[0, 1, np.array([True])]] * 2],
        [2**63, 1],
        [2**64, True],
        [1.0, 2],
        functools.reduce(lambda v, _: [v], range(70), [0, True]),
        functools.reduce(lambda v, _: [v], range(70), [0, 1]),
    ],
)
def test_read_array_matches_walking_every_entry_first_on_edge_cases(values):
    assert _read_outcome(read_array, values) == _read_outcome(ref_read_array, values)


def check_sd_witnesses(op, chunk_elements):
    """_sd_witnesses against ref_sd_witnesses on the arguments verify_rack
    passes for op: the same rows in the same order, and the same total, at
    caps 1 and 7, around the total, and one past the first witness of each x
    that fails more than once, so that the cap is reached inside its row.
    Returns (k, n)."""
    calls = []
    original = racks._sd_witnesses

    def spy(*args):
        calls.append(args)
        return original(*args)

    n = len(op)
    with mock.patch.object(racks, "_CHUNK_ELEMENTS", chunk_elements):
        with mock.patch.object(racks, "_sd_witnesses", spy):
            racks.verify_rack(racks.magma_from_table(op))
        (args,) = calls
        with mock.patch.object(racks, "WITNESS_CAP", n**3 + 1):
            whole, total = ref_sd_witnesses(*args)
        x = whole[:, 0]
        starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]]) if total else []
        inside = {int(i) + 1 for i in starts if i + 1 < total and x[i + 1] == x[i]}
        for cap in sorted({1, 7, total - 1, total, total + 1, *inside} - {-1, 0}):
            with mock.patch.object(racks, "WITNESS_CAP", cap):
                got, got_total = racks._sd_witnesses(*args)
                ref, ref_total = ref_sd_witnesses(*args)
            assert got_total == ref_total == total
            assert got.dtype == ref.dtype == np.intp
            assert got.tolist() == ref.tolist() == whole[:cap].tolist()
    return args[1], n


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(swapped_gauge_tables(), repeated_column_tables(), random_tables()),
    st.sampled_from([1, 50, 400, racks._CHUNK_ELEMENTS]),
)
def test_sd_witnesses_match_the_broadcast_spread(op, chunk_elements):
    check_sd_witnesses(op, chunk_elements)


def _swapped(op, pairs):
    op = op.copy()
    for (a, b), (c, d) in pairs:
        op[a, b], op[c, d] = op[c, d], op[a, b]
    return op


@pytest.mark.parametrize("chunk_elements", [1, 400, racks._CHUNK_ELEMENTS])
@pytest.mark.parametrize(
    "op, distinct",
    [
        # S4 over 2 base points, three pairs of entries swapped: fewer distinct columns than elements.
        (_swapped(gauge.build(bundles.EquivariantMap(bundles.DiscreteBundle(groups.catalog("S4"), 2), [3, 17])).table.op,
                  [((0, 1), (5, 9)), ((40, 2), (7, 30)), ((11, 11), (47, 0))]), "k < n"),
        # Random tables: every column differs.
        (np.random.default_rng(1).integers(0, 12, (12, 12)), "k == n"),
        (np.random.default_rng(2).integers(0, 30, (30, 30)), "k == n"),
    ],
)
def test_sd_witnesses_match_the_broadcast_spread_on_fixed_tables(op, distinct, chunk_elements):
    k, n = check_sd_witnesses(op, chunk_elements)
    assert (k < n) if distinct == "k < n" else (k == n)


def _json_text_matches_json_dumps(obj):
    try:
        expected = json.dumps(ref_listed(obj), indent=2)
    except TypeError as error:
        # The same message too: json's, not that of a writer step it never takes.
        with pytest.raises(TypeError, match=f"^{re.escape(str(error))}$"):
            json_text(obj)
    else:
        assert json_text(obj) == expected


@settings(max_examples=400, deadline=None)
@given(JSON_TREES)
def test_json_text_matches_json_dumps(obj):
    _json_text_matches_json_dumps(obj)


class StrKey(str):
    """A str subclass: json.dumps takes it as a key, and the writer leaves a dict keyed by it to json."""


@pytest.mark.parametrize(
    "obj",
    [
        [[1, 2, 3], [4, 5, np.int64(6)]],
        [1, np.int64(2)],
        {"op": [[0, 1], [1, 0]], "size": np.int64(2)},
        {"a": {1, 2}},
        {(1, 2): 3},
        [[True, 1], [0, 1]],
        [[1, 2], (3, 4)],
        [[], []],
        {"": {}, "x": [[]], "y": [{}]},
        {"n": 3, "rows": [1.5, np.array([[0, 12], [7, 3]]), None, "a", True], "tail": [2, "b"]},
        {"k": [np.array([1, 2])], 1: np.array([3])},
        [np.zeros(0, dtype=np.int64), np.array([4, 5]), np.zeros((2, 0), dtype=np.uint8)],
        {"s": 'two\nlines "quoted"', "op": np.array([[1]]), "t": ['\n"', np.array([9])]},
        {StrKey("op"): np.array([1, 2])},
    ],
)
def test_json_text_matches_json_dumps_on_edge_cases(obj):
    _json_text_matches_json_dumps(obj)


@settings(max_examples=400, deadline=None)
@given(int_arrays().flatmap(nested), st.sampled_from([1, 64, cli._ARRAY_CHUNK_BYTES]))
def test_json_text_writes_an_int_array_as_its_list(trees, chunk_bytes):
    obj, plain = trees
    with mock.patch.object(cli, "_ARRAY_CHUNK_BYTES", chunk_bytes):
        assert json_text(obj) == json.dumps(plain, indent=2)


@settings(max_examples=200, deadline=None)
@given(other_arrays().flatmap(nested))
def test_json_text_leaves_other_arrays_to_json_dumps(trees):
    _json_text_matches_json_dumps(trees[0])


@settings(max_examples=200, deadline=None)
@given(pad_arrays(), st.sampled_from([1, 64, cli._ARRAY_CHUNK_BYTES]))
def test_json_text_drops_dense_and_sparse_pad_bytes(drawn, chunk_bytes):
    # Values of three digits sit in 4-byte words, one zero byte each, and
    # take bytes.translate; single digits sit in 1-byte words, no zero byte
    # in the text, and take bytes.replace.
    wide, obj, plain = drawn
    with mock.patch.object(cli, "_ARRAY_CHUNK_BYTES", chunk_bytes), \
            mock.patch.object(cli, "_strip_dense_zeros", wraps=cli._strip_dense_zeros) as dense, \
            mock.patch.object(cli, "_strip_sparse_zeros", wraps=cli._strip_sparse_zeros) as sparse:
        assert json_text(obj) == json.dumps(plain, indent=2)
    assert (dense.called, sparse.called) == (wide, not wide)


@pytest.mark.parametrize(
    "a",
    [
        np.array([9, 10, 0]),
        np.array([[99, 100, 5], [0, 1, 2]]),
        np.array([[999, 1000]], dtype=np.uint16),
        np.array([[7], [10], [0]], dtype=np.int32),
        np.array([1000]),
        np.zeros(0, dtype=np.int64),
        np.zeros((0, 3), dtype=np.int64),
        np.zeros((4, 0), dtype=np.int64),
        np.array([cli._DIGIT_TABLE_CAP, 3]),
        np.array([2**64 - 1], dtype=np.uint64),
    ],
)
def test_json_text_writes_int_arrays_by_the_digit_table(a):
    # Non-empty arrays inside the digit table take the vectorized writer;
    # empty ones and larger values are written from a.tolist().
    for depth in range(3):
        obj, plain = a, a.tolist()
        for _ in range(depth):
            obj, plain = {"k": [obj]}, {"k": [plain]}
        with mock.patch.object(cli, "_write_int_array", wraps=cli._write_int_array) as writer:
            assert json_text(obj) == json.dumps(plain, indent=2)
        assert writer.called == bool(a.size and a.max() < cli._DIGIT_TABLE_CAP)


# ---------------------------------------------------------------------------
# Lie closed forms
# ---------------------------------------------------------------------------

def ref_model_exp(model, A):
    """Rodrigues' formula as MatrixGroupModel.exp first wrote it: np.sinc terms and A @ A on every model."""
    theta = np.linalg.norm(A, axis=(-2, -1)) / np.sqrt(2)
    sin_term = np.sinc(theta / np.pi)[..., None, None]
    cos_term = (0.5 * np.sinc(theta / (2 * np.pi)) ** 2)[..., None, None]
    return np.eye(model.dim) + sin_term * A + cos_term * (A @ A)


ANGLE_CAP = lie.MODEL_TOLERANCE * 2.0**53

# The limits and turning points of the two ratios, angles just under the cap
# (the cap itself can round past it once scaled into a matrix), and any
# angle up to them.
NEAR_CAP = ANGLE_CAP * (1 - 1e-9)
ANGLES = st.sampled_from([0.0, 1e-9, np.pi, 2 * np.pi, ANGLE_CAP * (1 - 1e-6), NEAR_CAP]) | st.floats(0, NEAR_CAP)


@st.composite
def algebra_stacks(draw):
    """(model, A, theta): SO3 or SU2 algebra matrices of leading shape (), (4,), (n, 1) or (n, 5), each at its angle."""
    model = lie.get_model(draw(st.sampled_from(["SO3", "SU2"])))
    n = draw(st.integers(1, 4))
    lead = draw(st.sampled_from([(), (4,), (n, 1), (n, 5)]))
    theta = draw(hnp.arrays(float, lead, elements=ANGLES))
    coeffs = draw(hnp.arrays(float, (*lead, 3), elements=st.floats(-1, 1)))
    coeffs[np.linalg.norm(coeffs, axis=-1) < 1e-3] = (1.0, 0.0, 0.0)
    unit = coeffs / np.linalg.norm(coeffs, axis=-1, keepdims=True)
    # theta = ||A||_F / sqrt(2), and each basis matrix has ||B||_F = sqrt(2) (SO3) or 1/sqrt(2) (SU2).
    scale = np.sqrt(2) / np.linalg.norm(model.algebra_basis[0])
    A = np.einsum("...k,kij->...ij", unit * (scale * theta)[..., None], np.asarray(model.algebra_basis))
    return model, A, np.linalg.norm(A, axis=(-2, -1)) / np.sqrt(2)


@settings(max_examples=300, deadline=None)
@given(algebra_stacks())
def test_model_exp_matches_the_sinc_form(case):
    model, A, theta = case
    E = model.exp(A)
    assert E.shape == A.shape
    gap = np.linalg.norm(E - ref_model_exp(model, A), axis=(-2, -1))
    assert np.all(gap <= 1e-13 * np.maximum(1.0, theta))


@st.composite
def flow_cases(draw):
    """(model, A, t): SO3, SU2 or GL2 algebra stacks, some of them 0, and t of either sign or 0 broadcasting with A."""
    model = lie.get_model(draw(st.sampled_from(["SO3", "SU2", "GL2"])))
    n = draw(st.integers(1, 4))
    lead, t_shape = draw(st.sampled_from([((), ()), ((4,), ()), ((4,), (4,)), ((n, 1), (n, 5)), ((n, 1), (5,))]))
    coeffs = draw(hnp.arrays(float, (*lead, len(model.algebra_basis)), elements=st.floats(-3, 3)))
    coeffs[draw(hnp.arrays(bool, lead))] = 0.0
    A = np.einsum("...k,kij->...ij", coeffs, model.algebra_basis)
    t = draw(hnp.arrays(float, t_shape, elements=st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-3, 3)))
    return model, A, (float(t) if t_shape == () and draw(st.booleans()) else t)


@settings(max_examples=300, deadline=None)
@given(flow_cases())
# A finite A whose Frobenius norm overflows, at t = 0, alone and beside a matrix on its own flow.
@example((lie.get_model("SO3"), 1e200 * lie._SO3_BASIS[0], 0.0))
@example((lie.get_model("SU2"), np.stack([1e200 * lie._SU2_BASIS[0], lie._SU2_BASIS[1]]), np.array([0.0, 1.5])))
def test_flow_matches_exp_and_the_taylor_series_of_tA(case):
    model, A, t = case
    tA = np.asarray(t)[..., None, None] * A
    if np.isinf(lie._fro(A)).any():
        # numpy warns of the NaN angle 0 * inf before flow follows the flow of 0 there instead.
        with pytest.warns(RuntimeWarning, match="invalid value"):
            F = model.flow(A, t)
    else:
        F = model.flow(A, t)
    assert F.shape == tA.shape
    scale = np.maximum(1.0, np.linalg.norm(tA, axis=(-2, -1)))
    for ref in (model.exp(tA), lie.mat_exp(tA)):
        assert np.all(np.linalg.norm(F - ref, axis=(-2, -1)) <= 1e-13 * scale)
    # At t = 0 or A = 0 every form gives the identity exactly.
    trivial = (np.asarray(t) == 0) | (A == 0).all(axis=(-2, -1))
    assert (F[np.broadcast_to(trivial, F.shape[:-2])] == np.eye(model.dim)).all()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([float, complex]), hnp.array_shapes(min_dims=2, max_dims=4, min_side=0, max_side=4), st.data())
def test_fro_matches_linalg_norm(dtype, shape, data):
    parts = st.floats(-1e100, 1e100)
    a = data.draw(hnp.arrays(float, shape, elements=parts))
    if dtype is complex:
        a = a + 1j * data.draw(hnp.arrays(float, shape, elements=parts))
    got, want = lie._fro(a), np.linalg.norm(a, axis=(-2, -1))
    assert np.shape(got) == np.shape(want)
    assert np.all(np.abs(got - want) <= 1e-15 * want)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["SO3", "SU2"]), st.floats(1.01, 1e6), st.sampled_from([1.0, -1.0]), st.integers(0, 4))
def test_flow_past_the_angle_limit_names_the_argument_norm(name, over, sign, position):
    # Five t on one matrix: the angle limit binds |t| theta, whatever the angle of A.
    model = lie.get_model(name)
    A = model.algebra_basis[0]
    theta = np.linalg.norm(A) / np.sqrt(2)
    t = np.full(5, 0.5)
    t[position] = sign * over * ANGLE_CAP / theta
    norm = f"{abs(t[position]) * np.linalg.norm(A):.3g}"
    with pytest.raises(NonFinite, match=f"^matrix exponential overflows at argument norm {re.escape(norm)}:"):
        model.flow(A, t)
    t[position] = sign * NEAR_CAP / theta
    assert np.max(lie.membership_residual(model, model.flow(A, t))) <= 1e-14


@st.composite
def product_stacks(draw):
    """Two real or complex d x d stacks with mutually broadcastable leading shapes."""
    d = draw(st.integers(1, 4))
    shapes = draw(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=4)).input_shapes
    parts = st.floats(-1e3, 1e3, allow_subnormal=False)
    stacks = []
    for shape, dtype in zip(shapes, draw(st.tuples(*[st.sampled_from([float, complex])] * 2))):
        M = draw(hnp.arrays(float, (*shape, d, d), elements=parts))
        if dtype is complex:
            M = M + 1j * draw(hnp.arrays(float, (*shape, d, d), elements=parts))
        stacks.append(M)
    return stacks


@settings(max_examples=300, deadline=None)
@given(product_stacks())
def test_mul_matches_matmul(stacks):
    A, B = stacks
    product = A @ B
    got = lie._mul(A, B)
    assert got.shape == product.shape and got.dtype == product.dtype
    # Relative to ||A|| ||B||, the size of the sum that each entry rounds.
    scale = np.linalg.norm(A, axis=(-2, -1)) * np.linalg.norm(B, axis=(-2, -1))
    assert np.all(np.linalg.norm(got - product, axis=(-2, -1)) <= 1e-15 * scale)


# ---------------------------------------------------------------------------
# Lie sweep plan
# ---------------------------------------------------------------------------

def drawn(X, config):
    """The sweep's draw as separate points x, y, z, then t and s, from the seed's child stream (1,)."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(1,)))
    m, g = lie.random_point(X, rng, (3, config.samples))
    t, s = rng.uniform(*config.t_range, size=(2, config.samples))
    return (m[0], g[0]), (m[1], g[1]), (m[2], g[2]), t, s


def ref_check_idempotency(X, config):
    """x <|_s x against x."""
    x, _, _, _, s = drawn(X, config)
    return lie._gap(lie.op_t(X, x, x, s), x)


def ref_check_self_action(X, config):
    """(x <|_t y) <|_s y against x <|_{s+t} y."""
    x, y, _, t, s = drawn(X, config)
    lhs = lie.op_t(X, lie.op_t(X, x, y, t), y, s)
    rhs = lie.op_t(X, x, y, s + t)
    return lie._gap(lhs, rhs)


def ref_check_self_distributivity(X, config):
    """(x <|_t y) <|_s z against (x <|_s z) <|_t (y <|_s z)."""
    x, y, z, t, s = drawn(X, config)
    lhs = lie.op_t(X, lie.op_t(X, x, y, t), z, s)
    rhs = lie.op_t(X, lie.op_t(X, x, z, s), lie.op_t(X, y, z, s), t)
    return lie._gap(lhs, rhs)


def ref_check_key_identity(X, config):
    """exp(t X(p1 * exp(s X(p2)))) against exp(-s X(p2)) exp(t X(p1)) exp(s X(p2))."""
    p1, p2, _, t, s = drawn(X, config)
    t, s = lie._col(t), lie._col(s)
    exp = X.model.exp
    h = exp(s * X.eval(p2))
    lhs = exp(t * X.eval((p1[0], p1[1] @ h)))
    rhs = exp(-s * X.eval(p2)) @ exp(t * X.eval(p1)) @ h
    return lie._fro(lhs - rhs)


def ref_check_membership(X, config):
    """Membership residual of x <|_t y."""
    x, y, _, t, _ = drawn(X, config)
    return lie.membership_residual(X.model, lie.op_t(X, x, y, t)[1])


def ref_check_section_equivariance(X, config):
    """X(p * g) against g^-1 X(p) g, g the fiber coordinate of a second point."""
    (m, h), (_, g), _, _, _ = drawn(X, config)
    moved = X.eval((m, h @ g))
    conjugated = X.model.inverse(g) @ X.eval((m, h)) @ g
    return lie._fro(moved - conjugated)


REF_CHECKS = {
    "idempotency": ref_check_idempotency,
    "self_action": ref_check_self_action,
    "self_distributivity": ref_check_self_distributivity,
    "key_identity": ref_check_key_identity,
    "membership": ref_check_membership,
    "section_equivariance": ref_check_section_equivariance,
}


def ref_fixing_residual(X, p, q, ts):
    """Max over the t samples of the distance from p <|_t q to p, for stacked pairs."""
    p = (p[0][:, None], p[1][:, None])
    q = (q[0][:, None], q[1][:, None])
    return lie._gap(lie.op_t(X, p, q, ts), p).max(axis=-1)


def ref_noether_sweep(X, config):
    """(disagreements, equal_pairs_all_fix, equal-pair max residual), from four op_t calls:
    the random pairs and the equal-X pairs, each in both directions."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(2,)))
    n = config.samples
    ts = np.append(rng.uniform(*config.t_range, size=(n, 4)), np.ones((n, 1)), axis=1)
    m, g = lie.random_point(X, rng, (3, n))
    p1, p2 = (m[0], g[0]), (m[1], g[1])
    q1, q2 = lie.equal_section_pair(X, (m[2], g[2]), rng)
    fixes = [ref_fixing_residual(X, a, b, ts) <= config.tolerance for a, b in ((p1, p2), (p2, p1))]
    equal = [ref_fixing_residual(X, a, b, ts) for a, b in ((q1, q2), (q2, q1))]
    equal_fixes = [r <= config.tolerance for r in equal]
    disagreements = int(np.sum(fixes[0] != fixes[1]) + np.sum(equal_fixes[0] != equal_fixes[1]))
    return disagreements, bool(np.all(equal_fixes[0] & equal_fixes[1])), float(np.max(equal))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["SO3", "SU2", "GL2"]), st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 4))
def test_sweep_plan_matches_the_op_t_compositions(name, seed, samples, base_points):
    config = lie.SweepConfig(model=name, samples=samples, seed=seed, base_points=base_points)
    model = lie.get_model(name)
    X = lie.AdjointSection(model, lie.random_algebra(model, np.random.default_rng(seed), size=base_points))
    plan = lie._plan(X, config)
    assert set(plan) == set(REF_CHECKS)
    # run_sweep draws the same section as X, from default_rng(seed).
    sweep = lie.run_sweep(config)
    for check, ref in REF_CHECKS.items():
        expected = ref(X, config)
        got = plan[check]
        assert got.shape == (samples,)
        assert np.all(np.abs(got - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))
        if check == "section_equivariance":
            report = sweep.section_equivariance
        else:
            report = getattr(lie, f"check_{check}")(X, config)
        assert report.passed == (np.max(expected) <= report.tolerance)
        assert report.max_residual == np.max(got)
    disagreements, all_fix, worst = ref_noether_sweep(X, config)
    noether = lie.noether_sweep(X, config)
    assert (noether.disagreements, noether.equal_pairs_all_fix) == (disagreements, all_fix)
    assert abs(noether.equal_pair_max_residual - worst) <= 1e-12 * max(1.0, worst)
