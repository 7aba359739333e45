"""Quandles induced on a discrete principal bundle by an equivariant map.

An equivariant map f makes (P, G, f) an augmented rack, so P carries the rack
    p1 <| p2 = p1 * f(p2),
and the associated quandle
    p1 <|f p2 = p1 * f(p1)^-1 f(p2)  =  phi_f^-1(p1) * f(p2),
the gauge quandle. Both operations preserve fibers, every fiber is a quandle
in its own right, and quotients by suitable subgroups inherit the structure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bundles import (
    DiscreteBundle,
    EquivariantMap,
    bundle_to_json,
    enumerate_maps,
    invert_map,
    map_to_json,
    to_gauge,
)
from .errors import (
    AlgebraError,
    CentralizerViolation,
    NormalizerViolation,
    ShapeError,
    index_array,
)
from .groups import FiniteGroup, Subgroup, cosets, normalizer
from .racks import (
    MagmaTable,
    find_isomorphism,
    generalized_alexander,
    magma_from_table,
    magma_to_json,
    verify_rack,
)

# The census computes keys and checks member witnesses in chunks of at most
# this many entries: maps x |G| x |M| for the keys, maps x |P|^2 for the witnesses.
_CENSUS_CHUNK_ELEMENTS = 1_000_000

# The census enumerates Aut(G) only when at most this many tuples of
# candidate generator images remain; past it every key is its own orbit, and
# keys merge by search alone.
_AUTOMORPHISM_NODES = 4096


def rack_from_map(f: EquivariantMap) -> MagmaTable:
    """The augmented-rack operation p1 <| p2 = p1 * f(p2) on f's bundle.

    Always a rack; a quandle only when f is identically the unit, since
    x <| x = x * f(x).
    """
    return magma_from_table(f.bundle.action_table()[:, f.total_values()])


@dataclass(frozen=True)
class GaugeQuandle:
    """A gauge quandle: the inducing map, which fixes the bundle, and the full table."""

    map: EquivariantMap
    table: MagmaTable

    @property
    def bundle(self) -> DiscreteBundle:
        return self.map.bundle


def build(f: EquivariantMap) -> GaugeQuandle:
    """Construct the gauge quandle p1 <|f p2 = phi_f^-1(p1) * f(p2) on f's bundle.

    This equals p1 * f(p1)^-1 f(p2), since phi_f^-1 = phi_{f^-1} maps p1 to
    p1 * f(p1)^-1. The quandle axioms are decided at every triple by
    verify_rack, with one |P|^2 scan per distinct column: the table reads p2
    only through f(p2), so it has at most |G| distinct columns.
    """
    op = f.bundle.action_table()[to_gauge(invert_map(f)).values][:, f.total_values()]
    table = magma_from_table(op)
    report = verify_rack(table)
    if not report.is_quandle:
        raise AlgebraError(f"constructed table fails quandle axioms: {report}")
    return GaugeQuandle(map=f, table=table)


def transport_fiber(q: GaugeQuandle, m: int) -> MagmaTable:
    """Move the fiber quandle at m onto G through the chart psi_m.

    The transported table is g1 <| g2 = psi_m(psi_m^-1(g1) <|f psi_m^-1(g2)).
    In the (m, g) encoding psi_m is the identity on fiber positions, so this
    is the subquandle on pi^-1(m), re-indexed 0..|G|-1 in chart order. It
    always coincides with the generalized Alexander quandle of G for the
    inner automorphism of f(s(m)).
    """
    b = q.bundle
    pts = b.point(int(index_array(m, b.base_size, "base index")), np.arange(b.group.order))
    return magma_from_table(b.coord(q.table.op[np.ix_(pts, pts)]))


def quotient(op, class_of, labels: Sequence[str] | None = None) -> MagmaTable:
    """The quandle [x] <| [y] = [x <| y] on the classes of a partition.

    class_of[x] is the class index of element x, with classes numbered
    0..k-1. The table is read off one representative per class (its smallest
    member); the partition must be a congruence, which is checked for every
    pair of elements at once. Raises AlgebraError naming the first class pair
    (i, j) whose products land in more than one class, or when the quotient
    fails the quandle axioms.
    """
    op = magma_from_table(op).op
    class_of = index_array(class_of, len(op), "class indices")
    ids, reps = np.unique(class_of, return_index=True)
    if class_of.shape != op.shape[:1] or not np.array_equal(ids, np.arange(len(ids))):
        raise ShapeError("class_of must give every element a class index 0..k-1")
    table = class_of[op[np.ix_(reps, reps)]]
    bad = class_of[op] != table[class_of[:, None], class_of[None, :]]
    if bad.any():
        pairs = np.zeros(table.shape, dtype=bool)
        xs, ys = np.nonzero(bad)
        pairs[class_of[xs], class_of[ys]] = True
        i, j = (int(v) for v in np.argwhere(pairs)[0])
        images = np.unique(class_of[op[np.ix_(class_of == i, class_of == j)]])
        raise AlgebraError(
            f"quotient not well-defined on classes ({i}, {j}): images {images.tolist()}"
        )
    m = magma_from_table(table, labels=labels)
    report = verify_rack(m)
    if not report.is_quandle:
        raise AlgebraError(f"quotient table fails quandle axioms: {report}")
    return m


@dataclass(frozen=True, eq=False)
class ReducedQuandle:
    """The quotient quandle `table` on the classes p*H, class_of[p] the class of point p."""

    class_of: np.ndarray
    table: MagmaTable

    @property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Each class's points in ascending order, classes in order of their smallest member."""
        points = np.argsort(self.class_of, kind="stable")
        bounds = np.cumsum(np.bincount(self.class_of))[:-1]
        return tuple(tuple(c.tolist()) for c in np.split(points, bounds))


def reduce(q: GaugeQuandle, H: Subgroup) -> ReducedQuandle:
    """Quotient the gauge quandle by the right H-orbits p*H.

    Requires Im(f), evaluated on every total point, to lie in the normalizer
    of H (NormalizerViolation with witness (p, h) otherwise). The quotient is
    taken by `quotient`, which checks well-definedness and the quandle axioms.
    Classes are ordered by their smallest member.
    """
    b = q.bundle
    if H.group != b.group:
        raise ShapeError("subgroup belongs to a different group")
    fvals = q.map.total_values()
    outside = np.flatnonzero(~np.isin(fvals, normalizer(H).elements))
    if len(outside):
        p = int(outside[0])
        hs = list(H.elements)
        leaving = np.flatnonzero(~np.isin(b.group.conj[hs, fvals[p]], hs))
        raise NormalizerViolation((p, hs[leaving[0]]))

    smallest = b.action_table()[:, H.elements].min(axis=1)
    class_of = np.unique(smallest, return_inverse=True)[1]
    table = quotient(q.table.op, class_of)
    class_of.setflags(write=False)
    return ReducedQuandle(class_of=class_of, table=table)


def homogeneous_quandle(H: Subgroup, c: int) -> MagmaTable:
    """[g1] <| [g2] = [sigma_c(g1 g2^-1) g2] on the right cosets Hg of G = H.group.

    Requires c to commute with every element of H (CentralizerViolation with
    the offending h otherwise); the table is the quotient of the generalized
    Alexander quandle of sigma_c by the right cosets, taken by `quotient`.
    With H = {e} this is the generalized Alexander quandle of sigma_c.
    """
    G = H.group
    c = int(index_array(c, G.order, "element"))
    hs = list(H.elements)
    moved = np.flatnonzero(G.conj[hs, c] != hs)
    if len(moved):
        raise CentralizerViolation(hs[moved[0]])

    blocks = cosets(H, side="right")
    class_of = np.empty(G.order, dtype=np.int64)
    class_of[np.array(blocks)] = np.arange(len(blocks))[:, None]
    labels = ["{" + ",".join(str(g) for g in block) + "}" for block in blocks]
    ga = generalized_alexander(G, G.inner_automorphism(c))
    return quotient(ga.op, class_of, labels=labels)


def gauge_quandle_to_json(q: GaugeQuandle) -> dict:
    """Quandle file format plus a provenance block recording the inputs."""
    obj = magma_to_json(q.table)
    obj["provenance"] = {"bundle": bundle_to_json(q.bundle), **map_to_json(q.map)}
    return obj


def _class_conjugators(G: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """cls[a], a's conjugacy class named by its smallest member, and a conjugator[a] onto a from it.

    conj[cls[a], conjugator[a]] == a for every element a.
    """
    idx = np.arange(G.order)
    cls = G.conj.min(axis=1)
    return cls, (G.conj[cls] == idx[:, None]).argmax(axis=1)


def _census_keys(G: FiniteGroup, cls: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's key as a base-|G| integer and its least central shift z*s, stacked (r,) and (r, k).

    The key is the sorted conjugacy classes of z*s, least over the central z,
    the first such z on ties.
    """
    idx = np.arange(G.order)
    centre = np.flatnonzero((G.conj == idx[:, None]).all(axis=1))
    shifts = G.table[centre[:, None, None], values]  # [i, j]: centre[i] * values[j]
    k = values.shape[1]
    codes = np.sort(cls[shifts], axis=2) @ G.order ** np.arange(k - 1, -1, -1)
    least = codes.argmin(axis=0)
    rows = np.arange(len(values))
    return codes[least, rows], shifts[least, rows]


def _member_tables(b: DiscreteBundle, values: np.ndarray) -> np.ndarray:
    """The gauge tables of the maps with section values values[i], stacked (r, |P|, |P|), unverified.

    build's formula act[phi_f^-1(p1), f(p2)], with phi_f^-1(p) = p * f^-1(p),
    for every row at once.
    """
    G = b.group
    act = b.action_table()
    r, n = len(values), b.total_size
    fvals = G.conj[values].reshape(r, n)  # f(p), in total_values order
    phi_inv = act[np.arange(n), G.conj[G.inverses[values]].reshape(r, n)]
    return act[phi_inv[:, :, None], fvals[:, None, :]]


def _census_witnesses(
    b: DiscreteBundle, cls: np.ndarray, conjugator: np.ndarray, zs: np.ndarray, rep_zs: np.ndarray
) -> np.ndarray:
    """phi(m, g) = (pi(m), h_m^-1 g) for each row of least shifts zs onto rep_zs, stacked (r, |P|).

    pi matches base points by class and h_m conjugates zs[i, m] onto
    rep_zs[pi(m)], so phi carries the table of zs[i] onto that of rep_zs;
    cls and conjugator are _class_conjugators(b.group).
    """
    G = b.group
    pi = np.empty_like(zs)
    targets = np.argsort(cls[rep_zs], kind="stable")
    np.put_along_axis(pi, np.argsort(cls[zs], axis=1, kind="stable"), targets, axis=1)
    h = G.table[G.inverses[conjugator[zs]], conjugator[rep_zs[pi]]]
    return b.point(pi[..., None], G.table[G.inverses[h]]).reshape(len(zs), b.total_size)


def _word_tree(G: FiniteGroup, gens: list[int]) -> tuple[list, np.ndarray]:
    """The subgroup <gens> as a mask, and its breadth-first levels (xs, ys, js) from e with xs = ys * gens[js]."""
    reached = np.zeros(G.order, dtype=bool)
    reached[0] = True
    levels, frontier = [], np.zeros(1, dtype=np.int64)
    while len(frontier):
        ys = np.repeat(frontier, len(gens))
        js = np.tile(np.arange(len(gens)), len(frontier))
        xs, pos = np.unique(G.table[ys, np.array(gens, dtype=np.int64)[js]], return_index=True)
        new = ~reached[xs]
        xs, ys, js = xs[new], ys[pos[new]], js[pos[new]]
        reached[xs] = True
        levels.append((xs, ys, js))
        frontier = xs
    return levels, reached


def _automorphisms(G: FiniteGroup, cls: np.ndarray) -> np.ndarray:
    """Every automorphism of G as a row of images, stacked (|Aut(G)|, |G|); only the identity past the budget.

    An automorphism is fixed by its images of a generating set, and sends
    each generator to an element of the same order and conjugacy class
    size. Each generator is the element outside the subgroup so far with
    the fewest such candidates. When the candidate tuples number more than
    _AUTOMORPHISM_NODES, only the identity is returned. Otherwise each
    tuple is extended along the generators' word tree, and kept when it
    gives a permutation that is a homomorphism on the whole table. cls is
    _class_conjugators(G)[0].
    """
    n = G.order
    idx = np.arange(n)
    order, power = np.zeros(n, dtype=np.int64), idx
    for k in range(1, n + 1):
        order[(power == 0) & (order == 0)] = k
        if order.all():
            break
        power = G.table[power, idx]
    kind = order * (n + 1) + np.bincount(cls)[cls]
    rivals = np.bincount(kind)[kind]
    gens: list[int] = []
    levels, reached = _word_tree(G, gens)
    while not reached.all():
        outside = np.flatnonzero(~reached)
        gens.append(int(outside[rivals[outside].argmin()]))
        levels, reached = _word_tree(G, gens)
    candidates = [np.flatnonzero(kind == kind[g]) for g in gens]
    if math.prod(map(len, candidates)) > _AUTOMORPHISM_NODES:
        return idx[None]
    images = np.array(list(itertools.product(*candidates)), dtype=np.int64)  # (tuples, generators)
    alpha = np.zeros((len(images), n), dtype=np.int64)
    for xs, ys, js in levels:
        alpha[:, xs] = G.table[alpha[:, ys], images[:, js]]
    step = max(1, _CENSUS_CHUNK_ELEMENTS // n**2)
    keep = [
        (np.sort(a, axis=1) == idx).all(axis=1)
        & (a[:, G.table] == G.table[a[:, :, None], a[:, None, :]]).all(axis=(1, 2))  # a(x y) == a(x) a(y)
        for a in np.split(alpha, range(step, len(alpha), step))
    ]
    return alpha[np.concatenate(keep)]


def _key_orbits(
    G: FiniteGroup, cls: np.ndarray, autos: np.ndarray, heads: np.ndarray, key_codes: np.ndarray, first: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each key's orbit root under autos, and the index in autos of an automorphism carrying its head there.

    heads[K] are key K's first section values and first[K] their row in
    enumeration order; the root of an orbit is its key with the least first.
    An automorphism alpha carries a key onto the key of alpha o heads[K],
    looked up among the sorted key_codes.
    """
    keys, k = heads.shape
    root_of, via = np.arange(keys), np.zeros(keys, dtype=np.int64)
    step = max(1, _CENSUS_CHUNK_ELEMENTS // (keys * G.order * k))
    for start in range(0, len(autos), step):
        codes = _census_keys(G, cls, autos[start:start + step][:, heads].reshape(-1, k))[0]
        image = np.searchsorted(key_codes, codes).reshape(-1, keys)  # [a, K]: the key of alpha_a o heads[K]
        best = first[image].argmin(axis=0)
        reached = image[best, np.arange(keys)]
        closer = first[reached] < first[root_of]
        root_of[closer], via[closer] = reached[closer], start + best[closer]
    return root_of, via


def _orbit_witness(
    b: DiscreteBundle, cls: np.ndarray, conjugator: np.ndarray, alpha: np.ndarray, head: np.ndarray,
    rep_zs: np.ndarray,
) -> np.ndarray:
    """psi o phi_alpha: from the table of the section values head onto that of rep_zs's key head, shape (1, |P|).

    phi_alpha(m, g) = (m, alpha(g)) carries the table of head onto that of
    alpha o head, since the gauge operation reads G only through its
    product, and psi, the _census_witnesses map, carries that onto the
    table of the key head whose least central shift is rep_zs.
    """
    zs = _census_keys(b.group, cls, alpha[head][None])[1]
    psi = _census_witnesses(b, cls, conjugator, zs, rep_zs)
    return psi[:, b.point(np.arange(b.base_size)[:, None], alpha).ravel()]


def _check_witnesses(phi: np.ndarray, tables: np.ndarray, target: MagmaTable, sources: np.ndarray, head) -> None:
    """Raise AlgebraError unless each row of phi is a permutation and a morphism from tables[i] onto target.

    phi is stacked (r, |P|) and tables (r, |P|^2); sources[i] are the
    section values of tables[i], and head those of target, for the message.
    """
    images = np.take_along_axis(phi, tables, axis=1)  # phi(x <| y)
    products = target.op[phi[:, :, None], phi[:, None, :]].reshape(len(phi), -1)  # phi(x) <| phi(y)
    ok = (np.sort(phi, axis=1) == np.arange(target.size)).all(axis=1) & (images == products).all(axis=1)
    if not ok.all():
        raise AlgebraError(
            f"census witness from {tuple(sources[ok.argmin()].tolist())} to "
            f"{tuple(head.tolist())} is not an isomorphism"
        )


def isomorphism_census(b: DiscreteBundle) -> list[tuple[tuple[int, ...], ...]]:
    """Group all |G|^|M| gauge quandles on b into isomorphism classes.

    Each class is the tuple of its members' section values in enumeration
    order, which is lexicographic, so its first member is its representative.
    Classes appear in order of their first member, so output is deterministic.

    Three changes of the section s give an isomorphic table with an explicit
    isomorphism: shifting by a central z (z*s has the same table as s),
    conjugating each value, s'(m) = h_m^-1 s(m) h_m, and permuting the base
    points. So each map is keyed by the sorted multiset of the conjugacy
    classes of its values, least over the central shifts. Only the first map
    of each key, its head, is built, with its quandle axioms verified. Every
    other map joins its key's class through the witness
    phi(m, g) = (pi(m), h_m^-1 g): pi matches base points by class and h_m
    conjugates z*s(m) onto the head's shifted value at pi(m).

    An automorphism alpha of G carries the table of s onto that of alpha o s
    by (m, g) -> (m, alpha(g)), so Aut(G) acts on the keys. The first time a
    head meets earlier class representatives with equal element invariants,
    Aut(G) is enumerated (_automorphisms) and every key is given its orbit
    root, the orbit's key whose head comes first. Every other key joins its
    root's class through psi o phi_alpha (_orbit_witness), where alpha
    carries the key's head into the root's key and psi is the witness above.
    A root is searched with find_isomorphism against the earlier roots of
    equal invariants, so past the automorphism budget, where every key is
    its own root, the census searches as it did without Aut(G). A census of
    one key computes no invariants.

    Each witness must be a permutation and a morphism onto a verified table
    (AlgebraError if not), which carries every quandle axiom back along it.
    Member witnesses are checked in stacked chunks of at most
    _CENSUS_CHUNK_ELEMENTS table entries.
    """
    G = b.group
    n = b.total_size
    values = enumerate_maps(b)
    cls, conjugator = _class_conjugators(G)
    step = max(1, _CENSUS_CHUNK_ELEMENTS // (G.order * b.base_size))
    starts = range(0, len(values), step)
    codes, zs = map(np.concatenate, zip(*[_census_keys(G, cls, values[i:i + step]) for i in starts]))
    key_codes, first, key_of = np.unique(codes, return_index=True, return_inverse=True)
    maps_of_key = np.split(np.argsort(key_of, kind="stable"), np.cumsum(np.bincount(key_of))[:-1])

    # key -> its class; a bucket holds (root table, class) for equal sorted invariants.
    # Every key is its own orbit root until Aut(G) is enumerated.
    class_of_key = np.empty(len(first), dtype=np.int64)
    root_of, autos, via = np.arange(len(first)), None, None
    roots: dict[int, MagmaTable] = {}  # root key -> its head's verified table
    buckets: dict[tuple, list[tuple[MagmaTable, int]]] = {}
    classes = 0
    step = max(1, _CENSUS_CHUNK_ELEMENTS // n**2)
    for key in np.argsort(first):
        head, rest = maps_of_key[key][0], maps_of_key[key][1:]
        table = build(EquivariantMap(b, values[head])).table
        if root_of[key] == key:
            # A census of one key compares nothing, so it needs no invariants.
            bucket = buckets.setdefault(tuple(sorted(table.invariants)), []) if len(first) > 1 else []
            if bucket and autos is None:
                autos = _automorphisms(G, cls)
                root_of, via = _key_orbits(G, cls, autos, values[first], key_codes, first)
        root = root_of[key]
        if root == key:
            found = next((c for rep, c in bucket if find_isomorphism(table, rep) is not None), None)
            if found is None:
                found, classes = classes, classes + 1
                bucket.append((table, found))
            class_of_key[key], roots[key] = found, table
        else:
            class_of_key[key] = class_of_key[root]
            phi = _orbit_witness(b, cls, conjugator, autos[via[key]], values[head], zs[first[root]])
            _check_witnesses(phi, table.op.reshape(1, -1), roots[root], values[head][None], values[first[root]])
        for start in range(0, len(rest), step):
            chunk = rest[start:start + step]
            tables = _member_tables(b, values[chunk]).reshape(len(chunk), -1)
            phi = _census_witnesses(b, cls, conjugator, zs[chunk], zs[head])
            _check_witnesses(phi, tables, table, values[chunk], values[head])

    class_of = class_of_key[key_of]
    parts = np.split(np.argsort(class_of, kind="stable"), np.cumsum(np.bincount(class_of))[:-1])
    return [tuple(map(tuple, values[part].tolist())) for part in parts]
