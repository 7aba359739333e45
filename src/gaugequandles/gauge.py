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
from .groups import FiniteGroup, Subgroup, _word_tree, cosets, normalizer
from .racks import (
    MagmaTable,
    _chunks,
    _composer,
    _decide,
    _row_ids,
    element_invariants,
    find_isomorphism,
    generalized_alexander,
    magma_from_table,
    magma_to_json,
    verify_rack,
)

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


def build(f: EquivariantMap) -> GaugeQuandle:
    """Construct the gauge quandle p1 <|f p2 = phi_f^-1(p1) * f(p2) on f's bundle.

    This equals p1 * f(p1)^-1 f(p2), since phi_f^-1 = phi_{f^-1} maps p1 to
    p1 * f(p1)^-1. The quandle axioms are decided at every triple by
    verify_rack: the table reads p2 only through f(p2), so it has k <= |G|
    distinct columns, and verify_rack compares ids of their k^2 composites
    on one |P| x k grid of (p2, column class), then scans entry by entry
    only the pairs of the rows whose ids differ, none for a quandle.
    """
    op = f.bundle.action_table()[to_gauge(invert_map(f)).values][:, f.total_values()]
    return GaugeQuandle(map=f, table=_verified(op))


def _verified(op) -> MagmaTable:
    """The table op, after verify_rack finds it a quandle (AlgebraError with its report if not)."""
    table = magma_from_table(op)
    report = verify_rack(table)
    if not report.is_quandle:
        raise AlgebraError(f"constructed table fails quandle axioms: {report}")
    return table


def transport_fiber(q: GaugeQuandle, m: int) -> MagmaTable:
    """Move the fiber quandle at m onto G through the chart psi_m.

    The transported table is g1 <| g2 = psi_m(psi_m^-1(g1) <|f psi_m^-1(g2)).
    In the (m, g) encoding psi_m is the identity on fiber positions, so this
    is the subquandle on pi^-1(m), re-indexed 0..|G|-1 in chart order. It
    always coincides with the generalized Alexander quandle of G for the
    inner automorphism of f(s(m)).
    """
    b = q.map.bundle
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
    b = q.map.bundle
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
    obj["provenance"] = {"bundle": bundle_to_json(q.map.bundle), **map_to_json(q.map)}
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


def _augmented(b: DiscreteBundle, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The augmented form aug[i, x, g] = act[phi_f^-1(x), g] and f(x) of the maps with section values values[i].

    Stacked (r, |P|, |G|) and (r, |P|), with phi_f^-1(x) = x * f(x)^-1: the
    gauge table of row i, build's act[phi_f^-1(p1), f(p2)], is aug[i][:, f[i]].
    aug is in the narrowest unsigned dtype that holds a point, f in int64.
    """
    G = b.group
    r, n = len(values), b.total_size
    act = b.action_table().astype(np.min_scalar_type(n - 1))
    f = G.conj[values].reshape(r, n)  # f(x), in total_values order
    return act[act[np.arange(n), G.inverses[f]]], f


def _decided_quandles(target: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """ok[i]: whether _decide finds the table op[x, y] = aug[i, x, f[i, y]] a quandle, for target = (aug, f) from _augmented.

    The table reads y only through f(y), so its column-class form is read
    off the |P| x |G| augmented form with no table: its distinct columns
    are aug[:, g] for g in Im f, in increasing order, and the class of y is
    the rank of f(y) among them. The stack is padded to the largest image,
    k, with copies of each table's first class, and decided in chunks of at
    most _CHUNK_ELEMENTS / (k |P|) tables. True is a quandle; False is not
    one unless a hash collision split two equal composites, or k = |P|, so
    a caller confirms it with verify_rack.
    """
    aug, f = target
    r, n, order = aug.shape
    tables = np.arange(r)[:, None]
    image = np.zeros((r, order), dtype=bool)
    image[tables, f] = True
    rank = image.cumsum(axis=1) - 1
    k = int(rank[:, -1].max(initial=0)) + 1
    g = np.argsort(~image, axis=1, kind="stable")[:, :k]  # Im f in increasing order, then the rest
    g = np.where(np.arange(k) <= rank[:, -1:], g, g[:, :1])
    cls = rank[tables, f]
    ok = np.empty(r, dtype=bool)
    for start, stop in _chunks(r, k * n):
        R = aug[start:stop].transpose(0, 2, 1)[tables[:stop - start], g[start:stop]]  # [i, c, x] = aug[x, g[c]]
        idem, bij, sd = _decide(R, cls[start:stop], _composer(R))
        ok[start:stop] = ~(idem.any(axis=1) | bij.any(axis=1) | sd.any(axis=(1, 2)))
    return ok


def _census_witnesses(
    b: DiscreteBundle, cls: np.ndarray, conjugator: np.ndarray, zs: np.ndarray, rep_zs: np.ndarray
) -> np.ndarray:
    """phi(m, g) = (pi(m), h_m^-1 g) for each row of least shifts zs onto the row rep_zs[i], stacked (r, |P|).

    pi matches base points by class and h_m conjugates zs[i, m] onto
    rep_zs[i, pi(m)], so phi carries the table of zs[i] onto that of
    rep_zs[i]; cls and conjugator are _class_conjugators(b.group).
    """
    G = b.group
    pi = np.empty_like(zs)
    targets = np.argsort(cls[rep_zs], axis=1, kind="stable")
    np.put_along_axis(pi, np.argsort(cls[zs], axis=1, kind="stable"), targets, axis=1)
    h = G.table[G.inverses[conjugator[zs]], conjugator[np.take_along_axis(rep_zs, pi, axis=1)]]
    return b.point(pi[..., None], G.table[G.inverses[h]]).reshape(len(zs), b.total_size)


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
    keep = [
        (np.sort(a, axis=1) == idx).all(axis=1)
        & (a[:, G.table] == G.table[a[:, :, None], a[:, None, :]]).all(axis=(1, 2))  # a(x y) == a(x) a(y)
        for a in (alpha[start:stop] for start, stop in _chunks(len(alpha), n * n))
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
    for start, stop in _chunks(len(autos), keys * G.order * k):
        codes = _census_keys(G, cls, autos[start:stop][:, heads].reshape(-1, k))[0]
        image = np.searchsorted(key_codes, codes).reshape(-1, keys)  # [a, K]: the key of alpha_a o heads[K]
        best = first[image].argmin(axis=0)
        reached = image[best, np.arange(keys)]
        closer = first[reached] < first[root_of]
        root_of[closer], via[closer] = reached[closer], start + best[closer]
    return root_of, via


def _orbit_witness(
    b: DiscreteBundle, cls: np.ndarray, conjugator: np.ndarray, alphas: np.ndarray, heads: np.ndarray,
    rep_zs: np.ndarray,
) -> np.ndarray:
    """psi o phi_alpha for each row: from the table of heads[i] onto that of rep_zs[i]'s key head, stacked (r, |P|).

    phi_alpha(m, g) = (m, alpha(g)), alpha = alphas[i], carries the table of
    heads[i] onto that of alpha o heads[i], since the gauge operation reads
    G only through its product, and psi, the _census_witnesses map, carries
    that onto the table of the key head whose least central shift is rep_zs[i].
    """
    zs = _census_keys(b.group, cls, np.take_along_axis(alphas, heads, axis=1))[1]
    psi = _census_witnesses(b, cls, conjugator, zs, rep_zs)
    phi_alpha = b.point(np.arange(b.base_size)[:, None], alphas[:, None, :]).reshape(len(alphas), -1)
    return np.take_along_axis(psi, phi_alpha, axis=1)


def _check_witnesses(
    b: DiscreteBundle, phi: np.ndarray, values: np.ndarray, target: tuple[np.ndarray, np.ndarray],
    rows: np.ndarray, heads: np.ndarray,
) -> None:
    """Raise AlgebraError unless each phi[i] is a bijective morphism from values[i]'s table onto heads[rows[i]]'s.

    target is _augmented(b, heads), and phi is stacked (r, |P|). The table
    of s reads p2 only through f_s(p2), and G acts freely, so two columns are
    equal exactly when their f values are. So a permutation phi is a morphism
    from the table of s onto that of t exactly when (i) f_t o phi is constant,
    c(g), on each fiber f_s^-1(g), and (ii) phi(aug_s[x, g]) ==
    aug_t[phi(x), c(g)] for every x and every g in Im f_s: |P| x |G| entries
    where the tables have |P|^2. Here c(g) is f_t o phi at some point of the
    fiber, and (ii) implies (i): both tables are idempotent, aug[y, f(y)] = y,
    so (ii) at x = y, g = f_s(y) reads phi(y) = phi(y) * f_t(phi(y))^-1 c(g),
    which is f_t(phi(y)) = c(g) since the action is free.
    """
    aug, f = _augmented(b, values)
    target_aug, target_f = target
    (r, n), order = phi.shape, b.group.order
    each = np.arange(r)[:, None]
    c = np.zeros((r, order), dtype=np.int64)
    c[each, f] = target_f[rows[:, None], phi]  # f_t(phi(y)) at g = f_s(y)
    image = np.zeros(c.shape, dtype=bool)
    image[each, f] = True
    # Flat takes of phi(aug_s[x, g]) and aug_t[phi(x), c(g)], in aug's dtype;
    # one intp array holds each one's indices in turn.
    flat = aug + n * each[..., None]
    images = np.take(phi.astype(aug.dtype), flat)
    np.add(((rows[:, None] * n + phi) * order)[..., None], c[:, None, :], out=flat)
    same = images == np.take(target_aug, flat)
    same |= ~image[:, None, :]
    ok = (np.sort(phi, axis=1) == np.arange(n)).all(axis=1) & same.all(axis=(1, 2))
    if not ok.all():
        i = ok.argmin()
        raise AlgebraError(
            f"census witness from {tuple(values[i].tolist())} to "
            f"{tuple(heads[rows[i]].tolist())} is not an isomorphism"
        )


def _fiber_sizes(b: DiscreteBundle, heads: np.ndarray) -> np.ndarray:
    """sizes[i]: the sorted fiber sizes |f^-1(g)|, g in G, of the map with section values heads[i], stacked (r, |G|)."""
    G = b.group
    r = len(heads)
    f = G.conj[heads].reshape(r, -1)  # f(x), in total_values order
    sizes = np.bincount((np.arange(r)[:, None] * G.order + f).ravel(), minlength=r * G.order)
    return np.sort(sizes.reshape(r, G.order), axis=1)


def _invariant_buckets(b: DiscreteBundle, heads: np.ndarray) -> np.ndarray:
    """bucket[i]: a number shared by exactly the rows of heads whose tables have equal sorted element invariants.

    Buckets are numbered 0, 1, ... in order of their first head. The action
    is free, so p <| y = p * f(p)^-1 f(y) fixes p exactly when f(p) = f(y):
    column y fixes the points of its fiber f^-1(f(y)), its cycles of length
    1 in element_invariants. So the sorted fiber sizes of f (_fiber_sizes),
    read off f with no table, are a function of the sorted invariants. The
    heads are split by them first, and only heads that share their sizes
    with another head have their tables gathered from the augmented form
    and fingerprinted by element_invariants, in chunks of at most
    _CHUNK_ELEMENTS entries; each of the rest is a bucket of its own.
    """
    n = b.total_size
    split = _row_ids(_fiber_sizes(b, heads))
    shared = np.flatnonzero(np.bincount(split)[split] > 1)
    fingerprint: dict[int, bytes] = {}
    for start, stop in _chunks(len(shared), n * n):
        aug, f = _augmented(b, heads[shared[start:stop]])
        inv = element_invariants(np.take_along_axis(aug, f[:, None, :], axis=2))
        # Each table's rows in numeric order, so equal multisets give equal bytes.
        order = np.argsort(_row_ids(inv.reshape(-1, inv.shape[2])).reshape(len(f), n), axis=1, kind="stable")
        for i, rows in zip(shared[start:stop].tolist(), np.take_along_axis(inv, order[..., None], axis=1)):
            fingerprint[i] = rows.tobytes()
    seen: dict[tuple[int, bytes | None], int] = {}
    bucket = [seen.setdefault((s, fingerprint.get(i)), len(seen)) for i, s in enumerate(split.tolist())]
    return np.array(bucket, dtype=np.int64)


def isomorphism_census(b: DiscreteBundle) -> list[tuple[tuple[int, ...], ...]]:
    """Group all |G|^|M| gauge quandles on b into isomorphism classes.

    Each class is the tuple of its members' section values in enumeration
    order, which is lexicographic, so its first member is its representative.
    Classes appear in order of their first member, so output is deterministic.

    Three changes of the section s give an isomorphic table with an explicit
    isomorphism: shifting by a central z (z*s has the same table as s),
    conjugating each value, s'(m) = h_m^-1 s(m) h_m, and permuting the base
    points. So each map is keyed by the sorted multiset of the conjugacy
    classes of its values, least over the central shifts, and the first map
    of each key is its head. Every other map m of key K is carried onto K's
    head by the witness phi_m(m, g) = (pi(m), h_m^-1 g): pi matches base
    points by class and h_m conjugates z*s(m) onto the head's shifted value
    at pi(m).

    An automorphism alpha of G carries the table of s onto that of alpha o s
    by (m, g) -> (m, alpha(g)), so Aut(G) acts on the keys. The key heads
    are bucketed by their sorted element invariants (_invariant_buckets).
    G acts freely, so column y of a gauge table fixes exactly the points
    of its fiber f^-1(f(y)), and the sorted fiber sizes of f, read off f
    alone, are a function of those invariants. So the heads are split by
    their fiber sizes first, and only heads that share them with another
    head are fingerprinted, in one stacked call (element_invariants) per
    _CHUNK_ELEMENTS table entries. When two heads share a bucket, Aut(G) is
    enumerated (_automorphisms) and every key is given its orbit root, the
    orbit's key whose head comes first; otherwise, or past the automorphism
    budget, every key is its own root. The roots' heads are gathered from one
    |P| x |G| augmented form (_augmented), in order of their heads. A root
    that shares its bucket with another root is built, which verifies its
    quandle axioms with verify_rack, and is searched with find_isomorphism
    against the earlier roots in its bucket. Every other root is compared
    with nothing, so it is not built: its column-class form is read off the
    augmented form, and the axioms of all such roots are decided at once by
    the decider verify_rack uses (_decided_quandles). A root that fails,
    built or decided, raises AlgebraError with verify_rack's report on its
    table, the first such root in head order.

    Every other map m of a key K joins its root's class through the witness
    psi_K o phi_m onto the root's verified head, where psi_K (_orbit_witness)
    carries K's head onto its root's through an automorphism, and is the
    identity on a root. Each witness must be a permutation and a morphism
    (AlgebraError if not), which carries every quandle axiom back along it.
    All are checked in one stacked pass on the |P| x |G| augmented form
    (_check_witnesses), in chunks of at most _CHUNK_ELEMENTS entries.
    """
    G = b.group
    n = b.total_size
    values = enumerate_maps(b)
    cls, conjugator = _class_conjugators(G)
    chunks = _chunks(len(values), G.order * b.base_size)
    codes, zs = map(np.concatenate, zip(*[_census_keys(G, cls, values[start:stop]) for start, stop in chunks]))
    key_codes, first, key_of = np.unique(codes, return_index=True, return_inverse=True)
    heads, keys = values[first], len(first)

    bucket_of = _invariant_buckets(b, heads)
    root_of = np.arange(keys)
    psi = np.broadcast_to(np.arange(n), (keys, n)).copy()  # psi[K]: K's head onto its root's
    if bucket_of.max() + 1 < keys:  # some bucket is shared
        autos = _automorphisms(G, cls)
        root_of, via = _key_orbits(G, cls, autos, heads, key_codes, first)
        moved = np.flatnonzero(root_of != np.arange(keys))
        if len(moved):  # none past the automorphism budget
            psi[moved] = _orbit_witness(b, cls, conjugator, autos[via[moved]], heads[moved], zs[first[root_of[moved]]])
    roots = np.flatnonzero(root_of == np.arange(keys))
    roots = roots[np.argsort(first[roots])]  # in order of their heads

    # A root alone among the roots of its bucket is compared with nothing, so
    # its axioms are decided on its class form; only the others are built.
    target = _augmented(b, heads[roots])
    shared = np.bincount(bucket_of[roots])[bucket_of[roots]] > 1
    ok = np.ones(len(roots), dtype=bool)
    ok[~shared] = _decided_quandles((target[0][~shared], target[1][~shared]))

    # root key -> its class; a bucket holds (root table, class) for equal sorted invariants.
    class_of_key = np.empty(keys, dtype=np.int64)
    buckets: dict[int, list[tuple[MagmaTable, int]]] = {}
    classes = 0
    for i, key in enumerate(roots):
        found = None
        if shared[i]:
            table = build(EquivariantMap(b, heads[key])).table
            bucket = buckets.setdefault(int(bucket_of[key]), [])
            found = next((c for rep, c in bucket if find_isomorphism(table, rep) is not None), None)
            if found is None:
                bucket.append((table, classes))
        elif not ok[i]:
            _verified(target[0][i][:, target[1][i]])  # raises with the table's report, if verify_rack confirms
        if found is None:
            found, classes = classes, classes + 1
        class_of_key[key] = found
    class_of_key = class_of_key[root_of]

    # Every map but a root's head, against its root's head: position[K] is K's row in roots.
    position = np.empty(keys, dtype=np.int64)
    position[roots] = np.arange(len(roots))
    rest = np.delete(np.arange(len(values)), first[roots])
    for start, stop in _chunks(len(rest), n * G.order):
        chunk = rest[start:stop]
        key = key_of[chunk]
        phi = _census_witnesses(b, cls, conjugator, zs[chunk], zs[first[key]])
        phi = np.take_along_axis(psi[key], phi, axis=1)
        _check_witnesses(b, phi, values[chunk], target, position[root_of[key]], heads[roots])

    class_of = class_of_key[key_of]
    parts = np.split(np.argsort(class_of, kind="stable"), np.cumsum(np.bincount(class_of))[:-1])
    return [tuple(map(tuple, values[part].tolist())) for part in parts]
