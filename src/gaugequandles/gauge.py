"""Quandles induced on a discrete principal bundle by an equivariant map.

An equivariant map f makes (P, G, f) an augmented rack, so P carries the rack
    p1 <| p2 = p1 * f(p2),
and the associated quandle
    p1 <|f p2 = p1 * f(p1)^-1 f(p2)  =  phi_f^-1(p1) * f(p2),
the gauge quandle. Both operations preserve fibers, every fiber is a quandle
in its own right, and quotients by suitable subgroups inherit the structure.
"""

from __future__ import annotations

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
from .groups import Subgroup, cosets, normalizer
from .racks import (
    MagmaTable,
    find_isomorphism,
    generalized_alexander,
    is_morphism,
    magma_from_table,
    magma_to_json,
    verify_rack,
)


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


def isomorphism_census(b: DiscreteBundle) -> list[tuple[tuple[int, ...], ...]]:
    """Group all |G|^|M| gauge quandles on b into isomorphism classes.

    Each class is the tuple of its members' section values in enumeration
    order, which is lexicographic, so its first member is its representative.
    Classes appear in order of their first member, so output is deterministic.

    Three changes of the section s give an isomorphic table with an explicit
    isomorphism: shifting by a central z (z*s has the same table as s),
    conjugating each value, s'(m) = h_m^-1 s(m) h_m, and permuting the base
    points. So each map is keyed by the sorted multiset of the conjugacy
    classes of its values, least over the central shifts. A map whose key
    was seen before joins that key's class through the witness
    phi(m, g) = (pi(m), h_m^-1 g): pi matches base points by class and h_m
    conjugates z*s(m) onto the key representative's shifted value at pi(m).
    Each witness is checked with is_morphism (AlgebraError if it fails).
    Only the first map of each key is searched with find_isomorphism, against
    the earlier class representatives with equal element invariants. Every
    table is still built, with its quandle axioms verified.
    """
    G = b.group
    idx = np.arange(G.order)
    cls = G.conj.min(axis=1)  # each element's conjugacy class, named by its smallest member
    conjugator = (G.conj[cls] == idx[:, None]).argmax(axis=1)  # conj[cls[a], conjugator[a]] == a
    centre = np.flatnonzero((G.conj == idx[:, None]).all(axis=1))

    # key -> (its first quandle, that map's least central shift, its class's members)
    keys: dict[tuple, tuple[GaugeQuandle, np.ndarray, list[tuple[int, ...]]]] = {}
    buckets: dict[tuple, list[tuple[GaugeQuandle, list[tuple[int, ...]]]]] = {}
    classes: list[list[tuple[int, ...]]] = []
    for f in enumerate_maps(b):
        q = build(f)
        shifts = G.table[np.ix_(centre, f.section_values)]  # row i: centre[i] * s
        rows = np.sort(cls[shifts], axis=1).tolist()
        key, least = min((tuple(row), i) for i, row in enumerate(rows))
        zs = shifts[least]
        if key in keys:
            rep, rep_zs, members = keys[key]
            pi = np.empty(b.base_size, dtype=np.int64)
            pi[np.argsort(cls[zs], kind="stable")] = np.argsort(cls[rep_zs], kind="stable")
            h = G.table[G.inverses[conjugator[zs]], conjugator[rep_zs[pi]]]
            phi = b.point(pi[:, None], G.table[G.inverses[h]]).ravel()
            if not is_morphism(phi, q.table, rep.table):
                raise AlgebraError(
                    f"census witness from {f.section_values} to "
                    f"{rep.map.section_values} is not an isomorphism"
                )
        else:
            bucket = buckets.setdefault(tuple(sorted(q.table.invariants)), [])
            members = next(
                (ms for r, ms in bucket if find_isomorphism(q.table, r.table) is not None), None
            )
            if members is None:
                members = []
                bucket.append((q, members))
                classes.append(members)
            keys[key] = (q, zs, members)
        members.append(f.section_values)
    return [tuple(members) for members in classes]
