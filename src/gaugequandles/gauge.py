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

    This equals p1 * f(p1)^-1 f(p2), since phi_f^-1(p1) = p1 * f(p1)^-1. The
    quandle axioms are verified exhaustively over all |P|^3 triples.
    """
    op = f.bundle.action_table()[to_gauge(f).inverted().values][:, f.total_values()]
    table = magma_from_table(op)
    report = verify_rack(table)
    if not report.is_quandle:
        raise AlgebraError(f"constructed table fails quandle axioms: {report.to_json()}")
    return GaugeQuandle(map=f, table=table)


def fiber_quandle(q: GaugeQuandle, m: int) -> MagmaTable:
    """The subquandle on pi^-1(m), re-indexed 0..|G|-1 in chart order."""
    b = q.bundle
    pts = b.point(int(index_array(m, b.base_size, "base index")), np.arange(b.group.order))
    return magma_from_table(b.coord(q.table.op[np.ix_(pts, pts)]))


def transport_fiber(q: GaugeQuandle, m: int) -> tuple[MagmaTable, np.ndarray]:
    """Move the fiber quandle at m onto G through the chart psi_m.

    Returns the transported table g1 <| g2 = psi_m(psi_m^-1(g1) <|f psi_m^-1(g2))
    and the chart bijection (fiber position -> group element) as the witness.
    In the (m, g) encoding psi_m is the identity on fiber positions, so the
    transported table is the fiber quandle itself. It always coincides with
    the generalized Alexander quandle of G for the inner automorphism of
    f(s(m)).
    """
    return fiber_quandle(q, m), np.arange(q.bundle.group.order)


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
        raise AlgebraError(f"quotient table fails quandle axioms: {report.to_json()}")
    return m


@dataclass(frozen=True, eq=False)
class ReducedQuandle:
    """The quotient quandle on the classes p*H of a gauge quandle."""

    parent: GaugeQuandle
    subgroup: Subgroup
    classes: tuple[tuple[int, ...], ...]
    class_of: np.ndarray
    table: MagmaTable


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

    orbits = np.sort(b.action_table()[:, H.elements], axis=1)
    smallest, class_of = np.unique(orbits[:, 0], return_inverse=True)
    table = quotient(q.table.op, class_of)
    class_of.setflags(write=False)
    return ReducedQuandle(
        parent=q,
        subgroup=H,
        classes=tuple(map(tuple, orbits[smallest].tolist())),
        class_of=class_of,
        table=table,
    )


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
    obj["provenance"] = {
        "bundle": bundle_to_json(q.bundle),
        "section_values": list(q.map.section_values),
    }
    return obj


@dataclass(frozen=True)
class CensusClass:
    """One isomorphism class of gauge quandles: section values in enumeration order."""

    members: tuple[tuple[int, ...], ...]

    @property
    def representative(self) -> tuple[int, ...]:
        return self.members[0]

    @property
    def size(self) -> int:
        return len(self.members)


def isomorphism_census(b: DiscreteBundle) -> list[CensusClass]:
    """Group all |G|^|M| gauge quandles on b into isomorphism classes.

    Every table is built with its quandle axioms verified. Classes appear in
    order of their first representative (enumeration is lexicographic in
    section values), so output is deterministic.
    """
    buckets: dict[tuple, list[tuple[GaugeQuandle, list[tuple[int, ...]]]]] = {}
    ordered: list[tuple[GaugeQuandle, list[tuple[int, ...]]]] = []
    for f in enumerate_maps(b):
        q = build(f)
        key = tuple(sorted(q.table.invariants))
        entry = None
        for rep, members in buckets.setdefault(key, []):
            if find_isomorphism(q.table, rep.table) is not None:
                entry = (rep, members)
                break
        if entry is None:
            entry = (q, [])
            buckets[key].append(entry)
            ordered.append(entry)
        entry[1].append(f.section_values)
    return [CensusClass(members=tuple(members)) for _, members in ordered]
