"""Discrete principal bundles, gauge transformations, and equivariant maps.

A discrete principal bundle here is always the trivialized one: total points
are pairs (m, g) over a finite base 0..|M|-1 with fiber coordinates in a
finite group G, encoded as the single index p = m * |G| + g. The fiber chart
psi_m reads off the coordinate, the right action multiplies it, and the
canonical section is s(m) = (m, e).

Equivariant maps f : P -> G with f(p*g) = g^-1 f(p) g are stored by their
values on the canonical section; the value anywhere else is forced:
f(m, g) = g^-1 * f(s(m)) * g.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AlgebraError, CapExceeded, ShapeError, excerpt, index_array, int_field, json_int, load_json
from .groups import FiniteGroup, catalog, catalog_names, group_from_json, group_to_json

# enumerate_maps refuses a bundle with more than this many maps |G|^|M|.
ENUMERATION_CAP = 10**6

# Bundles are capped at this many total points, checked on construction,
# before any |P| x |G| action table or |P|^2 operation table is allocated.
TOTAL_POINTS_CAP = 4096


@dataclass(frozen=True)
class DiscreteBundle:
    """Total space M x G with the right G-action on fiber coordinates.

    The (m, g) encoding makes the chart a bijection on each fiber and the
    action free, transitive, fiber-preserving and chart-equivariant by
    construction; the property tests check these facts for the catalog.
    """

    group: FiniteGroup
    base_size: int

    def __post_init__(self):
        object.__setattr__(self, "base_size", int_field(self.base_size, "base_size"))
        if self.base_size < 1:
            raise ShapeError("base must have at least one point")
        if self.total_size > TOTAL_POINTS_CAP:
            raise CapExceeded(
                f"{excerpt(self.base_size)} base points x group order {self.group.order} exceed "
                f"the total points cap {TOTAL_POINTS_CAP}"
            )

    @property
    def total_size(self) -> int:
        return self.base_size * self.group.order

    def base(self, p: int) -> int:
        """The projection pi(p)."""
        return p // self.group.order

    def coord(self, p: int) -> int:
        """The chart psi_m(p), m = pi(p)."""
        return p % self.group.order

    def point(self, m: int, g: int) -> int:
        return m * self.group.order + g

    def action_table(self) -> np.ndarray:
        """act[p, g] = p * g for all total points and group elements: (m, h) * g = (m, h * g)."""
        bases = np.arange(self.base_size)[:, None, None]
        return self.point(bases, self.group.table).reshape(self.total_size, self.group.order)


@dataclass(frozen=True, eq=False)
class GaugeTransformation:
    """A fiber-preserving equivariant permutation of the total points; see to_gauge."""

    bundle: DiscreteBundle
    values: np.ndarray

    def __post_init__(self):
        b = self.bundle
        vals = index_array(self.values, b.total_size, "gauge transformation values")
        points = np.arange(b.total_size)
        if vals.shape != points.shape or not np.array_equal(np.sort(vals), points):
            raise AlgebraError("gauge transformation must permute the total points")
        moved = np.flatnonzero(b.base(vals) != b.base(points))
        if len(moved):
            raise AlgebraError(f"projection not preserved at point {moved[0]}")
        act = b.action_table()
        if not np.array_equal(vals[act], act[vals]):
            raise AlgebraError("equivariance phi(p*g) == phi(p)*g fails")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class EquivariantMap:
    """An element of Map(P, G)^G, stored by its canonical-section values."""

    bundle: DiscreteBundle
    section_values: tuple[int, ...]

    def __post_init__(self):
        vals = index_array(self.section_values, self.bundle.group.order, "section values")
        n = self.bundle.base_size
        if vals.shape != (n,):
            raise ShapeError(f"need one section value per base point, got {vals.size} for base size {n}")
        object.__setattr__(self, "section_values", tuple(vals.tolist()))

    def total_values(self) -> np.ndarray:
        """f(p) for every total point, in point order: f(m, g) = g^-1 * f(s(m)) * g."""
        return self.bundle.group.conj[list(self.section_values)].ravel()

    def __hash__(self) -> int:
        return hash(self.section_values)


def identity_map(b: DiscreteBundle) -> EquivariantMap:
    """The constant-e map, the unit of Map(P, G)^G."""
    return EquivariantMap(b, (0,) * b.base_size)


def to_gauge(f: EquivariantMap) -> GaugeTransformation:
    """The gauge transformation phi_f(p) = p * f(p).

    f -> phi_f is a group isomorphism onto its image (not an
    anti-isomorphism): phi_{f1 f2} = phi_f1 . phi_f2 for the pointwise
    product compose_maps(f1, f2), and phi_f^-1 = phi_{f^-1}, that is
    p -> p * f(p)^-1, for invert_map(f).
    """
    b = f.bundle
    vals = f.total_values()
    act = b.action_table()
    perm = act[np.arange(b.total_size), vals]
    return GaugeTransformation(b, perm)


def compose_maps(f1: EquivariantMap, f2: EquivariantMap) -> EquivariantMap:
    """Pointwise product (f1 f2)(p) = f1(p) * f2(p)."""
    if f1.bundle != f2.bundle:
        raise ShapeError("maps live on different bundles")
    return EquivariantMap(f1.bundle, f1.bundle.group.table[f1.section_values, f2.section_values])


def invert_map(f: EquivariantMap) -> EquivariantMap:
    return EquivariantMap(f.bundle, f.bundle.group.inverses[list(f.section_values)])


def enumerate_maps(b: DiscreteBundle) -> np.ndarray:
    """The section values of all |G|^|M| maps, one read-only int64 row each, row i being i in base |G|.

    So the rows are in lexicographic order; EquivariantMap(b, row) builds one row's map.
    """
    n, k = b.group.order, b.base_size
    if n**k > ENUMERATION_CAP:
        raise CapExceeded(f"{n**k} maps exceed the cap {ENUMERATION_CAP}")
    rows = np.arange(n**k)[:, None] // n ** np.arange(k - 1, -1, -1) % n
    rows.setflags(write=False)
    return rows


# ---------------------------------------------------------------------------
# JSON interfaces
#   bundle: {"group": <name or group object>, "base_size": int}
#   map:    {"section_values": [int, ...]}
# ---------------------------------------------------------------------------

def bundle_to_json(b: DiscreteBundle) -> dict:
    """The group by catalog name when it is that catalog group, else as a group object."""
    G = b.group
    in_catalog = G.name in catalog_names() and G == catalog(G.name)
    return {"group": G.name if in_catalog else group_to_json(G), "base_size": b.base_size}


def bundle_from_json(obj) -> DiscreteBundle:
    if not isinstance(obj, dict) or "group" not in obj or "base_size" not in obj:
        raise ShapeError("bundle JSON must carry 'group' and 'base_size'")
    base_size = json_int(obj["base_size"], "base_size")
    return DiscreteBundle(group_from_json(obj["group"]), base_size)


def load_bundle(path: str | Path) -> DiscreteBundle:
    return bundle_from_json(load_json(path))


def map_to_json(f: EquivariantMap) -> dict:
    return {"section_values": list(f.section_values)}


def map_from_json(b: DiscreteBundle, obj) -> EquivariantMap:
    if not isinstance(obj, dict) or not isinstance(obj.get("section_values"), list):
        raise ShapeError("map JSON must carry a 'section_values' list")
    return EquivariantMap(
        b, tuple(json_int(v, "section value") for v in obj["section_values"])
    )


def load_map(b: DiscreteBundle, path: str | Path) -> EquivariantMap:
    return map_from_json(b, load_json(path))
