"""Finite groups as Cayley tables, plus the structural queries the rest of
the library consumes (inverses, conjugation, subgroups, normalizers, cosets).

Elements are dense integer indices 0..n-1 with the identity fixed at 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import AxiomViolation, CapExceeded, ShapeError, index_array, json_int, read_array

# Exhaustive O(n^3) associativity validation is capped here.
ASSOCIATIVITY_CAP = 256


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group given by its Cayley table, table[a, b] = a*b.

    Identity is element 0, inverses[a] = a^-1 and conj[a, g] = g^-1 * a * g.
    Instances are immutable; construct through group_from_table or the catalog.
    """

    order: int
    table: np.ndarray
    inverses: np.ndarray
    conj: np.ndarray
    name: str = ""

    def inner_automorphism(self, g: int) -> np.ndarray:
        """The permutation a -> g^-1 * a * g as an index array."""
        return self.conj[:, g].copy()

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.order == other.order and np.array_equal(self.table, other.table)

    def __repr__(self) -> str:
        label = self.name or "group"
        return f"FiniteGroup({label}, order={self.order})"


@dataclass(frozen=True)
class Subgroup:
    """A validated subgroup, stored as a sorted tuple of element indices."""

    group: FiniteGroup
    elements: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"Subgroup({list(self.elements)} of {self.group!r})"


def _as_index_table(table) -> np.ndarray:
    arr = read_array(table, "Cayley table entries")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"Cayley table must be square, got shape {arr.shape}")
    if arr.size == 0:
        raise ShapeError("Cayley table must be non-empty")
    if np.issubdtype(arr.dtype, np.floating) and np.all(arr == arr.astype(np.int64)):
        arr = arr.astype(np.int64)  # integral floats such as 2.0 are accepted
    # No bound: group_from_table reports an out-of-range entry as a closure witness.
    return index_array(arr, None, "Cayley table entries")


def _check_associativity(t: np.ndarray) -> None:
    n = t.shape[0]
    for a in range(n):
        lhs = t[t[a]]        # lhs[b, c] = (a*b)*c
        rhs = t[a][t]        # rhs[b, c] = a*(b*c)
        if not np.array_equal(lhs, rhs):
            b, c = np.argwhere(lhs != rhs)[0]
            raise AxiomViolation("associativity", (a, int(b), int(c)))


def group_from_table(table, name: str = "", *, verify_associativity: bool = True) -> FiniteGroup:
    """Validate a Cayley table and return the group with identity relabeled to 0.

    Raises ShapeError for malformed input and AxiomViolation (with a witness)
    when closure, associativity, identity, or inverses fail. An order above
    ASSOCIATIVITY_CAP raises CapExceeded; a caller that already knows the
    table is associative may pass verify_associativity=False to skip the check.
    """
    t = _as_index_table(table)
    n = t.shape[0]

    if t.min() < 0 or t.max() >= n:
        a, b = np.argwhere((t < 0) | (t >= n))[0]
        raise AxiomViolation("closure", (int(a), int(b)), f"entry {int(t[a, b])} out of range")

    idx = np.arange(n)
    identities = np.flatnonzero((t == idx).all(axis=1) & (t == idx[:, None]).all(axis=0))
    if not len(identities):
        raise AxiomViolation("identity", None, "no two-sided identity element")
    identity = int(identities[0])

    if verify_associativity:
        if n > ASSOCIATIVITY_CAP:
            raise CapExceeded(f"order {n} exceeds the associativity check cap {ASSOCIATIVITY_CAP}")
        _check_associativity(t)

    # Relabel so the identity sits at index 0, preserving the relative order
    # of the remaining elements: new element i is old element old[i].
    old = np.concatenate([[identity], np.delete(idx, identity)])
    t = np.argsort(old)[t[np.ix_(old, old)]]

    two_sided = (t == 0) & (t.T == 0)
    missing = np.flatnonzero(~two_sided.any(axis=1))
    if len(missing):
        raise AxiomViolation("inverse", (int(old[missing[0]]),))
    inverses = two_sided.argmax(axis=1)
    conj = t[t[inverses].T, idx]

    for arr in (t, inverses, conj):
        arr.setflags(write=False)
    return FiniteGroup(order=n, table=t, inverses=inverses, conj=conj, name=name)


# ---------------------------------------------------------------------------
# Subgroups and related queries
# ---------------------------------------------------------------------------

def subgroup(G: FiniteGroup, elements: Iterable[int]) -> Subgroup:
    """Validate a set of element indices as a subgroup of G."""
    elems = np.unique(index_array(list(elements), G.order, "subgroup elements")).tolist()
    if 0 not in elems:
        raise AxiomViolation("identity", None, "subgroup must contain the identity")
    member = np.zeros(G.order, dtype=bool)
    member[elems] = True
    # Row a: a^-1 first, then a*b for every b, the order the witnesses are reported in.
    bad = ~member[np.column_stack([G.inverses[elems], G.table[np.ix_(elems, elems)]])]
    if bad.any():
        i, j = np.argwhere(bad)[0]
        if j == 0:
            raise AxiomViolation("inverse", (elems[i],), "subgroup not closed under inverses")
        raise AxiomViolation("closure", (elems[i], elems[j - 1]), "subgroup not closed under product")
    return Subgroup(group=G, elements=tuple(elems))


def generated_subgroup(G: FiniteGroup, generators: Iterable[int]) -> Subgroup:
    """The subgroup generated by the given elements.

    Closing under products is enough: in a finite group every inverse is a
    positive power.
    """
    elems = np.union1d([0], index_array(list(generators), G.order, "generators"))
    while True:
        grown = np.union1d(elems, G.table[np.ix_(elems, elems)])
        if len(grown) == len(elems):
            return subgroup(G, elems)
        elems = grown


def normalizer(H: Subgroup) -> Subgroup:
    """All g in H.group with g^-1 H g = H, as a subgroup.

    Conjugation is injective, so g^-1 H g inside H already means equal.
    """
    G, hs = H.group, list(H.elements)
    return subgroup(G, np.flatnonzero(np.isin(G.conj[hs], hs).all(axis=0)))


def cosets(H: Subgroup, side: str = "left") -> list[tuple[int, ...]]:
    """Partition H.group into left cosets gH or right cosets Hg.

    Blocks are sorted internally and ordered by their smallest element.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    G, hs = H.group, list(H.elements)
    rows = G.table[:, hs] if side == "left" else G.table[hs, :].T  # row g: gH or Hg
    # Cosets are disjoint, so sorting the sorted rows orders them by smallest element.
    return [tuple(block) for block in np.unique(np.sort(rows, axis=1), axis=0).tolist()]


def is_normal(H: Subgroup) -> bool:
    hs = list(H.elements)
    return bool(np.isin(H.group.conj[hs], hs).all())


def centralizes(g: int, H: Subgroup) -> bool:
    """True iff g*h == h*g, that is g^-1 h g == h, for every h in H."""
    hs = list(H.elements)
    return bool(np.array_equal(H.group.conj[hs, g], hs))


# ---------------------------------------------------------------------------
# Built-in catalog
# ---------------------------------------------------------------------------

def _table_from_elements(elements: Sequence, compose) -> np.ndarray:
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    t = np.empty((n, n), dtype=np.int64)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            t[i, j] = index[compose(a, b)]
    return t


def _cyclic_table(n: int) -> np.ndarray:
    idx = np.arange(n)
    return (idx[:, None] + idx[None, :]) % n


def _dihedral_table(n: int) -> np.ndarray:
    # Elements (k, e) = r^k s^e, encoded as k + n*e; rotations come first.
    # (k1,e1)*(k2,e2) = (k1 + (-1)^e1 k2 mod n, e1 xor e2).
    elements = [(k, e) for e in (0, 1) for k in range(n)]

    def compose(x, y):
        k1, e1 = x
        k2, e2 = y
        k = (k1 - k2) % n if e1 else (k1 + k2) % n
        return (k, e1 ^ e2)

    return _table_from_elements(elements, compose)


def symmetric_group_elements(n: int) -> list[tuple[int, ...]]:
    """Permutations of range(n) in lexicographic order; identity first."""
    return sorted(itertools.permutations(range(n)))


def compose_permutations(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """(a*b)(i) = a(b(i)): apply b first, then a."""
    return tuple(a[b[i]] for i in range(len(a)))


def _symmetric_table(n: int) -> np.ndarray:
    return _table_from_elements(symmetric_group_elements(n), compose_permutations)


def _quaternion_table() -> np.ndarray:
    # Units 1, i, j, k with signs; element order: +1,-1,+i,-i,+j,-j,+k,-k.
    units = "1ijk"
    rules = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
        ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
    }
    elements = [(s, u) for u in units for s in (1, -1)]

    def compose(x, y):
        s1, u1 = x
        s2, u2 = y
        s3, u3 = rules[(u1, u2)]
        return (s1 * s2 * s3, u3)

    return _table_from_elements(elements, compose)


def _catalog_tables() -> dict[str, np.ndarray]:
    tables: dict[str, np.ndarray] = {}
    for n in range(1, 13):
        tables[f"Z{n}"] = _cyclic_table(n)
    for n in range(2, 7):
        tables[f"D{n}"] = _dihedral_table(n)
    tables["S3"] = _symmetric_table(3)
    tables["S4"] = _symmetric_table(4)
    tables["Q8"] = _quaternion_table()
    return tables


_CATALOG_TABLES = _catalog_tables()
_CATALOG_CACHE: dict[str, FiniteGroup] = {}


def catalog_names() -> list[str]:
    return list(_CATALOG_TABLES)


def catalog(name: str) -> FiniteGroup:
    """Look up a built-in group by name ("Z4", "S3", "D4", "Q8", ...)."""
    if name not in _CATALOG_TABLES:
        raise KeyError(f"unknown catalog group {name!r}; available: {catalog_names()}")
    if name not in _CATALOG_CACHE:
        _CATALOG_CACHE[name] = group_from_table(_CATALOG_TABLES[name], name=name)
    return _CATALOG_CACHE[name]


# ---------------------------------------------------------------------------
# JSON interface: {"name": str, "order": n, "table": [[int, ...], ...]}
# ---------------------------------------------------------------------------

def group_to_json(G: FiniteGroup) -> dict:
    return {"name": G.name, "order": G.order, "table": G.table.tolist()}


def group_from_json(obj) -> FiniteGroup:
    """Accepts the group file format, a bare catalog name, or an inline table."""
    if isinstance(obj, str):
        return catalog(obj)
    if isinstance(obj, dict):
        if "table" in obj:
            G = group_from_table(obj["table"], name=str(obj.get("name", "")))
            if "order" in obj and json_int(obj["order"], "order") != G.order:
                raise ShapeError(f"declared order {obj['order']} != table size {G.order}")
            return G
        if "name" in obj:
            return catalog(str(obj["name"]))
    raise ShapeError("group JSON must be a catalog name or carry a 'table'")
