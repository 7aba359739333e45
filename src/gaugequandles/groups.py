"""Finite groups as Cayley tables, plus the structural queries the rest of
the library consumes (inverses, conjugation, subgroups, normalizers, cosets).

Elements are dense integer indices 0..n-1 with the identity fixed at 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import AxiomViolation, CapExceeded, ShapeError, excerpt, _frozen_indices, index_array, json_int, read_array

# Exhaustive O(n^3) associativity validation is capped here.
ASSOCIATIVITY_CAP = 256

# The associativity check compares about this many products at a time.
_ASSOCIATIVITY_CHUNK_ELEMENTS = 1 << 20


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

    def __hash__(self) -> int:
        # Equal groups have equal tables, whatever their integer dtype.
        return hash(self.table.astype(np.int64, copy=False).tobytes())

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
    # Integral floats such as 2.0 pass; NaN, inf and values past int64 stay floats and fail below.
    if np.issubdtype(arr.dtype, np.floating) and np.all((np.abs(arr) < 2.0**63) & (arr == np.trunc(arr))):
        arr = arr.astype(np.int64)
    # No bound: group_from_table reports an out-of-range entry as a closure witness.
    return _frozen_indices(table, arr, None, "Cayley table entries")


def _check_associativity(t: np.ndarray) -> None:
    """Raise on the first (a, b, c), in lexicographic order, with (a*b)*c != a*(b*c)."""
    n = t.shape[0]
    step = max(1, _ASSOCIATIVITY_CHUNK_ELEMENTS // n**2)
    for start in range(0, n, step):
        rows = t[start:start + step]
        bad = t[rows] != np.take(rows, t, axis=1)   # [a, b, c]: (a*b)*c != a*(b*c)
        if bad.any():
            a, b, c = np.argwhere(bad)[0].tolist()
            raise AxiomViolation("associativity", (start + a, b, c))


def group_from_table(table, name: str = "") -> FiniteGroup:
    """Validate a Cayley table and return the group with identity relabeled to 0.

    Raises ShapeError for malformed input and AxiomViolation (with a witness)
    when closure, identity, associativity or inverses fail, checked in that
    order. An order above ASSOCIATIVITY_CAP raises CapExceeded.
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

    if n > ASSOCIATIVITY_CAP:
        raise CapExceeded(f"order {n} exceeds the associativity check cap {ASSOCIATIVITY_CAP}")
    _check_associativity(t)

    # Relabel so the identity sits at index 0, preserving the relative order
    # of the remaining elements: new element i is old element old[i].
    old = (idx != identity).argsort(kind="stable")
    t = old.argsort()[t[old[:, None], old]]

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
    gens = index_array(list(generators), G.order, "generators").tolist()
    return subgroup(G, np.flatnonzero(_word_tree(G, gens)[1]))


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
        raise ShapeError(f"side must be 'left' or 'right', got {side!r}")
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

def _cyclic_table(n: int) -> np.ndarray:
    idx = np.arange(n)
    return (idx[:, None] + idx[None, :]) % n


def _dihedral_table(n: int) -> np.ndarray:
    # Element k + n*e is r^k s^e, so rotations come first, and
    # (k1, e1) * (k2, e2) = (k1 + (-1)^e1 k2 mod n, e1 xor e2).
    idx = np.arange(2 * n)
    k, e = idx % n, idx // n
    return (k[:, None] + (1 - 2 * e[:, None]) * k[None, :]) % n + n * (e[:, None] ^ e[None, :])


def symmetric_group_elements(n: int) -> list[tuple[int, ...]]:
    """Permutations of range(n) in lexicographic order; identity first."""
    return sorted(itertools.permutations(range(n)))


def _symmetric_table(n: int) -> np.ndarray:
    # (a*b)(i) = a(b(i)): apply b first, then a. Reading a permutation as a
    # base-n number keeps the lexicographic order, so its index is a search.
    perms = np.array(symmetric_group_elements(n))
    digits = n ** np.arange(n - 1, -1, -1)
    return np.searchsorted(perms @ digits, perms[:, perms] @ digits)


# _QUATERNION_SIGN[u1, u2] is 1 when the product of the units u1, u2 in
# 1, i, j, k is negative (i*i = -1, j*i = -k, ...).
_QUATERNION_SIGN = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])


def _quaternion_table() -> np.ndarray:
    # Element 2*u + s is (-1)^s times unit u of 1, i, j, k, so the order is
    # +1, -1, +i, -i, +j, -j, +k, -k; the unit of a product is u1 xor u2.
    idx = np.arange(8)
    u, s = idx // 2, idx % 2
    u1, u2, s1, s2 = u[:, None], u[None, :], s[:, None], s[None, :]
    return 2 * (u1 ^ u2) + (s1 ^ s2 ^ _QUATERNION_SIGN[u1, u2])


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
        raise KeyError(f"unknown catalog group {excerpt(name)}; available: {catalog_names()}")
    if name not in _CATALOG_CACHE:
        _CATALOG_CACHE[name] = group_from_table(_CATALOG_TABLES[name], name=name)
    return _CATALOG_CACHE[name]


# ---------------------------------------------------------------------------
# JSON interface: {"name": str, "order": n, "table": [[int, ...], ...]}
# ---------------------------------------------------------------------------

def group_to_json(G: FiniteGroup) -> dict:
    """The group file object; "table" is the read-only G.table itself, which json.dumps takes as G.table.tolist()."""
    return {"name": G.name, "order": G.order, "table": G.table}


def group_from_json(obj) -> FiniteGroup:
    """Accepts a bare catalog name, or the group file format: an object carrying a 'table'."""
    if isinstance(obj, str):
        return catalog(obj)
    if isinstance(obj, dict):
        name = obj.get("name", "")
        if not isinstance(name, str):
            raise ShapeError(f"group name must be a string, got {excerpt(name)}")
        if "table" in obj:
            G = group_from_table(obj["table"], name=name)
            if "order" in obj and json_int(obj["order"], "order") != G.order:
                raise ShapeError(f"declared order {excerpt(obj['order'])} != table size {G.order}")
            return G
    raise ShapeError("group JSON must be a catalog name or carry a 'table'")
