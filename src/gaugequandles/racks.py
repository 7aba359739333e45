"""Finite magmas with rack/quandle axiom verification and the standard
quandle constructions.

A rack is a set with a binary operation x <| y that is right self-distributive,
    (x <| y) <| z == (x <| z) <| (y <| z),
and whose right translations  - <| y  are bijective. A quandle additionally
satisfies x <| x == x. Tables store op[x, y] = x <| y.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import AutomorphismRequired, NotARack, ShapeError, SizeMismatch, index_array, json_int, read_array
from .groups import FiniteGroup

# Chunk the n^3 self-distributivity scan to bound peak memory.
_SD_CHUNK_ELEMENTS = 1_000_000


@dataclass(frozen=True, eq=False)
class MagmaTable:
    """An n x n operation table op[x, y] = x <| y over elements 0..n-1."""

    size: int
    op: np.ndarray
    labels: tuple[str, ...] | None = None

    @functools.cached_property
    def invariants(self) -> list[tuple[int, ...]]:
        """element_invariants(self), computed once per table."""
        return element_invariants(self)

    def __eq__(self, other) -> bool:
        # Entrywise table equality; labels are display-only.
        if not isinstance(other, MagmaTable):
            return NotImplemented
        return self.size == other.size and np.array_equal(self.op, other.op)

    def __repr__(self) -> str:
        return f"MagmaTable(size={self.size})"


@dataclass(frozen=True)
class RackReport:
    """Outcome of a rack/quandle axiom scan, with sorted witness lists."""

    is_rack: bool
    is_quandle: bool
    sd_violations: tuple[tuple[int, int, int], ...]
    bijectivity_violations: tuple[int, ...]
    idem_violations: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "is_rack": self.is_rack,
            "is_quandle": self.is_quandle,
            "sd_violations": [list(w) for w in self.sd_violations],
            "bijectivity_violations": list(self.bijectivity_violations),
            "idem_violations": list(self.idem_violations),
        }


def magma_from_table(op, labels: Sequence[str] | None = None) -> MagmaTable:
    arr = read_array(op, "operation table entries")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
        raise ShapeError(f"operation table must be square and non-empty, got shape {arr.shape}")
    n = arr.shape[0]
    # A C-ordered copy: a Fortran-ordered table would slow verify_rack.
    arr = index_array(arr, n, "operation table entries")
    if labels is not None and len(labels) != n:
        raise ShapeError(f"got {len(labels)} labels for {n} elements")
    return MagmaTable(size=n, op=arr, labels=tuple(labels) if labels is not None else None)


def verify_rack(m: MagmaTable) -> RackReport:
    """Exhaustively scan all axioms and report every violation.

    The self-distributivity scan covers all n^3 triples; bijectivity is a
    per-column permutation test; idempotency is also scanned so the report
    can state is_quandle.
    """
    op = m.op
    n = m.size
    idx = np.arange(n)

    col_sorted = np.sort(op, axis=0)
    bij = tuple(int(y) for y in np.flatnonzero(~(col_sorted == idx[:, None]).all(axis=0)))

    idem = tuple(int(x) for x in np.flatnonzero(np.diagonal(op) != idx))

    sd: list[tuple[int, int, int]] = []
    chunk = max(1, _SD_CHUNK_ELEMENTS // (n * n))
    for start in range(0, n, chunk):
        xs = np.arange(start, min(start + chunk, n))
        lhs = op[op[xs]]                                # [i, y, z] = (x <| y) <| z
        rhs = op[op[xs][:, None, :], op[None, :, :]]    # [i, y, z] = (x <| z) <| (y <| z)
        sd.extend(map(tuple, (np.argwhere(lhs != rhs) + (start, 0, 0)).tolist()))

    is_rack = not sd and not bij
    return RackReport(
        is_rack=is_rack,
        is_quandle=is_rack and not idem,
        sd_violations=tuple(sd),
        bijectivity_violations=bij,
        idem_violations=idem,
    )


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def trivial_quandle(n: int) -> MagmaTable:
    """x <| y = x for all x, y."""
    if n < 1:
        raise ShapeError("trivial quandle needs at least one element")
    op = np.broadcast_to(np.arange(n)[:, None], (n, n)).copy()
    return magma_from_table(op)


def conjugation_quandle(G: FiniteGroup) -> MagmaTable:
    """a <| b = b^-1 * a * b on the elements of G: the table G.conj."""
    return magma_from_table(G.conj)


def check_automorphism(G: FiniteGroup, sigma) -> np.ndarray:
    """Validate sigma as a group automorphism, returned as an index array.

    Raises AutomorphismRequired with a witness pair (a, b) on failure.
    """
    s = index_array(sigma, G.order, "sigma")
    if s.shape != (G.order,) or sorted(s.tolist()) != list(range(G.order)):
        raise ShapeError(f"sigma must be a permutation of 0..{G.order - 1}")
    t = G.table
    mism = np.argwhere(s[t] != t[np.ix_(s, s)])
    if len(mism):
        a, b = mism[0]
        raise AutomorphismRequired((int(a), int(b)))
    return s


def generalized_alexander(G: FiniteGroup, sigma) -> MagmaTable:
    """g1 <| g2 = sigma(g1 * g2^-1) * g2 for an automorphism sigma of G."""
    s = check_automorphism(G, sigma)
    t = G.table
    return magma_from_table(t[s[t[:, G.inverses]], np.arange(G.order)])


def rack_iota(m: MagmaTable) -> np.ndarray:
    """The map iota with iota(x) <| x == x, recomputed by column scan.

    Existence and uniqueness follow from bijectivity of the right
    translations; requires a rack.
    """
    report = verify_rack(m)
    if not report.is_rack:
        raise NotARack(f"table fails rack axioms: {report.to_json()}")
    return (m.op == np.arange(m.size)).argmax(axis=0)


def associated_quandle(m: MagmaTable) -> MagmaTable:
    """The quandle x <|' y = iota(x) <| y induced by a rack.

    If m is already a quandle, iota is the identity and the table is
    returned unchanged.
    """
    iota = rack_iota(m)
    return magma_from_table(m.op[iota], labels=m.labels)


# ---------------------------------------------------------------------------
# Morphisms and isomorphism search
# ---------------------------------------------------------------------------

def morphism_witnesses(f, src: MagmaTable, dst: MagmaTable) -> list[tuple[int, int]]:
    """Pairs (x, y) where f(x <| y) != f(x) <| f(y), sorted."""
    fa = index_array(f, dst.size, "map values")
    if fa.shape != (src.size,):
        raise ShapeError(f"map must assign all {src.size} source elements")
    bad = fa[src.op] != dst.op[np.ix_(fa, fa)]
    return list(map(tuple, np.argwhere(bad).tolist()))


def is_morphism(f, src: MagmaTable, dst: MagmaTable) -> bool:
    return not morphism_witnesses(f, src, dst)


def element_invariants(m: MagmaTable) -> list[tuple[int, ...]]:
    """Per-element fingerprints preserved by any isomorphism, one flat int tuple each.

    For x: the sorted cycle lengths of the points under - <| x (0 for a point
    on no cycle), the sorted in-degree profile of that column, the sorted
    value profile of the row x <| -, the flag x <| x == x, and the number of
    table entries equal to x. Every column is treated alike, permutation or not.
    """
    op = m.op
    n = m.size
    idx = np.arange(n)
    # cycles[p, x]: least k <= n with (- <| x)^k (p) == p, else 0.
    cycles = np.zeros((n, n), dtype=np.int64)
    cur = np.broadcast_to(idx[:, None], (n, n))
    for k in range(1, n + 1):
        cur = op[cur, idx]
        cycles[(cur == idx[:, None]) & (cycles == 0)] = k
        if cycles.all():
            break
    col_counts = np.zeros((n, n), dtype=np.int64)   # [v, x] = #{p : p <| x == v}
    np.add.at(col_counts, (op, idx), 1)
    row_counts = np.zeros((n, n), dtype=np.int64)   # [x, v] = #{y : x <| y == v}
    np.add.at(row_counts, (idx[:, None], op), 1)
    flat = np.concatenate([
        np.sort(cycles, axis=0).T,
        np.sort(col_counts, axis=0).T,
        np.sort(row_counts, axis=1),
        (op[idx, idx] == idx)[:, None],
        np.bincount(op.ravel(), minlength=n)[:, None],
    ], axis=1)
    return [tuple(row) for row in flat.tolist()]


def find_isomorphism(a: MagmaTable, b: MagmaTable) -> list[int] | None:
    """Search for a bijection f with f(x <| y) = f(x) <| f(y).

    Backtracking over images with forced-image propagation: once f(x) and
    f(u) are set, f(x <| u) and f(u <| x) are forced. Only elements that no
    assignment forces are branched on, most constrained first, and every
    image must match its element's invariants. Returns the witness as a
    list, or None after exhaustion.
    """
    if a.size != b.size:
        raise SizeMismatch(f"sizes differ: {a.size} != {b.size}")
    n = a.size
    inv_a, inv_b = a.invariants, b.invariants
    if sorted(inv_a) != sorted(inv_b):
        return None

    candidates = [[w for w in range(n) if inv_b[w] == inv_a[x]] for x in range(n)]
    order = sorted(range(n), key=lambda x: (len(candidates[x]), x))
    op_a, op_b = a.op.tolist(), b.op.tolist()
    f = [-1] * n
    used = [False] * n
    trail: list[int] = []  # mapped elements, in the order they were mapped

    def assign(x: int, w: int) -> bool:
        # Set f(x) = w and everything it forces; False on a contradiction.
        queue = [(x, w)]
        while queue:
            x, w = queue.pop()
            if f[x] >= 0:
                if f[x] != w:
                    return False
                continue
            if used[w] or inv_a[x] != inv_b[w]:
                return False
            f[x] = w
            used[w] = True
            trail.append(x)
            for u in trail:
                fu = f[u]
                queue.append((op_a[x][u], op_b[w][fu]))
                queue.append((op_a[u][x], op_b[fu][w]))
        return True

    def search(pos: int) -> bool:
        while pos < n and f[order[pos]] >= 0:
            pos += 1
        if pos == n:
            return True
        x = order[pos]
        mark = len(trail)
        for w in candidates[x]:
            if assign(x, w) and search(pos + 1):
                return True
            while len(trail) > mark:
                used[f[trail[-1]]] = False
                f[trail.pop()] = -1
        return False

    if search(0):
        assert is_morphism(f, a, b)
        return f
    return None


# ---------------------------------------------------------------------------
# JSON interface: {"size": n, "op": [[int, ...], ...], "labels": [...]?}
# ---------------------------------------------------------------------------

def magma_to_json(m: MagmaTable) -> dict:
    obj: dict = {"size": m.size, "op": m.op.tolist()}
    if m.labels is not None:
        obj["labels"] = list(m.labels)
    return obj


def magma_from_json(obj) -> MagmaTable:
    if not isinstance(obj, dict) or "op" not in obj:
        raise ShapeError("quandle JSON must carry an 'op' table")
    labels = obj.get("labels")
    if "labels" in obj and not (isinstance(labels, list) and all(isinstance(s, str) for s in labels)):
        raise ShapeError(f"labels must be a list of strings, got {labels!r}")
    m = magma_from_table(obj["op"], labels=labels)
    if "size" in obj and json_int(obj["size"], "size") != m.size:
        raise ShapeError(f"declared size {obj['size']} != table size {m.size}")
    return m


def load_magma(path: str | Path) -> MagmaTable:
    return magma_from_json(json.loads(Path(path).read_text()))
