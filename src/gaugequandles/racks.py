"""Finite magmas with rack/quandle axiom verification and the standard
quandle constructions.

A rack is a set with a binary operation x <| y that is right self-distributive,
    (x <| y) <| z == (x <| z) <| (y <| z),
and whose right translations  - <| y  are bijective. A quandle additionally
satisfies x <| x == x. Tables store op[x, y] = x <| y.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    AlgebraError,
    AutomorphismRequired,
    CapExceeded,
    NotARack,
    ShapeError,
    excerpt,
    index_array,
    json_int,
    load_json,
    read_array,
)
from .groups import FiniteGroup

# Chunk the self-distributivity scan to bound peak memory.
_SD_CHUNK_ELEMENTS = 1_000_000

# verify_rack refuses a table whose self-distributivity scan, (distinct
# columns) x n^2 entries, would exceed this. A gauge quandle has at most |G|
# distinct columns, so with |G| <= ASSOCIATIVITY_CAP (256) and at most
# TOTAL_POINTS_CAP (4096) points none is refused.
SD_SCAN_CAP = 256 * 4096**2


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


@dataclass(frozen=True, eq=False)
class RackReport:
    """Outcome of a rack/quandle axiom scan, with sorted witness arrays.

    The witnesses are read-only integer arrays: sd_violations of shape
    (N, 3), one (x, y, z) per row, and bijectivity_violations and
    idem_violations of shape (N,). Reports compare by np.array_equal.
    """

    is_rack: bool
    is_quandle: bool
    sd_violations: np.ndarray
    bijectivity_violations: np.ndarray
    idem_violations: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, RackReport):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(vars(self).values(), vars(other).values()))

    def to_json(self) -> dict:
        """The fields in order; the witness entries are the stored arrays themselves, not copies."""
        return dict(vars(self))

    def lines(self) -> list[str]:
        """The text form: verdicts, witness counts and the first witness of each kind."""
        lines = [
            f"rack:    {'yes' if self.is_rack else 'NO'}",
            f"quandle: {'yes' if self.is_quandle else 'NO'}",
            f"self-distributivity violations: {len(self.sd_violations)}",
            f"non-bijective right translations: {len(self.bijectivity_violations)}",
            f"idempotency violations: {len(self.idem_violations)}",
        ]
        if len(self.sd_violations):
            lines.append(f"  first sd witness (x, y, z): {tuple(self.sd_violations[0].tolist())}")
        if len(self.bijectivity_violations):
            lines.append(f"  first non-bijective column y: {self.bijectivity_violations[0]}")
        if len(self.idem_violations):
            lines.append(f"  first idempotency witness x: {self.idem_violations[0]}")
        return lines

    def __str__(self) -> str:
        """The text form on one line, for error messages: its size does not grow with the witnesses."""
        return "; ".join(" ".join(line.split()) for line in self.lines())


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


def _column_representatives(op: np.ndarray) -> np.ndarray:
    """rep[z]: the least z' whose column op[:, z'] equals op[:, z], by exact byte equality."""
    n = len(op)
    cols = np.ascontiguousarray(op.T, dtype=np.min_scalar_type(n - 1)).tobytes()
    width = len(cols) // n
    first: dict[bytes, int] = {}
    return np.array([first.setdefault(cols[z * width:(z + 1) * width], z) for z in range(n)])


def verify_rack(m: MagmaTable) -> RackReport:
    """Decide every axiom at every element and report every violation.

    Self-distributivity at (x, y, z) says R_z(x <| y) == R_z(x) <| R_z(y)
    for the right translation R_z = column z, so it reads z only through
    that column: elements with equal columns share their violating (x, y)
    pairs. Every triple is decided by one n^2 scan per distinct column, and
    each violation is reported for every z with that column, in (x, y, z)
    order. The scan gathers from copies of the table in the narrowest dtype
    that holds an element, and spreads over the columns of a class only the
    (x, y) rows that fail. A table whose scan, (distinct columns) x n^2, exceeds
    SD_SCAN_CAP raises CapExceeded before the scan. Bijectivity is a
    permutation test per distinct column; idempotency is also scanned so
    the report can state is_quandle.
    """
    op = m.op
    n = m.size
    idx = np.arange(n)
    rep = _column_representatives(op)
    reps = np.flatnonzero(rep == idx)
    k = len(reps)
    if k * n * n > SD_SCAN_CAP:
        raise CapExceeded(
            f"a table of {n} elements with {k} distinct columns needs {k * n * n} "
            f"self-distributivity checks, above the cap {SD_SCAN_CAP}"
        )
    cls = np.searchsorted(reps, rep)  # reps[cls[z]] == rep[z]
    A = op[:, reps]                   # [x, j] = x <| reps[j]

    bij = np.flatnonzero(~(np.sort(A, axis=0) == idx[:, None]).all(axis=0)[cls])

    idem = np.flatnonzero(np.diagonal(op) != idx)

    # The scan gathers from copies in the narrowest dtype that holds an
    # element (uint8 up to 256 elements); the witness blocks use it too. Its
    # flat indices are uint32, which are faster to form than intp ones: the
    # cap above admits only k * n^2 <= SD_SCAN_CAP = 2^32, so n^2 - 1 fits.
    narrow = np.min_scalar_type(n - 1)
    A_narrow = A.astype(narrow)
    op_flat = op.astype(narrow).ravel()
    A_index = A.astype(np.uint32)
    offsets = A_index * np.uint32(n)  # [x, j] = where the row x <| reps[j] starts in op_flat
    blocks = [np.empty((0, 3), dtype=narrow)]
    # Chunks of x are sized by n^2, not k*n, to bound the rows spread over the classes too.
    chunk = max(1, _SD_CHUNK_ELEMENTS // (n * n))
    for start in range(0, n, chunk):
        rows = slice(start, start + chunk)
        # [i, y, j]: (x <| y) <| z against (x <| z) <| (y <| z), for x = start + i and z = reps[j]
        bad = np.take(A_narrow, op[rows], axis=0) != np.take(op_flat, offsets[rows, None, :] + A_index)
        if not bad.any():
            continue
        # A violation at (x, y, j) holds at every z of class j: spread
        # only the failing (x, y) rows over the classes. Row-major
        # nonzero keeps the (x, y, z) order.
        xs, ys = np.nonzero(bad.any(axis=2))
        r, z = np.nonzero(bad[xs, ys][:, cls])
        x, y = xs[r], ys[r]
        block = np.empty((len(z), 3), dtype=narrow)
        block[:, 0], block[:, 1], block[:, 2] = x, y, z
        block[:, 0] += start
        blocks.append(block)
    sd = np.concatenate(blocks, dtype=np.intp)

    for witnesses in (sd, bij, idem):
        witnesses.flags.writeable = False
    is_rack = not len(sd) and not len(bij)
    return RackReport(
        is_rack=is_rack,
        is_quandle=is_rack and not len(idem),
        sd_violations=sd,
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
        raise NotARack(f"table fails rack axioms: {report}")
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
    table entries equal to x. Every column is treated alike, permutation or
    not. The rows of stacked_invariants for the one table m.op.
    """
    return [tuple(row) for row in stacked_invariants(m.op[None])[0].tolist()]


def stacked_invariants(ops: np.ndarray) -> np.ndarray:
    """element_invariants of each table of a stack ops, shape (r, n, n), as one int64 array (r, n, 3n + 2).

    Row x of table i is the fingerprint of x in ops[i]; the tables are not validated.
    """
    ops = np.asarray(ops, dtype=np.int64)  # the flat indices below reach r * n^2
    r, n = ops.shape[:2]
    idx = np.arange(n)
    flat = ops.reshape(-1)
    tables = np.arange(r)[:, None, None] * (n * n)
    # cycles[i, p, x]: least k <= n with (- <| x)^k (p) == p in table i, else 0.
    cycles = np.zeros((r, n, n), dtype=np.int64)
    cur = np.broadcast_to(idx[:, None], (r, n, n))
    for k in range(1, n + 1):
        cur = np.take(flat, tables + cur * n + idx)
        cycles[(cur == idx[:, None]) & (cycles == 0)] = k
        if cycles.all():
            break
    # col_counts[i, v, x] = #{p : p <| x == v} and row_counts[i, x, v] = #{y : x <| y == v}
    col_counts = np.bincount((tables + ops * n + idx).ravel(), minlength=r * n * n).reshape(r, n, n)
    row_counts = np.bincount((tables + idx[:, None] * n + ops).ravel(), minlength=r * n * n).reshape(r, n, n)
    return np.concatenate([
        np.sort(cycles, axis=1).transpose(0, 2, 1),
        np.sort(col_counts, axis=1).transpose(0, 2, 1),
        np.sort(row_counts, axis=2),
        (ops[:, idx, idx] == idx)[..., None],
        np.bincount((np.arange(r)[:, None] * n + ops.reshape(r, -1)).ravel(), minlength=r * n).reshape(r, n, 1),
    ], axis=2)


def _row_ids(sig: np.ndarray) -> np.ndarray:
    """np.unique(sig, axis=0, return_inverse=True)[1] for rows of non-negative ints, by one 1-D unique.

    Each row is one np.void item of its big-endian int64 bytes, so the
    bytewise order of the items is the numeric order of the rows.
    """
    rows = np.ascontiguousarray(sig, dtype=">i8").view(np.dtype((np.void, 8 * sig.shape[1])))
    return np.unique(rows.ravel(), return_inverse=True)[1]


def find_isomorphism(a: MagmaTable, b: MagmaTable) -> list[int] | None:
    """Search for a bijection f with f(x <| y) = f(x) <| f(y).

    Individualization-refinement over both tables at once. Elements start
    coloured by their invariants, and a colour splits by the colours an
    element meets as left operand, as right operand and, when every right
    translation is a bijection, as z <| y for each y; a colour names the same
    class in both tables. Each round numbers the elements' signature rows in
    numeric order by one 1-D np.unique over their bytes (_row_ids), so a
    colour keeps the id that np.unique(..., axis=0) would give it. If some
    colour has different counts in the two tables, no isomorphism extends
    the choices made. Otherwise the first
    element of a's smallest split colour gets a fresh colour together with
    each element of that colour in b in turn. Once every colour is a single
    element and none splits, x <| y has the same colour in both tables for
    every pair of colours, so the one bijection that keeps colours is an
    isomorphism; it is checked with is_morphism all the same (AlgebraError if
    it fails). Returns the witness as a list, or None after exhaustion;
    tables of different sizes raise ShapeError.
    """
    if a.size != b.size:
        raise ShapeError(f"sizes differ: {a.size} != {b.size}")
    n = a.size
    inv_a, inv_b = a.invariants, b.invariants
    if sorted(inv_a) != sorted(inv_b):
        return None

    ops = np.stack([a.op, b.op])
    # [t, x, y]: the element x meets with y, as x <| y, as y <| x and as the z with
    # z <| y == x. Equal invariants give b bijective columns exactly when a has them.
    roles = [ops, ops.transpose(0, 2, 1)]
    if (np.sort(a.op, axis=0) == np.arange(n)[:, None]).all():
        roles.append(np.argsort(ops, axis=1))
    side = np.arange(2)[:, None, None]

    def refine(c: np.ndarray) -> np.ndarray:
        # c[t, x]: the colour of x in table t; split colours until none splits.
        while True:
            k = int(c.max()) + 1
            met = [np.sort(c[:, None, :] * k + c[side, t], axis=2) for t in roles]
            sig = np.concatenate([c[..., None], *met], axis=2).reshape(2 * n, -1)
            split = _row_ids(sig).reshape(2, n)
            if split.max() == c.max():
                return split
            c = split

    def search(c: np.ndarray) -> list[int] | None:
        c = refine(c)
        k = int(c.max()) + 1
        counts = np.bincount(c[0], minlength=k)
        if not np.array_equal(counts, np.bincount(c[1], minlength=k)):
            return None
        if counts.max() == 1:
            f = np.argsort(c[1])[c[0]]
            if not is_morphism(f, a, b):
                raise AlgebraError(f"search witness {f.tolist()} is not an isomorphism")
            return f.tolist()
        colour = min(np.flatnonzero(counts > 1), key=lambda col: (counts[col], col))
        x = np.flatnonzero(c[0] == colour)[0]
        for w in np.flatnonzero(c[1] == colour):
            chosen = c.copy()
            chosen[0, x] = chosen[1, w] = k
            f = search(chosen)
            if f is not None:
                return f
        return None

    ids = {v: i for i, v in enumerate(sorted(set(inv_a)))}
    return search(np.array([[ids[v] for v in inv_a], [ids[v] for v in inv_b]]))


# ---------------------------------------------------------------------------
# JSON interface: {"size": n, "op": [[int, ...], ...], "labels": [...]?}
# ---------------------------------------------------------------------------

def magma_to_json(m: MagmaTable) -> dict:
    """The table file object; "op" is the read-only m.op itself, which json.dumps takes as m.op.tolist()."""
    obj: dict = {"size": m.size, "op": m.op}
    if m.labels is not None:
        obj["labels"] = list(m.labels)
    return obj


def magma_from_json(obj) -> MagmaTable:
    if not isinstance(obj, dict) or "op" not in obj:
        raise ShapeError("quandle JSON must carry an 'op' table")
    labels = obj.get("labels")
    if "labels" in obj and not (isinstance(labels, list) and all(isinstance(s, str) for s in labels)):
        raise ShapeError(f"labels must be a list of strings, got {excerpt(labels)}")
    m = magma_from_table(obj["op"], labels=labels)
    if "size" in obj and json_int(obj["size"], "size") != m.size:
        raise ShapeError(f"declared size {excerpt(obj['size'])} != table size {m.size}")
    return m


def load_magma(path: str | Path) -> MagmaTable:
    return magma_from_json(load_json(path))
