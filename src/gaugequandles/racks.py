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
    _frozen_indices,
    index_array,
    json_int,
    load_json,
    read_array,
)
from .groups import FiniteGroup

# Every chunked pass works in chunks of about this many entries, to bound peak
# memory: the axiom decider's composites and grid, verify_rack's pair
# expansion and witness pass, and the census's keys, invariants, stacked
# decisions, automorphism checks and witness checks.
_CHUNK_ELEMENTS = 1_000_000

# verify_rack refuses a table with k distinct columns when k x n^2 exceeds
# this. That bounds its decision: k^2 x n composite entries, an n x k grid
# of (y, class), and k^2 below 2^32, so class-pair indices fit uint32. Each
# (y, c) the grid finds expands into the pairs (y, z), z of class c, and the
# witness pass reads 2n entries for each pair, which has a witness unless a
# hash collision split two equal composites (see _composite_ids). That pass
# counts every witness but keeps only the first WITNESS_CAP: this cap bounds
# the decision, the witness count the pass, and WITNESS_CAP the witness
# memory: a table of 1,625 elements whose columns all differ is admitted
# with about 4.3e9 witnesses, and its report holds the first WITNESS_CAP.
# A gauge quandle has at most |G| distinct columns, so with
# |G| <= ASSOCIATIVITY_CAP (256) and at most TOTAL_POINTS_CAP (4096) points
# none is refused.
SD_SCAN_CAP = 256 * 4096**2

# verify_rack keeps the first WITNESS_CAP witnesses of each kind, in order,
# and reports the exact total of each: at most WITNESS_CAP x 24 bytes of
# witnesses a report, whatever the table. No golden lists more than 617.
WITNESS_CAP = 10_000


@dataclass(frozen=True, eq=False)
class MagmaTable:
    """An n x n operation table op[x, y] = x <| y over elements 0..n-1."""

    size: int
    op: np.ndarray
    labels: tuple[str, ...] | None = None

    def __eq__(self, other) -> bool:
        # Entrywise table equality; labels are display-only.
        if not isinstance(other, MagmaTable):
            return NotImplemented
        return self.size == other.size and np.array_equal(self.op, other.op)

    def __repr__(self) -> str:
        return f"MagmaTable(size={self.size})"


@dataclass(frozen=True, eq=False)
class RackReport:
    """Outcome of a rack/quandle axiom scan: sorted witness arrays, each cut
    at WITNESS_CAP, and the exact number of violations of each kind.

    The witnesses are read-only integer arrays: sd_violations of shape
    (N, 3), one (x, y, z) per row, and bijectivity_violations and
    idem_violations of shape (N,). Each holds the first min(total,
    WITNESS_CAP) witnesses of its kind, and its *_violation_count the total.
    Reports compare by np.array_equal, counts included.
    """

    is_rack: bool
    is_quandle: bool
    sd_violations: np.ndarray
    bijectivity_violations: np.ndarray
    idem_violations: np.ndarray
    sd_violation_count: int
    bijectivity_violation_count: int
    idem_violation_count: int

    def __eq__(self, other) -> bool:
        if not isinstance(other, RackReport):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(vars(self).values(), vars(other).values()))

    def to_json(self) -> dict:
        """The verdicts and witness lists in order, the lists being the stored arrays themselves, not copies.

        A list that was cut is followed by its <kind>_violation_count; a
        list that holds every witness has no count key.
        """
        obj = {"is_rack": self.is_rack, "is_quandle": self.is_quandle}
        for kind in ("sd", "bijectivity", "idem"):
            listed = getattr(self, f"{kind}_violations")
            obj[f"{kind}_violations"] = listed
            count = getattr(self, f"{kind}_violation_count")
            if count > len(listed):
                obj[f"{kind}_violation_count"] = count
        return obj

    def lines(self) -> list[str]:
        """The text form: verdicts, violation totals and the first witness of each kind."""
        lines = [
            f"rack:    {'yes' if self.is_rack else 'NO'}",
            f"quandle: {'yes' if self.is_quandle else 'NO'}",
            f"self-distributivity violations: {self.sd_violation_count}",
            f"non-bijective right translations: {self.bijectivity_violation_count}",
            f"idempotency violations: {self.idem_violation_count}",
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
    # C-ordered: a Fortran-ordered table would slow verify_rack.
    arr = _frozen_indices(op, arr, n, "operation table entries")
    if labels is not None and len(labels) != n:
        raise ShapeError(f"got {len(labels)} labels for {n} elements")
    return MagmaTable(size=n, op=arr, labels=tuple(labels) if labels is not None else None)


def _column_classes(op: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(reps, cls): the least element of each distinct column, increasing, and
    the class of each column, reps[cls[z]] being the least z' whose column
    equals column z by exact byte equality."""
    cols = np.ascontiguousarray(op.T, dtype=np.min_scalar_type(len(op) - 1))
    as_bytes = cols.view(np.dtype((np.void, cols.shape[1] * cols.itemsize))).ravel().tolist()
    first: dict[bytes, int] = {}
    cls = [first.setdefault(col, len(first)) for col in as_bytes]
    reps = [0] * len(first)
    for z in range(len(op) - 1, -1, -1):
        reps[cls[z]] = z
    return np.array(reps), np.array(cls, dtype=np.uint32)


def verify_rack(m: MagmaTable) -> RackReport:
    """Decide every axiom at every element and report every violation.

    Self-distributivity at (x, y, z) reads (x <| y) <| z against
    (x <| z) <| (y <| z). For all x at once it says R_z R_y == R_{y <| z} R_z
    as maps, where R_z is the right translation - <| z, the column z. Both
    sides read z only through its class c among the k distinct columns
    (_column_classes), since y <| z = R_c(y), so _decide finds the (y, c)
    that may fail on an n x k grid, through ids of the k^2 composites of two
    classes. Only the rows y with such a class are expanded into (y, z)
    pairs, in chunks, and those pairs are scanned entry by entry: every
    violation is counted, and the first WITNESS_CAP are kept in (x, y, z)
    order. A table whose columns all differ skips the hash, so every pair
    is scanned but those whose two sides are one composite. A table with
    (distinct columns) x n^2 above SD_SCAN_CAP raises CapExceeded first.
    Bijectivity is a permutation test per distinct column, and idempotency
    is also decided so the report can state is_quandle. Each list keeps its
    first WITNESS_CAP entries and each total is exact.
    """
    op = m.op
    n = m.size
    reps, cls = _column_classes(op)
    k = len(reps)
    if k * n * n > SD_SCAN_CAP:
        raise CapExceeded(
            f"a table of {n} elements with {k} distinct columns needs {k * n * n} "
            f"self-distributivity checks, above the cap {SD_SCAN_CAP}"
        )
    # The distinct columns as rows, in the narrowest dtype that holds an
    # element (uint8 up to 256 elements); the witnesses keep that dtype until
    # the one intp witness array.
    narrow = np.min_scalar_type(n - 1)
    R = np.ascontiguousarray(op[:, reps].T, dtype=narrow)[None]  # [0, c, x] = x <| reps[c]
    composites = _composer(R)
    idem, bij, grid = (mask[0] for mask in _decide(R, cls[None], composites))
    ys, zs = _failing_pairs(grid, cls, narrow)
    sd, sd_count = _sd_witnesses(composites, k, ys, zs, cls, op, narrow)

    bij, idem = bij[cls].nonzero()[0], idem.nonzero()[0]
    # A cut list is copied, so that it does not keep the whole list alive.
    bij_count, idem_count = len(bij), len(idem)
    bij, idem = (w[:WITNESS_CAP].copy() if len(w) > WITNESS_CAP else w for w in (bij, idem))
    for witnesses in (sd, bij, idem):
        witnesses.flags.writeable = False
    is_rack = not sd_count and not bij_count
    return RackReport(
        is_rack=is_rack,
        is_quandle=is_rack and not idem_count,
        sd_violations=sd,
        bijectivity_violations=bij,
        idem_violations=idem,
        sd_violation_count=sd_count,
        bijectivity_violation_count=bij_count,
        idem_violation_count=idem_count,
    )


def _composer(R: np.ndarray):
    """composites(start, stop) for a stack R of column-class forms, shape (r, k, n): its row (i * k + b) * k + a
    is R_b R_a in table i, R_a first, at x = start..stop-1. Composites that fit one chunk are composed once."""
    r, k, n = R.shape

    def composites(start: int, stop: int) -> np.ndarray:
        if whole is not None:
            return whole[:, start:stop]
        return np.concatenate([t.take(t[:, start:stop], axis=1) for t in R]).reshape(r * k * k, stop - start)

    whole = None
    if r * k * k * n <= _CHUNK_ELEMENTS:
        whole = composites(0, n)
    return composites


def _decide(R: np.ndarray, cls: np.ndarray, composites) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The axioms of a stack of tables, each read off its column-class form alone.

    R[i, c, x] = x <| z for the z of class c in table i, shape (r, k, n), and
    cls[i, y] the class of y; a row no element has must repeat another row
    of its table. composites is _composer(R). Returns the masks idem[i, x],
    x <| x != x, read as R[i, cls x, x]; bij[i, c], row c not a permutation;
    and sd[i, c, y], the n x k grid of (y, c) where self-distributivity may
    fail at every z of class c: it compares the ids (_composite_ids) of the
    composites (cls y, c) and (c, cls(R[i, c, y])), the two sides at every
    x, which are equal only for equal maps, so sd misses no failure and
    holds none but where a hash collision split two equal composites. With
    k == n no composite is shared, so each is its own id, and sd holds each
    (y, c) whose two sides are two composites. The grid goes in chunks of at
    most _CHUNK_ELEMENTS entries.
    """
    r, k, n = R.shape
    idx = np.arange(n)
    idem = R[np.arange(r)[:, None], cls, idx] != idx
    bij = (np.sort(R, axis=2) != idx).any(axis=2)
    ids = _composite_ids(composites, n, r * k * k) if k < n else np.arange(r * k * k)
    flip = ids.reshape(r, k, k).transpose(0, 2, 1).ravel()  # flip[(i * k + a) * k + b] = ids[(i * k + b) * k + a]
    table = np.arange(r * k) // k  # row p = i * k + c of the grid is class c of table i
    rows, flat_cls = R.reshape(r * k, n), cls.reshape(-1)
    sd = np.empty((r * k, n), dtype=bool)
    for start, stop in _chunks(r * k, n):
        pk, i = np.arange(start * k, stop * k, k)[:, None], table[start:stop]
        after = flat_cls.take(i[:, None] * n + rows[start:stop])  # cls(y <| z) for z of class c
        sd[start:stop] = ids.take(pk + cls[i]) != flip.take(pk + after)
    return idem, bij, sd.reshape(r, k, n)


def _chunks(n: int, width: int) -> list[tuple[int, int]]:
    """(start, stop) ranges that cover 0..n-1 in rows of width entries, at most _CHUNK_ELEMENTS a range, at least one row."""
    step = max(1, _CHUNK_ELEMENTS // max(1, width))
    return [(start, min(n, start + step)) for start in range(0, n, step)]


@functools.lru_cache(maxsize=16)
def _hash_weights(n: int) -> np.ndarray:
    """n fixed pseudo-random uint64 weights: splitmix64 of 1..n, which, unlike numpy.random, costs no import (15 ms, 6 MB)."""
    w = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    w = (w ^ w >> np.uint64(30)) * np.uint64(0xBF58476D1CE4E5B9)
    w = (w ^ w >> np.uint64(27)) * np.uint64(0x94D049BB133111EB)
    w ^= w >> np.uint64(31)
    w.flags.writeable = False
    return w


def _composite_ids(composites, n: int, count: int) -> np.ndarray:
    """ids[j]: equal for two of the count rows of composites only when they are equal maps.

    The composites are sorted by a hash, the sum of w[x] times the entry at
    x modulo 2^64, which equal maps share, and each takes the id of the one
    before it when every entry agrees, else a new one: a hash collision can
    only split equal maps, which costs a scan of pairs that do not fail.
    """
    chunks = _chunks(n, count)
    w = _hash_weights(n)
    order = sum(composites(start, stop) @ w[start:stop] for start, stop in chunks).argsort()
    differs = np.zeros(count - 1, dtype=bool)  # [i]: the (i + 1)-th composite by hash differs from the i-th
    for start, stop in chunks:
        T = composites(start, stop)[order]
        differs |= (T[1:] != T[:-1]).any(axis=1)
    ids = np.empty(count, dtype=np.min_scalar_type(count - 1))
    ids[order[0]] = 0
    ids[order[1:]] = differs.cumsum()
    return ids


def _failing_pairs(grid: np.ndarray, cls: np.ndarray, narrow) -> tuple[np.ndarray, np.ndarray]:
    """The (y, z) with grid[cls z, y], in order, as narrow arrays, for the
    grid of one table from _decide: each y with a failing class expanded to
    the z of its failing classes, in chunks of at most _CHUNK_ELEMENTS pairs."""
    n = len(cls)
    rows = np.flatnonzero(grid.any(axis=0))
    ys, zs = [np.empty(0, dtype=narrow)], [np.empty(0, dtype=narrow)]
    for start, stop in _chunks(len(rows), n):
        y, z = np.nonzero(grid[:, rows[start:stop]].take(cls, axis=0).T)
        ys.append(rows[start:stop][y].astype(narrow))
        zs.append(z.astype(narrow))
    return np.concatenate(ys), np.concatenate(zs)


def _sd_witnesses(composites, k: int, ys: np.ndarray, zs: np.ndarray, cls: np.ndarray, op: np.ndarray,
                  narrow) -> tuple[np.ndarray, int]:
    """The first WITNESS_CAP (x, y, z) rows, in order, where the composites of
    the pairs (ys, zs) differ, as one intp array, and the number of such rows.

    For pair (y, z) the left map is composite (cls y, cls z) and the right
    one (cls z, cls(y <| z)). Each chunk of x is compared once and counted;
    while fewer than WITNESS_CAP rows are kept, the failure mask of the x up
    to the one where the cap is reached is laid out x-major, and its flat
    indices, split by divmod into x and pair, give the rows in order.
    """
    if not len(ys):
        return np.empty((0, 3), dtype=np.intp), 0
    n = len(op)
    left = cls[zs] * k + cls[ys]
    right = cls[op[ys, zs]] * k + cls[zs]
    total = kept = 0
    blocks = []
    for start, stop in _chunks(n, k * k + len(ys)):
        T = composites(start, stop)
        fail = T.take(left, axis=0) != T.take(right, axis=0)  # [p, i]: pair p fails at x = start + i
        count = int(np.count_nonzero(fail))
        total += count
        if not count or kept == WITNESS_CAP:
            continue
        rows = int(np.searchsorted(np.count_nonzero(fail, axis=0).cumsum(), WITNESS_CAP - kept)) + 1
        x, p = np.divmod(np.flatnonzero(fail[:, :rows].T)[:WITNESS_CAP - kept], len(ys))
        block = np.empty((len(x), 3), dtype=narrow)
        block[:, 0] = x + start
        block[:, 1] = ys[p]
        block[:, 2] = zs[p]
        blocks.append(block)
        kept += len(block)
    sd = np.concatenate(blocks, dtype=np.intp) if blocks else np.empty((0, 3), dtype=np.intp)
    return sd, total


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

def _morphism_mismatch(f, src: MagmaTable, dst: MagmaTable) -> np.ndarray:
    """[x, y]: f(x <| y) != f(x) <| f(y), for a map f validated against the two tables."""
    fa = index_array(f, dst.size, "map values")
    if fa.shape != (src.size,):
        raise ShapeError(f"map must assign all {src.size} source elements")
    return fa[src.op] != dst.op[np.ix_(fa, fa)]


def is_morphism(f, src: MagmaTable, dst: MagmaTable) -> bool:
    """f(x <| y) == f(x) <| f(y) for every pair, decided without listing the pairs that fail."""
    return not _morphism_mismatch(f, src, dst).any()


def element_invariants(ops: np.ndarray) -> np.ndarray:
    """Per-element fingerprints preserved by any isomorphism, for each table of a stack ops, shape (r, n, n).

    One int64 array (r, n, 3n + 2); row x of table i is the fingerprint of x
    in ops[i]: the sorted cycle lengths of the points under - <| x (0 for a
    point on no cycle), the sorted in-degree profile of that column, the
    sorted value profile of the row x <| -, the flag x <| x == x, and the
    number of table entries equal to x. Every column is treated alike,
    permutation or not, and the tables are not validated.
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


def _initial_colours(a: MagmaTable, b: MagmaTable) -> np.ndarray | None:
    """c[t, x]: the colour of x in table t (a, then b), its element_invariants row numbered over both
    tables by _row_ids; None when the two tables' sorted colours differ."""
    n = a.size
    c = _row_ids(element_invariants(np.stack([a.op, b.op])).reshape(2 * n, -1)).reshape(2, n)
    return c if np.array_equal(np.sort(c[0]), np.sort(c[1])) else None


def find_isomorphism(a: MagmaTable, b: MagmaTable) -> list[int] | None:
    """Search for a bijection f with f(x <| y) = f(x) <| f(y).

    Individualization-refinement over both tables at once. Elements start
    coloured by their element_invariants (_initial_colours), and a colour
    splits by the colours an element meets as left operand, as right
    operand and, when every right translation is a bijection, as z <| y for
    each y; a colour names the same class in both tables. Colours are
    numbered by the elements' rows in numeric order by one 1-D np.unique
    over their bytes (_row_ids), so a colour keeps the id that
    np.unique(..., axis=0) would give it. If some colour has different
    counts in the two tables, no isomorphism extends the choices made, and
    when that holds of the invariants there is none. Otherwise the first
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
    start = _initial_colours(a, b)
    if start is None:
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

    return search(start)


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
    """The table in a quandle file, as magma_from_json(json.loads(text)) gives it, with the same errors.

    errors.load_json reads the file as UTF-8, and a plain square table of
    integers straight from its text into the array that becomes m.op, with
    no Python int per entry and no second copy.
    """
    return magma_from_json(load_json(path))
