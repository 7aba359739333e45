"""Seeded job generators for the benchmark workloads.

A workload is a fixed list of job kinds (one "pass"). Each pass draws fresh
inputs from ``(seed, pass index)`` and writes them as the JSON files the
``gaugequandles`` CLI reads, so the program only ever sees generated files.
The same seed and pass index always give byte-identical files.

The reference Cayley tables below are built here from first principles
(permutations, dihedral symbols, 2x2 quaternion matrices) in the element
order the library's catalog documents; the oracles use them, never the
library, to recompute expected outputs.
"""

from __future__ import annotations

import itertools
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Per-job wall-clock limit. Every gated job at the parent commit finishes in
# well under a fifth of it; relabeled S4 censuses can run past it.
JOB_DEADLINE_S = 30.0


# ---------------------------------------------------------------------------
# Reference groups
# ---------------------------------------------------------------------------

def _table(elements, compose) -> np.ndarray:
    index = {e: i for i, e in enumerate(elements)}
    return np.array([[index[compose(a, b)] for b in elements] for a in elements], dtype=np.int64)


def symmetric_table(n: int) -> np.ndarray:
    """S_n on lexicographically sorted permutations, (a*b)(i) = a(b(i))."""
    perms = sorted(itertools.permutations(range(n)))
    return _table(perms, lambda a, b: tuple(a[b[i]] for i in range(n)))


def dihedral_table(n: int) -> np.ndarray:
    """D_n on r^k s^e encoded k + n*e, with s r = r^-1 s."""
    elements = [(k, e) for e in (0, 1) for k in range(n)]
    return _table(
        elements,
        lambda x, y: (((x[0] - y[0]) if x[1] else (x[0] + y[0])) % n, x[1] ^ y[1]),
    )


def quaternion_table() -> np.ndarray:
    """Q8 in the order +1, -1, +i, -i, +j, -j, +k, -k, via 2x2 complex matrices."""
    one = np.eye(2, dtype=complex)
    i = np.array([[1j, 0], [0, -1j]])
    j = np.array([[0, 1], [-1, 0]], dtype=complex)
    k = i @ j
    mats = [s * u for u in (one, i, j, k) for s in (1, -1)]

    def index(m):
        return next(t for t, x in enumerate(mats) if np.allclose(x, m))

    return np.array([[index(a @ b) for b in mats] for a in mats], dtype=np.int64)


REFERENCE_TABLES = {
    "S3": symmetric_table(3),
    "S4": symmetric_table(4),
    "D4": dihedral_table(4),
    "Q8": quaternion_table(),
}


def inverses(t: np.ndarray) -> np.ndarray:
    return np.argmax(t == 0, axis=1)


def relabel(t: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The same group with element a renamed perm[a]."""
    inv = np.argsort(perm)
    return perm[t[np.ix_(inv, inv)]]


def cyclic_subgroup(t: np.ndarray, g: int) -> list[int]:
    elems, x = [0], int(g)
    while x != 0:
        elems.append(x)
        x = int(t[x, g])
    return sorted(elems)


def normalizer(t: np.ndarray, h: list[int]) -> list[int]:
    inv = inverses(t)
    hs = set(h)
    return [g for g in range(len(t)) if {int(t[t[inv[g], x], g]) for x in h} == hs]


def normalizing_values(t: np.ndarray, h: list[int]) -> list[int]:
    """Section values c with g^-1 c g in the normalizer of h for every g."""
    inv = inverses(t)
    norm = set(normalizer(t, h))
    return [c for c in range(len(t)) if all(int(t[t[inv[g], c], g]) in norm for g in range(len(t)))]


def centralizer(t: np.ndarray, h: list[int]) -> list[int]:
    return [g for g in range(len(t)) if all(t[g, x] == t[x, g] for x in h)]


def element_order(t: np.ndarray, g: int) -> int:
    return len(cyclic_subgroup(t, g))


# ---------------------------------------------------------------------------
# Jobs and passes
# ---------------------------------------------------------------------------

@dataclass
class Job:
    """One CLI command plus what its oracle needs to judge the result."""

    kind: str
    argv: list[str]
    expect: dict = field(default_factory=dict)
    samples: int = 0  # lie-check samples requested, for per-sample ratios
    size: str = ""    # input size, as recorded with the results


def _rng(workload: str, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(workload.encode()), seed, index])


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, sort_keys=True) + "\n")
    return str(path)


class _PassWriter:
    """Names and writes the input files of one pass."""

    def __init__(self, workdir: Path, index: int):
        self.dir = workdir / f"pass{index:04d}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def file(self, stem: str, obj) -> str:
        self.count += 1
        return _write(self.dir / f"{self.count:02d}-{stem}.json", obj)

    def out(self, stem: str) -> str:
        self.count += 1
        return str(self.dir / f"{self.count:02d}-{stem}.json")


def gauge_table(group: str, values) -> np.ndarray:
    """p1 <|f p2 = p1 * f(p1)^-1 f(p2) on points p = m*|G| + g, from first principles."""
    t = REFERENCE_TABLES[group]
    n = len(t)
    inv = inverses(t)
    g = np.arange(n)
    # f(m, g) = g^-1 c_m g
    fvals = np.concatenate([t[t[inv, c], g] for c in values])
    m_of = np.repeat(np.arange(len(values)), n)
    g_of = np.tile(g, len(values))
    shift = t[inv[fvals][:, None], fvals[None, :]]
    return m_of[:, None] * n + t[g_of[:, None], shift]


def _swap_entries(op: np.ndarray, rng: np.random.Generator, swaps: int) -> np.ndarray:
    op = op.copy()
    n = len(op)
    done = 0
    while done < swaps:
        x1, y1, x2, y2 = (int(v) for v in rng.integers(0, n, size=4))
        if op[x1, y1] != op[x2, y2]:
            op[x1, y1], op[x2, y2] = op[x2, y2], op[x1, y1]
            done += 1
    return op


def _bundle(w: _PassWriter, group: str, base: int) -> str:
    return w.file(f"bundle-{group}x{base}", {"group": group, "base_size": base})


def _map(w: _PassWriter, values) -> str:
    return w.file("map", {"section_values": [int(v) for v in values]})


def _csv(elems) -> str:
    return ",".join(str(int(e)) for e in elems)


def _build(w, rng, group, base, jobs) -> tuple[str, list[int]]:
    n = len(REFERENCE_TABLES[group])
    values = [int(v) for v in rng.integers(0, n, size=base)]
    out = w.out(f"quandle-{group}x{base}")
    jobs.append(Job(
        "build",
        ["build", _bundle(w, group, base), _map(w, values), "--out", out, "--json"],
        {"group": group, "values": values, "out": out},
        size=f"{group}x{base} ({n * base} points)",
    ))
    return out, values


# Sizes of the random tables, stepped through with the pass index, not drawn
# from the seed. One element apart, their costs overlap and form a continuum
# rather than clusters: a shared host can run all code up to 1.5x slower for
# spells of tens of seconds, and an order statistic at the edge of a cluster
# jumps with the share of the run spent slowed, while one inside a continuum
# moves smoothly with it.
RANDOM_SIZES = tuple(range(48, 65))


def finite_pipeline_pass(seed: int, index: int, workdir: Path) -> list[Job]:
    rng = _rng("finite-pipeline", seed, index)
    w = _PassWriter(workdir, index)
    jobs: list[Job] = []
    s4 = REFERENCE_TABLES["S4"]

    # Build the largest bundle and verify what the program wrote.
    out, _ = _build(w, rng, "S4", 8, jobs)
    jobs.append(Job("verify", ["verify", out, "--json"], size="192 points, written by build"))

    values = [int(v) for v in rng.integers(0, 24, size=8)]
    jobs.append(Job(
        "rack", ["rack", _bundle(w, "S4", 8), _map(w, values), "--json"],
        {"group": "S4", "values": values}, size="S4x8 (192 points)",
    ))

    values = [int(v) for v in rng.integers(0, 24, size=8)]
    base = int(rng.integers(0, 8))
    jobs.append(Job(
        "fiber", ["fiber", _bundle(w, "S4", 8), _map(w, values), "--base", str(base), "--json"],
        {"group": "S4", "values": values, "base": base}, size="S4x8, one fiber of 24",
    ))

    # Reduce by a subgroup of order 2 generated by a double transposition;
    # every conjugate of every section value must normalize it.
    doubles = [g for g in range(24) if element_order(s4, g) == 2 and not _is_transposition(g)]
    h = cyclic_subgroup(s4, int(rng.choice(doubles)))
    values = [int(v) for v in rng.choice(normalizing_values(s4, h), size=8)]
    jobs.append(Job(
        "reduce",
        ["reduce", _bundle(w, "S4", 8), _map(w, values), "--subgroup", _csv(h), "--json"],
        {"group": "S4", "values": values, "subgroup": h}, size="S4x8 by a subgroup of order 2",
    ))

    # Smaller builds, and gauge tables with a few entries swapped to verify.
    # Two S4x6 tables per pass put the median inside their class, not on the
    # boundary between two classes.
    for group, base in (("Q8", 6), ("D4", 8)):
        _build(w, rng, group, base, jobs)
    for group, base in (("Q8", 6), ("D4", 8), ("S4", 6), ("S4", 6)):
        n = len(REFERENCE_TABLES[group])
        values = [int(v) for v in rng.integers(0, n, size=base)]
        op = _swap_entries(gauge_table(group, values), rng, swaps=3)
        path = w.file(f"swapped-{group}x{base}", {"size": len(op), "op": op.tolist()})
        jobs.append(Job("verify", ["verify", path, "--json"], size=f"{len(op)} points, 3 swaps"))

    # A subgroup whose normalizer misses one section value: an input error.
    d4 = REFERENCE_TABLES["D4"]
    h = cyclic_subgroup(d4, int(rng.integers(4, 8)))  # a reflection
    norm = normalizer(d4, h)
    outside = [g for g in range(8) if g not in norm]
    values = [int(v) for v in rng.choice(norm, size=4)]
    values[int(rng.integers(0, 4))] = int(rng.choice(outside))
    jobs.append(Job(
        "reduce-error",
        ["reduce", _bundle(w, "D4", 4), _map(w, values), "--subgroup", _csv(h), "--json"],
        size="D4x4, normalizer violated",
    ))

    transpositions = [g for g in range(24) if _is_transposition(g)]
    h = cyclic_subgroup(s4, int(rng.choice(transpositions)))
    c = int(rng.choice(centralizer(s4, h)))
    jobs.append(Job(
        "homogeneous",
        ["homogeneous", "S4", "--subgroup", _csv(h), "--element", str(c), "--json"],
        {"group": "S4", "subgroup": h, "element": c}, size="S4 by a subgroup of order 2",
    ))

    values = [int(v) for v in rng.integers(0, 6, size=8)]
    jobs.append(Job(
        "rack", ["rack", _bundle(w, "S3", 8), _map(w, values), "--json"],
        {"group": "S3", "values": values}, size="S3x8 (48 points)",
    ))

    # Random tables: almost all of the n^3 triples violate self-distributivity.
    # Three per pass keep job_tail_ms inside these jobs at 4 passes or more.
    for k in range(3):
        n = RANDOM_SIZES[(3 * index + k) % len(RANDOM_SIZES)]
        op = rng.integers(0, n, size=(n, n))
        path = w.file(f"random-{n}", {"size": n, "op": op.tolist()})
        jobs.append(Job("verify", ["verify", path, "--json"], size=f"{n} random elements"))
    return jobs


_S4_ELEMENTS = sorted(itertools.permutations(range(4)))


def _is_transposition(g: int) -> bool:
    return sum(1 for i, v in enumerate(_S4_ELEMENTS[g]) if i != v) == 2


# Census jobs: (group, base size, relabel?). Class counts and sizes do not
# depend on labels; the search cost does. S4x1 keeps the catalog labels: its
# cost under a random relabeling ranges from 0.2 s to past the deadline, which
# no run length can make steady (see the census-s4-relabeled workload). The
# many small S3x2 jobs put the median in per-call overhead; S4x1, Q8x2 and
# D4x2 put most of the time in find_isomorphism. Four S3x3 jobs a pass put
# job_tail_ms well inside their class: the Q8x2 and D4x2 costs spread from
# 0.2 s to 3 s with the labels, so the tail must not be read among them.
CENSUS_JOBS = (
    ("S3", 2, True),
    ("S3", 3, True),
    ("S3", 2, True),
    ("D4", 2, True),
    ("S3", 2, True),
    ("S3", 3, True),
    ("S3", 2, True),
    ("Q8", 2, True),
    ("S3", 2, True),
    ("S3", 3, True),
    ("S3", 2, True),
    ("S4", 1, False),
    ("S3", 2, True),
    ("S3", 3, True),
    ("S3", 2, True),
    ("S3", 2, True),
    ("S3", 2, True),
)
CENSUS_S4_RELABELED_JOBS = (("S4", 1, True),) * 2

# Expected (class count, sorted class sizes). For S3 and S4 these are the
# multisets of conjugacy classes; Q8 and D4 merge further under Aut(G).
CENSUS_CLASSES = {
    ("S3", 2): [1, 4, 4, 6, 9, 12],
    ("S3", 3): [1, 6, 8, 9, 12, 27, 27, 36, 36, 54],
    ("S4", 1): [1, 3, 6, 6, 8],
    ("Q8", 2): [2, 14, 24, 24],
    ("D4", 2): [2, 8, 8, 14, 16, 16],
}


def _census_pass(workload: str, spec, seed: int, index: int, workdir: Path) -> list[Job]:
    rng = _rng(workload, seed, index)
    w = _PassWriter(workdir, index)
    jobs = []
    for group, base, relabeled in spec:
        t = REFERENCE_TABLES[group]
        perm = rng.permutation(len(t)) if relabeled else np.arange(len(t))
        table = relabel(t, perm)
        path = w.file(
            f"census-{group}x{base}",
            {"group": {"order": len(t), "table": table.tolist()}, "base_size": base},
        )
        jobs.append(Job(
            "census", ["census", path, "--json"],
            {"group": group, "base": base, "identity": int(perm[0])},
            size=f"{group}x{base}, {'relabeled' if relabeled else 'catalog labels'}",
        ))
    return jobs


def census_pass(seed: int, index: int, workdir: Path) -> list[Job]:
    return _census_pass("census", CENSUS_JOBS, seed, index, workdir)


def census_s4_relabeled_pass(seed: int, index: int, workdir: Path) -> list[Job]:
    return _census_pass("census-s4-relabeled", CENSUS_S4_RELABELED_JOBS, seed, index, workdir)


# lie-check jobs: (model, samples). Sample counts span 10x, so a batched
# sweep shows both its fixed and its per-sample cost. Each quantile metric
# lands well inside one class of like jobs, never on a boundary between two:
# the median inside the four 40-sample jobs of a pass and job_tail_ms inside
# the three 80-sample ones. Classes are interleaved so that a slow spell of
# the machine does not fall on one class only. The seed draws each job's
# sampling seed.
LIE_JOBS = (
    ("SO3", 40),
    ("SU2", 80),
    ("SO3", 8),
    ("SO3", 40),
    ("SU2", 80),
    ("SU2", 16),
    ("SO3", 40),
    ("SU2", 80),
    ("SO3", 40),
)


def lie_sweep_pass(seed: int, index: int, workdir: Path) -> list[Job]:
    rng = _rng("lie-sweep", seed, index)
    w = _PassWriter(workdir, index)
    jobs = []
    for position, (model, samples) in enumerate(LIE_JOBS):
        config = {
            "model": model,
            # Cycles through 1..5 with the pass index, not drawn from the seed,
            # so every run of a given length sends the same mix of sizes.
            "base_points": 1 + (position + index) % 5,
            "samples": samples,
            "seed": int(rng.integers(0, 2**31)),
            "t_range": [-2.0, 2.0],
            "tolerance": 1e-8,
        }
        path = w.file(f"sweep-{model}-{samples}", config)
        jobs.append(Job(
            "lie-check", ["lie-check", path, "--json"], {"config": config},
            samples=samples, size=f"{model}, {samples} samples, {config['base_points']} base points",
        ))
    return jobs
