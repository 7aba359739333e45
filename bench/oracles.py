"""Output oracles for the benchmark jobs, written without the library.

Each check takes the job, the exit code and the captured stdout/stderr text
and returns None when the output is right, or a one-line reason when it is
not. Expected tables are recomputed with plain numpy from the reference
Cayley tables in ``workloads``; axiom counts come from an exhaustive recount.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from workloads import CENSUS_CLASSES, REFERENCE_TABLES, Job, gauge_table, inverses

VIOLATION_KINDS = ("sd", "bijectivity", "idem")


def recount(op: np.ndarray) -> dict[str, int]:
    """Count every axiom violation of an operation table, one column z at a time."""
    n = len(op)
    idx = np.arange(n)
    sd = 0
    for z in range(n):
        col = op[:, z]
        # (x <| y) <| z  vs  (x <| z) <| (y <| z), over all x, y
        sd += int(np.count_nonzero(op[op, z] != op[col[:, None], col[None, :]]))
    bij = sum(1 for z in range(n) if len(np.unique(op[:, z])) != n)
    idem = int(np.count_nonzero(op[idx, idx] != idx))
    return {"sd": sd, "bijectivity": bij, "idem": idem}


def _reported_total(obj: dict, kind: str) -> int | None:
    """An explicit violation total, for output that caps its witness lists."""
    for key, value in obj.items():
        if kind in key and ("count" in key or "total" in key) and isinstance(value, int):
            return value
        if isinstance(value, dict):
            found = _reported_total(value, kind)
            if found is not None:
                return found
    return None


def _genuine_witnesses(op: np.ndarray, report: dict) -> str | None:
    n = len(op)
    listed = report["sd_violations"]
    sd = np.fromiter(itertools.chain.from_iterable(listed), dtype=np.int64, count=3 * len(listed))
    if len(sd):
        if sd.min() < 0 or sd.max() >= n:
            return "sd witness out of range"
        x, y, z = sd.reshape(-1, 3).T
        if np.any(op[op[x, y], z] == op[op[x, z], op[y, z]]):
            return "an sd witness is not a violation"
        if len(np.unique((x * n + y) * n + z)) != len(x):
            return "repeated sd witness"
    for y in report["bijectivity_violations"]:
        if len(np.unique(op[:, y])) == n:
            return f"column {y} is a bijection but listed as a witness"
    for x in report["idem_violations"]:
        if op[x, x] == x:
            return f"element {x} is idempotent but listed as a witness"
    return None


def check_report(op: np.ndarray, report: dict) -> str | None:
    """Flags and violation counts of a verify_rack-style report against a recount."""
    counts = recount(op)
    is_rack = counts["sd"] == 0 and counts["bijectivity"] == 0
    is_quandle = is_rack and counts["idem"] == 0
    if report.get("is_rack") != is_rack or report.get("is_quandle") != is_quandle:
        return f"flags {report.get('is_rack')}/{report.get('is_quandle')}, recount says {is_rack}/{is_quandle}"
    for kind in VIOLATION_KINDS:
        listed = len(report[f"{kind}_violations"])
        if listed != counts[kind] and _reported_total(report, kind) != counts[kind]:
            return f"{kind}: {listed} witnesses reported, recount finds {counts[kind]}"
    return _genuine_witnesses(op, report)


def _fvals(t: np.ndarray, values) -> np.ndarray:
    inv = inverses(t)
    g = np.arange(len(t))
    return np.concatenate([t[t[inv, c], g] for c in values])


def _load_op(path: str) -> np.ndarray:
    return np.asarray(json.loads(Path(path).read_text())["op"], dtype=np.int64)


def _op(obj: dict) -> np.ndarray:
    return np.asarray(obj["op"], dtype=np.int64)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.array_equal(a, b))


def _coset_classes(blocks, n):
    class_of = np.empty(n, dtype=np.int64)
    for i, block in enumerate(blocks):
        class_of[list(block)] = i
    return class_of


# ---------------------------------------------------------------------------
# Per-kind checks
# ---------------------------------------------------------------------------

def _build(job: Job, rc: int, obj: dict) -> str | None:
    e = job.expect
    expected = gauge_table(e["group"], e["values"])
    if not _same(_op(obj), expected):
        return "gauge table differs from p1 * f(p1)^-1 f(p2)"
    if obj.get("provenance", {}).get("section_values") != e["values"]:
        return "provenance does not echo the section values"
    if json.loads(Path(e["out"]).read_text()) != obj:
        return "--out file differs from the printed table"
    return None


def _verify(job: Job, rc: int, obj: dict) -> str | None:
    op = _load_op(job.argv[1])
    if obj.get("size") != len(op):
        return "size not echoed"
    problem = check_report(op, obj)
    if problem:
        return problem
    expected_rc = 0 if obj["is_quandle"] else 1
    return None if rc == expected_rc else f"exit {rc}, expected {expected_rc}"


def _rack(job: Job, rc: int, obj: dict) -> str | None:
    e = job.expect
    t = REFERENCE_TABLES[e["group"]]
    n = len(t)
    f = _fvals(t, e["values"])
    points = np.arange(n * len(e["values"]))
    expected = (points // n)[:, None] * n + t[(points % n)[:, None], f[None, :]]
    if not _same(_op(obj), expected):
        return "rack table differs from p1 * f(p2)"
    return check_report(expected, obj["report"])


def _fiber(job: Job, rc: int, obj: dict) -> str | None:
    e = job.expect
    t = REFERENCE_TABLES[e["group"]]
    inv = inverses(t)
    c = e["values"][e["base"]]
    sigma = t[t[inv[c], :], c]
    g = np.arange(len(t))
    expected = t[sigma[t[g[:, None], inv[g][None, :]]], g[None, :]]
    if not _same(_op(obj), expected):
        return "transported fiber differs from sigma_c(g1 g2^-1) g2"
    if obj.get("chart") != g.tolist():
        return "chart is not the fiber coordinate"
    if obj.get("matches_generalized_alexander") is not True:
        return "fiber reported as not matching"
    if obj.get("section_value") != c or obj.get("base") != e["base"]:
        return "base or section value not echoed"
    return None


def _reduce(job: Job, rc: int, obj: dict) -> str | None:
    e = job.expect
    t = REFERENCE_TABLES[e["group"]]
    n = len(t)
    base = len(e["values"])
    h = e["subgroup"]
    blocks = [
        tuple(sorted({m * n + int(t[g, x]) for x in h}))
        for m in range(base) for g in range(n)
    ]
    blocks = sorted(set(blocks))
    class_of = _coset_classes(blocks, n * base)
    reps = np.array([b[0] for b in blocks])
    expected = class_of[gauge_table(e["group"], e["values"])[np.ix_(reps, reps)]]
    if [tuple(c) for c in obj.get("classes", [])] != blocks:
        return "classes are not the orbits p*H in point order"
    if not _same(_op(obj), expected):
        return "reduced table differs from [p1] <| [p2] = [p1 <|f p2]"
    if obj.get("subgroup") != sorted(h):
        return "subgroup not echoed"
    return None


def _homogeneous(job: Job, rc: int, obj: dict) -> str | None:
    e = job.expect
    t = REFERENCE_TABLES[e["group"]]
    inv = inverses(t)
    c, h = e["element"], e["subgroup"]
    n = len(t)
    blocks = sorted({tuple(sorted(int(t[x, g]) for x in h)) for g in range(n)})
    class_of = _coset_classes(blocks, n)
    sigma = t[t[inv[c], :], c]
    reps = np.array([b[0] for b in blocks])
    expected = class_of[t[sigma[t[reps[:, None], inv[reps][None, :]]], reps[None, :]]]
    if not _same(_op(obj), expected):
        return "coset table differs from [sigma_c(g1 g2^-1) g2]"
    labels = ["{" + ",".join(map(str, b)) + "}" for b in blocks]
    if obj.get("labels") != labels:
        return "coset labels differ"
    if obj.get("subgroup") != sorted(h) or obj.get("element") != c:
        return "subgroup or element not echoed"
    return None


def _census(job: Job, rc: int, obj: dict) -> str | None:
    e = job.expect
    order = len(REFERENCE_TABLES[e["group"]])
    expected = CENSUS_CLASSES[(e["group"], e["base"])]
    sizes = sorted(c["size"] for c in obj.get("classes", []))
    if sizes != expected:
        return f"class sizes {sizes}, expected {expected}"
    if sum(sizes) != order ** e["base"] or obj.get("maps") != order ** e["base"]:
        return "class sizes do not add up to |G|^|M|"
    for c in obj["classes"]:
        rep = c["representative"]
        if len(rep) != e["base"] or not all(0 <= v < order for v in rep):
            return f"bad representative {rep}"
    return None


def _lie(job: Job, rc: int, obj: dict) -> str | None:
    config = job.expect["config"]
    if obj.get("passed") is not True:
        return "sweep did not pass"
    if obj.get("seed") != config["seed"] or obj.get("config", {}).get("samples") != config["samples"]:
        return "seed or sample count not echoed"
    reports = [*obj["axioms"].values(), obj["section_equivariance"]]
    if len(obj["axioms"]) != 5:
        return f"expected 5 axiom reports, got {sorted(obj['axioms'])}"
    for r in reports:
        if not (r["passed"] is True and r["max_residual"] <= r["tolerance"]):
            return f"{r['check']} residual {r['max_residual']} over {r['tolerance']}"
        if r["seed"] != config["seed"] or r["samples"] != config["samples"]:
            return f"{r['check']} does not echo seed and samples"
    for name, r in obj["axioms"].items():
        if r["tolerance"] != config["tolerance"]:
            return f"{name} tolerance {r['tolerance']} differs from the config"
    noether = obj["noether"]
    if not (noether["passed"] is True and noether["disagreements"] == 0):
        return "noether sweep disagreed"
    if noether["seed"] != config["seed"] or noether["samples"] != config["samples"]:
        return "noether sweep does not echo seed and samples"
    return None


_JSON_CHECKS = {
    "build": _build,
    "verify": _verify,
    "rack": _rack,
    "fiber": _fiber,
    "reduce": _reduce,
    "homogeneous": _homogeneous,
    "census": _census,
    "lie-check": _lie,
}


def check(job: Job, rc: int, stdout: str, stderr: str) -> str | None:
    """None when the job's exit code and output are right, else the reason."""
    if job.kind == "reduce-error":
        if rc != 2 or stdout or not stderr.startswith("error:"):
            return f"exit {rc}, expected an input error (exit 2)"
        return None
    if rc not in (0, 1):
        return f"exit {rc}: {stderr.strip()[:200]}"
    if rc == 1 and job.kind != "verify":
        return "exit 1 (verification failure)"
    try:
        obj = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    try:
        return _JSON_CHECKS[job.kind](job, rc, obj)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed output: {exc!r}"
