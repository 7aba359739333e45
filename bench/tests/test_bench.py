"""Self-tests of the benchmark's generators, oracles and tracing.

Run with:  python -m pytest bench/tests -q
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import itertools
import json
import math
import signal
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gaugequandles import cli, groups  # noqa: E402

GENERATORS = {name: wl.make_pass for name, wl in run.WORKLOADS.items()}


def _files(d: Path) -> list[Path]:
    return sorted(p.relative_to(d) for p in d.rglob("*") if p.is_file())


def _execute(job):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(job.argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_gives_identical_files(tmp_path, name):
    for index in (0, 1):
        GENERATORS[name](7, index, tmp_path / "a")
        GENERATORS[name](7, index, tmp_path / "b")
    a, b = tmp_path / "a", tmp_path / "b"
    assert _files(a) == _files(b) and _files(a)
    match, mismatch, errors = filecmp.cmpfiles(a, b, [str(p) for p in _files(a)], shallow=False)
    assert not mismatch and not errors


def _census_tables(seed, tmp_path):
    jobs = workloads.census_pass(seed, 0, tmp_path / str(seed))
    return [json.loads(Path(j.argv[1]).read_text())["group"]["table"] for j in jobs]


def test_different_seed_gives_different_relabeling(tmp_path):
    assert _census_tables(1, tmp_path) != _census_tables(2, tmp_path)


def test_some_relabeling_moves_the_identity_off_zero(tmp_path):
    moved = []
    for job in workloads.census_pass(1, 0, tmp_path):
        table = np.array(json.loads(Path(job.argv[1]).read_text())["group"]["table"])
        identity = int(np.flatnonzero((table == np.arange(len(table))).all(axis=1))[0])
        assert identity == job.expect["identity"]
        moved.append(identity != 0)
    assert any(moved)


def test_reference_tables_match_the_catalog():
    for name, table in workloads.REFERENCE_TABLES.items():
        assert np.array_equal(groups.catalog(name).table, table), name


@pytest.mark.parametrize("group,base", [("S3", 2), ("S3", 3), ("S4", 1)])
def test_census_classes_are_multisets_of_conjugacy_classes(group, base):
    t = workloads.REFERENCE_TABLES[group]
    inv = workloads.inverses(t)
    classes = {frozenset(int(t[t[inv[g], a], g]) for g in range(len(t))) for a in range(len(t))}
    sizes = []
    for multiset in itertools.combinations_with_replacement(sorted(classes, key=min), base):
        arrangements = math.factorial(base)
        for count in Counter(multiset).values():
            arrangements //= math.factorial(count)
        sizes.append(arrangements * math.prod(len(c) for c in multiset))
    assert sorted(sizes) == workloads.CENSUS_CLASSES[(group, base)]


# ---------------------------------------------------------------------------
# Oracles accept real output and reject corrupted output
# ---------------------------------------------------------------------------

def _bump_op(obj):
    obj["op"][0][0] = (obj["op"][0][0] + 1) % len(obj["op"])


def _drop_witness(obj):
    obj["sd_violations"].pop()


def _flip_quandle(obj):
    obj["is_quandle"] = not obj["is_quandle"]


def _shift_class(obj):
    obj["classes"][0]["size"] += 1
    obj["classes"][-1]["size"] -= 1


def _break_residual(obj):
    report = obj["axioms"]["self_distributivity"]
    report["max_residual"] = 10 * report["tolerance"]


def _wrong_seed(obj):
    obj["seed"] += 1


def _swap_classes(obj):
    obj["classes"][0], obj["classes"][1] = obj["classes"][1], obj["classes"][0]


def _wrong_chart(obj):
    obj["chart"] = obj["chart"][::-1]


def _wrong_labels(obj):
    obj["labels"] = obj["labels"][::-1]


CORRUPTIONS = {
    "build": [_bump_op],
    "verify": [_flip_quandle],
    "rack": [_bump_op],
    "fiber": [_bump_op, _wrong_chart],
    "reduce": [_bump_op, _swap_classes],
    "homogeneous": [_bump_op, _wrong_labels],
    "census": [_shift_class],
    "lie-check": [_break_residual, _wrong_seed],
}


def _sample_jobs(tmp_path):
    jobs = workloads.finite_pipeline_pass(3, 0, tmp_path / "fp")
    jobs += workloads.census_pass(3, 0, tmp_path / "census")[:1]
    lie = workloads.lie_sweep_pass(3, 0, tmp_path / "lie")[0]
    return jobs + [lie]


def test_oracles_accept_real_output_and_reject_corruptions(tmp_path):
    kinds = set()
    for job in _sample_jobs(tmp_path):
        rc, out, err = _execute(job)
        assert oracles.check(job, rc, out, err) is None, (job.kind, job.size)
        kinds.add(job.kind)
        if job.kind == "reduce-error":
            assert oracles.check(job, 0, '{"op": [[0]]}', "") is not None
            continue
        assert oracles.check(job, 2, "", "error: x") is not None
        corruptions = list(CORRUPTIONS[job.kind])
        if job.kind == "verify" and json.loads(out)["sd_violations"]:
            corruptions.append(_drop_witness)
            assert oracles.check(job, 0, out, err) is not None  # wrong exit code
        for corrupt in corruptions:
            obj = json.loads(out)
            corrupt(obj)
            assert oracles.check(job, rc, json.dumps(obj), err) is not None, (job.kind, corrupt.__name__)
    assert kinds == set(CORRUPTIONS) | {"reduce-error"}


def test_build_oracle_rejects_a_corrupted_out_file(tmp_path):
    job = next(j for j in _sample_jobs(tmp_path) if j.kind == "build")
    rc, out, err = _execute(job)
    obj = json.loads(Path(job.expect["out"]).read_text())
    _bump_op(obj)
    Path(job.expect["out"]).write_text(json.dumps(obj))
    assert oracles.check(job, rc, out, err) is not None


def test_verify_oracle_accepts_capped_witnesses_with_a_total():
    rng = np.random.default_rng(0)
    op = rng.integers(0, 8, size=(8, 8))
    counts = oracles.recount(op)
    sd = [[x, y, z] for x, y, z in itertools.product(range(8), repeat=3)
          if op[op[x, y], z] != op[op[x, z], op[y, z]]]
    report = {
        "is_rack": False, "is_quandle": False,
        "sd_violations": sd[:5], "sd_violation_count": counts["sd"],
        "bijectivity_violations": [y for y in range(8) if len(set(op[:, y])) != 8],
        "idem_violations": [x for x in range(8) if op[x, x] != x],
    }
    assert oracles.check_report(op, report) is None
    del report["sd_violation_count"]
    assert oracles.check_report(op, report) is not None


# ---------------------------------------------------------------------------
# Tracing and the deadline
# ---------------------------------------------------------------------------

def test_tracing_wraps_every_binding_and_uninstalls(tmp_path):
    from gaugequandles import gauge, racks

    original = racks.find_isomorphism
    recorder = tracing.Recorder()
    patches = tracing.install(recorder)
    try:
        assert gauge.find_isomorphism is racks.find_isomorphism is not original
        job = workloads.census_pass(1, 0, tmp_path)[0]
        rc, out, err = _execute(job)
    finally:
        tracing.uninstall(patches)
    assert racks.find_isomorphism is original and gauge.find_isomorphism is original
    assert oracles.check(job, rc, out, err) is None
    summary = recorder.summary()
    assert run.coverage_problems(run.WORKLOADS["census"], summary) == []
    assert summary["bundles.enumerate_maps"]["items"] == 36
    main = summary["cli.main"]
    assert 0 < main["self_s"] < main["busy_s"]
    assert recorder.counters["racks.verify_rack", "triples"] == 36 * 12**3
    assert run.coverage_problems(run.WORKLOADS["lie-sweep"], summary)


def test_per_layer_metrics_in_benchmark_json_are_computable():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    extra = {"cli.output_bytes": 1, "trace.overhead_frac": 0.1, "samples": 0}
    for metric in spec["per_layer"]:
        run.per_layer(metric["name"], {}, {}, extra)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: run.WORKLOADS[name].why for name in (w["name"] for w in spec["workloads"])
    }


def test_deadline_stops_a_job_without_an_input_error(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "JOB_DEADLINE_S", 0.05)
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        job = next(j for j in workloads.census_pass(1, 0, tmp_path) if j.size.startswith("S4"))
        result = run.run_job(cli, job, None, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert result.timed_out and result.failed and result.rc is None
    assert result.latency_s == 0.05
