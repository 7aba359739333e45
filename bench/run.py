#!/usr/bin/env python3
"""Benchmark for the gaugequandles CLI.

Runs the real command path, ``gaugequandles.cli.main(argv)``, in-process on
inputs generated from ``--seed``. Each workload is a closed loop: one client
sends the next command only after the previous one returns. Stdout and
stderr go to in-memory sinks; every output is checked by an oracle that does
not use the library.

    python3 bench/run.py --workload census --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

A run repeats its workload's pass of job kinds, each pass with fresh seeded
inputs. ``--seconds`` sets the number of passes from the pass's wall time on
the reference machine (2 cores, Intel Xeon, Python 3.11, numpy 2.4), so every
run of a workload sends the same jobs however fast the program is.

With ``--trace 0`` the last stdout line is a JSON object whose metrics are the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` they are the
per-layer metrics, taken by wrapping the library's public functions from
outside (see tracing.py). Results, recorded context and spans are written
under ``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import os

# Pin BLAS thread pools before numpy loads, here and in set-up children.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import gc
import io
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
import tracing
import workloads
from workloads import JOB_DEADLINE_S, Job

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 15
MIN_JOBS = 21  # job_tail_ms needs at least 11 samples


@dataclass(frozen=True)
class Workload:
    make_pass: Callable[[int, int, Path], list[Job]]
    pass_s: float               # wall time of one pass on the reference machine
    catalog: tuple[str, ...]   # catalog groups looked up during set-up
    models: tuple[str, ...]    # Lie models looked up during set-up
    must_call: tuple[str, ...]  # spans the traced run must see
    must_skip: tuple[str, ...]  # span names or "layer." prefixes it must not see
    why: str


_LIE_CHECKS = tuple(
    f"lie.check_{c}" for c in ("idempotency", "self_action", "self_distributivity", "key_identity", "membership")
)

WORKLOADS = {
    "finite-pipeline": Workload(
        workloads.finite_pipeline_pass,
        pass_s=4.8,
        catalog=("S3", "D4", "Q8", "S4"),
        models=(),
        must_call=(
            "cli.main", "racks.load_magma", "racks.verify_rack", "gauge.build", "gauge.rack_from_map",
            "gauge.transport_fiber", "gauge.reduce", "gauge.homogeneous_quandle", "groups.normalizer",
            "groups.subgroup", "bundles.DiscreteBundle", "bundles.to_gauge",
            "bundles.EquivariantMap.total_values",
        ),
        must_skip=("racks.find_isomorphism", "racks.element_invariants", "gauge.isomorphism_census", "lie."),
        why="build/verify/rack/fiber/reduce/homogeneous on bundles up to 192 points; time goes to verify_rack, "
            "bundle validation, gauge quotients and JSON output; never searches isomorphisms",
    ),
    "census": Workload(
        workloads.census_pass,
        pass_s=11.0,
        catalog=(),
        models=(),
        must_call=(
            "cli.main", "groups.group_from_table", "gauge.isomorphism_census", "bundles.enumerate_maps",
            "gauge.build", "racks.verify_rack", "racks.find_isomorphism", "racks.element_invariants",
            "bundles.DiscreteBundle",
        ),
        must_skip=("lie.", "gauge.reduce", "gauge.transport_fiber"),
        why="census --json on inline S3x2, S3x3, D4x2, Q8x2 (seeded relabelings) and S4x1 tables; time goes "
            "to find_isomorphism and to many small build/verify calls",
    ),
    "lie-sweep": Workload(
        workloads.lie_sweep_pass,
        pass_s=3.3,
        catalog=(),
        models=("SO3", "SU2"),
        must_call=(
            "cli.main", "lie.run_sweep", "lie.mat_exp", "lie.op_t", "lie.noether_sweep",
            "lie.membership_residual", "lie.get_model", *_LIE_CHECKS,
        ),
        must_skip=("racks.", "gauge.", "bundles.", "groups.group_from_table"),
        why="lie-check --json on SO3 and SU2 with 8 to 80 samples; all time goes to mat_exp, op_t and the "
            "sampled checks; no finite-group code runs",
    ),
    # Not in BENCHMARK.json: its cost per job ranges from 0.2 s to past the
    # deadline with the relabeling, so no run length makes it steady.
    "census-s4-relabeled": Workload(
        workloads.census_s4_relabeled_pass,
        pass_s=7.0,
        catalog=(),
        models=(),
        must_call=("gauge.isomorphism_census", "racks.find_isomorphism"),
        must_skip=("lie.",),
        why="census --json on S4x1 relabeled by a seeded permutation; shows the label-dependent cost of "
            "find_isomorphism and the per-job deadline",
    ),
}


class JobDeadline(BaseException):
    """Raised by the alarm; a BaseException so cli.main cannot report it as exit 2."""


def _on_alarm(signum, frame):
    raise JobDeadline()


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def measure_setup(wl: Workload, repeats: int) -> list[float]:
    """Wall time of fresh interpreters that import the package and do the
    workload's catalog and model lookups, as a CLI user pays per command."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import gaugequandles; "
        "from gaugequandles import groups, lie; "
        f"[groups.catalog(n) for n in {wl.catalog!r}]; [lie.get_model(m) for m in {wl.models!r}]"
    )
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def import_program(wl: Workload):
    sys.path.insert(0, str(SRC))
    import gaugequandles
    from gaugequandles import groups, lie

    if not Path(gaugequandles.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported gaugequandles from {gaugequandles.__file__}, not {SRC}")
    for name in wl.catalog:
        groups.catalog(name)
    for model in wl.models:
        lie.get_model(model)
    from gaugequandles import cli

    return cli


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

@dataclass
class JobResult:
    kind: str
    size: str
    latency_s: float
    rc: int | None
    output_bytes: int
    problem: str | None = None
    timed_out: bool = False
    samples: int = 0

    @property
    def failed(self) -> bool:
        return self.timed_out or self.problem is not None


def run_job(cli, job: Job, recorder: tracing.Recorder | None, job_id: int) -> JobResult:
    out, err = io.StringIO(), io.StringIO()
    gc.collect()  # so no job pays for collecting an earlier job's garbage
    if recorder is not None:
        recorder.job = job_id
    rc: int | None = None
    timed_out = False
    crash = None
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, JOB_DEADLINE_S)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(job.argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobDeadline:
        timed_out = True
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed job, not a harness error
        crash = f"uncaught {exc!r}"
    latency = JOB_DEADLINE_S if timed_out else time.perf_counter() - t0
    stdout = out.getvalue()
    problem = None if timed_out else crash or oracles.check(job, rc, stdout, err.getvalue())
    return JobResult(job.kind, job.size, latency, rc, len(stdout.encode()), problem, timed_out, job.samples)


def pass_count(wl: Workload, seconds: float, jobs_per_pass: int, min_jobs: int) -> int:
    """Passes that take about `seconds` on the reference machine.

    The count depends only on the workload and --seconds, never on measured
    speed, so every run of a workload sends the same jobs and job_tail_ms is
    always read at the same rank.
    """
    return max(round(seconds / wl.pass_s), math.ceil(min_jobs / jobs_per_pass), 1)


def run_passes(cli, wl: Workload, seed: int, workdir: Path, seconds: float, min_jobs: int = 1,
               recorder: tracing.Recorder | None = None,
               setup: list[float] | None = None) -> tuple[list[JobResult], int]:
    """Run pass after pass of generated jobs; returns the job results and the pass count.

    Given a `setup` list, appends SETUP_REPEATS set-up times to it, taken in
    turns before, between and after the passes: the host's speed drifts over
    tens of seconds, and set-up samples spread over the whole run see the same
    drift the job latencies see, not only its first few seconds.
    """
    results: list[JobResult] = []
    jobs = wl.make_pass(seed, 0, workdir)
    passes = pass_count(wl, seconds, len(jobs), min_jobs)

    def setup_turn(turn: int) -> None:
        if setup is not None:
            share = (turn + 1) * SETUP_REPEATS // (passes + 1) - turn * SETUP_REPEATS // (passes + 1)
            setup.extend(measure_setup(wl, share))

    for index in range(passes):
        setup_turn(index)
        if index:
            jobs = wl.make_pass(seed, index, workdir)
        for job in jobs:
            results.append(run_job(cli, job, recorder, len(results)))
        shutil.rmtree(workdir / f"pass{index:04d}", ignore_errors=True)
    setup_turn(passes)
    return results, passes


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, float] | None:
    """Latency at the highest percentile with at least 10 jobs beyond it."""
    if len(latencies) < 11:
        return None
    ordered = sorted(latencies)
    i = len(ordered) - 11
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def end_to_end(results: list[JobResult], setup: list[float]) -> tuple[dict, dict]:
    latencies = [r.latency_s for r in results]
    t = tail(latencies)
    values = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": len(results) / sum(latencies),
        "job_p50_ms": 1000.0 * statistics.median(latencies),
        "failed_frac": sum(r.failed for r in results) / len(results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if t is not None:
        values["job_tail_ms"] = 1000.0 * t[0]
    notes = {
        "jobs": len(results),
        "tail_percentile": t[1] if t else None,
        "deadline_hits": sum(r.timed_out for r in results),
        "deadline_s": JOB_DEADLINE_S,
        "slowest_job_s": max(latencies),
        "setup_samples_s": setup,
    }
    return values, notes


def per_layer(metric: str, summary: dict, counters: dict, extra: dict) -> float:
    if metric in extra:
        return extra[metric]
    span, stat = metric.rsplit(".", 1)
    s = summary.get(span, {"calls": 0, "items": 0, "busy_s": 0.0, "self_s": 0.0})
    if stat in ("calls", "busy_s", "self_s"):
        return s[stat]
    if stat == "maps":
        return s["items"]
    if stat in ("triples", "witnesses"):
        return counters.get((span, stat), 0)
    if stat == "found_ratio":
        return counters.get((span, "found"), 0) / s["calls"] if s["calls"] else 0.0
    if stat == "calls_per_sample":
        return s["calls"] / extra["samples"] if extra["samples"] else 0.0
    raise KeyError(f"no rule computes per-layer metric {metric!r}")


def coverage_problems(wl: Workload, summary: dict) -> list[str]:
    calls = {name: s["calls"] for name, s in summary.items()}
    problems = [f"{name} was never called" for name in wl.must_call if not calls.get(name)]
    for skip in wl.must_skip:
        hit = [n for n, c in calls.items() if c and (n == skip or (skip.endswith(".") and n.startswith(skip)))]
        problems += [f"{n} was called {calls[n]} times but this workload should bypass it" for n in hit]
    return problems


# ---------------------------------------------------------------------------

def machine_context() -> dict:
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(name: str, seed: int, seconds: int, trace: bool) -> int:
    spec = load_spec()
    wl = WORKLOADS[name]
    cli = import_program(wl)
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = OUT / f"work-{name}-{seed}-{os.getpid()}"
    tag = f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    try:
        if not trace:
            setup: list[float] = []
            results, passes = run_passes(cli, wl, seed, workdir, seconds, min_jobs=MIN_JOBS, setup=setup)
            plain = []
            values, notes = end_to_end(results, setup)
            wanted = spec["end_to_end"]
            problems: list[str] = []
        else:
            # Untraced passes for half the time, then the same passes traced.
            plain, passes = run_passes(cli, wl, seed, workdir, seconds / 2)
            recorder = tracing.Recorder()
            patches = tracing.install(recorder)
            try:
                results, _ = run_passes(cli, wl, seed, workdir, seconds / 2, recorder=recorder)
            finally:
                tracing.uninstall(patches)
            summary = recorder.summary()
            extra = {
                "cli.output_bytes": sum(r.output_bytes for r in results),
                "trace.overhead_frac": sum(r.latency_s for r in results) / sum(r.latency_s for r in plain) - 1,
                "samples": sum(r.samples for r in results),
            }
            values = {m["name"]: per_layer(m["name"], summary, recorder.counters, extra) for m in spec["per_layer"]}
            notes = {"jobs": len(results), "spans": len(recorder.span_name)}
            wanted = spec["per_layer"]
            problems = coverage_problems(wl, summary)
            recorder.save(OUT / "spans" / f"{tag}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wrong = [r for r in plain + results if r.problem is not None]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in values}
    record = {
        "workload": name,
        "why": wl.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": passes,
        "jobs_per_pass": len(results) // passes,
        "input_sizes": sorted({r.size for r in results}),
        "machine": machine_context(),
        "metrics": metrics,
        "notes": notes,
        "coverage_problems": problems,
        "jobs": [vars(r) for r in results],
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {name}, seed {seed}, {'traced' if trace else 'untraced'}: {len(results)} jobs in "
          f"{passes} passes, {sum(r.failed for r in results)} failed, "
          f"{notes.get('deadline_hits', 0)} hit the {JOB_DEADLINE_S:g} s deadline")
    print("  why: " + wl.why)
    for metric, v in metrics.items():
        print(f"  {metric:<44} {v['value']:>14.6g} {v['unit']}")
    if not trace:
        print(f"  {'failed_frac':<44} {values['failed_frac']:>14.6g} ratio")
        if notes["tail_percentile"] is not None:
            print(f"  job_tail_ms is p{notes['tail_percentile']:.1f} of {notes['jobs']} jobs")
    for r in wrong[:5]:
        print(f"  WRONG {r.kind} ({r.size}): {r.problem}")
    for p in problems:
        print(f"  TRACE COVERAGE: {p}")
    print("  machine: " + json.dumps(record["machine"]))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: could not compute {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not wrong and not problems,
        "attempted": len(results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }))
    return 1 if problems else 0


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload of BENCHMARK.json, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for w in load_spec()["workloads"]:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w["name"], "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {w['name']} exited {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{w['name']}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30, help="about how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "gaugequandles" / "__init__.py").is_file():
        print(f"error: no gaugequandles sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
