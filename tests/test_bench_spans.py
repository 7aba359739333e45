"""The span names the benchmark asks for stay names of wrapped library functions.

bench/run.py lists, per workload, the spans a traced run must see
(`must_call`) and must not see (`must_skip`); bench/tracing.py wraps the
public layer functions and a few class methods under those names. Without
this test a renamed library function shows up only as a failed traced
benchmark run. The last test runs one traced pass of each BENCHMARK.json
workload, as `run.py --trace 1` does.
"""

import importlib.util
import os
import signal
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench_run():
    """bench/run.py as a module, with the BLAS variables it pins on import restored."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        saved = dict(os.environ)
        try:
            spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
            module = importlib.util.module_from_spec(spec)
            mp.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
            spec.loader.exec_module(module)
        finally:
            for var in set(os.environ) - set(saved):
                del os.environ[var]
            os.environ.update(saved)
    return module


@pytest.fixture(scope="module")
def wrapped(bench_run):
    """Every span name tracing.install gives a wrapper, read off one install/uninstall."""
    tracing = bench_run.tracing
    rec = tracing.Recorder()
    patches = tracing.install(rec)
    tracing.uninstall(patches)
    return set(rec.names)


def test_every_required_span_is_wrapped(bench_run, wrapped):
    assert {span for wl in bench_run.WORKLOADS.values() for span in wl.must_call}
    missing = [
        (name, span)
        for name, wl in bench_run.WORKLOADS.items()
        for span in wl.must_call
        if span not in wrapped
    ]
    assert not missing


def test_every_skipped_span_names_wrapped_spans(bench_run, wrapped):
    missing = [
        (name, skip)
        for name, wl in bench_run.WORKLOADS.items()
        for skip in wl.must_skip
        if not any(span == skip or (skip.endswith(".") and span.startswith(skip)) for span in wrapped)
    ]
    assert not missing


def test_one_traced_pass_of_each_workload_sees_its_spans_and_passes_its_oracles(bench_run, tmp_path):
    # A traced benchmark run fails when a must_call span is never called or a
    # must_skip span is; every job's output also goes through the benchmark's
    # own oracles, which do not use the library.
    from gaugequandles import cli

    tracing = bench_run.tracing
    previous = signal.signal(signal.SIGALRM, bench_run._on_alarm)  # run_job's per-job deadline
    try:
        for spec in bench_run.load_spec()["workloads"]:
            wl = bench_run.WORKLOADS[spec["name"]]
            recorder = tracing.Recorder()
            patches = tracing.install(recorder)
            try:
                results, passes = bench_run.run_passes(cli, wl, 1, tmp_path / spec["name"], 1, recorder=recorder)
            finally:
                tracing.uninstall(patches)
            assert passes == 1 and results
            assert bench_run.coverage_problems(wl, recorder.summary()) == []
            assert [(r.kind, r.size, r.problem) for r in results if r.failed] == []
    finally:
        signal.signal(signal.SIGALRM, previous)
