"""The span names the benchmark asks for stay names of wrapped library functions.

bench/run.py lists, per workload, the spans a traced run must see
(`must_call`) and must not see (`must_skip`); bench/tracing.py wraps the
public layer functions and a few class methods under those names. Without
this test a renamed library function shows up only as a failed traced
benchmark run. Nothing here runs a workload.
"""

import importlib.util
import os
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
