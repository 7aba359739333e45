"""Outside-in span tracing of the gaugequandles layers.

``install`` wraps the public functions of each layer module (and a few class
methods) from outside the program: nothing under ``src/`` knows it is being
traced. Every call becomes a span (name, start, end, parent span, job id)
kept in compact in-memory arrays; ``Recorder.save`` writes them out when the
run ends. A span's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("cli", "groups", "bundles", "gauge", "racks", "lie")

# In cli only the entry point is wrapped, so cli.main's self time is the whole
# command layer: argument parsing, the command handlers and JSON output.
CLI_ENTRY = "main"

# (module, class, method, span name). Constructors run the validation loops.
CLASS_METHODS = (
    ("bundles", "DiscreteBundle", "__init__", "bundles.DiscreteBundle"),
    ("bundles", "GaugeTransformation", "__init__", "bundles.GaugeTransformation"),
    ("bundles", "EquivariantMap", "total_values", "bundles.EquivariantMap.total_values"),
)


def _verify_rack_counts(rec: "Recorder", args, result) -> None:
    rec.count("racks.verify_rack", "triples", args[0].size ** 3)
    rec.count(
        "racks.verify_rack", "witnesses",
        len(result.sd_violations) + len(result.bijectivity_violations) + len(result.idem_violations),
    )


def _find_isomorphism_counts(rec: "Recorder", args, result) -> None:
    rec.count("racks.find_isomorphism", "found", result is not None)


# Counters taken from arguments and results at the layer boundary.
RESULT_HOOKS = {
    "racks.verify_rack": _verify_rack_counts,
    "racks.find_isomorphism": _find_isomorphism_counts,
}


class Recorder:
    """Span store: parallel arrays indexed by span, plus per-name counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.items: list[int] = []
        self._depth: list[int] = []
        self.counters: dict[tuple[str, str], float] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_job = array("q")
        self.span_outer = array("b")  # no enclosing span of the same name
        self._stack: list[int] = []
        self.job = -1

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.items.append(0)
            self._depth.append(0)
        return self._ids[name]

    def count(self, name: str, key: str, value) -> None:
        self.counters[name, key] = self.counters.get((name, key), 0) + value

    def enter(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_job.append(self.job)
        self.span_outer.append(self._depth[nid] == 0)
        self._depth[nid] += 1
        self._stack.append(idx)
        self.span_end.append(0.0)
        self.span_start.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[self.span_name[idx]] -= 1

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, items, busy_s (outermost spans) and self_s."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        outer = np.frombuffer(self.span_outer, dtype=np.int8).astype(bool)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        k = len(self.names)
        busy = np.bincount(name[outer], weights=dur[outer], minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        return {
            n: {"calls": self.calls[i], "items": self.items[i], "busy_s": float(busy[i]), "self_s": float(own[i])}
            for i, n in enumerate(self.names)
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start),
            end=np.frombuffer(self.span_end),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            job=np.frombuffer(self.span_job, dtype=np.int64),
        )


def _wrap(rec: Recorder, name: str, fn):
    nid = rec.intern(name)
    hook = RESULT_HOOKS.get(name)

    if inspect.isgeneratorfunction(fn):
        # One span per resumption, so the consumer's self time excludes the
        # work done producing each item.
        @functools.wraps(fn)
        def generator(*args, **kwargs):
            rec.calls[nid] += 1
            it = fn(*args, **kwargs)
            while True:
                span = rec.enter(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec.exit(span)
                rec.items[nid] += 1
                yield item

        return generator

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.calls[nid] += 1
        span = rec.enter(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(span)
        if hook is not None:
            hook(rec, args, result)
        return result

    return wrapper


def install(rec: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every layer's public functions; returns the patches to undo.

    Modules bind each other's functions by name (gauge imports
    find_isomorphism, to_gauge, enumerate_maps, ...), so every namespace that
    holds a wrapped function is patched, not just the defining module.
    """
    package = importlib.import_module("gaugequandles")
    modules = {layer: importlib.import_module(f"gaugequandles.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
                and (layer != "cli" or attr == CLI_ENTRY)
            ):
                wrappers[obj] = _wrap(rec, f"{layer}.{attr}", obj)

    patches: list[tuple[object, str, object]] = []
    for mod in (package, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patches.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
    for layer, cls_name, method, span in CLASS_METHODS:
        cls = getattr(modules[layer], cls_name)
        original = cls.__dict__[method]
        patches.append((cls, method, original))
        setattr(cls, method, _wrap(rec, span, original))
    return patches


def uninstall(patches) -> None:
    for target, attr, original in reversed(patches):
        setattr(target, attr, original)
