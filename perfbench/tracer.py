"""Span tracing from outside the program, for the benchmark's traced run.

While installed, a ``Tracer`` replaces the functions listed in ``TARGETS``
with wrappers that record one span each: name, start, end, parent span and
operation id. A function is replaced wherever the program looks it up: on its
own module and on every ``corridor_forge`` module that imported it by name, on
its class for methods, and on ``jsonschema`` for schema validation. Each
layer is one module of ``corridor_forge``; a span's layer is the part of its
name before the first dot. The benchmark opens a ``bench.op`` span around
every operation, so the spans of an operation tile its timed interval.

Spans stay in memory (compact arrays) and are written out by ``dump``. Self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter
from types import ModuleType

import jsonschema

from corridor_forge import (
    cli,
    closure,
    complexes,
    corridor,
    dual,
    experiments,
    gf2,
    pm,
    serialize,
    trajectory,
)

LAYERS = ("cli", "closure", "complexes", "corridor", "dual", "experiments",
          "gf2", "pm", "serialize", "trajectory")


def _count_candidates(counters, args, kwargs, result):
    counters["closure.candidates"] += len(result[1])


def _count_steps(key):
    def hook(counters, args, kwargs, result):
        counters[key] += result.steps
    return hook


def _count_dual_nodes(counters, args, kwargs, result):
    counters["dual.build_dual.nodes"] += result.num_nodes


def _count_diameter_nodes(counters, args, kwargs, result):
    counters["dual.diameter.nodes"] += args[0].num_nodes


def _count_report_bytes(counters, args, kwargs, result):
    counters["serialize.bytes_written"] += len(result.encode())


def _count_csv_bytes(counters, args, kwargs, result):
    path = args[2] if len(args) > 2 else kwargs["path"]
    counters["serialize.bytes_written"] += os.path.getsize(path)


def _count_read_bytes(counters, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counters["serialize.bytes_read"] += os.path.getsize(path)


# (span name, owner, attribute, counter hook)
TARGETS = [
    ("closure.scan_available", closure, "scan_available", _count_candidates),
    ("corridor.run", corridor, "run", _count_steps("corridor.steps")),
    ("corridor.verify_run", corridor, "verify_run", None),
    ("pm.pm_run", pm, "pm_run", _count_steps("pm.steps")),
    ("trajectory.note_closure", trajectory.TrajectoryTracker, "note_closure", None),
    ("trajectory.snapshot", trajectory.TrajectoryTracker, "snapshot", None),
    ("dual.build_dual", dual, "build_dual", _count_dual_nodes),
    ("dual.is_induced_path", dual, "is_induced_path", None),
    ("dual.diameter", dual, "diameter", _count_diameter_nodes),
    ("dual.vertex_connectivity", dual, "vertex_connectivity", None),
    ("dual.maxflow", dual, "maximum_flow", None),
    ("gf2.reduced_betti", gf2, "reduced_betti", None),
    ("gf2.boundary_matrix", gf2, "boundary_matrix", None),
    ("gf2.rank_gf2", gf2, "rank_gf2", None),
    ("complexes.complex_from_facets", complexes, "complex_from_facets", None),
    ("complexes.k_faces", complexes, "k_faces", None),
    ("complexes.is_pseudomanifold", complexes, "is_pseudomanifold", None),
    ("complexes.boundary_corridor", complexes, "boundary_corridor", None),
    ("complexes.f_vector", complexes, "f_vector", None),
    ("serialize.report_json", serialize, "report_json", _count_report_bytes),
    ("serialize.validate", jsonschema, "validate", None),
    ("serialize.write_trajectory_csv", serialize, "write_trajectory_csv", _count_csv_bytes),
    ("serialize.load_complex", serialize, "load_complex", _count_read_bytes),
    ("experiments.analyze_complex", experiments, "analyze_complex", None),
    ("cli.main", cli, "main", None),
]

PACKAGE_MODULES = [
    m for name, m in sorted(sys.modules.items())
    if name == "corridor_forge" or name.startswith("corridor_forge.")
]

# Per-layer metrics, computed per batch. Times are seconds summed over the
# batch, calls are exact counts.
TIMED = [
    "closure.scan_available", "corridor.run", "corridor.verify_run", "pm.pm_run",
    "trajectory.note_closure", "trajectory.snapshot", "dual.build_dual",
    "dual.is_induced_path", "dual.diameter", "dual.vertex_connectivity",
    "dual.maxflow", "gf2.boundary_matrix", "gf2.rank_gf2",
    "complexes.complex_from_facets", "complexes.k_faces",
    "complexes.is_pseudomanifold", "complexes.boundary_corridor",
    "complexes.f_vector", "serialize.report_json", "serialize.validate",
    "serialize.write_trajectory_csv", "serialize.load_complex",
    "experiments.analyze_complex", "cli.main",
]
COUNTED = [
    "closure.scan_available", "trajectory.note_closure", "trajectory.snapshot",
    "dual.maxflow", "gf2.rank_gf2", "complexes.k_faces", "serialize.validate",
]
SELF_TIMED = ["corridor.run", "pm.pm_run", "experiments.analyze_complex", "cli.main"]
COUNTERS = [
    "corridor.steps", "pm.steps", "dual.build_dual.nodes", "dual.diameter.nodes",
    "serialize.bytes_written", "serialize.bytes_read",
]
# Metrics that get a log-log growth exponent from the scaling sweep.
SCALED = (
    [f"{name}.s" for name in TIMED]
    + [f"{name}.calls" for name in COUNTED]
    + [f"{layer}.self_s" for layer in LAYERS]
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op_id = -1
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int):
        self.end[i] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, hook):
        name_id = self._name_id(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every target by its traced wrapper; restore on exit."""
        try:
            for name, owner, attr, hook in TARGETS:
                original = getattr(owner, attr)
                traced = self._wrap(name, original, hook)
                self._replace(owner, attr, traced)
                if isinstance(owner, ModuleType):
                    for module in PACKAGE_MODULES:
                        if module is not owner and getattr(module, attr, None) is original:
                            self._replace(module, attr, traced)
            yield self
        finally:
            for owner, attr, original in reversed(self._saved):
                setattr(owner, attr, original)
            self._saved.clear()

    def _replace(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @contextmanager
    def operation(self):
        """One benchmark operation: a root ``bench.op`` span."""
        self._op_id += 1
        i = self._open(self._name_id("bench.op"))
        try:
            yield
        finally:
            self._close(i)

    def mark(self) -> tuple[int, dict[str, float]]:
        return len(self.name), dict(self.counters)

    def summary(self, mark) -> dict:
        """Per span name: calls, total and self seconds, and counter deltas,
        over the spans recorded since ``mark``."""
        lo, counters0 = mark
        hi = len(self.name)
        child = defaultdict(float)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p] += self.end[i] - self.start[i]
        spans: dict[str, dict[str, float]] = {}
        for i in range(lo, hi):
            dur = self.end[i] - self.start[i]
            s = spans.setdefault(self.names[self.name[i]], {"calls": 0, "s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["s"] += dur
            s["self_s"] += dur - child[i]
        counters = {k: v - counters0.get(k, 0.0) for k, v in self.counters.items()}
        return {"spans": spans, "counters": counters}

    def dump(self, path: str):
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "columns": ["name", "start", "end", "parent", "op"],
                "name": list(self.name),
                "start": [t - t0 for t in self.start],
                "end": [t - t0 for t in self.end],
                "parent": list(self.parent),
                "op": list(self.op),
            }, fh)


def batch_metrics(summary: dict) -> dict[str, float]:
    """The per-layer metrics of one batch from its span summary."""
    spans, counters = summary["spans"], summary["counters"]

    def get(name, field):
        return spans.get(name, {}).get(field, 0)

    m: dict[str, float] = {}
    for name in TIMED:
        m[f"{name}.s"] = get(name, "s")
    for name in COUNTED:
        m[f"{name}.calls"] = get(name, "calls")
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = get(name, "self_s")
    for layer in LAYERS + ("bench",):
        m[f"{layer}.self_s"] = sum(
            s["self_s"] for name, s in spans.items() if name.split(".")[0] == layer
        )
    for key in COUNTERS:
        m[key] = counters.get(key, 0)
    scans = get("closure.scan_available", "calls")
    steps = counters.get("corridor.steps", 0) + counters.get("pm.steps", 0)
    m["closure.scans_per_step"] = scans / steps if steps else 0.0
    m["closure.candidates_mean"] = (
        counters.get("closure.candidates", 0) / scans if scans else 0.0
    )
    return m
