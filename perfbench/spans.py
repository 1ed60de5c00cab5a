"""Outside-in span tracing for the benchmark's traced runs.

The benchmark never edits ``src/``.  Instead, a traced run replaces the
public functions and methods at each layer boundary with wrappers that
record one span per call: name, start, end, the span that caused it (its
parent) and the root span of the operation it belongs to.  Spans stay in
memory and are aggregated when the run ends; a layer's *self time* is its
duration minus the part of that interval its child spans cover.

Wrappers bind where the caller looks the name up.  ``select_outgoing_edges``,
``build_drr_forest`` and ``merge_forest`` are imported by name into
``repro.core.connectivity`` and ``repro.core.mst``, so they are patched in
those two modules; methods are patched on their class.  Every target is
counted when it fires, and :func:`missing_targets` lists the ones a
workload expected but never saw, so an upstream rename fails the run
instead of silently zeroing a layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["EXPECTED", "Tracer", "aggregate", "installed", "missing_targets"]


class Tracer:
    """Collects spans ``(id, parent, root, name, t0_ns, t1_ns, counts)``.

    Timestamps are ``time.monotonic_ns()`` (CLOCK_MONOTONIC on Linux, one
    clock for every process on the machine), so spans recorded in a
    server process can be split by a boundary taken in the client.
    Safe across threads: each thread keeps its own span stack, and list
    appends and ``itertools.count`` steps are atomic under the GIL.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.fired: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, count=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``count(args, kwargs, result)`` returns extra per-call counts; it
        runs after the span closes, so its cost lands in the tracing
        overhead, never in the layer's own time.
        """
        stack = self._stack()
        sid = next(self._ids)
        parent, root = (stack[-1], stack[0]) if stack else (0, sid)
        stack.append(sid)
        t0 = time.monotonic_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.monotonic_ns()
            stack.pop()
        counts = count(args, kwargs, result) if count is not None else None
        self.spans.append((sid, parent, root, name, t0, t1, counts))
        return result

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """A benchmark-side span around one call (no target bookkeeping)."""
        return self.call(name, fn, args, kwargs)


@dataclass(frozen=True)
class Target:
    """One patch site: ``owner.attr`` recorded as layer ``name``."""

    key: str
    name: str
    module: str
    owner: str | None
    attr: str
    count: Callable | None = None


def _incidences(args, kwargs, result):
    return {"incidences": int(np.asarray(args[2]).size)}


def _bins(args, kwargs, result):
    return {"bins": int(result.counts.size)}


def _sample_counts(args, kwargs, result):
    bundle = args[0]
    c = bundle.counts
    return {
        "bins_read": int(np.count_nonzero((c == 1) | (c == -1))),
        "found": int(np.count_nonzero(result.found)),
        "nonzero": int(np.count_nonzero(np.any(bundle.fps[:, :, 0] != 0, axis=1))),
    }


_ALGO_MODULES = ("repro.core.connectivity", "repro.core.mst")

TARGETS: tuple[Target, ...] = (
    Target("CorpusManager.generate", "corpus.materialize", "repro.corpus.manager",
           "CorpusManager", "generate"),
    Target("CorpusManager.load", "corpus.load", "repro.corpus.manager", "CorpusManager", "load"),
    Target("CorpusFamily.generate", "graphs.build", "repro.corpus.families",
           "CorpusFamily", "generate"),
    Target("RunRequest.build_graph", "graphs.build", "repro.service.protocol",
           "RunRequest", "build_graph"),
    Target("KMachineCluster.create", "cluster.create", "repro.cluster.cluster",
           "KMachineCluster", "create"),
    Target("RoundLedger.charge_load_matrix", "cluster.ledger_charge", "repro.cluster.ledger",
           "RoundLedger", "charge_load_matrix"),
    Target("RoundLedger.charge_rounds", "cluster.ledger_charge", "repro.cluster.ledger",
           "RoundLedger", "charge_rounds"),
    Target("CommStep.deliver", "cluster.comm_deliver", "repro.cluster.comm", "CommStep", "deliver"),
    Target("SketchContext.__init__", "sketch.context_init", "repro.sketch.l0",
           "SketchContext", "__init__", _incidences),
    Target("SketchContext.group_sums", "sketch.group_sums", "repro.sketch.l0",
           "SketchContext", "group_sums", _bins),
    Target("SketchBundle.sample", "sketch.sample", "repro.sketch.l0",
           "SketchBundle", "sample", _sample_counts),
    Target("SketchBundle.nonzero_mask", "sketch.nonzero_mask", "repro.sketch.l0",
           "SketchBundle", "nonzero_mask"),
    Target("PartIndex.build", "core.part_index", "repro.core.labels", "PartIndex", "build"),
    *(
        Target(f"{mod}.{attr}", name, mod, None, attr)
        for mod in _ALGO_MODULES
        for attr, name in (
            ("select_outgoing_edges", "core.select_outgoing"),
            ("build_drr_forest", "core.drr_build"),
            ("merge_forest", "core.drr_merge"),
        )
    ),
    Target("MaintainedForest.apply", "core.dynamic_apply", "repro.core.dynamic",
           "MaintainedForest", "apply"),
    Target("Session.run", "runtime.run", "repro.runtime.session", "Session", "run"),
    Target("Session.cluster_for", "runtime.cluster_for", "repro.runtime.session",
           "Session", "cluster_for"),
    Target("RunReport.to_dict", "runtime.report_to_dict", "repro.runtime.report",
           "RunReport", "to_dict"),
    Target("_Worker.execute", "service.execute", "repro.service.server", "_Worker", "execute"),
)

_COMMON = {
    "KMachineCluster.create",
    "RoundLedger.charge_load_matrix",
    "CommStep.deliver",
    "SketchContext.__init__",
    "SketchContext.group_sums",
    "SketchBundle.sample",
    "SketchBundle.nonzero_mask",
    "PartIndex.build",
    "Session.run",
    "Session.cluster_for",
    "RunReport.to_dict",
}


def _algo(mod: str) -> set[str]:
    return {f"{mod}.{a}" for a in ("select_outgoing_edges", "build_drr_forest", "merge_forest")}


#: The targets each workload must fire at least once (the wrapper self-test).
#: ``SketchBundle.aggregate`` only runs with pruning off, so it is not traced.
EXPECTED: dict[str, set[str]] = {
    "connectivity-large": _COMMON
    | _algo("repro.core.connectivity")
    | {"CorpusManager.generate", "CorpusManager.load", "CorpusFamily.generate"},
    "mst-large": _COMMON | _algo("repro.core.mst"),
    "serve-mixed": _COMMON
    | _algo("repro.core.connectivity")
    | _algo("repro.core.mst")
    | {"RunRequest.build_graph", "MaintainedForest.apply", "_Worker.execute"},
}


def _wrap(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.fired[target.key] += 1
        return tracer.call(target.name, fn, args, kwargs, target.count)

    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer, keys: set[str] | None = None):
    """Patch every target (or only ``keys``) for the duration of a ``with`` block.

    Class attributes are read from the class ``__dict__`` so static and
    class methods keep their descriptor type.
    """
    undo: list[tuple[object, str, object]] = []
    try:
        for target in TARGETS:
            if keys is not None and target.key not in keys:
                continue
            module = importlib.import_module(target.module)
            owner = module if target.owner is None else getattr(module, target.owner)
            raw = vars(owner)[target.attr]
            if isinstance(raw, (staticmethod, classmethod)):
                patched = type(raw)(_wrap(tracer, target, raw.__func__))
            else:
                patched = _wrap(tracer, target, raw)
            setattr(owner, target.attr, patched)
            undo.append((owner, target.attr, raw))
        yield tracer
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


def missing_targets(fired: dict[str, int], workload: str) -> list[str]:
    """Targets ``workload`` expects that never fired (empty when all did)."""
    return sorted(key for key in EXPECTED[workload] if not fired.get(key))


def aggregate(spans: list, phase_of: Callable[[tuple], str | None]) -> dict:
    """Sum spans per ``(phase, name)``: total and self ns, calls, counts.

    ``phase_of(root_span)`` names the phase of the operation a root span
    stands for (``None`` drops it).  Self time is the span's duration
    minus the union of its children's intervals; ``children`` counts the
    direct child spans by name.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple[int, int, str]]] = defaultdict(list)
    for sid, parent, _root, name, t0, t1, _c in spans:
        if parent:
            children[parent].append((t0, t1, name))
    out: dict[tuple[str, str], dict] = {}
    for sid, _parent, root, name, t0, t1, counts in spans:
        root_span = by_id.get(root)
        if root_span is None:
            continue
        phase = phase_of(root_span)
        if phase is None:
            continue
        agg = out.setdefault(
            (phase, name),
            {"ns": 0, "self_ns": 0, "calls": 0,
             "counts": defaultdict(int), "children": defaultdict(int)},
        )
        covered = 0
        end = t0
        for c0, c1, child in sorted(children.get(sid, ())):
            agg["children"][child] += 1
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        agg["ns"] += t1 - t0
        agg["self_ns"] += t1 - t0 - covered
        agg["calls"] += 1
        for key, value in (counts or {}).items():
            agg["counts"][key] += value
    return out
