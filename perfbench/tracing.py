"""Outside-in layer trace: spans around each layer's public calls.

:class:`Tracer` wraps, from the benchmark's side, the public entry
points of every layer class of the Theorem 1 stack plus the verifier
and the session loop. Each call becomes a span with its layer, method,
start, end and parent span. Spans stay in memory and are written out
once the run is over. Nothing in the package changes; the wrappers are
removed when the traced run ends.

A layer's self time is the time its spans cover minus the time covered
by their direct child spans, so the self times of all layers add up to
the duration of the root ``Session.run`` span exactly.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from measure import clock

#: layer name -> (module, class, traced methods)
LAYERS = {
    "session": ("repro.sim.session", "Session", ("run",)),
    "api": ("repro.core.api", "ReservationScheduler",
            ("insert", "delete", "apply_batch")),
    "delegation": ("repro.multimachine.delegation", "DelegatingScheduler",
                   ("insert", "delete", "apply_batch")),
    "trimming": ("repro.reservation.trimming", "TrimmedReservationScheduler",
                 ("insert", "delete", "apply_batch")),
    "core": ("repro.reservation.scheduler", "AlignedReservationScheduler",
             ("insert", "delete", "apply_batch")),
    "incremental": ("repro.sim.incremental", "IncrementalVerifier",
                    ("observe", "verify_batch", "full_audit")),
}


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self) -> None:
        self.layer: list[str] = []
        self.method: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        #: trimming span index -> rebuilds that happened during it
        self.rebuilt: dict[int, int] = {}
        self._open = [-1]

    def wrap(self, fn: Callable, layer: str, method: str) -> Callable:
        layers, methods = self.layer, self.method
        starts, ends, parents = self.start, self.end, self.parent
        open_spans, rebuilt = self._open, self.rebuilt
        probe = layer == "trimming"

        @functools.wraps(fn)
        def traced(obj: Any, *args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            layers.append(layer)
            methods.append(method)
            parents.append(open_spans[-1])
            ends.append(0)
            open_spans.append(index)
            before = obj.rebuilds if probe else 0
            starts.append(clock())
            try:
                return fn(obj, *args, **kwargs)
            finally:
                ends[index] = clock()
                open_spans.pop()
                if probe and obj.rebuilds != before:
                    rebuilt[index] = obj.rebuilds - before

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every layer's methods for the duration of the block."""
        saved = []
        try:
            for layer, (module, name, methods) in LAYERS.items():
                cls = getattr(importlib.import_module(module), name)
                for method in methods:
                    saved.append((cls, method, cls.__dict__.get(method)))
                    setattr(cls, method,
                            self.wrap(getattr(cls, method), layer, method))
            yield self
        finally:
            for cls, method, original in reversed(saved):
                if original is None:
                    delattr(cls, method)
                else:
                    setattr(cls, method, original)

    def write(self, path: Path) -> None:
        """Write every span as CSV: index, layer.method, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("index,span,start_ns,end_ns,parent\n")
            for i, (layer, method, start, end, parent) in enumerate(zip(
                    self.layer, self.method, self.start, self.end,
                    self.parent)):
                fh.write(f"{i},{layer}.{method},{start},{end},{parent}\n")

    def summary(self) -> dict[str, Any]:
        """Per-layer calls, self time and the trimming rebuild breakdown."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child_ns = [0] * n
        core_children: dict[int, int] = {}
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child_ns[parent] += duration[i]
                if parent in self.rebuilt and self.layer[i] == "core":
                    core_children[parent] = core_children.get(parent, 0) + 1
        calls = {layer: 0 for layer in LAYERS}
        self_ns = {layer: 0 for layer in LAYERS}
        full_audit_ns = 0
        for i, layer in enumerate(self.layer):
            calls[layer] += 1
            self_ns[layer] += duration[i] - child_ns[i]
            if self.method[i] == "full_audit":
                full_audit_ns += duration[i]
        root_ns = sum(duration[i] for i in range(n) if self.parent[i] < 0)
        return {
            "calls": calls,
            "self_ns": self_ns,
            "root_ns": root_ns,
            "full_audit_ns": full_audit_ns,
            "rebuilds": sum(self.rebuilt.values()),
            "rebuild_ns": sum(duration[i] for i in self.rebuilt),
            # every core call under a rebuilding trimming call except
            # the request's own one re-inserts a survivor
            "rebuild_jobs": sum(count - 1 for count in core_children.values()),
        }
