"""Outside-in tracer: spans around the library's public functions.

The library is not edited. ``Tracer.install`` replaces each listed function
in every ``iescluster.*`` module namespace that holds that function object,
so a call site that moves between modules is still caught. Spans stay in
memory until the caller writes them out.

Self time is a span's duration minus the part of it that its child spans
cover. Spans opened on a worker thread with no open span of its own (the
``n_workers > 1`` traversal) take the innermost open span of the operation's
home thread as their parent.

``peak_alloc`` comes from ``tracemalloc``: the highest traced allocation
above the level at span entry. ``tracemalloc`` keeps one peak for the whole
process, so spans that run concurrently on several threads can under-report.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
import tracemalloc
import warnings
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

PACKAGE = "iescluster"


@dataclass(frozen=True)
class Layer:
    """A library function to wrap, and the layer its spans are named after.

    ``count(args, kwargs, result)`` returns work counts for one call.
    """

    name: str
    module: str
    func: str
    count: Callable | None = None


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int | None
    thread: int
    shape: list | None
    start: float
    end: float = 0.0
    peak_alloc: int = 0
    counts: dict = field(default_factory=dict)
    error: str | None = None


def _shape(args) -> list | None:
    for arg in args:
        shape = getattr(arg, "shape", None)
        if shape is not None:
            return list(shape)
    return None


class Tracer:
    def __init__(self, layers):
        self.layers = tuple(layers)
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._patched: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._op_ids = itertools.count()
        self._op: int | None = None
        self._home: list = []

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        tracemalloc.start()
        modules = [
            mod for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for layer in self.layers:
            try:
                original = getattr(importlib.import_module(layer.module), layer.func)
            except (ImportError, AttributeError):
                warnings.warn(f"tracer: {layer.module}.{layer.func} not found; not traced")
                self.missing.append(f"{layer.module}.{layer.func}")
                continue
            wrapper = self._wrap(layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        tracemalloc.stop()

    def _wrap(self, layer: Layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(layer.name, _shape(args))
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span.error = type(err).__name__
                raise
            finally:
                self._close(span)
            if layer.count is not None:
                span.counts = layer.count(args, kwargs, result)
            return result

        return traced

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, shape) -> Span:
        stack = self._stack()
        current, peak = tracemalloc.get_traced_memory()
        if stack:
            parent = stack[-1][0].id
            stack[-1][2] = max(stack[-1][2], peak)
        else:
            home = self._home
            parent = home[-1][0].id if home else None
        tracemalloc.reset_peak()
        span = Span(
            id=next(self._ids), name=name, parent=parent, op=self._op,
            thread=threading.get_ident(), shape=shape, start=0.0,
        )
        # Frame: [span, traced bytes at entry, highest traced bytes seen].
        stack.append([span, current, current])
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        _, peak = tracemalloc.get_traced_memory()
        frame = stack.pop()
        top = max(frame[2], peak)
        span.peak_alloc = top - frame[1]
        if stack:
            stack[-1][2] = max(stack[-1][2], top)
        self.spans.append(span)

    @contextmanager
    def operation(self, name: str):
        """Root span for one benchmark operation, on the calling thread."""
        self._op = next(self._op_ids)
        self._home = self._stack()
        span = self._open(name, None)
        try:
            yield span
        finally:
            self._close(span)
            self._op = None


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.id] = (s.end - s.start) - covered
    return out


def summarize(spans) -> dict[str, dict]:
    """Per layer: calls, inclusive and self seconds, peak allocation, and the
    sums of its work counts (``max_*`` counts keep the maximum instead)."""
    own = self_times(spans)
    layers: dict[str, dict] = {}
    for s in spans:
        entry = layers.setdefault(
            s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "peak_alloc_mb": 0.0, "counts": {}}
        )
        entry["calls"] += 1
        entry["s"] += s.end - s.start
        entry["self_s"] += own[s.id]
        entry["peak_alloc_mb"] = max(entry["peak_alloc_mb"], s.peak_alloc / 2**20)
        for key, value in s.counts.items():
            if key.startswith("max_"):
                entry["counts"][key] = max(entry["counts"].get(key, value), value)
            else:
                entry["counts"][key] = entry["counts"].get(key, 0) + value
    return layers


def by_operation(spans) -> dict[str, dict]:
    """Per root span name: wall time, summed self time (more than the wall
    time when threads overlap) and each layer's self time and share."""
    own = self_times(spans)
    roots = {s.op: s for s in spans if s.parent is None}
    ops: dict[str, dict] = {}
    for root in roots.values():
        entry = ops.setdefault(root.name, {"wall_s": 0.0, "busy_s": 0.0, "layers": {}})
        entry["wall_s"] += root.end - root.start
    for s in spans:
        entry = ops[roots[s.op].name]
        entry["busy_s"] += own[s.id]
        layer = entry["layers"].setdefault(s.name, {"self_s": 0.0, "calls": 0})
        layer["self_s"] += own[s.id]
        layer["calls"] += 1
    for entry in ops.values():
        for layer in entry["layers"].values():
            layer["share"] = layer["self_s"] / entry["wall_s"]
    return ops
