"""In-memory spans recorded around calls from the benchmark into metastab.

A span is (trace id, span id, parent id, name, start, end), with names of the
form ``<module>.<function>``; the module part is the layer.  Spans stay in a
list until the run ends and are then written out as JSON lines.  Self time of
a layer is the duration of its spans minus the part of each span's interval
covered by its child spans (the union, since threads can overlap).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict

LAYERS = ("sde", "potentials", "spde", "fields", "determinants", "kramers",
          "potential_theory", "cli")


class Tracer:
    """Collects spans for one workload iteration (one trace id)."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[tuple] = []  # (span_id, parent_id, name, start, end)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def wrap(self, name: str, fn):
        """fn with a span around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> dict:
        """Seconds of self time per layer; every layer in LAYERS is present."""
        children = defaultdict(list)
        for span_id, parent, _, start, end in self.spans:
            children[parent].append((start, end))
        out = dict.fromkeys(LAYERS, 0.0)
        for span_id, _, name, start, end in self.spans:
            layer = name.split(".", 1)[0]
            covered = _union_length(children.get(span_id, ()), start, end)
            out[layer] += (end - start) - covered
        return out

    def write_jsonl(self, fh) -> None:
        for span_id, parent, name, start, end in self.spans:
            fh.write(json.dumps({"trace": self.trace_id, "span": span_id,
                                 "parent": parent, "name": name,
                                 "start": start, "end": end}) + "\n")


class _Span:
    """Context manager recording one span (a class: cheaper than a generator)."""

    __slots__ = ("tracer", "name", "span_id", "parent", "stack", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tracer = self.tracer
        self.stack = tracer._stack()
        self.span_id = next(tracer._ids)
        # A worker thread's outermost span belongs to whatever the creating
        # thread is blocked in (e.g. the thread pool's map call).
        outer = self.stack or tracer._main_stack
        self.parent = outer[-1] if outer else None
        self.stack.append(self.span_id)
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.stack.pop()
        self.tracer.spans.append((self.span_id, self.parent, self.name, self.start, end))
        return False


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class NullTracer:
    """Tracer stand-in for timed runs: no spans, no wrappers."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def wrap(self, name: str, fn):
        return fn
