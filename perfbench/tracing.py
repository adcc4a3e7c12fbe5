"""Spans around layer calls, kept in memory and summarised per layer.

A span records (name, start, end, parent span, request id).  The
benchmark calls every layer through ``call``; the untraced run uses
``NoTracer``, whose ``call`` is a plain call, so end-to-end numbers carry
no tracing cost.

While a ``Tracer`` is active it also swaps the module-level names listed
in ``INNER_CALLS`` for wrappers, so calls the library makes from one of
its layers into another (for example the feasibility check and
``flip_edges`` that ``pivot_trials`` repeats in every trial) get spans of
their own.  The names are restored when the traced pass ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

from btt.errors import BttError

#: (module, attribute, span name) of library-internal calls given spans.
INNER_CALLS = (
    ("btt.graphs", "SignedGraph", "graphs.SignedGraph"),
    ("btt.pivot", "cover_pivot", "pivot.cover_pivot"),
    ("btt.pivot", "is_feasible_cover", "graphs.is_feasible_cover"),
    ("btt.approx", "is_feasible_cover", "graphs.is_feasible_cover"),
    ("btt.exact", "is_feasible_cover", "graphs.is_feasible_cover"),
    ("btt.pivot", "flip_edges", "graphs.flip_edges"),
    ("btt.pivot", "cc_cost", "graphs.cc_cost"),
    ("btt.exact", "cc_cost", "graphs.cc_cost"),
)

REQUEST_SPAN = "bench.request"


class NoTracer:
    """Direct calls; used for every end-to-end measurement."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, key, value):
        pass

    def request(self, request_id):
        return nullcontext()


class Tracer:
    """Records a span per layer call and adds up per-layer counts."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._request = None

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        span = [name, time.perf_counter(), None,
                self._stack[-1] if self._stack else None, self._request]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        except BttError:
            self.counts[name + ".failed"] += 1
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def count(self, key, value):
        self.counts[key] += value

    @contextmanager
    def request(self, request_id):
        """Root span of one request; spans opened inside carry its id."""
        span = [REQUEST_SPAN, time.perf_counter(), None, None, request_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._request = request_id
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self._request = None

    @contextmanager
    def inner_calls(self):
        """Give spans to the library-internal calls in INNER_CALLS."""
        saved = []
        try:
            for module_name, attr, span_name in INNER_CALLS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span_name, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def layer_summary(self) -> dict:
        """Per span name: calls, busy time, self time and counts.

        Busy time is the summed span duration; self time subtracts the
        part covered by child spans.  Single-threaded, so children never
        overlap each other.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - child_time[idx]
        for key, value in self.counts.items():
            name, _, stat = key.rpartition(".")
            out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})[stat] = value
        return out

    def span_records(self) -> list[dict]:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"name": name, "start": start - t0, "end": end - t0,
                 "parent": parent, "request": request}
                for name, start, end, parent, request in self.spans]
