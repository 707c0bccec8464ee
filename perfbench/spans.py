"""In-memory span recorder for the traced benchmark run.

A span is [name, start, end, parent, op]: start and end are
``time.perf_counter`` seconds, parent is the index of the enclosing span
(-1 for a root span) and op is the operation id the span belongs to.
Spans stay in a list until :meth:`Tracer.to_json` is called at the end of
the run, so recording costs one list append per span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str, op: int):
        rec = [name, time.perf_counter(), None, self._open[-1] if self._open else -1, op]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def timed(self, fn, name: str, op: int):
        """Wrap a one-argument callable so that every call records a span."""
        def call(x):
            with self.span(name, op):
                return fn(x)
        return call

    def durations(self, name: str) -> list:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus the time their children cover."""
        index = {i for i, s in enumerate(self.spans) if s[0] == name}
        child = sum(s[2] - s[1] for s in self.spans if s[3] in index)
        return self.total(name) - child

    def to_json(self) -> list:
        return [{"name": n, "start": a, "end": b, "parent": p, "op": op}
                for n, a, b, p, op in self.spans]
