"""Spans recorded by the benchmark around its calls into the program.

A span has a name, a start, an end, the span that caused it and the job it
belongs to.  Spans stay in memory and are written out when the run ends.
With tracing off, ``call`` is a plain call: the untraced run pays nothing
but one attribute test per call.
"""

from __future__ import annotations

import json
from time import perf_counter


class Tracer:
    def __init__(self):
        self.enabled = False
        self.job = None
        self.spans: list[tuple[int, str, float, float, int | None, object]] = []
        self._stack: list[int] = []
        self._next_id = 0

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.job))

    def summary(self, scale: dict) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds, and self seconds (busy minus
        the time covered by child spans, which never overlap here).  Each
        duration is multiplied by ``scale`` of its job, which converts it to
        nominal machine speed."""
        child_time: dict[int, float] = {}
        for _, _, start, end, parent, job in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start) * scale[job]
        out: dict[str, dict[str, float]] = {}
        for span_id, name, start, end, _, job in self.spans:
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            busy = (end - start) * scale[job]
            row["calls"] += 1
            row["busy_s"] += busy
            row["self_s"] += busy - child_time.get(span_id, 0.0)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, job in self.spans:
                row = {"id": span_id, "name": name, "start": start, "end": end,
                       "parent": parent, "job": job}
                handle.write(json.dumps(row) + "\n")


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, measured on a no-op."""
    probe = Tracer()
    probe.enabled = True
    start = perf_counter()
    for _ in range(calls):
        probe.call("probe", int)
    traced = perf_counter() - start
    start = perf_counter()
    for _ in range(calls):
        int()
    plain = perf_counter() - start
    return max(traced - plain, 0.0) / calls
