"""Spans recorded around the benchmark's own calls into twinlcs.

Spans stay in memory while a pass runs and are written out once, at the
end, so the pass pays only two clock reads and a list append per span.
Span times are the process's CPU time: a pass runs on one thread, and a
busy host can stretch the wall time of the same work twofold.  Nothing
here reaches into the package: a span starts and ends at a call the
benchmark makes.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from pathlib import Path


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        parent = tracer.stack[-1] if tracer.stack else -1
        self.record = [name, parent, 0.0, 0.0]

    def __enter__(self):
        tracer = self.tracer
        tracer.stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[2] = time.process_time()
        return self

    def __exit__(self, *exc):
        self.record[3] = time.process_time()
        self.tracer.stack.pop()
        return False


class Tracer:
    """In-memory spans: [name, parent index or -1, start, end]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, _, start, end in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct children.

        Children of one span never overlap (one thread), so their
        durations can be summed.
        """
        own = [end - start for _, _, start, end in self.spans]
        for _, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def by_module(self) -> dict[str, dict[str, float]]:
        """Span count, total and self time per module (name prefix)."""
        out: dict[str, dict[str, float]] = {}
        for (name, _, start, end), own in zip(self.spans, self.self_times()):
            entry = out.setdefault(name.split(".", 1)[0],
                                   {"spans": 0, "total_s": 0.0, "self_s": 0.0})
            entry["spans"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += own
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, times relative to the first."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][2] if self.spans else 0.0
        own = self.self_times()
        with path.open("w", encoding="utf-8") as fh:
            for index, ((name, parent, start, end), self_s) in enumerate(
                    zip(self.spans, own)):
                fh.write(json.dumps({"id": index, "parent": parent,
                                     "name": name,
                                     "start_s": start - origin,
                                     "end_s": end - origin,
                                     "self_s": self_s}) + "\n")


class NullTracer:
    """Tracing off: spans cost one attribute lookup and a shared no-op."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null
