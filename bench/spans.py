"""In-memory span recorder for the traced pass.

A span is ``{id, parent, workload, name, start, end}`` plus whatever the
caller attaches; spans stay in a list until the run ends and are written
once (``bench/out/trace.json``).  A layer's *self time* is its duration
minus the part its children cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = ["Tracer", "self_times"]


class Tracer:
    """Nested spans on one thread; ``span()`` is the only way to record."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans),
                  "parent": self._stack[-1] if self._stack else None,
                  "workload": self.workload, "name": name,
                  "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self seconds per span name (children of one parent never overlap)."""
    covered: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = (covered.get(s["parent"], 0.0)
                                    + s["end"] - s["start"])
    out: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - covered.get(s["id"], 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out
