"""A small in-memory span recorder with Chrome-trace export.

The benchmark keeps its own recorder instead of using ``repro.obs`` so the
traced run depends on nothing but the public transform surface.  Spans are
kept in memory while the run measures and written out once at the end.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter_ns


class Span:
    """One timed interval; ``parent`` is the id of the enclosing span."""

    __slots__ = ("id", "name", "cat", "parent", "start_ns", "end_ns", "_rec")

    def __init__(self, rec: "SpanRecorder", name: str, cat: str):
        self._rec = rec
        self.id = len(rec.spans)
        self.name = name
        self.cat = cat
        self.parent = rec._open[-1].id if rec._open else None
        self.start_ns = self.end_ns = 0

    def __enter__(self) -> "Span":
        self._rec._open.append(self)
        self._rec.spans.append(self)
        self.start_ns = perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.end_ns = perf_counter_ns()
        self._rec._open.pop()

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


class SpanRecorder:
    """Records nested spans; ``with rec.span(name, category):`` times a block."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._t0 = perf_counter_ns()

    def span(self, name: str, cat: str) -> Span:
        return Span(self, name, cat)

    def write_chrome(self, path: Path) -> None:
        """Write the spans as a Chrome trace (``chrome://tracing``)."""
        events = [
            {
                "name": s.name, "cat": s.cat, "ph": "X", "pid": 1, "tid": 1,
                "ts": (s.start_ns - self._t0) / 1e3,
                "dur": (s.end_ns - s.start_ns) / 1e3,
                "args": {"id": s.id, "parent": s.parent},
            }
            for s in self.spans if s.end_ns
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms"}
        ))
