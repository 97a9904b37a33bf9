"""Spans the harness records around its own calls into each layer.

A span is (name, layer, start, end, parent).  Spans live in memory and
are written once, as Chrome ``trace_event`` JSON, when the run ends.
The recorder is deliberately not the program's ``repro.observability``
tracer: the benchmark observes the layers from outside, so a change to
the program's own telemetry cannot move the numbers that judge it.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Dict, Iterator, List, Optional

__all__ = ["Span", "SpanRecorder", "load_trace", "check_parents"]


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent")

    def __init__(self, id: int, name: str, layer: str, start: float,
                 parent: Optional[int]):
        self.id = id
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span list with a parent stack (single-threaded)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Time one call; the layer is the name's first dotted part."""
        span = Span(
            len(self.spans), name, name.split(".", 1)[0],
            self.clock(), self._stack[-1] if self._stack else None,
        )
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None) -> Span:
        """Record an interval timed elsewhere (e.g. by a stream tap)."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        span = Span(
            len(self.spans), name, name.split(".", 1)[0], start, parent
        )
        span.end = end
        self.spans.append(span)
        return span

    def seconds(self, name: str) -> List[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def self_seconds(self) -> Dict[str, float]:
        """Per layer: span time not covered by child spans."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.seconds
        totals: Dict[str, float] = {}
        for span in self.spans:
            own = max(0.0, span.seconds - covered[span.id])
            totals[span.layer] = totals.get(span.layer, 0.0) + own
        return totals

    def chrome_events(self, pid: int = 1, process: str = "") -> List[dict]:
        """``trace_event`` complete events; ids/parents ride in args."""
        events: List[dict] = []
        if process:
            events.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 1,
                "args": {"name": process},
            })
        origin = self.spans[0].start if self.spans else 0.0
        for span in self.spans:
            events.append({
                "ph": "X",
                "name": span.name,
                "cat": span.layer,
                "pid": pid,
                "tid": 1,
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.seconds * 1e6, 3),
                "args": {"id": span.id, "parent": span.parent},
            })
        return events


def load_trace(path: str) -> List[dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)["traceEvents"]


def check_parents(events: List[dict]) -> int:
    """Every span has a recorded parent or is a root; returns the count."""
    by_pid: Dict[int, set] = {}
    spans = [e for e in events if e.get("ph") == "X"]
    for event in spans:
        by_pid.setdefault(event["pid"], set()).add(event["args"]["id"])
    for event in spans:
        parent = event["args"]["parent"]
        if parent is not None and parent not in by_pid[event["pid"]]:
            raise ValueError(f"span {event['name']!r} has unknown parent {parent}")
    return len(spans)
