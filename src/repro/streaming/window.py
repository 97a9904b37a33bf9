"""Bounded sliding windows with provenance GC.

An offline diagnosis replays the whole log; a monitor that did the
same would hold the entire stream forever.  :class:`StreamWindow`
keeps peak live state O(window), not O(stream):

* The newest ``capacity`` deliveries stay as an explicit event list.
* Older deliveries are *folded into a base snapshot* as they expire:
  a configuration insert/delete updates the base's membership (the set
  of tuples alive at the window's left edge, in first-insertion
  order), and expired probes are discarded outright — their packets
  can no longer be diagnosed, so their provenance is garbage.
* A :class:`~repro.streaming.events.Gap` inside the window marks its
  span as unknown; once a gap expires into the base, the base itself
  is suspect (a config change may have been lost), and the window
  stays degraded — conservative, and explicit in every report.

``materialize()`` rebuilds a fresh, runtime-recorded
:class:`~repro.replay.execution.Execution` from base + events; because
both the base fold and the event list are deterministic functions of
the delivery sequence, two materializations of the same window are
identical — the foundation of the monitor's byte-identical
offline/online and crash-resume guarantees.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, List, Optional, Tuple as PyTuple, Union

from ..datalog.tuples import Tuple
from ..replay.execution import Execution
from .events import Gap, StreamEvent

__all__ = ["StreamWindow"]

Delivery = Union[StreamEvent, Gap]


class StreamWindow:
    """A bounded sliding window over the delivered stream."""

    def __init__(self, program, capacity: int = 24, engine=None,
                 telemetry=None):
        self.program = program
        self.capacity = int(capacity)
        self.engine = engine
        self.telemetry = telemetry
        # Tuples alive at the left edge, in first-insertion order, each
        # mapped to its mutability flag.
        self._base: "OrderedDict[Tuple, bool]" = OrderedDict()
        self._events: Deque[StreamEvent] = deque()
        self._gaps: Deque[Gap] = deque()
        self.base_suspect = False
        # High-water mark of live tuples+events (the O(window) claim).
        self.peak_live = 0
        self.expired_events = 0

    # -- sliding -------------------------------------------------------------

    def push(self, delivery: Delivery) -> None:
        """Admit one delivery, expiring the oldest beyond capacity."""
        if isinstance(delivery, Gap):
            self._gaps.append(delivery)
        else:
            self._events.append(delivery)
            while len(self._events) > self.capacity:
                self._expire(self._events.popleft())
        self.peak_live = max(self.peak_live, self.live_size)
        if self.telemetry is not None:
            self.telemetry.set_max("streaming.window.peak_live",
                                   self.peak_live)

    def _expire(self, event: StreamEvent) -> None:
        """Fold one expired event into the base snapshot."""
        self.expired_events += 1
        # Gaps older than the expiring event leave the window with it;
        # a gap that was never resolved taints the base for good.
        while self._gaps and self._gaps[0].last_seq < event.seq:
            self._gaps.popleft()
            self.base_suspect = True
        if event.kind in ("setup", "insert"):
            self._base[event.tuple] = bool(event.mutable)
            self._base.move_to_end(event.tuple)
        elif event.kind == "delete":
            self._base.pop(event.tuple, None)
        # Probes expire into nothing: their packets are no longer
        # diagnosable, so their provenance is collected.

    # -- inspection ----------------------------------------------------------

    @property
    def live_size(self) -> int:
        return len(self._base) + len(self._events)

    @property
    def events(self) -> List[StreamEvent]:
        return list(self._events)

    def span(self) -> Optional[PyTuple[int, int]]:
        """Sequence span of the in-window events (None while empty)."""
        if not self._events:
            return None
        return (self._events[0].seq, self._events[-1].seq)

    def probes(self) -> List[StreamEvent]:
        return [event for event in self._events if event.kind == "probe"]

    def unknown_spans(self) -> List[str]:
        """Human/report-facing descriptions of everything unknown here."""
        spans = [gap.describe() for gap in self._gaps]
        if self.base_suspect:
            spans.insert(0, "base-state(unresolved gap expired)")
        return spans

    @property
    def gapped(self) -> bool:
        return bool(self._gaps) or self.base_suspect

    # -- materialization -----------------------------------------------------

    def materialize(self, name: str = "window") -> Execution:
        """A fresh execution equivalent to replaying this window.

        Base tuples are inserted first (the left-edge state), then the
        in-window events in delivery order.  The execution runs in
        runtime logging mode, so the provenance is recorded as the
        window is built and the diagnosis's ``materialize()`` costs no
        second pass over the log.  Deterministic: the same
        window contents always build the same execution, so a monitor
        diagnosis and an offline diagnosis of the same window are
        byte-identical.
        """
        execution = Execution(
            self.program, name=name, mode="runtime", engine=self.engine
        )
        for tup, mutable in self._base.items():
            execution.insert(tup, mutable=mutable)
        for event in self._events:
            if event.kind in ("setup", "insert", "probe"):
                execution.insert(event.tuple, mutable=bool(event.mutable))
            elif event.kind == "delete":
                execution.delete(event.tuple)
        return execution
