"""The continuous monitor: detect, pick a reference, run DiffProv.

:class:`StreamMonitor` wires the streaming pieces into the paper's
pipeline, run per detection instead of per operator request:

1. wire lines → :class:`~repro.streaming.ingest.Ingestor` (dedup,
   reorder buffer, watermark, gaps);
2. deliveries → :class:`~repro.streaming.window.StreamWindow`
   (bounded state, provenance GC);
3. probes → :class:`~repro.streaming.detect.QualityDetector`; an
   opened incident enters a *bounded* pending queue — when diagnosis
   falls behind ingest the oldest incident is shed as a typed record
   instead of stalling the stream;
4. per incident: materialize the window, auto-select the good
   reference (:func:`repro.core.autoref.propose_stream_references`),
   diagnose under the per-incident deadline budget, and emit one
   record.  Windows overlapping a gap emit reduced-confidence records
   listing the unknown spans.

Every emitted record is journaled through
:class:`repro.resilience.DiagnosisJournal` *before* it is surfaced, so
a SIGKILL'd monitor resumed over the same stream re-emits the already
-diagnosed records from the journal (skipping their replays) and
continues — the full record sequence is byte-identical to an
uninterrupted run (docs/streaming.md).

Records carry no wall-clock content; determinism is the contract.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Dict, List, Optional

from ..api import check_knobs
from ..core.autoref import propose_stream_references
from ..core.diffprov import DiffProv, DiffProvOptions
from ..datalog.config import EngineConfig
from ..errors import ReproError
from ..resilience.deadline import Deadline
from .detect import QualityDetector, quality_score
from .events import Gap, StreamEvent
from .ingest import Ingestor
from .source import observed_event
from .window import StreamWindow

__all__ = ["StreamMonitor", "MonitorSummary"]


class MonitorSummary:
    """End-of-run roll-up: what the monitor saw and what it did."""

    __slots__ = ("ingest", "incidents", "diagnoses", "degraded", "shed",
                 "resumed_records", "peak_live", "expired_events",
                 "watermark")

    def __init__(self, **fields):
        for slot in self.__slots__:
            setattr(self, slot, fields.get(slot))

    def to_dict(self) -> Dict[str, object]:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __repr__(self):
        return f"MonitorSummary({self.to_dict()})"


# Candidate references proposed per incident.
REFERENCE_LIMIT = 5


@contextmanager
def _heap_frozen():
    """Keep the cyclic collector off everything alive at entry.

    The scenario, the stream and the caller's own state outlive every
    incident, yet each generation-2 collection would walk them all
    again.  ``gc.freeze()`` moves them to the permanent generation for
    the run and ``gc.unfreeze()`` hands them back on exit, an exception
    included.  There is no collection on entry (a full pass costs as
    much as a few incidents): garbage already present is reclaimed by
    the first full collection after the run.  Objects the run creates
    are never frozen, so each incident's garbage is collected as
    before.  A caller that froze objects itself keeps its freeze, and
    the collector is left alone.
    """
    if gc.get_freeze_count():
        yield
        return
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


class StreamMonitor:
    """Watch one stream source; emit one record per detection.

    ``capacity`` bounds the window (events), ``lateness`` bounds the
    ingest reorder tolerance, ``max_pending`` bounds the queue of
    detections awaiting diagnosis (overflow sheds the oldest), and
    ``diagnose_every`` defers diagnosis to every Nth delivery — the
    pacing knob that makes backpressure reachable in tests.  Each must
    be an integer >= 1 (their rows in :data:`repro.api.KNOBS`).
    ``deadline_s`` is the per-incident diagnosis budget; an expired
    budget degrades that record rather than crashing the monitor.
    """

    def __init__(
        self,
        source,
        *,
        capacity: int = 24,
        lateness: int = 8,
        engine=None,
        minimize: bool = False,
        repair: bool = False,
        deadline_s: Optional[float] = None,
        max_pending: int = 8,
        diagnose_every: int = 1,
        journal=None,
        telemetry=None,
        detector: Optional[QualityDetector] = None,
    ):
        check_knobs("monitor", locals())
        # Coerced here so a bad backend name fails before a journal
        # opens, not in the first diagnosis.
        try:
            engine = EngineConfig.coerce(engine)
        except ValueError as exc:
            raise ReproError(
                f"option 'engine' {exc} (got {engine!r})"
            ) from exc
        self.source = source
        self.telemetry = telemetry
        self.journal = journal
        self.minimize = bool(minimize)
        # Per-incident rollback planning (docs/repair.md): incident
        # records' embedded reports gain a "repair" section.
        self.repair = bool(repair)
        self.deadline_s = deadline_s
        self.max_pending = max_pending
        self.diagnose_every = diagnose_every
        self.engine = engine
        self.ingestor = Ingestor(lateness=lateness, telemetry=telemetry)
        self.window = StreamWindow(
            source.program, capacity=capacity, engine=engine,
            telemetry=telemetry,
        )
        self.detector = detector or QualityDetector()
        self.records: List[dict] = []
        self.resumed_records = 0
        self.shed_count = 0
        self.degraded_count = 0
        self.diagnosis_count = 0
        self._pending: List[tuple] = []  # (incident, first bad probe)
        self._deliveries = 0

    # -- the run loop --------------------------------------------------------

    def run(self) -> List[dict]:
        """Consume the whole source; returns the emitted records.

        The drain check runs per *delivery*, not per wire line: a
        reordered line can unlock a whole batch of buffered deliveries
        at once, and diagnosing only after the batch would let the
        window's right edge depend on transport batching — breaking
        the guarantee that a stream reordered within the lateness
        bound diagnoses byte-identically to the in-order stream.

        The loop runs with the heap that existed at entry frozen (see
        :func:`_heap_frozen`).
        """
        with _heap_frozen():
            for line in self.source.lines():
                for delivery in self.ingestor.push_line(line):
                    self._deliver(delivery)
                    if self._deliveries % self.diagnose_every == 0:
                        self._drain_pending()
            for delivery in self.ingestor.flush():
                self._deliver(delivery)
                if self._deliveries % self.diagnose_every == 0:
                    self._drain_pending()
            self._drain_pending()
        return self.records

    def _deliver(self, delivery) -> None:
        self._deliveries += 1
        self.window.push(delivery)
        if isinstance(delivery, StreamEvent) and delivery.kind == "probe":
            incident = self.detector.observe(delivery)
            if incident is not None:
                self._count("streaming.monitor.incidents")
                self._enqueue(incident, delivery)

    def _enqueue(self, incident, probe) -> None:
        if len(self._pending) >= self.max_pending:
            shed_incident, shed_probe = self._pending.pop(0)
            self._emit({
                "kind": "shed",
                "incident": shed_incident.key,
                "probe_seqs": list(shed_incident.probe_seqs),
                "bad_event": str(observed_event(shed_probe)),
                "reason": "backpressure",
            })
            self.shed_count += 1
            self._count("streaming.monitor.shed")
        self._pending.append((incident, probe))

    def _drain_pending(self) -> None:
        while self._pending:
            incident, probe = self._pending.pop(0)
            self._process(incident, probe)

    # -- one incident --------------------------------------------------------

    def _process(self, incident, probe) -> None:
        journaled = None
        if self.journal is not None:
            journaled = self.journal.lookup("monitor", incident.key)
        if journaled is not None:
            # A previous (killed) run already diagnosed this incident;
            # re-emit its record verbatim instead of replaying.
            self.resumed_records += 1
            self._count("streaming.monitor.resumed")
            self.records.append(journaled)
            return
        record = self._diagnose(incident, probe)
        self._emit(record)

    def _diagnose(self, incident, probe) -> dict:
        self.diagnosis_count += 1
        self._count("streaming.monitor.diagnoses")
        bad_event = observed_event(probe)
        window = self.window
        score = quality_score(window.probes())
        unknown = window.unknown_spans()
        record = {
            "kind": "diagnosis",
            "incident": incident.key,
            "probe_seqs": list(incident.probe_seqs),
            "reasons": list(incident.reasons),
            "window": list(window.span() or ()),
            "bad_event": str(bad_event),
            "reference": None,
            "confidence": "uncertain" if window.gapped else "confirmed",
            "unknown": unknown,
            "quality": score.to_dict() if score is not None else None,
            "report": None,
        }
        execution = window.materialize(name=f"window-{incident.key}")
        healthy = []
        for candidate_probe in window.probes():
            if candidate_probe.ok:
                healthy.append(observed_event(candidate_probe))
        candidates = propose_stream_references(
            execution.graph, bad_event, healthy, limit=REFERENCE_LIMIT
        )
        if not candidates:
            record["degraded"] = "no-reference"
            self.degraded_count += 1
            self._count("streaming.monitor.degraded")
            return record
        deadline = Deadline.of(self.deadline_s)
        options = DiffProvOptions(
            minimize=self.minimize,
            repair=self.repair,
            telemetry=self.telemetry,
            deadline=deadline,
        )
        debugger = DiffProv(self.source.program, options)
        mismatch = False
        for candidate in candidates:
            if deadline is not None and deadline.expired:
                break
            try:
                report = debugger.diagnose(
                    execution, execution, candidate.event, bad_event
                )
            except ReproError:
                # The observed outcome cannot be derived from the
                # window replay — a config change was lost in a gap, or
                # the window advanced past the failure before a
                # deferred diagnosis ran.  Evidence disagreeing with
                # replay degrades the record; it never kills the
                # monitor.
                mismatch = True
                continue
            if report.success and report.num_changes > 0:
                record["reference"] = str(candidate.event)
                record["report"] = report.canonical_dict()
                if report.degraded:
                    record["confidence"] = "uncertain"
                    for tup in report.unknown_subtrees:
                        text = str(tup)
                        if text not in record["unknown"]:
                            record["unknown"].append(text)
                return record
        if deadline is not None and deadline.expired:
            record["degraded"] = "deadline-exceeded"
        elif mismatch:
            record["degraded"] = "evidence-mismatch"
        else:
            record["degraded"] = "no-aligned-reference"
        record["confidence"] = "uncertain"
        self.degraded_count += 1
        self._count("streaming.monitor.degraded")
        return record

    # -- emission ------------------------------------------------------------

    def _emit(self, record: dict) -> None:
        if self.journal is not None:
            key = record.get("incident") or f"record-{len(self.records)}"
            if record.get("kind") == "shed":
                key = f"shed:{key}"
            # Write-ahead: the record is durable before it is surfaced,
            # so resume can re-emit exactly what an observer saw.
            self.journal.record("monitor", key, record)
        self.records.append(record)

    def summary(self) -> MonitorSummary:
        return MonitorSummary(
            ingest=self.ingestor.stats.to_dict(),
            incidents=len(self.detector.incidents),
            diagnoses=self.diagnosis_count,
            degraded=self.degraded_count,
            shed=self.shed_count,
            resumed_records=self.resumed_records,
            peak_live=self.window.peak_live,
            expired_events=self.window.expired_events,
            watermark=self.ingestor.watermark,
        )

    def _count(self, name: str, value: int = 1) -> None:
        if self.telemetry is not None:
            self.telemetry.inc(name, value)
