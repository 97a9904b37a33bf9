"""Deterministic replay, with optional base-tuple changes.

Replaying the log against a fresh engine reconstructs every derivation
— and, with a recorder attached, the full provenance graph.  DiffProv's
UPDATETREE step (Section 4.6) is a replay over a *clone*: the original
log plus the accumulated changes, applied "shortly before they are
needed" (just before the anchor event, Section 4.8).  The running
system is never touched.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..datalog.config import EngineConfig
from ..datalog.engine import Engine
from ..datalog.rules import Program
from ..datalog.tuples import Tuple
from ..errors import ReproError
from ..faults import FaultInjector
from ..observability import active as _active_telemetry
from ..provenance.graph import ProvenanceGraph
from ..provenance.recorder import ProvenanceRecorder
from .log import EventLog

__all__ = ["Change", "ReplayResult", "replay"]


class Change:
    """One base-tuple change in Δ(B→G).

    A change can insert a tuple, remove tuples, or both (a
    "modification", e.g. fixing the value of a configuration entry).
    ``reason`` is a human-readable explanation used in diagnosis
    reports.
    """

    __slots__ = ("insert", "remove", "reason")

    def __init__(
        self,
        insert: Optional[Tuple] = None,
        remove: Sequence[Tuple] = (),
        reason: str = "",
    ):
        if insert is None and not remove:
            raise ReproError("a Change must insert or remove something")
        self.insert = insert
        self.remove = tuple(remove)
        self.reason = reason

    @property
    def is_modification(self) -> bool:
        return self.insert is not None and bool(self.remove)

    def describe(self) -> str:
        if self.is_modification:
            removed = ", ".join(str(t) for t in self.remove)
            return f"change {removed} -> {self.insert}"
        if self.insert is not None:
            return f"insert {self.insert}"
        removed = ", ".join(str(t) for t in self.remove)
        return f"remove {removed}"

    def __eq__(self, other):
        if isinstance(other, Change):
            return (self.insert, self.remove) == (other.insert, other.remove)
        return NotImplemented

    def __hash__(self):
        return hash((self.insert, self.remove))

    def __repr__(self):
        return f"Change({self.describe()})"


class ReplayResult:
    """A replayed execution: engine state plus reconstructed provenance."""

    def __init__(self, engine: Engine, recorder: ProvenanceRecorder):
        self.engine = engine
        self.recorder = recorder

    @property
    def graph(self) -> ProvenanceGraph:
        return self.recorder.graph

    def alive(self, tup: Tuple) -> bool:
        return self.engine.exists(tup)


def replay(
    program: Program,
    log: EventLog,
    changes: Iterable[Change] = (),
    anchor_index: Optional[int] = None,
    record: bool = True,
    faults=None,
    lossless: bool = False,
    step_limit: Optional[int] = None,
    telemetry=None,
    cache=None,
    deadline=None,
    engine: Optional[EngineConfig] = None,
) -> ReplayResult:
    """Replay a log, applying ``changes`` just before ``anchor_index``.

    - Removed tuples have their log insertions suppressed entirely.
    - Inserted tuples are injected immediately before the anchor entry
      (or at the start of the log when no anchor is given), which
      realizes the paper's "apply the updates shortly before they are
      needed for the first time".
    - Each log entry is processed to a fixpoint before the next one, so
      the replay interleaves exactly like the original execution.
    - ``faults`` (a FaultPlan) rebuilds fresh injectors with fixed
      purposes per replay, so every replay of the same log reproduces
      the primary run's fault schedule.  With ``lossless=True`` the
      engine-level message faults are still reproduced (they shaped
      what actually happened) but the recorder is not subjected to the
      plan's logging loss — this is the debugger-side reconstruction
      from the lossless event log (Section 5's query-time mode).
    - ``cache`` (a :class:`repro.replay.cache.ReplayCache`) lets the
      replay restore a snapshotted result, or fork from the longest
      snapshotted log prefix consistent with the change set, instead of
      re-deriving from scratch.  The cache never changes the outcome —
      snapshots are the pickled state of the identical computation.
    - ``engine`` (an :class:`repro.datalog.config.EngineConfig`, a
      backend name string, or a mapping) selects the evaluation
      backend; the default is the compiled/annotated fast path, and
      ``"reference"`` is the oracle.  Both produce byte-identical
      results (the equivalence tests rely on this) — only the cost
      changes.
    """
    config = EngineConfig.coerce(engine)
    changes = list(changes)
    removed = set()
    for change in changes:
        removed.update(change.remove)
    inserted = [c.insert for c in changes if c.insert is not None]

    telemetry = _active_telemetry(telemetry)
    entries = log.entries
    anchor = anchor_index if anchor_index is not None else 0

    base_key = result_key = None
    if cache is not None:
        base_key = cache.base_key(log, faults, lossless, record, config)
        result_key = cache.result_key(base_key, changes, anchor_index,
                                      len(entries))
        restored = cache.fetch(result_key, telemetry, step_limit)
        if restored is not None:
            engine, recorder = restored
            engine.deadline = deadline
            return ReplayResult(
                engine, recorder if recorder is not None else ProvenanceRecorder()
            )

    # The changed replay is indistinguishable from the pristine one up
    # to the fork point: before the anchor (no insertions yet) and
    # before the first mention of any removed tuple (no suppression
    # yet).  Up to there, state can come from a prefix snapshot.
    fork = min(anchor, len(entries)) if inserted else len(entries)
    for tup in removed:
        occurrence = log.first_occurrence(tup)
        if occurrence is not None:
            fork = min(fork, occurrence)

    start = 0
    engine = recorder = None
    if cache is not None and fork > 0:
        prefix = cache.best_prefix(base_key, fork)
        if prefix > 0:
            got = cache.fetch(
                cache.prefix_key(base_key, prefix), telemetry, step_limit
            )
            if got is not None:
                engine, recorder = got
                start = prefix

    if engine is None:
        if faults is not None:
            engine_faults = FaultInjector(faults, "engine")
            logging_faults = (
                None if lossless else FaultInjector(faults, "prov-loss")
            )
        else:
            engine_faults = logging_faults = None
        recorder = (
            ProvenanceRecorder(
                faults=logging_faults, telemetry=telemetry,
                provenance=config.provenance,
            )
            if record
            else None
        )
        engine = Engine(
            program,
            recorder=recorder,
            faults=engine_faults,
            step_limit=step_limit,
            telemetry=telemetry,
            config=config,
        )
    engine.deadline = deadline

    capture_at = fork if (cache is not None and fork > start) else -1

    def apply_insertions():
        for tup in inserted:
            engine.insert_and_run(tup, mutable=True)

    def drive():
        applied = False
        for index in range(start, len(entries)):
            entry = entries[index]
            if index == capture_at:
                cache.store(
                    cache.prefix_key(base_key, index), engine, recorder,
                    telemetry,
                )
            if index == anchor and not applied:
                apply_insertions()
                applied = True
            if entry.op == "insert":
                if entry.tuple in removed:
                    continue
                engine.insert_and_run(entry.tuple, mutable=entry.mutable)
            elif entry.op == "delete":
                if entry.tuple in removed:
                    continue
                engine.delete(entry.tuple)
                engine.run()
            elif entry.op == "barrier":
                engine.fire_aggregates()
            else:  # pragma: no cover - defensive
                raise ReproError(f"unknown log op {entry.op!r}")
        if capture_at == len(entries):
            cache.store(
                cache.prefix_key(base_key, capture_at), engine, recorder,
                telemetry,
            )
        if not applied:
            apply_insertions()

    if telemetry is None:
        drive()
    else:
        with telemetry.span(
            "engine.run", entries=len(entries) - start, changes=len(changes)
        ) as span:
            drive()
            span.set("steps", engine.steps)
        telemetry.observe("engine.replay_steps", engine.steps)
        if engine.faults is not None:
            engine.faults.fold_into(telemetry)
        if recorder is not None and recorder.faults is not None:
            recorder.faults.fold_into(telemetry)
    if cache is not None and changes and cache.store_results:
        cache.store(result_key, engine, recorder, telemetry)
    return ReplayResult(engine, recorder if recorder is not None else ProvenanceRecorder())
