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
    """A replayed execution: engine state plus reconstructed provenance
    (the result shape of :mod:`repro.replay.substrate`).

    With an ``owner`` (an Execution) this is a *view* of that
    execution's live replay base, valid until it replays again;
    touching it later raises :class:`ReproError` rather than silently
    reading the next candidate's state.
    """

    def __init__(self, engine: Engine, recorder: ProvenanceRecorder,
                 owner=None):
        self._engine = engine
        self._recorder = recorder
        self._owner = owner
        self._generation = owner._generation if owner is not None else 0

    def _current(self, part):
        owner = self._owner
        if owner is not None and owner._generation != self._generation:
            raise ReproError(
                f"stale ReplayResult: {owner!r} has replayed since this "
                f"candidate was forked off its live base; reduce a result "
                f"to tuples before the next replay"
            )
        return part

    @property
    def engine(self) -> Engine:
        return self._current(self._engine)

    @property
    def store(self):
        return self.engine.store

    @property
    def recorder(self) -> ProvenanceRecorder:
        return self._current(self._recorder)

    @property
    def graph(self) -> ProvenanceGraph:
        return self.recorder.graph

    def alive(self, tup: Tuple) -> bool:
        return self.engine.exists(tup)


def split_changes(log: EventLog, changes, anchor_index: Optional[int]):
    """``(removed, inserted, anchor, fork)`` of one changed replay.

    ``fork`` is where the changed replay stops being indistinguishable
    from the pristine one: the anchor (no insertion before it) or the
    first mention of a removed tuple (no suppression before it),
    whichever comes first — ``len(log)`` when nothing differs.  Up to
    there, state can come from a prefix snapshot or a live base.
    """
    removed = set()
    for change in changes:
        removed.update(change.remove)
    inserted = [c.insert for c in changes if c.insert is not None]
    anchor = min(anchor_index or 0, len(log.entries))
    fork = anchor if inserted else len(log.entries)
    for tup in removed:
        occurrence = log.first_occurrence(tup)
        if occurrence is not None:
            fork = min(fork, occurrence)
    return removed, inserted, anchor, fork


def pristine(program, log, upto, *, config, faults=None, lossless=False,
             record=True, step_limit=None, telemetry=None, cache=None,
             deadline=None):
    """``(engine, recorder, start)`` with the unchanged ``entries[:upto]``
    consumed.

    With a ``cache``, the first ``start`` entries are restored from the
    longest prefix snapshot that fits instead of driven (the cache is
    asked exactly once, so a cold one counts its miss), and the state
    reached is snapshotted back at ``upto`` for whoever replays this
    log next — another Session, another request of a service worker.
    """
    engine = recorder = None
    start = 0
    if cache is not None and upto > 0:
        base_key = cache.base_key(log, faults, lossless, record, config)
        prefix = cache.best_prefix(base_key, upto) or upto
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
    drive(engine, log.entries, start, upto)
    if cache is not None and upto > start:
        cache.store(
            cache.prefix_key(base_key, upto), engine, recorder, telemetry
        )
    return engine, recorder, start


def drive(engine: Engine, entries, start: int, stop: int,
          removed=(), inserted=(), anchor: int = -1) -> None:
    """Feed ``entries[start:stop]`` to the engine, one fixpoint each.

    Log mentions of ``removed`` tuples are suppressed; ``inserted``
    tuples go in immediately before ``entries[anchor]`` (after the last
    entry when ``anchor == stop``).
    """
    for index in range(start, stop):
        if index == anchor:
            for tup in inserted:
                engine.insert_and_run(tup, mutable=True)
        entry = entries[index]
        if entry.op == "barrier":
            engine.fire_aggregates()
        elif entry.tuple in removed:
            continue
        elif entry.op == "insert":
            engine.insert_and_run(entry.tuple, mutable=entry.mutable)
        elif entry.op == "delete":
            engine.delete(entry.tuple)
            engine.run()
        else:  # pragma: no cover - defensive
            raise ReproError(f"unknown log op {entry.op!r}")
    if anchor == stop:
        for tup in inserted:
            engine.insert_and_run(tup, mutable=True)


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
    """Replay a log from scratch, applying ``changes`` at ``anchor_index``.

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
      replay start from the longest snapshotted log prefix consistent
      with the change set, and snapshots the pristine state at its own
      fork point for whoever replays this log next.  The cache never
      changes the outcome — snapshots are the pickled state of the
      identical computation.
    - ``engine`` (an :class:`repro.datalog.config.EngineConfig`, a
      backend name string, or a mapping) selects the evaluation
      backend; the default is the compiled/annotated fast path, and
      ``"reference"`` is the oracle.  Both produce byte-identical
      results (the equivalence tests rely on this) — only the cost
      changes.

    This is the oracle path: the result owns its engine.  Inside a
    diagnosis, :meth:`repro.replay.execution.Execution.replay` serves
    candidates from one live base instead and falls back to this.
    """
    config = EngineConfig.coerce(engine)
    changes = list(changes)
    removed, inserted, anchor, fork = split_changes(log, changes, anchor_index)
    telemetry = _active_telemetry(telemetry)
    entries = log.entries

    def run():
        engine, recorder, start = pristine(
            program, log, fork, config=config, faults=faults,
            lossless=lossless, record=record, step_limit=step_limit,
            telemetry=telemetry, cache=cache, deadline=deadline,
        )
        drive(engine, entries, fork, len(entries), removed, inserted, anchor)
        return engine, recorder, start

    if telemetry is None:
        engine, recorder, _ = run()
    else:
        with telemetry.span("engine.run", changes=len(changes)) as span:
            engine, recorder, start = run()
            span.set("entries", len(entries) - start)
            span.set("steps", engine.steps)
        telemetry.observe("engine.replay_steps", engine.steps)
        if engine.faults is not None:
            engine.faults.fold_into(telemetry)
        if recorder is not None and recorder.faults is not None:
            recorder.faults.fold_into(telemetry)
    return ReplayResult(engine, recorder if recorder is not None else ProvenanceRecorder())
