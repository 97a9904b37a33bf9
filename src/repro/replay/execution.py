"""An Execution ties together a program, its log, and its provenance.

This is the object diagnostic scenarios hand to the debugger.  It can
run in two logging modes (Section 5):

- ``"query-time"`` (default, what the paper's experiments use): only
  base events are logged at runtime; provenance is reconstructed by
  deterministic replay when a query arrives.

- ``"runtime"``: a recorder is attached while the system runs, so the
  provenance graph is readily available at query time at the price of
  per-event runtime overhead.
"""

from __future__ import annotations

import time as _time
from contextlib import nullcontext
from typing import Iterable, Optional

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
from .replayer import (
    Change, ReplayResult, drive, pristine, replay, split_changes,
)

__all__ = ["Execution"]

_MODES = ("query-time", "runtime")


class Execution:
    """A logged run of an NDlog program."""

    def __init__(
        self,
        program: Program,
        name: str = "execution",
        mode: str = "query-time",
        logging_enabled: bool = True,
        faults=None,
        telemetry=None,
        replay_cache=None,
        engine: Optional[EngineConfig] = None,
    ):
        if mode not in _MODES:
            raise ReproError(f"unknown logging mode {mode!r}")
        self.program = program
        self.name = name
        self.mode = mode
        self.logging_enabled = logging_enabled
        # Backend selection, inherited by the live engine and every
        # replay.  Both backends produce byte-identical results (the
        # equivalence tests rely on this); only the cost changes.
        self.engine_config = EngineConfig.coerce(engine)
        # Optional FaultPlan.  The live engine and every replay build
        # injectors with the same purposes from it, so query-time
        # replays see the same fault schedule the primary run did.
        self.fault_plan = faults
        # Optional Telemetry, inherited by the live engine and every
        # replay.  The debugger attaches its own for the duration of a
        # diagnosis, so query-time replays land in the diagnosis trace.
        self.telemetry = telemetry
        # Optional ReplayCache (repro.replay.cache): prefix snapshots
        # shared across Sessions/processes that seed a replay (or the
        # live base below) instead of re-deriving the prefix.
        self.replay_cache = replay_cache
        # Live replay base.  While ``fork_replays`` is on (the debugger
        # switches it on for each diagnose/repair/autoref scope, unless
        # replay_cache=False), replay() forks candidates off one
        # pristine (engine, recorder) parked at log position _base_at,
        # by checkpoint and rollback, instead of re-deriving or
        # unpickling the prefix.  The base outlives the scope (each
        # scope exit parks it), so the prefix is driven once per
        # Execution; it goes only when the log grows or drop_base() is
        # called (Session.close, a scope with forking off).
        self.fork_replays = False
        self._base: Optional[tuple] = None
        self._base_at = 0
        # Bumped by every replay served from the base; a forked
        # ReplayResult is a view that dies with its generation.
        self._generation = 0
        self.log = EventLog()
        self._runtime_recorder = (
            ProvenanceRecorder(
                faults=(
                    FaultInjector(faults, "prov-loss")
                    if faults is not None
                    else None
                ),
                telemetry=telemetry,
                provenance=self.engine_config.provenance,
            )
            if mode == "runtime"
            else None
        )
        self.engine = Engine(
            program,
            recorder=self._runtime_recorder,
            faults=(
                FaultInjector(faults, "engine") if faults is not None else None
            ),
            telemetry=telemetry,
            config=self.engine_config,
        )
        self._materialized: Optional[ReplayResult] = None
        # Optional repro.resilience.Deadline the debugger attaches for
        # the duration of a diagnosis; every replay inherits it.
        self.deadline = None
        self.replay_count = 0
        self.replay_seconds = 0.0

    # -- driving the primary system -----------------------------------------

    def insert(
        self,
        tup: Tuple,
        mutable: Optional[bool] = None,
        size: Optional[int] = None,
    ) -> None:
        """Feed a base event into the system (and the log)."""
        if self.logging_enabled:
            self.log.append("insert", tup, mutable, size)
        self.engine.insert_and_run(tup, mutable)
        self._log_changed()

    def delete(self, tup: Tuple, size: Optional[int] = None) -> None:
        if self.logging_enabled:
            self.log.append("delete", tup, size=size)
        self.engine.delete(tup)
        self.engine.run()
        self._log_changed()

    def barrier(self) -> None:
        """Fire aggregate rules (batch-job completion point)."""
        if self.logging_enabled:
            self.log.append("barrier", size=1)
        self.engine.fire_aggregates()
        self._log_changed()

    def _log_changed(self) -> None:
        self._materialized = None
        self.drop_base()

    # -- provenance access ----------------------------------------------------

    @property
    def graph(self) -> ProvenanceGraph:
        """The provenance graph (replay-reconstructed if query-time)."""
        if self._runtime_recorder is not None:
            return self._runtime_recorder.graph
        return self.materialize().graph

    def materialize(self) -> ReplayResult:
        """The *persisted* provenance (cached until the log grows).

        Under a fault plan with logging loss, this is the graph the
        production recorder managed to persist: the plan's prov-loss
        stream applies, so vertexes may be missing (the recorder's
        ``lost_events`` counts them).  Diagnostic replays made through
        :meth:`replay` are lossless — see there.

        Query-time mode reconstructs it by replaying the log from
        scratch.  Runtime mode already holds it: the result is the live
        engine and the recorder attached to it, with no second pass.
        Under a fault plan the two agree, because the live engine and
        recorder consumed the same ``engine`` and ``prov-loss``
        injector streams a replay would rebuild.  The result is a view
        of the live system, so feeding this execution another event
        moves it too.
        """
        if not self.logging_enabled:
            raise ReproError(
                f"execution {self.name!r} ran with logging disabled; "
                f"provenance cannot be reconstructed"
            )
        if self._materialized is None:
            if self._runtime_recorder is not None:
                self._materialized = ReplayResult(
                    self.engine, self._runtime_recorder
                )
            else:
                self._materialized = self._replay(lossless=False)
        return self._materialized

    def replay(
        self,
        changes: Iterable[Change] = (),
        anchor_index: Optional[int] = None,
    ) -> ReplayResult:
        """Replay this execution's log on a clone (Section 4.6).

        Replays run in the debugger's controlled environment: the
        plan's engine-level message faults are reproduced (they shaped
        what the primary run derived), but recording is lossless — the
        event log is ground truth, so a complete graph can always be
        rebuilt from it.
        """
        return self._replay(changes, anchor_index, lossless=True)

    def _replay(
        self,
        changes: Iterable[Change] = (),
        anchor_index: Optional[int] = None,
        lossless: bool = True,
    ) -> ReplayResult:
        started = _time.perf_counter()
        changes = list(changes)
        # Bound every replay by a generous multiple of the primary run:
        # a candidate change that sends the replayed system into a loop
        # (e.g. a forwarding cycle) raises StepLimitExceeded instead of
        # hanging the diagnosis.
        step_limit = (
            self.engine.steps * 10 + 10_000 if self.engine.steps else None
        )
        telemetry = _active_telemetry(self.telemetry)
        cache = self.replay_cache
        how = dict(
            faults=self.fault_plan, lossless=lossless, step_limit=step_limit,
            telemetry=telemetry, cache=cache, deadline=self.deadline,
        )
        try:
            key = None
            if cache is not None and changes:
                # A cache that outlives this diagnosis may already hold
                # this very candidate (the service's repeated requests).
                key = cache.result_key(
                    cache.base_key(self.log, self.fault_plan, lossless, True,
                                   self.engine_config),
                    changes, anchor_index, len(self.log),
                )
                restored = cache.fetch(key, telemetry, step_limit)
                if restored is not None:
                    restored[0].deadline = self.deadline
                    return ReplayResult(*restored)
            result = None
            if (
                lossless
                and self.fork_replays
                and self.engine_config.backend == "compiled"
                and (self.fault_plan is None or self.fault_plan.host_only())
            ):
                result = self._fork(changes, anchor_index, how)
            if result is None:
                # From scratch: the oracle path, and an owned result.
                result = replay(
                    self.program, self.log, changes, anchor_index,
                    engine=self.engine_config, **how,
                )
            if key is not None:
                cache.store(key, result.engine, result.recorder, telemetry)
            return result
        finally:
            self.replay_seconds += _time.perf_counter() - started
            self.replay_count += 1

    def _fork(self, changes, anchor_index, how) -> Optional[ReplayResult]:
        """Serve one replay from the live base, or ``None`` to bypass.

        The base is built at the first fork point before the end of the
        log and only ever advances; a zero-change replay is driven to
        the end inside the checkpoint, so the base stays put for the
        candidates that follow.  A fork below the base position — or a
        replay that would park a new base at the end of the log —
        bypasses it (counted as ``replay.base.bypassed``).
        """
        removed, inserted, anchor, fork = split_changes(
            self.log, changes, anchor_index
        )
        entries = self.log.entries
        telemetry = how["telemetry"]

        def span(name, **attrs):
            if telemetry is None:
                return nullcontext()
            return telemetry.span(name, **attrs)

        if self._base is None and fork < len(entries):
            with span("replay.base.build", entries=fork):
                engine, recorder, _ = pristine(
                    self.program, self.log, fork,
                    config=self.engine_config, **how,
                )
            self._base, self._base_at = (engine, recorder), fork
        if (
            self._base is None
            or fork < self._base_at
            # With a cache, the from-scratch path restores (or stores)
            # the zero-change replay: it is the full-length prefix.
            or (fork == len(entries) and how["cache"] is not None)
        ):
            if telemetry is not None:
                telemetry.inc("replay.base.bypassed")
            return None
        (engine, recorder), position = self._base, self._base_at
        # The previous candidate dies here, whatever state it was left
        # in (a StepLimitExceeded mid-drive included).
        self._generation += 1
        if engine.in_checkpoint:
            with span("replay.rollback"):
                engine.rollback()
        engine.telemetry = recorder.telemetry = telemetry
        engine.step_limit = how["step_limit"]
        if position < fork < len(entries):
            # Not interruptible: a half-advanced base would not be a
            # pristine prefix.  Bounded by one pass over the log.
            engine.deadline = None
            with span("replay.base.build", entries=fork - position):
                drive(engine, entries, position, fork)
            self._base_at = position = fork
            if telemetry is not None:
                telemetry.inc("replay.base.advances")
        engine.deadline = self.deadline
        engine.checkpoint()
        with span("replay.fork", entries=len(entries) - position,
                  changes=len(changes)):
            drive(engine, entries, position, len(entries),
                  removed, inserted, anchor)
        if telemetry is not None:
            telemetry.inc("replay.base.forks")
            telemetry.observe("engine.replay_steps", engine.steps)
            if engine.faults is not None:
                engine.faults.fold_into(telemetry)
        return ReplayResult(engine, recorder, owner=self)

    def park_base(self) -> None:
        """End the last candidate: roll the base back to its pristine
        prefix and stale every forked result, keeping the base."""
        self._generation += 1
        if self._base is not None:
            engine, recorder = self._base
            if engine.in_checkpoint:
                engine.rollback()
            # Release the finished run's telemetry and deadline.
            engine.telemetry = recorder.telemetry = engine.deadline = None

    def drop_base(self) -> None:
        """Discard the live base; outstanding forked results go stale."""
        self._base = None
        self._generation += 1

    def __repr__(self):
        return (
            f"Execution({self.name!r}, mode={self.mode!r}, "
            f"{len(self.log)} logged events)"
        )
