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
from typing import Iterable, Optional

from ..datalog.config import EngineConfig
from ..datalog.engine import Engine
from ..datalog.rules import Program
from ..datalog.tuples import Tuple
from ..errors import ReproError
from ..faults import FaultInjector
from ..provenance.graph import ProvenanceGraph
from ..provenance.recorder import ProvenanceRecorder
from .log import EventLog
from .replayer import Change, ReplayResult, replay

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
        # Optional ReplayCache (repro.replay.cache): replays restore or
        # fork from snapshots instead of re-deriving.  The debugger
        # attaches one for the duration of a diagnosis unless disabled.
        self.replay_cache = replay_cache
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
        self._materialized = None

    def delete(self, tup: Tuple, size: Optional[int] = None) -> None:
        if self.logging_enabled:
            self.log.append("delete", tup, size=size)
        self.engine.delete(tup)
        self.engine.run()
        self._materialized = None

    def barrier(self) -> None:
        """Fire aggregate rules (batch-job completion point)."""
        if self.logging_enabled:
            self.log.append("barrier", size=1)
        self.engine.fire_aggregates()
        self._materialized = None

    # -- provenance access ----------------------------------------------------

    @property
    def graph(self) -> ProvenanceGraph:
        """The provenance graph (replay-reconstructed if query-time)."""
        if self._runtime_recorder is not None:
            return self._runtime_recorder.graph
        return self.materialize().graph

    def materialize(self) -> ReplayResult:
        """Reconstruct the *persisted* provenance by replay (cached).

        Under a fault plan with logging loss, this is the graph the
        production recorder managed to persist: the plan's prov-loss
        stream applies, so vertexes may be missing (the recorder's
        ``lost_events`` counts them).  Diagnostic replays made through
        :meth:`replay` are lossless — see there.
        """
        if not self.logging_enabled:
            raise ReproError(
                f"execution {self.name!r} ran with logging disabled; "
                f"provenance cannot be reconstructed"
            )
        if self._materialized is None:
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
        # Bound every replay by a generous multiple of the primary run:
        # a candidate change that sends the replayed system into a loop
        # (e.g. a forwarding cycle) raises StepLimitExceeded instead of
        # hanging the diagnosis.
        step_limit = (
            self.engine.steps * 10 + 10_000 if self.engine.steps else None
        )
        result = replay(
            self.program,
            self.log,
            changes=changes,
            anchor_index=anchor_index,
            faults=self.fault_plan,
            lossless=lossless,
            step_limit=step_limit,
            telemetry=self.telemetry,
            cache=self.replay_cache,
            deadline=self.deadline,
            engine=self.engine_config,
        )
        self.replay_seconds += _time.perf_counter() - started
        self.replay_count += 1
        return result

    def __getstate__(self):
        # Shipped to replay-evaluator worker processes: strip telemetry
        # (wall clocks, open spans) and the replay cache (each process
        # keeps its own); strip the materialized result too — workers
        # re-derive what they need, usually from their own snapshots.
        state = self.__dict__.copy()
        state["telemetry"] = None
        state["replay_cache"] = None
        state["_materialized"] = None
        # Deadlines are parent-local (live clock callable); workers are
        # bounded by the evaluator's pool timeouts instead.
        state["deadline"] = None
        return state

    def __repr__(self):
        return (
            f"Execution({self.name!r}, mode={self.mode!r}, "
            f"{len(self.log)} logged events)"
        )
