"""The substrate contract: what DiffProv asks of a system it diagnoses.

The paper runs one algorithm over three kinds of provenance capture
(Section 6.7, DESIGN.md's substitution table); each is a
:class:`Substrate`.  :class:`repro.replay.execution.Execution` runs an
NDlog program on the declarative engine,
:class:`repro.replay.reported.ReportedExecution` re-runs an
instrumented system that reports its own dependencies, and
:class:`repro.sdn.emulation.EmulatedNetworkExecution` infers
provenance from packet traces through an external specification.

Every replay returns a result of one shape: ``store`` (``tuples``,
``tuples_matching``, ``tuples_covering`` — ``None`` where no index
exists — ``record``, ``is_mutable`` and ``base_only``: True when the
store holds the configuration alone, derived state living only in the
graph, and then also ``delta(other)``), ``recorder``, ``graph`` and
``alive(t)``.  docs/architecture.md ("Substrates") has the table.
"""

from __future__ import annotations

import time as _time
from contextlib import contextmanager
from typing import Iterable, NamedTuple, Optional

from ..datalog.config import EngineConfig

__all__ = ["Substrate", "StoreRecord"]


class StoreRecord(NamedTuple):
    """What ``store.record(t)`` answers for a tuple the store knows; the
    engine's :class:`~repro.datalog.state.TupleRecord` answers the same
    from its support counts."""

    is_base: bool
    mutable: bool
    alive: bool = True


class Substrate:
    """A logged run of a diagnosable system, replayable with changes.

    An implementer writes ``_replay(changes, anchor_index, lossless)``;
    this class times and counts it, caches what it returns for
    :meth:`materialize` and :meth:`recover` until the log grows, and
    attaches a run for the run's duration (:meth:`attached`).
    """

    def __init__(self, name: str, log, program=None, engine=None,
                 telemetry=None, faults=None):
        self.name = name
        self.log = log
        self.program = program
        # Backend selection, inherited by every replay.  Both backends
        # produce byte-identical results; only the cost changes.
        self.engine_config = EngineConfig.coerce(engine)
        # Optional FaultPlan.  Every replay builds injectors with fixed
        # purposes from it, so replays see the primary run's schedule.
        self.fault_plan = faults
        # Optional repro.resilience.Deadline and Telemetry; a run
        # attaches its own for its duration.
        self.deadline = None
        self.telemetry = telemetry
        self.replay_count = 0
        self.replay_seconds = 0.0
        self._materialized = None
        self._recovered = None

    @property
    def graph(self):
        """The persisted provenance graph."""
        return self.materialize().graph

    def materialize(self):
        """The *persisted* provenance, cached until the log grows.

        Under a fault plan with logging loss the plan's prov-loss
        stream applies, so vertexes may be missing (the recorder's
        ``lost_events`` counts them); :meth:`replay` and
        :meth:`recover` are lossless.
        """
        if self._materialized is None:
            self._materialized = self._timed((), None, lossless=False)
        return self._materialized

    def recover(self):
        """Lossless provenance rebuilt from the log (Section 5's
        query-time mode) for when the persisted provenance lost events;
        cached like :meth:`materialize`.  A plan that loses provenance
        events is never host-only, so an engine never serves this from
        its live replay base: the result owns its state.
        """
        if self._recovered is None:
            self._recovered = self._timed((), None, lossless=True)
        return self._recovered

    def replay(self, changes: Iterable = (), anchor_index: Optional[int] = None):
        """Re-execute on a clone with ``changes`` applied just before
        ``log.entries[anchor_index]`` (Section 4.6).  The plan's network
        faults are reproduced (they shaped what the primary run did),
        but recording is lossless."""
        return self._timed(changes, anchor_index, lossless=True)

    def _timed(self, changes, anchor_index, lossless):
        started = _time.perf_counter()
        try:
            return self._replay(list(changes), anchor_index, lossless)
        finally:
            self.replay_seconds += _time.perf_counter() - started
            self.replay_count += 1

    def _replay(self, changes, anchor_index, lossless):
        raise NotImplementedError

    def _log_changed(self) -> None:
        self._materialized = self._recovered = None

    @contextmanager
    def attached(self, run):
        """Attach ``run``'s deadline and telemetry; restore on exit."""
        saved = self.deadline, self.telemetry
        if run.deadline is not None:
            self.deadline = run.deadline
        if run.telemetry is not None:
            self.telemetry = run.telemetry
        try:
            yield
        finally:
            self.deadline, self.telemetry = saved

    def share_cache(self, cache) -> None:
        """Seed replays from a caller's ReplayCache (ignored without
        prefix state to snapshot)."""

    def release(self, cache=None) -> None:
        """Drop the live replay base and, if it was shared, ``cache``."""
        self.drop_base()

    def park_base(self) -> None:
        """End a run's last candidate, keeping any live replay base."""

    def drop_base(self) -> None:
        """Discard any live replay base."""
