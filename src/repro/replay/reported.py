"""The reported-provenance substrate: instrumented systems.

Systems that are not written in NDlog — like the instrumented MapReduce
runtime — cannot be replayed by the datalog engine.  Instead they
provide a *runner*: a deterministic function that re-executes the
primary system with a set of base-tuple changes applied and reports the
resulting provenance.  :class:`ReportedExecution` is the
:class:`~repro.replay.substrate.Substrate` around such a runner, so
DiffProv drives it through the same declared interface as
:class:`repro.replay.execution.Execution`.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..datalog.state import sort_key
from ..datalog.tuples import Tuple
from ..errors import ReproError
from ..provenance.graph import ProvenanceGraph
from ..provenance.recorder import ProvenanceRecorder
from .log import EventLog
from .replayer import Change
from .substrate import StoreRecord, Substrate

__all__ = ["ReportedExecution", "ReportedReplayResult", "GraphStoreView"]


class GraphStoreView:
    """The store of a reported replay: live-tuple lookups backed by a
    provenance graph."""

    base_only = False

    def __init__(self, graph: ProvenanceGraph):
        self.graph = graph
        self._by_table = {}
        for tup in graph.live_tuples():
            self._by_table.setdefault(tup.table, []).append(tup)
        for tuples in self._by_table.values():
            tuples.sort(key=sort_key)

    def tuples(self, table: str) -> List[Tuple]:
        return list(self._by_table.get(table, ()))

    def tuples_matching(self, table: str, position: int, value) -> List[Tuple]:
        """Equality projection, same contract as ``Store.tuples_matching``.

        Reported graphs are small (proportional to the traffic, not the
        configuration), so a filtered scan of the sorted table listing
        is exact and cheap.
        """
        return [
            tup
            for tup in self._by_table.get(table, ())
            if position < tup.arity and tup.args[position] == value
        ]

    def tuples_covering(self, table, location, position, address) -> None:
        """No prefix index: callers fall back to :meth:`tuples_matching`."""
        return None

    def record(self, tup: Tuple) -> Optional[StoreRecord]:
        exists = self.graph.exists_of(tup)
        if not exists:
            return None
        inserts = self.graph.inserts_of(tup)
        mutable = inserts[-1].mutable if inserts else True
        return StoreRecord(
            bool(inserts), bool(mutable), any(v.is_open for v in exists)
        )

    def is_mutable(self, tup: Tuple) -> bool:
        record = self.record(tup)
        return True if record is None else record.mutable


class ReportedReplayResult:
    """Replay result over reported provenance (graph + store view)."""

    def __init__(self, recorder: ProvenanceRecorder):
        self.recorder = recorder
        self.graph = recorder.graph
        self.store = GraphStoreView(recorder.graph)

    def alive(self, tup: Tuple) -> bool:
        return self.graph.latest_open_exist(tup) is not None


class ReportedExecution(Substrate):
    """An instrumented system run, replayable through its runner.

    ``runner(changes)`` must deterministically re-execute the primary
    system with the base-tuple changes applied and return the
    :class:`ProvenanceRecorder` holding the reported provenance.
    Reported provenance is what the system logged, so the persisted
    graph is a lossless one.
    """

    def __init__(
        self,
        name: str,
        runner: Callable[[List[Change]], ProvenanceRecorder],
        log: EventLog,
        program=None,
    ):
        super().__init__(name, log, program)
        self.runner = runner

    def _replay(self, changes, anchor_index, lossless) -> ReportedReplayResult:
        recorder = self.runner(changes)
        if not isinstance(recorder, ProvenanceRecorder):
            raise ReproError(
                f"runner of {self.name!r} must return a ProvenanceRecorder"
            )
        return ReportedReplayResult(recorder)

    def __repr__(self):
        return f"ReportedExecution({self.name!r}, {len(self.log)} logged events)"
