"""Lazy provenance: record compact events, build the graph on demand.

Eagerly mirroring every engine event into a :class:`ProvenanceGraph`
pays the full seven-vertex construction cost on every replay — even
though DiffProv's inner loop (FIRSTDIV's liveness walk, competitor
search) only asks a handful of cheap questions per replay and
materializes a tree for the rare candidate that survives them.  This
module implements the record-little/reconstruct-on-query split of
*Provenance for Large-scale Datalog* and *Provenance Traces*: the
recorder appends one compact event per kept observation (rule id,
premise tuple ids, timestamps) to an append-only arena, a small amount
of incremental state answers the hot liveness queries directly, and the
full graph is reconstructed — identically, vertex for vertex — only
when a caller touches an API that needs real vertexes.

Equivalence argument: recorder-side fault filtering happens *before*
events reach the arena, so replaying the arena through
:func:`apply_event` performs exactly the ``add_vertex`` sequence the
eager recorder would have performed for the same kept events — same
order, same children lookups against the same partial graph.  The
reconstructed graph is therefore byte-identical to the eager one, and
every derived artifact (trees, serialized forms, diffs, reports) is
too.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..datalog.tuples import Tuple
from ..errors import ReproError
from .graph import DerivationInfo, ProvenanceGraph
from .vertices import VertexKind

__all__ = ["LazyProvenanceGraph", "apply_event"]

# Arena event kind -> the suffix of its ``recorder.vertices.*`` counter.
_VERTEX_NAMES = {
    "ins": "insert", "del": "delete", "app": "appear",
    "dis": "disappear", "der": "derive", "und": "underive",
}


def apply_event(graph: ProvenanceGraph, event: tuple) -> None:
    """Apply one arena event to an eager graph.

    This is the single construction path for lazily-recorded
    provenance: the recorder encodes each kept observation as a compact
    tuple, and this function performs the same vertex/edge construction
    the eager recorder callbacks perform (see
    :class:`repro.provenance.recorder.ProvenanceRecorder`).
    """
    kind = event[0]
    if kind == "ins":
        _, node, tup, time, mutable = event
        graph.add_vertex(VertexKind.INSERT, node, tup, time, mutable=mutable)
    elif kind == "del":
        _, node, tup, time = event
        graph.add_vertex(VertexKind.DELETE, node, tup, time)
    elif kind == "app":
        _, node, tup, time, cause_kind, derivation_id = event
        if cause_kind == "insert":
            parent = graph.latest_insert(tup)
        else:
            parent = graph.derive_vertex(derivation_id)
        children = [parent] if parent is not None else []
        appear = graph.add_vertex(
            VertexKind.APPEAR, node, tup, time, children=children
        )
        graph.add_vertex(VertexKind.EXIST, node, tup, time, children=[appear])
    elif kind == "dis":
        _, node, tup, time, cause_kind, derivation_id = event
        children = []
        if cause_kind == "underive" and derivation_id is not None:
            derive_vertex = graph.derive_vertex(derivation_id)
            if derive_vertex is not None:
                children = [derive_vertex]
        graph.close_exist(tup, time)
        graph.add_vertex(
            VertexKind.DISAPPEAR, node, tup, time, children=children
        )
    elif kind == "der":
        _, node, info, time = event
        graph.add_derivation(info)
        children = []
        for member in info.body:
            exist = graph.exist_at(member, time)
            if exist is None:
                exist = graph.exist_at(member)
            if exist is not None:
                children.append(exist)
        graph.add_vertex(
            VertexKind.DERIVE,
            node,
            info.head,
            time,
            children=children,
            rule=info.rule_name,
            derivation_id=info.id,
        )
    elif kind == "und":
        _, node, head, time, rule_name, derivation_id = event
        derive_vertex = graph.derive_vertex(derivation_id)
        children = [derive_vertex] if derive_vertex is not None else []
        graph.add_vertex(
            VertexKind.UNDERIVE,
            node,
            head,
            time,
            children=children,
            rule=rule_name,
            derivation_id=derivation_id,
        )
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown arena event {kind!r}")


class LazyProvenanceGraph:
    """A :class:`ProvenanceGraph` facade that materializes on demand.

    While unmaterialized, it holds the event arena plus just enough
    incremental state to answer DiffProv's hot queries (liveness
    intervals, appear times, derivation records) without building a
    single vertex.  The first call that needs real vertexes — tree
    projection, serialization, history — triggers one reconstruction
    (metered as ``provenance.lazy.reconstructions``), after which every
    call delegates to the materialized graph.

    The facade's identity is stable: ``recorder.graph`` returns the
    same object before and after materialization, so long-lived
    references (``ReplayResult.graph``, emulation views) stay valid.
    """

    def __init__(self, recorder=None):
        # Backref for telemetry: read dynamically on every use, because
        # replay-cache restores reattach a fresh Telemetry to the
        # recorder after unpickling.
        self._recorder = recorder
        self._arena: List[tuple] = []
        self._graph: Optional[ProvenanceGraph] = None
        # Incremental cheap state, maintained by record():
        self._exists: Dict[Tuple, List[list]] = {}  # tup -> [[start, end|None]]
        self._appears: Dict[Tuple, List[int]] = {}  # tup -> appear times
        self._insert_counts: Dict[Tuple, int] = {}
        self._derivations: Dict[int, DerivationInfo] = {}
        self._vertex_count = 0
        # The engine's undo trail while it has an open checkpoint.
        self._trail = None

    def __getstate__(self):
        # A snapshot taken inside a checkpoint is a standalone state.
        state = self.__dict__.copy()
        state["_trail"] = None
        return state

    # -- recording (called by the owning recorder) ---------------------------

    def checkpoint(self, trail) -> None:
        """Join the engine's undo trail (``None`` leaves it again).

        Rollback truncates the arena and restores the cheap state entry
        by entry; a graph materialized inside the checkpoint is simply
        discarded (:meth:`materialize` keeps the arena meanwhile).
        """
        if trail is not None:
            if self._graph is not None:
                raise ReproError("a materialized graph cannot be checkpointed")
            trail.attrs(self, "_graph", "_vertex_count")
            trail.length(self._arena)
        self._trail = trail

    def _entry(self, index: dict, key, empty):
        """``index.setdefault(key, empty())`` inside a checkpoint."""
        entry = index.get(key)
        if entry is None:
            self._trail.item(index, key)
            entry = index[key] = empty()
        return entry

    @property
    def pending(self) -> bool:
        """True while the graph has not been materialized yet."""
        return self._graph is None

    def record(self, event: tuple) -> None:
        """Ingest one kept event: cheap state, metrics, arena/graph.

        The state is maintained whether or not a telemetry is attached:
        a run attaches its telemetry at fork time to a base that was
        built without one, and later counts depend on it.
        """
        trail = self._trail
        kind = event[0]
        if kind == "ins":
            tup = event[2]
            if trail is not None:
                trail.item(self._insert_counts, tup)
            self._insert_counts[tup] = self._insert_counts.get(tup, 0) + 1
        elif kind == "app":
            tup, time = event[2], event[3]
            if trail is None:
                self._appears.setdefault(tup, []).append(time)
                self._exists.setdefault(tup, []).append([time, None])
            else:
                for index, value in ((self._appears, time),
                                     (self._exists, [time, None])):
                    entries = self._entry(index, tup, list)
                    trail.length(entries)
                    entries.append(value)
            self._vertex_count += 1  # the EXIST beside the APPEAR
        elif kind == "dis":
            self._close(event[2], event[3])
        elif kind == "der":
            info = event[2]
            if info.id in self._derivations:
                # Same failure the eager graph's add_derivation raises,
                # surfaced at record time rather than reconstruction.
                raise ReproError(f"duplicate derivation id {info.id}")
            if trail is not None:
                trail.item(self._derivations, info.id)
            self._derivations[info.id] = info
        elif kind not in ("del", "und"):  # pragma: no cover - defensive
            raise ValueError(f"unknown arena event {kind!r}")
        self._vertex_count += 1
        telemetry = self._recorder.telemetry if self._recorder is not None else None
        if telemetry is not None:
            self._meter(telemetry, event)
        if self._graph is not None:
            # Already materialized (e.g. a tree was projected mid-run):
            # keep the eager graph current instead of re-growing the arena.
            apply_event(self._graph, event)
        else:
            self._arena.append(event)

    def _meter(self, telemetry, event: tuple) -> None:
        """Count the vertexes and edges eager construction would add.

        The counts are provably equal to the eager recorder's, because
        every child lookup in :func:`apply_event` reduces to an
        existence test the cheap state answers exactly (has the tuple
        any EXIST interval / any INSERT / is the derivation id known),
        and no event's own state update changes the answer to its own
        lookups.
        """
        kind = event[0]
        edges = 0
        if kind == "app":
            if event[4] == "insert":
                parent = self._insert_counts.get(event[2])
            else:
                parent = event[5] in self._derivations
            edges = 2 if parent else 1  # parent -> APPEAR -> EXIST
            telemetry.inc("recorder.vertices.exist")
        elif kind == "dis":
            if event[4] == "underive" and event[5] in self._derivations:
                edges = 1
        elif kind == "der":
            edges = sum(1 for member in event[2].body if self._exists.get(member))
        elif kind == "und":
            if event[5] in self._derivations:
                edges = 1
        telemetry.inc("recorder.vertices." + _VERTEX_NAMES[kind])
        if edges:
            telemetry.inc("recorder.edges", edges)

    def _close(self, tup: Tuple, time: int) -> None:
        # Mirror ProvenanceGraph.close_exist: end the latest open interval.
        best = None
        for interval in self._exists.get(tup, ()):
            if interval[1] is None and (best is None or interval[0] > best[0]):
                best = interval
        if best is not None:
            if self._trail is not None:
                self._trail.item(best, 1)
            best[1] = time

    # -- cheap queries (no materialization) ----------------------------------

    @property
    def derivations(self) -> Dict[int, DerivationInfo]:
        if self._graph is not None:
            return self._graph.derivations
        return self._derivations

    def alive_at(self, tup: Tuple, time: int) -> bool:
        if self._graph is not None:
            return self._graph.alive_at(tup, time)
        for start, end in self._exists.get(tup, ()):
            if start <= time and (end is None or end >= time):
                return True
        return False

    def alive_during(self, tup: Tuple, from_time: int) -> bool:
        if self._graph is not None:
            return self._graph.alive_during(tup, from_time)
        for _, end in self._exists.get(tup, ()):
            if end is None or end >= from_time:
                return True
        return False

    def appear_times(self, tup: Tuple) -> List[int]:
        if self._graph is not None:
            return self._graph.appear_times(tup)
        return list(self._appears.get(tup, ()))

    def ever_existed(self, tup: Tuple) -> bool:
        if self._graph is not None:
            return self._graph.ever_existed(tup)
        return bool(self._exists.get(tup))

    def live_tuples(self, table: Optional[str] = None) -> List[Tuple]:
        if self._graph is not None:
            return self._graph.live_tuples(table)
        result = []
        for tup, intervals in self._exists.items():
            if table is not None and tup.table != table:
                continue
            if any(end is None for _, end in intervals):
                result.append(tup)
        return result

    def __len__(self) -> int:
        if self._graph is not None:
            return len(self._graph)
        return self._vertex_count

    # -- materialization ------------------------------------------------------

    def materialize(self) -> ProvenanceGraph:
        """The full eager graph, reconstructing it on first call."""
        graph = self._graph
        if graph is None:
            telemetry = (
                self._recorder.telemetry if self._recorder is not None else None
            )
            if telemetry is not None:
                telemetry.inc("provenance.lazy.reconstructions")
            graph = ProvenanceGraph()
            for event in self._arena:
                apply_event(graph, event)
            self._graph = graph
            # The arena is fully consumed; record() applies directly
            # to the graph from here on.  Inside a checkpoint it is
            # kept: rollback discards the graph and pends again.
            if self._trail is None:
                self._arena = []
        return graph

    def __getattr__(self, name):
        # Reached only when normal lookup fails, i.e. for eager-graph
        # APIs this facade does not implement cheaply.  Guard dunder
        # and private probes (pickle, copy) so they fail fast instead
        # of materializing.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.materialize(), name)

    def __repr__(self):
        state = (
            f"materialized, {len(self._graph)} vertices"
            if self._graph is not None
            else f"pending, {len(self._arena)} events"
        )
        return f"LazyProvenanceGraph({state})"
