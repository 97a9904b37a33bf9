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
too.  FIRSTDIV's tree query needs no graph: ``tuple_tree`` walks the state.
"""

from __future__ import annotations

import weakref
from operator import itemgetter
from typing import Dict, List, Optional

from ..datalog.tuples import Tuple
from ..errors import ReproError
from .graph import DerivationInfo, ProvenanceGraph
from .tree import TupleNode
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


def _latest(intervals, time: Optional[int] = None) -> Optional[list]:
    """ProvenanceGraph.exist_at over intervals: the latest-starting one
    live at ``time`` (any, without one); ties go to the first."""
    if time is not None:
        intervals = [i for i in intervals
                     if i[0] <= time and (i[1] is None or i[1] >= time)]
    return max(intervals, key=itemgetter(0), default=None)


class LazyProvenanceGraph:
    """A :class:`ProvenanceGraph` facade that materializes on demand.

    While unmaterialized, it holds the event arena plus just enough
    incremental state to answer DiffProv's hot queries (liveness
    intervals, appear times, derivation records) without building a
    single vertex, and :meth:`tuple_tree` answers the tree query.  The
    first call that needs real vertexes — serialization, history —
    triggers one reconstruction (``provenance.lazy.reconstructions``),
    never inside a checkpoint (a forked candidate).

    The facade's identity is stable: ``recorder.graph`` returns the
    same object before and after materialization, so long-lived
    references (``ReplayResult.graph``, emulation views) stay valid.
    """

    def __init__(self, recorder=None):
        # The recorder, for its current telemetry (restores reattach one);
        # weak, so a dropped recorder's state is freed without the collector.
        self._recorder = weakref.ref(recorder) if recorder is not None else None
        self._arena: List[tuple] = []
        self._graph: Optional[ProvenanceGraph] = None
        # Incremental cheap state, maintained by record().  One interval
        # per EXIST: [start, end|None, node, cause], cause being the
        # APPEAR's child — DerivationInfo, INSERT's mutable, or None.
        self._exists: Dict[Tuple, List[list]] = {}
        self._inserts: Dict[Tuple, bool] = {}  # tup -> latest insert's mutable
        self._derivations: Dict[int, DerivationInfo] = {}
        self._vertex_count = 0
        # The engine's undo trail while it has an open checkpoint.
        self._trail = None

    def __getstate__(self):
        # A snapshot is standalone: no undo trail; the recorder relinks.
        state = self.__dict__.copy()
        state["_trail"] = state["_recorder"] = None
        return state

    # -- recording (called by the owning recorder) ---------------------------

    def checkpoint(self, trail) -> None:
        """Join the engine's undo trail (``None`` leaves it again).

        Rollback truncates the arena and restores the cheap state entry
        by entry.
        """
        if trail is not None:
            if self._graph is not None:
                raise ReproError("a materialized graph cannot be checkpointed")
            trail.attrs(self, "_vertex_count")
            trail.length(self._arena)
        self._trail = trail

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
                trail.item(self._inserts, tup)
            self._inserts[tup] = event[4]  # the clock ticks per event
        elif kind == "app":
            _, node, tup, time, cause_kind, derivation_id = event
            if cause_kind == "insert":
                cause = self._inserts.get(tup)
            else:
                cause = self._derivations.get(derivation_id)
            entries = self._exists.get(tup)
            if entries is None:
                if trail is not None:
                    trail.item(self._exists, tup)
                entries = self._exists[tup] = []
            elif trail is not None:
                trail.length(entries)
            entries.append([time, None, node, cause])
            self._vertex_count += 1  # the EXIST beside the APPEAR
        elif kind == "dis":
            # ProvenanceGraph.close_exist: end the latest open interval.
            interval = _latest([i for i in self._exists.get(event[2], ())
                                if i[1] is None])
            if interval is not None:
                if trail is not None:
                    trail.item(interval, 1)
                interval[1] = event[3]
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
        telemetry = getattr(self._recorder and self._recorder(), "telemetry", None)
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
                parent = event[2] in self._inserts
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

    # -- cheap queries (no materialization) ----------------------------------
    # record() keeps this state current after materialization too.

    @property
    def derivations(self) -> Dict[int, DerivationInfo]:
        return self._derivations

    def alive_at(self, tup: Tuple, time: int) -> bool:
        return _latest(self._exists.get(tup, ()), time) is not None

    def alive_during(self, tup: Tuple, from_time: int) -> bool:
        return any(interval[1] is None or interval[1] >= from_time
                   for interval in self._exists.get(tup, ()))

    def appear_times(self, tup: Tuple) -> List[int]:
        return [interval[0] for interval in self._exists.get(tup, ())]

    def ever_existed(self, tup: Tuple) -> bool:
        return bool(self._exists.get(tup))

    def live_tuples(self, table: Optional[str] = None) -> List[Tuple]:
        return [
            tup for tup, intervals in self._exists.items()
            if (table is None or tup.table == table)
            and any(interval[1] is None for interval in intervals)
        ]

    def __len__(self) -> int:
        return self._vertex_count

    def tuple_tree(self, tup: Tuple, time: Optional[int] = None) -> TupleNode:
        """``provenance_query(self, tup, time).tuple_root``, graph-free.

        A derivation's children are the body intervals apply_event saw:
        those started by its time (the clock never runs backwards).
        """
        if self._graph is not None:
            return self._graph.tuple_tree(tup, time)
        root = _latest(self._exists.get(tup, ()), time)
        if root is None:
            raise ReproError(f"event {tup} was never observed")
        return self._tuple_node(tup, root)

    def _tuple_node(self, tup: Tuple, interval: list) -> TupleNode:
        start, _, node, cause = interval
        if not isinstance(cause, DerivationInfo):
            # An INSERT's mutable flag, or None for a causeless APPEAR.
            return TupleNode(tup, node, None, None, start, cause, None)
        result = TupleNode(tup, node, cause.rule_name, cause, start, None, None)
        for member in cause.body:
            earlier = [i for i in self._exists.get(member, ()) if i[0] <= cause.time]
            child = _latest(earlier, cause.time) or _latest(earlier)
            if child is not None:
                child_node = self._tuple_node(member, child)
                child_node.parent = result
                result.children.append(child_node)
        return result

    # -- materialization ------------------------------------------------------

    def materialize(self) -> ProvenanceGraph:
        """The full eager graph, reconstructing it on first call."""
        graph = self._graph
        if graph is None:
            if self._trail is not None:
                raise ReproError("a checkpointed graph cannot be "
                                 "materialized; use tuple_tree()")
            telemetry = getattr(self._recorder and self._recorder(), "telemetry", None)
            if telemetry is not None:
                telemetry.inc("provenance.lazy.reconstructions")
            graph = ProvenanceGraph()
            for event in self._arena:
                apply_event(graph, event)
            # The arena is consumed; record() applies to the graph now.
            self._graph, self._arena = graph, []
        return graph

    def __getattr__(self, name):
        # Eager-graph APIs with no cheap answer materialize; private
        # probes (pickle, copy) fail fast instead.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.materialize(), name)

    def __repr__(self):
        state = "pending" if self._graph is None else "materialized"
        return f"LazyProvenanceGraph({state}, {len(self)} vertices)"
