"""Lazy provenance: record compact annotations, build the graph on demand.

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

from typing import Dict, List, Optional, Set

from ..datalog.tuples import Tuple
from ..errors import ReproError
from .graph import DerivationInfo, ProvenanceGraph
from .vertices import VertexKind

__all__ = ["LazyProvenanceGraph", "ProofNode", "apply_event"]


class ProofNode:
    """One node of a reconstructed minimal proof tree.

    A leaf (``rule is None``) is a base insertion; an inner node is the
    minimal-height derivation of its tuple, with one child per body
    member in body order.
    """

    __slots__ = ("tuple", "rule", "children", "height")

    def __init__(self, tup, rule, children, height):
        self.tuple = tup
        self.rule = rule
        self.children = tuple(children)
        self.height = height

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children)

    def render(self, indent: int = 0) -> str:
        label = (
            str(self.tuple)
            if self.rule is None
            else f"{self.tuple} <= {self.rule}"
        )
        lines = ["  " * indent + label]
        lines.extend(
            child.render(indent + 1) for child in self.children
        )
        return "\n".join(lines)

    def __repr__(self):
        return (
            f"ProofNode({self.tuple}, rule={self.rule!r}, "
            f"height={self.height}, size={self.size()})"
        )


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
        self._derive_ids: Set[int] = set()
        self._derivations: Dict[int, DerivationInfo] = {}
        self._vertex_count = 0
        # Subsumption-based proof annotations (after Souffle's height
        # annotations): per-tuple live base support count and, per head
        # tuple, the heights of its live derivations recorded at derive
        # time.  From these, minimal_proof() reconstructs an exact
        # minimal proof tree without materializing the graph.
        self._base_live: Dict[Tuple, int] = {}
        self._live_ders: Dict[Tuple, Dict[int, int]] = {}
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

        Vertex and edge metrics are computed here, at record time, from
        the incremental state — the counts are provably equal to what
        eager construction would report, because every child lookup in
        :func:`apply_event` reduces to an existence test this state
        answers exactly (has the tuple any EXIST interval / any INSERT
        / is the derivation id known).
        """
        telemetry = self._recorder.telemetry if self._recorder is not None else None
        trail = self._trail
        kind = event[0]
        if kind == "ins":
            tup = event[2]
            if trail is not None:
                trail.item(self._insert_counts, tup)
            self._insert_counts[tup] = self._insert_counts.get(tup, 0) + 1
            self._note_vertex(telemetry, "insert")
        elif kind == "del":
            self._note_vertex(telemetry, "delete")
        elif kind == "app":
            _, _, tup, time, cause_kind, derivation_id = event
            if cause_kind == "insert":
                parent_edges = 1 if self._insert_counts.get(tup) else 0
            else:
                parent_edges = 1 if derivation_id in self._derive_ids else 0
            self._note_vertex(telemetry, "appear", parent_edges)
            if trail is None:
                self._appears.setdefault(tup, []).append(time)
                self._exists.setdefault(tup, []).append([time, None])
            else:
                for index, value in ((self._appears, time),
                                     (self._exists, [time, None])):
                    entries = self._entry(index, tup, list)
                    trail.length(entries)
                    entries.append(value)
            self._note_vertex(telemetry, "exist", 1)
        elif kind == "dis":
            _, _, tup, time, cause_kind, derivation_id = event
            edges = (
                1
                if cause_kind == "underive"
                and derivation_id is not None
                and derivation_id in self._derive_ids
                else 0
            )
            self._close(tup, time)
            self._note_vertex(telemetry, "disappear", edges)
        elif kind == "der":
            info = event[2]
            if info.id in self._derivations:
                # Same failure the eager graph's add_derivation raises,
                # surfaced at record time rather than reconstruction.
                raise ReproError(f"duplicate derivation id {info.id}")
            edges = sum(1 for member in info.body if self._exists.get(member))
            if trail is not None:
                trail.item(self._derivations, info.id)
                trail.call(self._derive_ids.discard, info.id)
            self._derivations[info.id] = info
            self._derive_ids.add(info.id)
            self._note_vertex(telemetry, "derive", edges)
        elif kind == "und":
            derivation_id = event[5]
            edges = 1 if derivation_id in self._derive_ids else 0
            self._note_vertex(telemetry, "underive", edges)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown arena event {kind!r}")
        self._annotate(event)
        if self._graph is not None:
            # Already materialized (e.g. a tree was projected mid-run):
            # keep the eager graph current instead of re-growing the arena.
            apply_event(self._graph, event)
        else:
            self._arena.append(event)

    def _note_vertex(self, telemetry, kind_name: str, edges: int = 0) -> None:
        self._vertex_count += 1
        if telemetry is not None:
            telemetry.inc("recorder.vertices." + kind_name)
            if edges:
                telemetry.inc("recorder.edges", edges)

    def _annotate(self, event: tuple) -> None:
        """Maintain min-height/first-derivation annotations for one event.

        Heights follow the Souffle subsumption scheme: a base-supported
        tuple has height 0; a derivation's height is one more than the
        tallest of its body members' minimal heights *at derive time*.
        Keeping every live derivation's height (rather than one global
        minimum) makes underivation exact: the minimum over the
        survivors is the tuple's new minimal height.
        """
        trail = self._trail
        kind = event[0]
        if kind == "ins":
            tup = event[2]
            if trail is not None:
                trail.item(self._base_live, tup)
            self._base_live[tup] = self._base_live.get(tup, 0) + 1
        elif kind == "del":
            tup = event[2]
            count = self._base_live.get(tup, 0)
            if count:
                if trail is not None:
                    trail.item(self._base_live, tup)
                self._base_live[tup] = count - 1
        elif kind == "der":
            info = event[2]
            height = 1 + max(
                (self._height_of(member) for member in info.body),
                default=0,
            )
            if trail is None:
                self._live_ders.setdefault(info.head, {})[info.id] = height
            else:
                ders = self._entry(self._live_ders, info.head, dict)
                trail.item(ders, info.id)
                ders[info.id] = height
        elif kind == "und":
            derivation_id = event[5]
            ders = self._live_ders.get(event[2])
            if ders is not None:
                if trail is not None and derivation_id in ders:
                    trail.item(ders, derivation_id)
                ders.pop(derivation_id, None)

    def _height_of(self, tup: Tuple) -> int:
        if self._base_live.get(tup):
            return 0
        ders = self._live_ders.get(tup)
        if ders:
            return min(ders.values())
        # Unknown member (e.g. its report was lost under lossy
        # logging): treat as a leaf so proofs stay constructible.
        return 0

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

    # -- annotation-based proof reconstruction -------------------------------

    def height_of(self, tup: Tuple) -> int:
        """The tuple's current minimal proof height."""
        return self._height_of(tup)

    def minimal_proof(self, tup: Tuple) -> ProofNode:
        """Reconstruct an exact minimal proof tree for ``tup`` on demand.

        Works entirely from the recorded annotations — no graph
        materialization (metered as ``provenance.annotated.proofs``).
        At every tuple the live derivation with the smallest
        (height, derivation id) wins, so the result is deterministic
        and minimal under the recorded heights; ties and recursion are
        broken by derivation id (record order) and a path guard.
        """
        telemetry = (
            self._recorder.telemetry if self._recorder is not None else None
        )
        if telemetry is not None:
            telemetry.inc("provenance.annotated.proofs")
        return self._prove(tup, frozenset())

    def _prove(self, tup: Tuple, path: frozenset) -> ProofNode:
        if self._base_live.get(tup):
            return ProofNode(tup, None, (), 0)
        ders = self._live_ders.get(tup)
        if ders:
            on_path = path | {tup}
            for derivation_id, _height in sorted(
                ders.items(), key=lambda item: (item[1], item[0])
            ):
                info = self._derivations.get(derivation_id)
                if info is None or any(m in on_path for m in info.body):
                    continue
                children = [self._prove(m, on_path) for m in info.body]
                height = 1 + max(
                    (child.height for child in children), default=0
                )
                return ProofNode(tup, info.rule_name, children, height)
        if self._insert_counts.get(tup):
            # Base support that was later deleted: the tuple's original
            # insertion still proves the (historic) body of a
            # non-revocable derivation above it.
            return ProofNode(tup, None, (), 0)
        raise ReproError(f"no proof recorded for {tup}")

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
