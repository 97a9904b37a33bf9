"""Append-only storage for the temporal provenance graph.

The graph has a vertex for each event and an edge from each effect to
its direct causes.  Tuple deletions are modelled as insertions of
"negative" vertexes (DELETE/UNDERIVE/DISAPPEAR), so the graph only ever
grows — which is what lets it "remember" past events and serve
reference events from the past (Section 3.2).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple as PyTuple

from ..datalog.tuples import Tuple
from ..errors import ReproError
from .vertices import Vertex, VertexKind

__all__ = ["DerivationInfo", "ProvenanceGraph"]


class DerivationInfo:
    """What the graph remembers about one rule firing."""

    __slots__ = ("id", "rule_name", "head", "body", "env", "trigger_index", "time")

    def __init__(
        self,
        id: int,
        rule_name: str,
        head: Tuple,
        body: PyTuple,
        env: Dict[str, object],
        trigger_index: int,
        time: int,
    ):
        self.id = id
        self.rule_name = rule_name
        self.head = head
        self.body = tuple(body)
        self.env = dict(env)
        self.trigger_index = trigger_index
        self.time = time

    @property
    def trigger(self) -> Tuple:
        return self.body[self.trigger_index]

    def __repr__(self):
        return f"DerivationInfo(#{self.id} {self.rule_name}: {self.head})"


class ProvenanceGraph:
    """Vertexes, effect→cause edges, and lookup indices."""

    def __init__(self):
        self.vertices: List[Vertex] = []
        self._edges: Dict[int, PyTuple[int, ...]] = {}
        self.derivations: Dict[int, DerivationInfo] = {}
        self._exists_by_tuple: Dict[Tuple, List[Vertex]] = {}
        self._appears_by_tuple: Dict[Tuple, List[Vertex]] = {}
        self._inserts_by_tuple: Dict[Tuple, List[Vertex]] = {}
        self._derive_by_derivation: Dict[int, Vertex] = {}

    def __len__(self) -> int:
        return len(self.vertices)

    # -- construction ----------------------------------------------------------

    def add_vertex(
        self,
        kind: VertexKind,
        node: str,
        tup: Tuple,
        time: int,
        children: Iterable[Vertex] = (),
        end_time: Optional[int] = None,
        rule: Optional[str] = None,
        derivation_id: Optional[int] = None,
        mutable: Optional[bool] = None,
    ) -> Vertex:
        vertex = Vertex(
            len(self.vertices),
            kind,
            node,
            tup,
            time,
            end_time=end_time,
            rule=rule,
            derivation_id=derivation_id,
            mutable=mutable,
        )
        self.vertices.append(vertex)
        self._edges[vertex.id] = tuple(child.id for child in children)
        if kind == VertexKind.EXIST:
            self._exists_by_tuple.setdefault(tup, []).append(vertex)
        elif kind == VertexKind.APPEAR:
            self._appears_by_tuple.setdefault(tup, []).append(vertex)
        elif kind == VertexKind.INSERT:
            self._inserts_by_tuple.setdefault(tup, []).append(vertex)
        elif kind == VertexKind.DERIVE and derivation_id is not None:
            self._derive_by_derivation[derivation_id] = vertex
        return vertex

    def add_derivation(self, info: DerivationInfo) -> None:
        if info.id in self.derivations:
            raise ReproError(f"duplicate derivation id {info.id}")
        self.derivations[info.id] = info

    def set_children(self, vertex: Vertex, children: Iterable[Vertex]) -> None:
        self._edges[vertex.id] = tuple(child.id for child in children)

    # -- lookups ---------------------------------------------------------------

    def children(self, vertex: Vertex) -> List[Vertex]:
        return [self.vertices[i] for i in self._edges.get(vertex.id, ())]

    def derive_vertex(self, derivation_id: int) -> Optional[Vertex]:
        return self._derive_by_derivation.get(derivation_id)

    def exists_of(self, tup: Tuple) -> List[Vertex]:
        return list(self._exists_by_tuple.get(tup, ()))

    def appears_of(self, tup: Tuple) -> List[Vertex]:
        return list(self._appears_by_tuple.get(tup, ()))

    def inserts_of(self, tup: Tuple) -> List[Vertex]:
        return list(self._inserts_by_tuple.get(tup, ()))

    def exist_at(self, tup: Tuple, time: Optional[int] = None) -> Optional[Vertex]:
        """The EXIST vertex of a tuple at an instant (default: latest).

        Among the tuple's EXIST intervals, returns the latest one that
        starts no later than ``time`` and has not ended before it.
        """
        candidates = self._exists_by_tuple.get(tup, ())
        best = None
        for vertex in candidates:
            if time is not None:
                if vertex.time > time:
                    continue
                if vertex.end_time is not None and vertex.end_time < time:
                    continue
            if best is None or vertex.time > best.time:
                best = vertex
        return best

    def latest_open_exist(self, tup: Tuple) -> Optional[Vertex]:
        candidates = [v for v in self._exists_by_tuple.get(tup, ()) if v.is_open]
        if not candidates:
            return None
        return max(candidates, key=lambda v: v.time)

    def close_exist(self, tup: Tuple, time: int) -> Optional[Vertex]:
        vertex = self.latest_open_exist(tup)
        if vertex is not None:
            vertex.end_time = time
        return vertex

    def latest_insert(self, tup: Tuple) -> Optional[Vertex]:
        candidates = self._inserts_by_tuple.get(tup, ())
        if not candidates:
            return None
        return max(candidates, key=lambda v: v.time)

    def appear_times(self, tup: Tuple) -> List[int]:
        """Times at which a tuple appeared (cheap twin of appears_of)."""
        return [v.time for v in self._appears_by_tuple.get(tup, ())]

    def ever_existed(self, tup: Tuple) -> bool:
        """Whether the tuple ever had an EXIST interval.

        Equivalent to ``exist_at(tup) is not None``; kept separate so
        callers that only need existence stay on the cheap-query
        surface a :class:`repro.provenance.lazy.LazyProvenanceGraph`
        answers without reconstruction.
        """
        return bool(self._exists_by_tuple.get(tup))

    def alive_at(self, tup: Tuple, time: int) -> bool:
        return self.exist_at(tup, time) is not None

    def alive_during(self, tup: Tuple, from_time: int) -> bool:
        """Whether any EXIST interval of ``tup`` touches [from_time, ∞).

        This is the "as of the time at which the missing tuple would
        have had to exist" check of Section 4.8: a flow entry that
        expired *before* the bad event counts as missing even though it
        existed in the past.
        """
        for vertex in self._exists_by_tuple.get(tup, ()):
            if vertex.end_time is None or vertex.end_time >= from_time:
                return True
        return False

    def live_tuples(self, table: Optional[str] = None) -> List[Tuple]:
        """Tuples with an open EXIST interval (optionally by table)."""
        result = []
        for tup, vertices in self._exists_by_tuple.items():
            if table is not None and tup.table != table:
                continue
            if any(v.is_open for v in vertices):
                result.append(tup)
        return result

    def tuple_tree(self, tup: Tuple, time: Optional[int] = None):
        """The tuple view of ``tup``'s provenance tree as of ``time``.

        The eager answer, by projection; it is the oracle for
        :meth:`repro.provenance.lazy.LazyProvenanceGraph.tuple_tree`.
        """
        from .query import provenance_query  # query imports this module

        return provenance_query(self, tup, time).tuple_root

    def history(self, tup: Tuple) -> List[Vertex]:
        """Every vertex mentioning a tuple, in time order.

        An operator's view of one tuple's life: INSERT/APPEAR/EXIST
        intervals and the DELETE/UNDERIVE/DISAPPEAR events between them
        — e.g. the flap timeline of a route that keeps being withdrawn
        and re-announced.
        """
        vertices = [v for v in self.vertices if v.tuple == tup]
        vertices.sort(key=lambda v: (v.time, v.id))
        return vertices

    def stats(self) -> Dict[str, int]:
        """Vertex counts by kind (used by storage-cost benchmarks)."""
        counts: Dict[str, int] = {}
        for vertex in self.vertices:
            counts[vertex.kind.value] = counts.get(vertex.kind.value, 0) + 1
        return counts
