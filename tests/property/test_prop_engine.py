"""Property-based tests for engine determinism and replay equivalence."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.datalog import Engine, parse_program
from repro.datalog.tuples import Tuple
from repro.faults import FaultPlan
from repro.provenance import ProvenanceRecorder
from repro.provenance.vertices import VertexKind
from repro.replay import Execution

from ..replay._forkstate import assert_same_trees

PROGRAM_TEXT = """
table edge(X, Y).
table src(X) event.
table reach(X, Y).
base reach(X, Y) :- src(X), edge(X, Y).
step reach(X, Z) :- reach(X, Y), edge(Y, Z).
"""

# The same closure computed across nodes: every derivation is a
# message, so the engine-level fault streams (drop, dup, reorder,
# delay) have something to act on.
LOCATED_PROGRAM_TEXT = """
table edge(X, Y).
table src(X) event.
table reached(N, Origin).
base reached(@Y, X) :- src(@X), edge(@X, Y).
step reached(@Z, X) :- reached(@Y, X), edge(@Y, Z).
"""

# Logging loss plus every engine-level message fault.
FAULTY = FaultPlan.parse(
    "loss=0.3,drop=0.2,dup=0.3,reorder=0.3,delay=0.3,seed=5"
)

nodes = st.integers(min_value=0, max_value=5)
edge_ops = st.lists(
    st.tuples(st.sampled_from(["insert", "delete"]), nodes, nodes),
    min_size=1,
    max_size=20,
)


def apply_ops(engine, ops):
    inserted = set()
    for op, a, b in ops:
        tup = Tuple("edge", [a, b])
        if op == "insert":
            engine.insert(tup)
            inserted.add(tup)
        elif tup in inserted:
            engine.delete(tup)
        engine.run()
    engine.insert_and_run(Tuple("src", [0]))
    return engine


class TestEngineDeterminism:
    @settings(max_examples=40, deadline=None)
    @given(edge_ops)
    def test_same_ops_same_state(self, ops):
        program = parse_program(PROGRAM_TEXT)
        first = apply_ops(Engine(program), ops)
        second = apply_ops(Engine(program), ops)
        assert first.store.all_tuples() == second.store.all_tuples()
        assert first.now == second.now

    @settings(max_examples=40, deadline=None)
    @given(edge_ops)
    def test_reachability_matches_graph_closure(self, ops):
        program = parse_program(PROGRAM_TEXT)
        engine = apply_ops(Engine(program), ops)
        # Recompute ground truth from the live edges.  Note that
        # event-driven derivations are permanent: reach() reflects the
        # edges alive when src(0) fired, which is the final edge set.
        edges = {(t.args[0], t.args[1]) for t in engine.lookup("edge")}
        expected = set()
        frontier = {0}
        while frontier:
            node = frontier.pop()
            for a, b in edges:
                if a == node and b not in expected:
                    expected.add(b)
                    frontier.add(b)
        reached = {t.args[1] for t in engine.lookup("reach") if t.args[0] == 0}
        assert reached == expected


class TestReplayEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(edge_ops)
    def test_replay_reproduces_state_and_graph(self, ops):
        program = parse_program(PROGRAM_TEXT)
        execution = Execution(program, mode="runtime")
        inserted = set()
        for op, a, b in ops:
            tup = Tuple("edge", [a, b])
            if op == "insert":
                execution.insert(tup)
                inserted.add(tup)
            elif tup in inserted:
                execution.delete(tup)
        execution.insert(Tuple("src", [0]), mutable=False)

        replayed = execution.replay()
        assert (
            replayed.engine.store.all_tuples()
            == execution.engine.store.all_tuples()
        )
        # The reconstructed provenance graph has the same vertex counts
        # by kind as the one recorded live.
        assert replayed.graph.stats() == execution.graph.stats()


def feed(execution, ops):
    """Drive an Execution with edge ops, then the src event."""
    inserted = set()
    for op, a, b in ops:
        tup = Tuple("edge", [a, b])
        if op == "insert":
            execution.insert(tup)
            inserted.add(tup)
        elif tup in inserted:
            execution.delete(tup)
    execution.insert(Tuple("src", [0]), mutable=False)
    return execution


def vertex_set(graph):
    return {
        (v.id, v.kind, v.node, v.tuple, v.time, v.end_time, v.rule,
         v.derivation_id, v.mutable)
        for v in graph.vertices
    }


def edge_set(graph):
    return {
        (v.id, child.id)
        for v in graph.vertices
        for child in graph.children(v)
    }


def assert_same_materialization(program_text, ops, faults=None):
    """Runtime-mode materialize() (the live engine and its recorder)
    equals query-time materialize() (a replay of the log)."""
    program = parse_program(program_text)
    recorded = feed(
        Execution(program, mode="runtime", faults=faults), ops
    ).materialize()
    replayed = feed(
        Execution(program, mode="query-time", faults=faults), ops
    ).materialize()
    assert (
        recorded.engine.store.all_tuples()
        == replayed.engine.store.all_tuples()
    )
    assert vertex_set(recorded.graph) == vertex_set(replayed.graph)
    assert edge_set(recorded.graph) == edge_set(replayed.graph)
    assert recorded.recorder.lost_events == replayed.recorder.lost_events
    return recorded


class TestRuntimeMaterialize:
    @settings(max_examples=30, deadline=None)
    @given(edge_ops)
    def test_runtime_materialize_equals_query_time(self, ops):
        assert_same_materialization(PROGRAM_TEXT, ops)

    @settings(max_examples=30, deadline=None)
    @given(edge_ops)
    def test_equal_under_prov_loss_and_engine_faults(self, ops):
        assert_same_materialization(LOCATED_PROGRAM_TEXT, ops, FAULTY)

    def test_fault_case_exercises_every_stream(self):
        # A dense graph, so the plan above demonstrably drops,
        # duplicates, reorders and delays messages and loses log events
        # — and the two materializations still agree.
        ops = [("insert", a, b) for a in range(5) for b in range(5) if a != b]
        recorded = assert_same_materialization(
            LOCATED_PROGRAM_TEXT, ops, FAULTY
        )
        counters = recorded.engine.faults.counters
        for name in ("dropped", "duplicated", "reordered", "delayed"):
            assert counters[name] > 0, name
        assert recorded.recorder.lost_events > 0


def assert_walk_equals_projection(program_text, ops, faults=None):
    """The compiled backend's annotated recorder answers ``tuple_tree``
    by walking its state; the reference backend projects its eager
    graph.  Query-time materialize(): the plan's logging loss applies."""
    program = parse_program(program_text)
    walked, eager = (
        feed(Execution(program, faults=faults, engine=backend), ops)
        .materialize().graph
        for backend in ("compiled", "reference")
    )
    assert_same_trees(walked, eager)


DENSE = [("insert", a, b) for a in range(5) for b in range(5) if a != b]


class TestTupleTreeWalk:
    @settings(max_examples=30, deadline=None)
    @given(edge_ops)
    def test_walk_equals_reference_projection(self, ops):
        assert_walk_equals_projection(PROGRAM_TEXT, ops)

    @settings(max_examples=30, deadline=None)
    @given(edge_ops)
    @example(DENSE)  # drops, duplicates, reorders, delays and loses
    def test_equal_under_prov_loss_and_engine_faults(self, ops):
        assert_walk_equals_projection(LOCATED_PROGRAM_TEXT, ops, FAULTY)


class TestProvenanceInvariants:
    @settings(max_examples=30, deadline=None)
    @given(edge_ops)
    def test_graph_well_formed(self, ops):
        program = parse_program(PROGRAM_TEXT)
        recorder = ProvenanceRecorder()
        apply_ops(Engine(program, recorder=recorder), ops)
        graph = recorder.graph
        for vertex in graph.vertices:
            children = graph.children(vertex)
            if vertex.kind == VertexKind.APPEAR:
                # An APPEAR is caused by an INSERT or a DERIVE of the
                # same tuple.
                assert len(children) == 1
                (cause,) = children
                assert cause.kind in (VertexKind.INSERT, VertexKind.DERIVE)
                assert cause.tuple == vertex.tuple
            elif vertex.kind == VertexKind.EXIST:
                (cause,) = children
                assert cause.kind == VertexKind.APPEAR
                assert cause.time == vertex.time
            elif vertex.kind == VertexKind.DERIVE:
                # Causes exist no later than the derivation fires.
                for child in children:
                    assert child.time <= vertex.time

    @settings(max_examples=30, deadline=None)
    @given(edge_ops)
    def test_exist_intervals_disjoint_per_tuple(self, ops):
        program = parse_program(PROGRAM_TEXT)
        recorder = ProvenanceRecorder()
        engine = apply_ops(Engine(program, recorder=recorder), ops)
        graph = recorder.graph
        seen = set()
        for vertex in graph.vertices:
            if vertex.kind != VertexKind.EXIST or vertex.tuple in seen:
                continue
            seen.add(vertex.tuple)
            intervals = sorted(
                (v.time, v.end_time) for v in graph.exists_of(vertex.tuple)
            )
            for (start1, end1), (start2, _) in zip(intervals, intervals[1:]):
                assert end1 is not None and end1 <= start2
