"""Tests for provenance tree projection and classic queries."""

import pytest

from repro.datalog import Engine, parse_program, parse_tuple
from repro.datalog.state import Derivation
from repro.datalog.tuples import Tuple
from repro.errors import ReproError
from repro.provenance import ProvenanceRecorder, provenance_query
from repro.provenance.vertices import VertexKind

from ..replay._forkstate import tree_dump


@pytest.fixture
def delivered_tree(forwarding_program):
    recorder = ProvenanceRecorder()
    engine = Engine(forwarding_program, recorder=recorder)
    for text in (
        "link('s1', 2, 's2')",
        "flowEntry('s1', 5, 4.3.2.0/24, 2)",
        "flowEntry('s2', 1, 0.0.0.0/0, 3)",
        "hostAt('s2', 3, 'h1')",
        "packet('s1', 9.9.9.9, 4.3.2.1)",
    ):
        engine.insert(parse_tuple(text))
    engine.run()
    tree = provenance_query(
        recorder.graph, parse_tuple("delivered('h1', 9.9.9.9, 4.3.2.1)")
    )
    return tree


class TestTreeProjection:
    def test_root_is_queried_event(self, delivered_tree):
        assert delivered_tree.root.vertex.tuple == parse_tuple(
            "delivered('h1', 9.9.9.9, 4.3.2.1)"
        )
        assert delivered_tree.root.vertex.kind == VertexKind.EXIST

    def test_vertex_structure_follows_figure2(self, delivered_tree):
        # EXIST -> APPEAR -> DERIVE -> body EXISTs, recursively.
        exist = delivered_tree.root
        (appear,) = exist.children
        assert appear.vertex.kind == VertexKind.APPEAR
        (derive,) = appear.children
        assert derive.vertex.kind == VertexKind.DERIVE
        kinds = {child.vertex.kind for child in derive.children}
        assert kinds == {VertexKind.EXIST}

    def test_leaves_are_base_events(self, delivered_tree):
        leaves = [
            node for node in delivered_tree.root.walk() if not node.children
        ]
        assert leaves
        assert all(n.vertex.kind == VertexKind.INSERT for n in leaves)

    def test_size_counts_expanded_tree(self, delivered_tree):
        assert delivered_tree.size() == sum(1 for _ in delivered_tree.root.walk())

    def test_render_contains_rule_names(self, delivered_tree):
        rendered = delivered_tree.render()
        assert "fwd" in rendered and "recv" in rendered


class TestTupleView:
    def test_collapsed_chain(self, delivered_tree):
        root = delivered_tree.tuple_root
        assert root.tuple == parse_tuple("delivered('h1', 9.9.9.9, 4.3.2.1)")
        assert root.rule == "recv"
        assert not root.is_base

    def test_children_follow_rule_body_order(self, delivered_tree):
        root = delivered_tree.tuple_root
        assert [child.tuple.table for child in root.children] == [
            "packetOut",
            "hostAt",
        ]

    def test_base_nodes_carry_mutability(self, delivered_tree):
        host = delivered_tree.tuple_root.children[1]
        assert host.is_base
        assert host.mutable is False

    def test_parent_links(self, delivered_tree):
        root = delivered_tree.tuple_root
        for child in root.children:
            assert child.parent is root

    def test_trigger_child(self, delivered_tree):
        root = delivered_tree.tuple_root
        trigger = root.trigger_child()
        assert trigger is not None
        assert trigger.tuple.table == "packetOut"

    def test_path_to_root(self, delivered_tree):
        leaf = next(delivered_tree.tuple_root.leaves())
        path = leaf.path_to_root()
        assert path[0] is leaf
        assert path[-1] is delivered_tree.tuple_root


class TestQueryErrors:
    def test_unknown_event_rejected(self, delivered_tree):
        with pytest.raises(ReproError):
            provenance_query(
                delivered_tree.graph, parse_tuple("delivered('h9', 1.1.1.1, 2.2.2.2)")
            )


def _lossy_history(provenance):
    """A recorder fed by hand, as under logging loss: X's second
    appearance (t3) was lost, so when Z is derived from (Y, X) at t4 no
    interval of X is live — apply_event falls back to X's latest
    interval *recorded so far* (t1–t2), not the one appearing at t6."""
    x, y, z = (Tuple(name, [1]) for name in "xyz")
    recorder = ProvenanceRecorder(provenance=provenance)
    recorder.on_insert("n", x, 1, True)
    recorder.on_appear("n", x, 1, ("insert", None))
    recorder.on_delete("n", x, 2)
    recorder.on_disappear("n", x, 2, ("delete", None))
    recorder.on_insert("n", x, 3, False)
    recorder.on_insert("n", y, 4, False)
    recorder.on_appear("n", y, 4, ("insert", None))
    derivation = Derivation(7, "r", z, (y, x), {}, 0, 4, True)
    recorder.on_derive("n", derivation, 4)
    recorder.on_appear("n", z, 5, ("derive", derivation))
    recorder.on_appear("n", x, 6, ("insert", None))
    return recorder.graph, z


class TestTupleTreeWalk:
    """``tuple_tree`` off the annotated recorder ≡ the eager projection."""

    def test_fallback_to_the_latest_interval_recorded_before(self):
        walked, z = _lossy_history("annotated")
        eager, _ = _lossy_history("eager")
        tree = walked.tuple_tree(z)
        assert walked.pending
        assert tree_dump(tree) == tree_dump(eager.tuple_tree(z))
        assert [(c.rule, c.appear_time, c.mutable) for c in tree.children] == [
            (None, 4, False), (None, 1, True)]

    def test_unknown_event_rejected(self):
        walked, _ = _lossy_history("annotated")
        with pytest.raises(ReproError, match="never observed"):
            walked.tuple_tree(Tuple("w", [1]))
        with pytest.raises(ReproError, match="never observed"):
            walked.tuple_tree(Tuple("z", [1]), 4)
