"""Tests for the reported-execution adapter and graph store view."""

import pytest

from repro.datalog.tuples import Tuple
from repro.errors import ReproError
from repro.provenance.recorder import ProvenanceRecorder
from repro.replay.log import EventLog
from repro.replay.replayer import Change
from repro.replay.reported import (
    GraphStoreView,
    ReportedExecution,
    ReportedReplayResult,
)


def make_runner(value_holder):
    """A deterministic runner: reports cfg -> derived(value)."""

    def runner(changes):
        value = value_holder["value"]
        for change in changes:
            if change.insert is not None and change.insert.table == "cfg":
                value = change.insert.args[1]
        recorder = ProvenanceRecorder()
        cfg = Tuple("cfg", ["k", value])
        recorder.report_insert("n1", cfg, mutable=True)
        recorder.report_derive(
            "n1", Tuple("derived", [value * 2]), "double", [cfg]
        )
        return recorder

    return runner


@pytest.fixture
def execution():
    log = EventLog()
    log.append("insert", Tuple("cfg", ["k", 3]), mutable=True)
    return ReportedExecution("sys", make_runner({"value": 3}), log)


class TestReportedExecution:
    def test_materialize_runs_once_and_caches(self, execution):
        execution.materialize()
        execution.materialize()
        assert execution.replay_count == 1

    def test_graph_property(self, execution):
        assert execution.graph.live_tuples("derived") == [Tuple("derived", [6])]

    def test_replay_with_changes(self, execution):
        result = execution.replay([Change(insert=Tuple("cfg", ["k", 5]))])
        assert result.alive(Tuple("derived", [10]))
        assert not result.alive(Tuple("derived", [6]))

    def test_replay_counts_time(self, execution):
        execution.replay()
        assert execution.replay_count == 1
        assert execution.replay_seconds >= 0

    def test_bad_runner_rejected(self):
        execution = ReportedExecution("bad", lambda changes: 42, EventLog())
        with pytest.raises(ReproError):
            execution.replay()


class TestGraphStoreView:
    @pytest.fixture
    def view(self):
        recorder = ProvenanceRecorder()
        recorder.report_insert("n", Tuple("cfg", ["a", 1]), mutable=True)
        recorder.report_insert("n", Tuple("wire", [7]), mutable=False)
        recorder.report_derive(
            "n", Tuple("derived", [2]), "r", [Tuple("cfg", ["a", 1])]
        )
        recorder.report_insert("n", Tuple("cfg", ["b", 2]), mutable=True)
        recorder.report_delete("n", Tuple("cfg", ["b", 2]))
        return GraphStoreView(recorder.graph)

    def test_result_store_is_the_view(self, execution):
        result = execution.replay()
        assert isinstance(result.store, GraphStoreView)
        assert result.store.graph is result.graph

    def test_live_tuples_by_table(self, view):
        assert view.tuples("cfg") == [Tuple("cfg", ["a", 1])]
        assert view.tuples("derived") == [Tuple("derived", [2])]
        assert view.tuples("nothing") == []

    def test_deleted_tuples_not_live(self, view):
        assert Tuple("cfg", ["b", 2]) not in view.tuples("cfg")

    def test_record_distinguishes_base(self, view):
        assert view.record(Tuple("cfg", ["a", 1])).is_base
        assert not view.record(Tuple("derived", [2])).is_base
        assert view.record(Tuple("cfg", ["zzz", 0])) is None

    def test_mutability(self, view):
        assert view.is_mutable(Tuple("cfg", ["a", 1]))
        assert not view.is_mutable(Tuple("wire", [7]))
