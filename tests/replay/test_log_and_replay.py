"""Tests for event logging and deterministic replay."""

import pytest

from repro.datalog import parse_tuple
from repro.errors import ReproError
from repro.replay import Change, EventLog, Execution, estimate_size, replay
from repro.replay.log import PACKET_RECORD_BYTES, LogEntry


class TestEventLog:
    def test_append_and_total_bytes(self):
        log = EventLog()
        log.append("insert", parse_tuple("a(1)"), size=10)
        log.append("insert", parse_tuple("a(2)"), size=20)
        assert len(log) == 2
        assert log.total_bytes == 30

    def test_default_size_estimate(self):
        tup = parse_tuple("flowEntry('s1', 5, 4.3.2.0/24, 8)")
        assert estimate_size(tup) > 0
        log = EventLog()
        entry = log.append("insert", tup)
        assert entry.size == estimate_size(tup)

    def test_fixed_packet_record_size_constant(self):
        assert PACKET_RECORD_BYTES == 54

    def test_index_of_insert(self):
        log = EventLog()
        log.append("insert", parse_tuple("a(1)"))
        log.append("insert", parse_tuple("a(2)"))
        assert log.index_of_insert(parse_tuple("a(2)")) == 1
        assert log.index_of_insert(parse_tuple("a(9)")) is None
        # Answers are remembered, None included, until the next append.
        log.append("delete", parse_tuple("a(9)"))
        assert log.index_of_insert(parse_tuple("a(9)")) is None
        log.append("insert", parse_tuple("a(9)"))
        assert log.index_of_insert(parse_tuple("a(9)")) == 3
        log.append("insert", parse_tuple("a(2)"))
        assert log.index_of_insert(parse_tuple("a(2)")) == 1
        assert log.index_of_insert(parse_tuple("a(9)")) == 3

    def test_unknown_op_rejected(self):
        with pytest.raises(ReproError):
            LogEntry("mangle", parse_tuple("a(1)"))

    def test_dump_and_load_roundtrip(self, tmp_path):
        log = EventLog()
        log.append("insert", parse_tuple("flowEntry('s1', 5, 4.3.2.0/24, 8)"), mutable=True)
        log.append("delete", parse_tuple("flowEntry('s1', 5, 4.3.2.0/24, 8)"))
        log.append("barrier")
        log.append("insert", parse_tuple("packet('s1', 1.2.3.4, 5.6.7.8)"), mutable=False)
        path = tmp_path / "events.log"
        log.dump(str(path))
        loaded = EventLog.load(str(path))
        assert [(e.op, e.tuple, e.mutable) for e in loaded] == [
            (e.op, e.tuple, e.mutable) for e in log
        ]


class TestExecution:
    def test_insert_runs_and_logs(self, forwarding_program):
        execution = Execution(forwarding_program)
        execution.insert(parse_tuple("flowEntry('s1', 5, 0.0.0.0/0, 2)"))
        assert len(execution.log) == 1
        assert execution.engine.exists(parse_tuple("flowEntry('s1', 5, 0.0.0.0/0, 2)"))

    def test_query_time_mode_has_no_runtime_recorder(self, forwarding_program):
        execution = Execution(forwarding_program, mode="query-time")
        assert execution._runtime_recorder is None

    def test_runtime_mode_records_as_it_goes(self, forwarding_program):
        execution = Execution(forwarding_program, mode="runtime")
        execution.insert(parse_tuple("flowEntry('s1', 5, 0.0.0.0/0, 2)"))
        assert len(execution.graph) > 0
        assert execution.replay_count == 0

    def test_query_time_mode_materializes_by_replay(self, forwarding_program):
        execution = Execution(forwarding_program, mode="query-time")
        execution.insert(parse_tuple("flowEntry('s1', 5, 0.0.0.0/0, 2)"))
        graph = execution.graph
        assert execution.replay_count == 1
        assert len(graph.inserts_of(parse_tuple("flowEntry('s1', 5, 0.0.0.0/0, 2)"))) == 1

    def test_materialize_is_cached(self, forwarding_program):
        execution = Execution(forwarding_program)
        execution.insert(parse_tuple("flowEntry('s1', 5, 0.0.0.0/0, 2)"))
        execution.materialize()
        execution.materialize()
        assert execution.replay_count == 1

    def test_new_events_invalidate_cache(self, forwarding_program):
        execution = Execution(forwarding_program)
        execution.insert(parse_tuple("flowEntry('s1', 5, 0.0.0.0/0, 2)"))
        execution.materialize()
        execution.insert(parse_tuple("flowEntry('s2', 5, 0.0.0.0/0, 3)"))
        execution.materialize()
        assert execution.replay_count == 2

    def test_logging_disabled_blocks_materialization(self, forwarding_program):
        execution = Execution(forwarding_program, logging_enabled=False)
        execution.insert(parse_tuple("flowEntry('s1', 5, 0.0.0.0/0, 2)"))
        with pytest.raises(ReproError):
            execution.materialize()

    def test_unknown_mode_rejected(self, forwarding_program):
        with pytest.raises(ReproError):
            Execution(forwarding_program, mode="psychic")


class TestReplayWithChanges:
    def setup_execution(self, forwarding_program):
        execution = Execution(forwarding_program)
        for text in (
            "link('s1', 2, 's2')",
            "flowEntry('s1', 5, 4.3.2.0/24, 2)",
            "flowEntry('s1', 1, 0.0.0.0/0, 9)",
            "flowEntry('s2', 1, 0.0.0.0/0, 3)",
            "hostAt('s2', 3, 'h1')",
        ):
            execution.insert(parse_tuple(text))
        execution.insert(parse_tuple("packet('s1', 7.7.7.7, 4.3.3.1)"))
        return execution

    def test_replay_reproduces_original(self, forwarding_program):
        execution = self.setup_execution(forwarding_program)
        result = execution.replay()
        # 4.3.3.1 misses the /24 entry and uses the default to port 9,
        # which leads nowhere — no delivery.
        assert not result.alive(parse_tuple("delivered('h1', 7.7.7.7, 4.3.3.1)"))

    def test_replay_with_inserted_entry_changes_outcome(self, forwarding_program):
        execution = self.setup_execution(forwarding_program)
        anchor = execution.log.index_of_insert(
            parse_tuple("packet('s1', 7.7.7.7, 4.3.3.1)")
        )
        change = Change(insert=parse_tuple("flowEntry('s1', 5, 4.3.2.0/23, 2)"))
        result = execution.replay([change], anchor_index=anchor)
        assert result.alive(parse_tuple("delivered('h1', 7.7.7.7, 4.3.3.1)"))

    def test_replay_with_removal_suppresses_log_insert(self, forwarding_program):
        execution = self.setup_execution(forwarding_program)
        change = Change(remove=[parse_tuple("flowEntry('s2', 1, 0.0.0.0/0, 3)")])
        result = execution.replay([change])
        assert not result.alive(parse_tuple("flowEntry('s2', 1, 0.0.0.0/0, 3)"))

    def test_replay_does_not_touch_original_execution(self, forwarding_program):
        execution = self.setup_execution(forwarding_program)
        change = Change(remove=[parse_tuple("flowEntry('s2', 1, 0.0.0.0/0, 3)")])
        execution.replay([change])
        assert execution.engine.exists(
            parse_tuple("flowEntry('s2', 1, 0.0.0.0/0, 3)")
        )

    def test_change_requires_content(self):
        with pytest.raises(ReproError):
            Change()

    def test_change_describe(self):
        modification = Change(
            insert=parse_tuple("a(2)"), remove=[parse_tuple("a(1)")]
        )
        assert "->" in modification.describe()
        assert Change(insert=parse_tuple("a(2)")).describe().startswith("insert")
        assert Change(remove=[parse_tuple("a(1)")]).describe().startswith("remove")
