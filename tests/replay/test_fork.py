"""Candidate replays forked off one live base ≡ replays from scratch.

Inside a diagnosis ``Execution.replay`` does not re-derive (or
unpickle) the log prefix per candidate: it keeps one pristine engine at
the fork point and serves each candidate by checkpoint → Δ + suffix →
rollback (docs/performance.md, "Replay").  The from-scratch
``replayer.replay`` is the oracle here: every ``(changes, anchor)`` a
real ``diagnose(minimize=True)`` + ``repair()`` issues must come out of
the fork path in exactly the state the oracle reaches, and the base,
rolled back, must be indistinguishable from a twin that never forked.
"""

import pickle

import pytest

from repro import Session
from repro.datalog import parse_tuple
from repro.errors import ReproError, StepLimitExceeded
from repro.replay import Change, Execution, ReplayCache, replay
from repro.replay import execution as execution_module

from ._forkstate import (
    assert_base_is_pristine as _assert_base_is_pristine,
    assert_same_state as _assert_same,
    engine_state,
    query_views,
    tree_dump,
)

SCENARIOS = ["SDN1", "SDN2", "SDN3", "SDN4", "DNS", "MR1-D", "FLAP", "FLAP-S"]


def _from_scratch(execution, changes=(), anchor=None):
    return replay(
        execution.program, execution.log, changes, anchor, lossless=True,
        step_limit=execution.engine.steps * 10 + 10_000,
        engine=execution.engine_config,
    )


@pytest.fixture
def captured(monkeypatch):
    """Record every Execution.replay(changes, anchor) issued."""
    calls = []
    original = Execution.replay

    def recording(self, changes=(), anchor_index=None):
        calls.append((self, list(changes), anchor_index))
        return original(self, changes, anchor_index)

    monkeypatch.setattr(Execution, "replay", recording)
    return calls


class TestForkedEqualsFromScratch:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_every_replay_of_a_real_diagnosis(self, scenario, captured):
        with Session(scenario, minimize=True, replay_cache=False) as session:
            assert session.repair().success
            bad = session.bad
            traffic = [(c, a) for who, c, a in captured if who is bad]
            assert len(traffic) == len(captured) >= 4
            bad.fork_replays = True
            forked_count = 0
            for changes, anchor in traffic:
                got = bad.replay(changes, anchor)
                want = _from_scratch(bad, changes, anchor)
                forked_count += got._owner is bad
                _assert_same(engine_state(got.engine, got.recorder),
                             engine_state(want.engine, want.recorder))
                assert query_views(got.engine) == query_views(want.engine)
                assert got.recorder.lost_events == want.recorder.lost_events == 0
                # Inside the checkpoint the graph never materializes;
                # the tree query walks the recorder instead.
                if got._owner is bad:
                    with pytest.raises(ReproError, match="checkpointed"):
                        got.graph.materialize()
                for tup in {session.good_event, session.bad_event}:
                    if want.graph.ever_existed(tup):
                        assert tree_dump(got.graph.tuple_tree(tup)) == (
                            tree_dump(want.graph.materialize().tuple_tree(tup))
                        )
                assert got.graph.pending
            # The first fork builds the base; everything at or above it
            # is served from it.
            assert forked_count >= len(traffic) // 2
            _assert_base_is_pristine(bad)


def _loop_execution(forwarding_program):
    execution = Execution(forwarding_program)
    for text in (
        "link('s1', 2, 's2')",
        "link('s2', 7, 's1')",
        "flowEntry('s1', 1, 0.0.0.0/0, 2)",
        "flowEntry('s2', 1, 0.0.0.0/0, 3)",
        "hostAt('s2', 3, 'h1')",
        "packet('s1', 7.7.7.7, 4.3.2.1)",
        "packet('s1', 7.7.7.7, 4.3.2.2)",
    ):
        execution.insert(parse_tuple(text))
    execution.fork_replays = True
    return execution


# s2 bounces everything back to s1, which sends it to s2 again.
LOOP = Change(insert=parse_tuple("flowEntry('s2', 9, 0.0.0.0/0, 7)"))
BENIGN = Change(insert=parse_tuple("flowEntry('s1', 9, 9.9.9.0/24, 4)"))
DROP_ROUTE = Change(remove=[parse_tuple("flowEntry('s2', 1, 0.0.0.0/0, 3)")])


class TestRollback:
    def test_base_survives_a_candidate_that_hits_the_step_limit(
        self, forwarding_program
    ):
        execution = _loop_execution(forwarding_program)
        execution.replay([BENIGN], 5)
        with pytest.raises(StepLimitExceeded):
            execution.replay([LOOP], 5)
        engine = execution._base[0]
        # The drive died mid-run(): events are still queued.
        assert engine.in_checkpoint and engine._queue
        got = execution.replay([BENIGN], 5)
        want = _from_scratch(execution, [BENIGN], 5)
        _assert_same(engine_state(got.engine, got.recorder),
                     engine_state(want.engine, want.recorder))
        _assert_base_is_pristine(execution)

    def test_base_survives_an_expired_deadline_mid_drive(
        self, forwarding_program
    ):
        from repro.errors import DeadlineExceeded
        from repro.resilience import Deadline

        execution = _loop_execution(forwarding_program)
        execution.replay([BENIGN], 5)
        execution.deadline = Deadline(0.0)
        with pytest.raises(DeadlineExceeded):
            execution.replay([LOOP], 5)
        execution.deadline = None
        assert execution._base[0].in_checkpoint
        _assert_base_is_pristine(execution)

    def test_base_advances_and_lower_forks_bypass_it(self, forwarding_program):
        execution = _loop_execution(forwarding_program)
        assert execution.replay([BENIGN], 5)._owner is execution
        assert execution._base_at == 5
        assert execution.replay([BENIGN], 6)._owner is execution
        assert execution._base_at == 6
        # A zero-change replay is served without moving the base.
        assert execution.replay()._owner is execution
        assert execution._base_at == 6
        # DROP_ROUTE's tuple is logged at index 3: below the base.
        below = execution.replay([DROP_ROUTE], 6)
        assert below._owner is None and execution._base_at == 6
        want = _from_scratch(execution, [DROP_ROUTE], 6)
        _assert_same(engine_state(below.engine, below.recorder),
                     engine_state(want.engine, want.recorder))
        _assert_base_is_pristine(execution)

    def test_reference_backend_and_network_faults_never_fork(
        self, forwarding_program
    ):
        from repro.faults import FaultPlan

        reference = _loop_execution(forwarding_program)
        reference.engine_config = type(reference.engine_config).coerce(
            "reference"
        )
        assert reference.replay([BENIGN], 5)._owner is None
        lossy = _loop_execution(forwarding_program)
        lossy.fault_plan = FaultPlan.parse("drop=0.1,seed=3")
        assert lossy.replay([BENIGN], 5)._owner is None
        host_only = _loop_execution(forwarding_program)
        host_only.fault_plan = FaultPlan.parse("snapshot-corrupt=0.5,seed=3")
        assert host_only.replay([BENIGN], 5)._owner is host_only


class TestStaleViews:
    def test_forked_result_dies_with_the_next_replay(self, forwarding_program):
        execution = _loop_execution(forwarding_program)
        first = execution.replay([BENIGN], 5)
        assert first.alive(BENIGN.insert)
        second = execution.replay([BENIGN], 6)
        for touch in (lambda: first.engine, lambda: first.recorder,
                      lambda: first.graph, lambda: first.alive(BENIGN.insert)):
            with pytest.raises(ReproError, match="stale ReplayResult"):
                touch()
        assert second.alive(BENIGN.insert)
        execution.drop_base()
        with pytest.raises(ReproError, match="stale ReplayResult"):
            second.engine

    def test_bypassing_replays_leave_the_current_view_alone(
        self, forwarding_program
    ):
        execution = _loop_execution(forwarding_program)
        view = execution.replay([BENIGN], 6)
        owned = execution.replay([DROP_ROUTE], 6)
        assert view.alive(BENIGN.insert) and not owned.alive(BENIGN.insert)
        execution.replay([BENIGN], 6)
        assert not owned.alive(DROP_ROUTE.remove[0])  # still readable

    def test_appending_to_the_log_drops_the_base(self, forwarding_program):
        execution = _loop_execution(forwarding_program)
        view = execution.replay([BENIGN], 5)
        execution.insert(parse_tuple("packet('s1', 7.7.7.7, 4.3.2.3)"))
        assert execution._base is None
        with pytest.raises(ReproError, match="stale ReplayResult"):
            view.engine


class TestCountedNotTimed:
    def test_sdn4_diagnosis_pickles_nothing_and_drives_one_prefix(
        self, monkeypatch
    ):
        counts = {"dumps": 0, "loads": 0, "pristine": 0, "scratch": 0}

        def counting(name, func):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(pickle, "dumps", counting("dumps", pickle.dumps))
        monkeypatch.setattr(pickle, "loads", counting("loads", pickle.loads))
        monkeypatch.setattr(
            execution_module, "pristine",
            counting("pristine", execution_module.pristine),
        )
        monkeypatch.setattr(
            execution_module, "replay",
            counting("scratch", execution_module.replay),
        )
        with Session("SDN4", minimize=True) as session:
            session.diagnose()
            # One prefix drive for the base; the one scratch replay is
            # the persisted provenance (good and bad are one execution).
            assert counts == {"dumps": 0, "loads": 0, "pristine": 1,
                              "scratch": 1}
            counts.update(dict.fromkeys(counts, 0))
            second = session.diagnose()
            assert second.replays >= 4
            assert counts == {"dumps": 0, "loads": 0, "pristine": 0,
                              "scratch": 0}
            # The base outlives the call, parked outside any checkpoint.
            engine, _ = session.bad._base
            assert not engine.in_checkpoint
            assert not session.bad.fork_replays
            session.repair()
            assert counts["pristine"] == counts["dumps"] == 0

    def test_bypass_rate_is_reported(self):
        with Session("SDN1", minimize=True, telemetry=True) as session:
            report = session.repair()
        counters = report.telemetry["metrics"]["counters"]
        # diagnose forks at 53, n; repair at n, 53 — and twice at 14,
        # below the base: those two replay from scratch.
        assert counters["replay.base.forks"] == 4
        assert counters["replay.base.bypassed"] == 2
        assert "replay.base.advances" not in counters
        assert report.replays + report.repair["replays"] - 1 == 6

    def test_replay_cache_off_means_every_replay_re_derives(self):
        with Session("SDN1", minimize=True, telemetry=True,
                     replay_cache=False) as session:
            report = session.repair()
        counters = report.telemetry["metrics"]["counters"]
        assert not any(name.startswith("replay.base.") for name in counters)

    def test_a_cross_session_cache_seeds_the_base_and_keeps_results(self):
        cache = ReplayCache()
        with Session("SDN4", minimize=True, cache=cache) as session:
            first = session.diagnose()
            n = len(session.bad.log)
        # SDN4's good and bad are one execution: its materialization
        # (the full prefix), the base's prefix, and one result per
        # candidate for whoever asks again after this diagnosis.  A
        # fresh cache is always asked (the spine divides by hits +
        # misses), and the candidates still forked: one base, no bypass.
        kinds = [(key[1], key[2]) for key in cache._entries]
        assert sorted(k for k in kinds if k[0] == "prefix") == [
            ("prefix", n - 1), ("prefix", n),
        ]
        # Four replays, three distinct change sets: the repeat was a hit.
        assert first.replays == 4
        assert sum(kind == "result" for kind, _ in kinds) == 3
        assert (cache.stores, cache.hits, cache.misses) == (5, 1, 5)
        with Session("SDN4", minimize=True, cache=cache) as session:
            session.diagnose()
        # Every replay was a restore; no base was ever built.
        assert (cache.stores, cache.hits, cache.misses) == (5, 6, 5)

    def test_damaged_snapshots_are_rederived_not_trusted(self):
        cache = ReplayCache()
        with Session("SDN4", minimize=True, cache=cache) as session:
            first = session.diagnose()
        for entry in cache._entries.values():
            entry.payload = entry.payload[: len(entry.payload) // 2]
        with Session("SDN4", minimize=True, cache=cache) as session:
            second = session.diagnose()
        assert second.canonical_json() == first.canonical_json()
        # Every snapshot was quarantined, re-derived and stored again.
        assert (cache.corrupt, cache.hits, cache.stores) == (5, 2, 10)
        assert second.resilience["cache"] == {"corrupt": 5}
