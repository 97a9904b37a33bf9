"""The live replay base belongs to the Execution, not to one call.

The first forking ``diagnose()`` of a Session drives the log prefix
once; later calls fork off the same base (docs/performance.md,
"Replay").  What must hold around that:

- no forked ``ReplayResult`` outlives the call that made it, and the
  base is parked outside any checkpoint between calls;
- a call that dies mid-fork leaves the next call byte-identical and
  still free of prefix drives (that calls which do not die agree is
  the contract matrix's ``call`` axis, tests/contract);
- ``Session.close()``, ``replay_cache=False`` and the ``reference``
  backend leave no base behind, and a dropped base is freed by
  reference counting alone;
- no compiled candidate reconstructs a provenance graph: FIRSTDIV's
  tree query walks the recorder.
"""

import gc
import pickle
import weakref

import pytest

from repro import Session
from repro.core.diffprov import DiffProvOptions
from repro.core.harness import RunContext
from repro.errors import ReproError, StepLimitExceeded
from repro.provenance.lazy import LazyProvenanceGraph
from repro.replay import Execution
from repro.replay import execution as execution_module
from repro.resilience import Deadline
from repro.scenarios import ALL_SCENARIOS

from ._forkstate import assert_base_is_pristine
from .test_fork import BENIGN, LOOP, _loop_execution


@pytest.fixture
def prefix_drives(monkeypatch):
    """Count the prefix drives that build a live base."""
    calls = []
    original = execution_module.pristine

    def counting(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(execution_module, "pristine", counting)
    return calls


class TestOneBasePerExecution:
    def test_a_forked_result_dies_with_its_call(self, monkeypatch):
        forked = []
        original = Execution.replay

        def keeping(self, changes=(), anchor_index=None):
            result = original(self, changes, anchor_index)
            forked.append(result)
            return result

        monkeypatch.setattr(Execution, "replay", keeping)
        with Session("SDN4", minimize=True) as session:
            session.diagnose()
            views = [r for r in forked if r._owner is session.bad]
            assert views
            for view in views:
                with pytest.raises(ReproError, match="stale ReplayResult"):
                    view.engine
            engine, _ = session.bad._base
            assert not engine.in_checkpoint
            assert engine.telemetry is None and engine.deadline is None

    def test_close_drops_both_bases(self):
        session = Session("SDN1", minimize=True)
        session.repair()
        good, bad = session.good, session.bad
        assert bad._base is not None
        session.close()
        assert good._base is None and bad._base is None

    def test_a_dropped_base_is_freed_without_the_collector(
        self, forwarding_program
    ):
        execution = _loop_execution(forwarding_program)
        with RunContext(DiffProvOptions()).scope(execution, execution):
            execution.replay([BENIGN], 5)
        engine, recorder = execution._base  # parked: no undo trail
        # The graph's backref is weak, and a snapshot relinks it.
        restored = pickle.loads(pickle.dumps(recorder))
        assert restored.graph._recorder() is restored
        refs = [weakref.ref(part) for part in (engine, recorder,
                                                recorder.graph)]
        del engine, recorder
        gc.disable()
        try:
            execution.drop_base()
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()

    @pytest.mark.parametrize("knobs", [{"replay_cache": False},
                                       {"engine": "reference"}])
    def test_non_forking_sessions_keep_no_base(self, knobs, prefix_drives):
        with Session("SDN4", minimize=True, **knobs) as session:
            session.diagnose()
            session.repair()
            assert session.bad._base is None
        assert prefix_drives == []


class TestACallThatDiesMidFork:
    def test_deadline_inside_the_fork_drive(self, monkeypatch, prefix_drives):
        original = execution_module.drive

        def expiring(engine, entries, start, stop, *changes):
            if changes:  # a candidate's drive, not a base advance
                engine.deadline = Deadline(0.0)
                engine.steps |= 63  # the next step checks the budget
            return original(engine, entries, start, stop, *changes)

        with Session("SDN4", minimize=True) as session:
            want = session.diagnose().canonical_json()
            assert len(prefix_drives) == 1
            monkeypatch.setattr(execution_module, "drive", expiring)
            died = session.diagnose()
            assert died.failure_category == "deadline-exceeded"
            monkeypatch.setattr(execution_module, "drive", original)
            engine, _ = session.bad._base
            assert not engine.in_checkpoint
            assert session.diagnose().canonical_json() == want
            assert len(prefix_drives) == 1
            assert_base_is_pristine(session.bad)

    def test_step_limit_from_a_looping_candidate(
        self, forwarding_program, prefix_drives
    ):
        execution = _loop_execution(forwarding_program)
        execution.fork_replays = False
        run = RunContext(DiffProvOptions())
        with run.scope(execution, execution):
            want = execution.replay([BENIGN], 5).engine.store.all_tuples()
        with pytest.raises(StepLimitExceeded):
            with run.scope(execution, execution):
                execution.replay([LOOP], 5)
        assert not execution._base[0].in_checkpoint
        with run.scope(execution, execution):
            got = execution.replay([BENIGN], 5).engine.store.all_tuples()
        assert got == want and len(prefix_drives) == 1
        assert_base_is_pristine(execution)


# Every bundled scenario but the imperative MapReduce runs.
NDLOG = sorted(set(ALL_SCENARIOS) - {"MR1-I", "MR2-I"})


class TestNoGraphInsideAFork:
    @pytest.mark.parametrize("name", NDLOG)
    def test_compiled_repair_reconstructs_only_the_persisted_graphs(
        self, name, monkeypatch
    ):
        inside = []
        original = LazyProvenanceGraph.materialize

        def watching(self):
            inside.append(self._trail is not None)
            return original(self)

        monkeypatch.setattr(LazyProvenanceGraph, "materialize", watching)
        with Session(name, minimize=True, telemetry=True) as session:
            reports = [session.repair(), session.repair()]
            persisted = len({id(session.good), id(session.bad)})
        counts = [
            r.telemetry["metrics"]["counters"].get(
                "provenance.lazy.reconstructions", 0)
            for r in reports
        ]
        if reports[0].lost_events:
            # The plan lost log events: the first call recovers lossless
            # provenance by one owned replay, kept on the execution.
            assert counts == [1, 1]
        else:
            # The Session's counters accumulate: each persisted
            # execution once, on the first call, and nothing since.
            assert counts == [persisted, persisted]
        assert not any(inside)
