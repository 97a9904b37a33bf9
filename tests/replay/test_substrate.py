"""The substrate contract (``repro.replay.substrate``), on every substrate.

One conformance suite runs over the NDlog engine on both backends
(SDN1), the instrumented MapReduce runtime (MR1-I) and the network
emulator (the SMALL Stanford build): cached persisted provenance,
replay accounting, one result shape, a run's deadline and telemetry
attached and restored, and the replay-base hooks.  Then the deadline
inside an emulator replay, and the AST check that no capability probe
is left in the algorithm, the planner or the Session.
"""

import ast
import pathlib

import pytest

from repro import Session
from repro.core.diffprov import DiffProvOptions
from repro.core.harness import RunContext
from repro.datalog.tuples import Tuple
from repro.errors import DeadlineExceeded
from repro.observability import Telemetry
from repro.provenance.recorder import ProvenanceRecorder
from repro.replay import Execution, ReportedExecution, Substrate
from repro.resilience import Deadline
from repro.scenarios import ALL_SCENARIOS
from repro.scenarios.stanford import StanfordForwardingError
from repro.sdn.emulation import (
    EmulatedNetwork, EmulatedNetworkExecution, ExternalSpecReconstructor,
)

SMALL = dict(background_packets=60, entries_per_router=120, acl_rules=48)

# name -> (build, the substrate class, a mutable base table)
SUBSTRATES = {
    "SDN1-compiled": (
        lambda: ALL_SCENARIOS["SDN1"](engine="compiled").setup(),
        Execution, "flowEntry",
    ),
    "SDN1-reference": (
        lambda: ALL_SCENARIOS["SDN1"](engine="reference").setup(),
        Execution, "flowEntry",
    ),
    "MR1-I": (
        lambda: ALL_SCENARIOS["MR1-I"]().setup(),
        ReportedExecution, "jobConfig",
    ),
    "Stanford-SMALL": (
        lambda: StanfordForwardingError(**SMALL).setup(),
        EmulatedNetworkExecution, "flowEntry",
    ),
}


@pytest.fixture(params=sorted(SUBSTRATES))
def case(request):
    build, cls, table = SUBSTRATES[request.param]
    scenario = build()
    substrate = scenario.bad_execution
    assert isinstance(substrate, cls) and isinstance(substrate, Substrate)
    return substrate, table


def _grow(substrate):
    """Append one event to the log, the way each substrate's log grows."""
    entry = substrate.log.entries[-1]
    if isinstance(substrate, Execution):
        substrate.insert(entry.tuple, mutable=entry.mutable)
    else:
        substrate.log.append("insert", entry.tuple, mutable=entry.mutable)
        substrate._log_changed()


class TestConformance:
    def test_materialize_is_cached_until_the_log_grows(self, case):
        substrate, _ = case
        first = substrate.materialize()
        count = substrate.replay_count
        assert substrate.materialize() is first
        assert substrate.graph is first.graph
        assert substrate.replay_count == count
        recovered = substrate.recover()
        assert substrate.recover() is recovered
        _grow(substrate)
        assert substrate.materialize() is not first
        assert substrate.recover() is not recovered

    def test_each_replay_counts_once(self, case):
        substrate, _ = case
        for _ in range(2):
            count, seconds = substrate.replay_count, substrate.replay_seconds
            substrate.replay()
            assert substrate.replay_count == count + 1
            assert substrate.replay_seconds > seconds

    def test_every_result_has_the_declared_shape(self, case):
        substrate, table = case
        for result in (substrate.materialize(), substrate.replay(),
                       substrate.recover()):
            store = result.store
            assert isinstance(store.base_only, bool)
            tuples = store.tuples(table)
            tup = tuples[0]
            record = store.record(tup)
            assert (record.is_base, record.mutable, record.alive) == (
                True, True, True)
            assert store.is_mutable(tup) is True
            assert result.alive(tup)
            bucket = store.tuples_matching(table, 0, tup.args[0])
            assert tup in bucket
            assert bucket == [t for t in tuples if t.args[0] == tup.args[0]]
            if table == "flowEntry":
                # The entries whose destination prefix covers an address
                # of tup's own: None (no index), or a sub-bucket with tup.
                covering = store.tuples_covering(
                    table, tup.args[0], 3, tup.args[3].network
                )
                assert covering is None or (
                    tup in covering and set(covering) <= set(bucket))
            stranger = Tuple(table, ["no-such-node"] * tup.arity)
            assert store.record(stranger) is None
            assert not result.alive(stranger)
            assert isinstance(result.recorder, ProvenanceRecorder)
            assert result.graph.live_tuples()

    def test_a_run_attaches_deadline_and_telemetry_then_restores(self, case):
        substrate, _ = case
        before = Telemetry()
        substrate.telemetry = before
        run = RunContext(DiffProvOptions(deadline=60.0, telemetry=Telemetry()))
        with run.scope(substrate, substrate):
            assert substrate.deadline is run.deadline
            assert substrate.telemetry is run.telemetry
            substrate.replay()
        assert substrate.deadline is None
        assert substrate.telemetry is before

    def test_base_hooks_are_safe(self, case):
        substrate, table = case
        want = substrate.replay().store.tuples(table)
        substrate.park_base()
        substrate.drop_base()
        run = RunContext(DiffProvOptions())
        with run.scope(substrate, substrate):
            assert substrate.replay().store.tuples(table) == want
        substrate.park_base()
        assert substrate.replay().store.tuples(table) == want
        substrate.drop_base()
        substrate.release()
        assert substrate.replay().store.tuples(table) == want


class TestTheDeadlineReachesTheEmulator:
    """A budget that runs out between two injected packets ends the
    emulator replay there, not after it."""

    K = 5

    @pytest.fixture
    def injected(self, monkeypatch):
        calls = []
        original = EmulatedNetwork.inject

        def counting(self, *packet):
            calls.append(packet)
            return original(self, *packet)

        monkeypatch.setattr(EmulatedNetwork, "inject", counting)
        return calls

    def _deadline(self, injected):
        # The clock reads the packets injected so far: the budget
        # expires once K of them went in.
        return Deadline(self.K, clock=lambda: float(len(injected)))

    def test_the_replay_stops_after_k_packets(self, injected):
        scenario = StanfordForwardingError(**SMALL).setup()
        execution = scenario.bad_execution
        run = RunContext(DiffProvOptions(deadline=self._deadline(injected)))
        with run.scope(execution, execution):
            with pytest.raises(DeadlineExceeded):
                execution.replay()
        assert len(injected) == self.K < len(execution.schedule)

    def test_session_reports_deadline_exceeded(self, injected):
        scenario = StanfordForwardingError(**SMALL).setup()
        with Session(
            program=scenario.program,
            good=scenario.good_execution, bad=scenario.bad_execution,
            good_event=scenario.good_event, bad_event=scenario.bad_event,
            good_time=scenario.good_time, bad_time=scenario.bad_time,
            deadline_s=self._deadline(injected),
        ) as session:
            report = session.diagnose()
        assert report.failure_category == "deadline-exceeded"
        assert len(injected) == self.K

    def test_the_trace_reconstruction_stops_too(self, monkeypatch):
        # Most of an emulator replay is reconstructing the trace after
        # the last packet; a budget that runs out there ends it there.
        handled = []
        original = ExternalSpecReconstructor._on_arrival

        def counting(self, event, injected):
            handled.append(event)
            return original(self, event, injected)

        monkeypatch.setattr(ExternalSpecReconstructor, "_on_arrival", counting)
        execution = StanfordForwardingError(**SMALL).setup().bad_execution
        execution.replay()
        arrivals = len(handled)
        handled.clear()
        run = RunContext(DiffProvOptions(
            deadline=Deadline(self.K, clock=lambda: float(len(handled)))
        ))
        with run.scope(execution, execution):
            with pytest.raises(DeadlineExceeded):
                execution.replay()
        assert self.K <= len(handled) < arrivals


SRC =pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def _probes(path):
    """``(enclosing function, line)`` of every hasattr/getattr call."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            name = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id in ("hasattr", "getattr")):
                found.append((name, child.lineno))
            visit(child, name)

    visit(ast.parse(path.read_text()), None)
    return found


class TestNoCapabilityProbes:
    @pytest.mark.parametrize("package", ["core", "repair"])
    def test_none_in_the_algorithm_or_the_planner(self, package):
        probes = {
            str(path.relative_to(SRC)): _probes(path)
            for path in sorted((SRC / package).rglob("*.py"))
        }
        assert {path: p for path, p in probes.items() if p} == {}

    def test_the_session_validates_one_telemetry_value_only(self):
        # The one hasattr left checks a caller-supplied telemetry
        # object, not a substrate.
        probes = _probes(SRC / "api.py")
        assert [name for name, _ in probes] == ["_telemetry_object"]
