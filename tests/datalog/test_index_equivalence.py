"""Backend selection must be invisible in every observable.

The fast path (compiled closures over the indexed store, annotated
recorder) is licensed by one claim: it changes cost, never results.
These tests hold it against the oracle — the linear-scan reference
evaluator with the eager recorder — across the paper's scenarios and
assert identical table contents, identical provenance graphs
vertex-for-vertex, identical trees and equal recorder metrics; and
that the fast path really is compiled: no rule firing of a bundled
scenario falls back to the interpreter.  Byte-identical diagnosis
reports across backends are the contract matrix's ``engine`` axis
(tests/contract).
"""

import pytest

from repro.datalog import BACKENDS, EngineConfig, parse_tuple
from repro.observability import Telemetry
from repro.provenance.query import provenance_query
from repro.replay import Change
from repro.replay.replayer import drive, pristine, replay
from repro.scenarios import ALL_SCENARIOS

# The satellite coverage set: every SDN scenario, DNS, the declarative
# MapReduce pair (the imperative MR variants use the instrumented
# runtime, which bypasses the engine join path entirely), and FLAP —
# the temporal/streaming scenario, whose log churns the same mutable
# tuple through repeated delete/insert cycles.
SCENARIOS = ["SDN1", "SDN2", "SDN3", "SDN4", "DNS", "MR1-D", "MR2-D", "FLAP"]

# compiled/annotated and reference/eager.
MATRIX = sorted(BACKENDS)
FAST = [backend for backend in MATRIX if backend != "reference"]


def _scenario(name, **params):
    return ALL_SCENARIOS[name](**params).setup()


def _recorder_counts(telemetry):
    return {
        name: value
        for name, value in telemetry.snapshot()["counters"].items()
        if name.startswith("recorder.vertices.") or name == "recorder.edges"
    }


def _replay_matrix(scenario, execution):
    """The same log replayed under every backend, reference last."""
    return {
        backend: replay(
            scenario.program, execution.log, engine=EngineConfig.coerce(backend)
        )
        for backend in MATRIX
    }


class TestTableEquivalence:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_identical_table_contents(self, name):
        scenario = _scenario(name)
        for execution in (scenario.good_execution, scenario.bad_execution):
            results = _replay_matrix(scenario, execution)
            reference = results.pop("reference")
            for backend, result in results.items():
                for table in sorted(scenario.program.schemas):
                    assert result.engine.lookup(table) == reference.engine.lookup(
                        table
                    ), f"{name}: table {table} diverged under {backend}"


class TestGraphEquivalence:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_identical_graphs_vertex_for_vertex(self, name):
        scenario = _scenario(name)
        results = _replay_matrix(scenario, scenario.bad_execution)
        reference = results.pop("reference")
        # Touching .vertices materializes the lazy/annotated graphs;
        # the reconstruction must replay into the exact eager sequence.
        ref_vertices = reference.graph.vertices
        for backend, result in results.items():
            vertices = result.graph.vertices
            assert len(vertices) == len(ref_vertices), backend
            for mine, theirs in zip(vertices, ref_vertices):
                assert (mine.id, mine.kind, mine.node, mine.tuple, mine.time,
                        mine.end_time, mine.rule, mine.derivation_id,
                        mine.mutable) == (
                    theirs.id, theirs.kind, theirs.node, theirs.tuple,
                    theirs.time, theirs.end_time, theirs.rule,
                    theirs.derivation_id, theirs.mutable)
                assert [c.id for c in result.graph.children(mine)] == [
                    c.id for c in reference.graph.children(theirs)
                ]
            assert sorted(result.graph.derivations) == sorted(
                reference.graph.derivations
            )

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_identical_trees(self, name):
        scenario = _scenario(name)
        results = _replay_matrix(scenario, scenario.bad_execution)
        rendered = {
            backend: provenance_query(
                result.graph, scenario.bad_event, scenario.bad_time
            ).render()
            for backend, result in results.items()
        }
        for backend in FAST:
            assert rendered[backend] == rendered["reference"], backend

    def test_lazy_vertex_count_matches_before_materialization(self):
        scenario = _scenario("SDN1")
        results = _replay_matrix(scenario, scenario.bad_execution)
        # len() on the lazy graph comes from record-time counters; it
        # must agree with eager construction without materializing.
        for backend in FAST:
            assert results[backend].graph.pending
            assert len(results[backend].graph) == len(
                results["reference"].graph
            )
            assert results[backend].graph.pending


class TestRecorderMetricsEquivalence:
    def test_all_modes_count_the_same_vertices_and_edges(self):
        scenario = _scenario("SDN1")
        log = scenario.bad_execution.log
        snapshots = {}
        for backend in MATRIX:
            telemetry = Telemetry()
            replay(scenario.program, log, telemetry=telemetry, engine=backend)
            counters = telemetry.snapshot()["counters"]
            snapshots[backend] = {
                key: value
                for key, value in counters.items()
                if key.startswith("recorder.vertices.")
                or key == "recorder.edges"
                or key.startswith("engine.rule_firings.")
            }
        for backend in FAST:
            assert snapshots[backend] == snapshots["reference"], backend
        assert snapshots["reference"].get("recorder.edges", 0) > 0

    def test_telemetry_attached_at_fork_time_counts_like_eager_throughout(self):
        # A replay base is built with no telemetry, so record() skipped
        # every count on the prefix; the state the counts are read from
        # (insert counts, derivation ids, EXIST intervals) must still be
        # there when a run attaches its telemetry to fork a candidate.
        # FLAP's suffix deletes and re-inserts a prefix tuple and fires
        # rules over prefix facts, so every kind of lookup reaches back.
        scenario = _scenario("FLAP")
        bad = scenario.bad_execution
        log = bad.log
        change = Change(
            insert=parse_tuple("flowEntry('core', 5, 0.0.0.0/0, 9.9.9.0/24, 3)")
        )
        fork = 13
        bad.fork_replays = True
        bad.replay([change], fork)
        assert bad._base_at == fork and bad.telemetry is None
        bad.telemetry = Telemetry()
        assert bad.replay([change], fork)._owner is bad
        forked = _recorder_counts(bad.telemetry)

        eager = Telemetry()
        engine, _, _ = pristine(
            scenario.program, log, fork, config=EngineConfig("reference"),
            lossless=True, telemetry=eager,
        )
        prefix = _recorder_counts(eager)
        drive(engine, log.entries, fork, len(log.entries),
              inserted=[change.insert], anchor=fork)
        suffix = {
            name: count - prefix.get(name, 0)
            for name, count in _recorder_counts(eager).items()
        }
        assert forked == {k: v for k, v in suffix.items() if v}
        assert {"recorder.edges", "recorder.vertices.delete",
                "recorder.vertices.disappear", "recorder.vertices.derive",
                "recorder.vertices.insert"} <= set(forked)

    def test_index_hits_and_reconstructions_are_metered(self):
        scenario = _scenario("SDN1")
        telemetry = Telemetry()
        result = replay(
            scenario.program, scenario.bad_execution.log, telemetry=telemetry
        )
        counters = telemetry.snapshot()["counters"]
        assert counters.get("engine.index.hits", 0) > 0
        assert "provenance.lazy.reconstructions" not in counters
        result.graph.vertices  # force one reconstruction
        counters = telemetry.snapshot()["counters"]
        assert counters.get("provenance.lazy.reconstructions") == 1


class TestEveryFiringCompiles:
    """The interpreter is the oracle, not a silent second fast path."""

    @pytest.mark.parametrize("name", ["SDN1", "SDN4", "DNS", "FLAP", "MR1-D"])
    def test_no_rule_firing_falls_back_to_the_interpreter(self, name):
        scenario = _scenario(name)
        for execution in (scenario.good_execution, scenario.bad_execution):
            engine = replay(scenario.program, execution.log).engine
            plans = engine._compiled_plans
            assert plans, name
            assert [key for key, plan in plans.items() if plan is None] == []
            # Every rule that fired went through a compiled plan — the
            # argmax-selector rules (fwd, answer) included; aggregates
            # fire through the barrier path, not the join.
            fired = {d.rule_name for d in engine.store.derivations.values()}
            aggregates = {
                rule.name for rule in scenario.program.rules
                if rule.is_aggregate
            }
            assert fired - aggregates <= {rule for rule, _ in plans}

    def test_reference_backend_compiles_nothing(self):
        scenario = _scenario("SDN1")
        engine = replay(
            scenario.program, scenario.bad_execution.log, engine="reference"
        ).engine
        assert engine._compiled_plans == {}
        assert type(engine.store).__name__ == "Store"

