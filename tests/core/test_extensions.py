"""Tests for the Section 4.8/4.9 extensions: Δ minimization, automatic
reference discovery, and distributed query accounting."""

import pytest

from repro.core import DiffProv, DiffProvOptions
from repro.core.autoref import auto_diagnose, propose_references, similarity
from repro.datalog import parse_program, parse_tuple
from repro.provenance.distributed import PartitionedProvenance
from repro.provenance.query import provenance_query
from repro.replay import Execution
from repro.scenarios import SDN1BrokenFlowEntry


@pytest.fixture(scope="module")
def sdn1():
    return SDN1BrokenFlowEntry(background_packets=8).setup()


class TestMinimization:
    # Competitor removals are proposed from the rule's atom pattern, but
    # here the V > 0 condition already excludes the bad value at
    # runtime, so the removal half of the modification is unnecessary —
    # exactly the kind of non-minimal Δ Section 4.9 admits.
    PROGRAM = """
    table stim(Id, Y) event immutable.
    table cfg(K, V) mutable.
    table other(K, V) mutable.
    table out(Id).
    table fallback(Id).

    r1 out(Id) :- stim(Id, Y), cfg('a', V), other('x', W), V > 0.
    rf fallback(Id) :- stim(Id, Y).
    """

    def build(self):
        program = parse_program(self.PROGRAM)
        good = Execution(program, name="good")
        good.insert(parse_tuple("cfg('a', 5)"))
        good.insert(parse_tuple("other('x', 1)"))
        good.insert(parse_tuple("stim(1, 5)"))
        bad = Execution(program, name="bad")
        bad.insert(parse_tuple("cfg('a', -3)"))
        bad.insert(parse_tuple("other('x', 1)"))
        bad.insert(parse_tuple("stim(2, 5)"))
        return program, good, bad

    def test_unminimized_diagnosis_includes_removal(self):
        program, good, bad = self.build()
        report = DiffProv(program).diagnose(
            good, bad, parse_tuple("out(1)"), parse_tuple("fallback(2)")
        )
        assert report.success
        assert report.num_changes == 1
        assert report.changes[0].is_modification

    def test_minimize_narrows_modification_to_insert(self):
        program, good, bad = self.build()
        options = DiffProvOptions(minimize=True)
        report = DiffProv(program, options).diagnose(
            good, bad, parse_tuple("out(1)"), parse_tuple("fallback(2)")
        )
        assert report.success
        assert report.num_changes == 1
        change = report.changes[0]
        assert change.insert == parse_tuple("cfg('a', 5)")
        assert change.remove == ()  # the removal was unnecessary

    def test_minimized_delta_still_aligns(self):
        program, good, bad = self.build()
        options = DiffProvOptions(minimize=True)
        report = DiffProv(program, options).diagnose(
            good, bad, parse_tuple("out(1)"), parse_tuple("fallback(2)")
        )
        anchor = bad.log.index_of_insert(parse_tuple("stim(2, 5)"))
        replayed = bad.replay(report.changes, anchor)
        assert replayed.alive(parse_tuple("out(2)"))

    def test_necessary_changes_survive_minimization(self, sdn1):
        report = sdn1.diagnose(DiffProvOptions(minimize=True))
        assert report.success
        assert report.num_changes == 1

    def test_scenario_diagnoses_unchanged_by_minimization(self):
        from repro.scenarios import SDN4MultipleFaultyEntries

        scenario = SDN4MultipleFaultyEntries(background_packets=6).setup()
        plain = scenario.diagnose()
        minimized = scenario.diagnose(DiffProvOptions(minimize=True))
        assert plain.changes == minimized.changes

    def test_post_pass_costs_at_most_two_replays_per_change(self):
        scenario = SDN1BrokenFlowEntry(background_packets=12).setup()
        plain = scenario.diagnose()
        minimized = scenario.diagnose(DiffProvOptions(minimize=True))
        assert minimized.changes == plain.changes  # nothing to drop here
        # One replay per change, plus its variants.
        assert minimized.replays <= plain.replays + 2 * plain.num_changes


class TestAutoReference:
    def test_similarity_counts_matching_fields(self):
        a = parse_tuple("delivered('web2', 1, 1.1.1.1, 2.2.2.2)")
        b = parse_tuple("delivered('web2', 2, 1.1.1.1, 2.2.2.2)")
        assert similarity(a, b) == 3

    def test_propose_references_same_table_only(self, sdn1):
        candidates = propose_references(
            sdn1.bad_execution.graph, sdn1.bad_event
        )
        assert candidates
        assert all(c.event.table == "delivered" for c in candidates)
        assert all(c.event != sdn1.bad_event for c in candidates)

    def test_candidates_ranked_by_similarity(self, sdn1):
        candidates = propose_references(
            sdn1.bad_execution.graph, sdn1.bad_event
        )
        scores = [c.score for c in candidates]
        assert scores == sorted(scores, reverse=True)

    def test_auto_diagnose_finds_the_broken_entry(self, sdn1):
        result = auto_diagnose(
            sdn1.program,
            sdn1.good_execution,
            sdn1.bad_execution,
            sdn1.bad_event,
            limit=15,
        )
        assert result.found
        # The discovered reference behaves differently (it reached the
        # DPI-protected server), and the diagnosis matches the operator
        # supplied one: the widened untrusted-subnet entry.
        assert result.reference.args[0] in ("web1", "dpi")
        assert result.report.num_changes == 1
        assert result.report.changes[0].insert.table == "flowEntry"

    def test_discovered_reference_matches_the_operator_one(self):
        from repro.scenarios.dns import DNSStaleReplica

        scenario = DNSStaleReplica().setup()
        manual = scenario.diagnose()
        result = auto_diagnose(
            scenario.program,
            scenario.good_execution,
            scenario.bad_execution,
            scenario.bad_event,
        )
        assert result.found
        assert len(result.tried) >= 1
        assert result.report.changes == manual.changes

    def test_consistent_references_align_with_zero_changes(self, sdn1):
        # Background deliveries at web2 are events the network treats
        # the same way as the bad one: DiffProv aligns them with zero
        # changes, which is why auto_diagnose skips them.
        background = [
            c.event
            for c in propose_references(sdn1.bad_execution.graph, sdn1.bad_event)
            if c.event.args[0] == "web2"
        ]
        assert background
        report = DiffProv(sdn1.program).diagnose(
            sdn1.good_execution,
            sdn1.bad_execution,
            background[0],
            sdn1.bad_event,
        )
        assert report.success
        assert report.num_changes == 0


class TestDistributedQueries:
    def test_partitions_by_node(self, sdn1):
        partitioned = PartitionedProvenance(sdn1.good_execution.graph)
        assert "s1" in partitioned.nodes()
        assert sum(partitioned.partition_sizes().values()) == len(
            sdn1.good_execution.graph
        )

    def test_query_returns_same_tree_as_monolithic(self, sdn1):
        graph = sdn1.good_execution.graph
        partitioned = PartitionedProvenance(graph)
        tree, stats = partitioned.query(sdn1.good_event)
        monolithic = provenance_query(graph, sdn1.good_event)
        assert tree.size() == monolithic.size()
        assert tree.tuple_root.render() == monolithic.tuple_root.render()

    def test_query_touches_only_on_path_fraction(self, sdn1):
        partitioned = PartitionedProvenance(sdn1.good_execution.graph)
        tree, stats = partitioned.query(sdn1.good_event)
        # No global materialization: the query touches a strict subset
        # of the graph (background traffic stays untouched).
        assert 0 < stats.fetched_fraction < 0.5
        assert stats.vertices_fetched <= tree.size()

    def test_flap_query_touches_under_a_quarter(self):
        from repro.scenarios.flap import FlappingRoute

        scenario = FlappingRoute(flaps=3, probes_per_phase=3).setup()
        partitioned = PartitionedProvenance(scenario.good_execution.graph)
        _, stats = partitioned.query(scenario.good_event)
        # §4.8: only the queried tree is materialized on demand.
        assert 0 < stats.fetched_fraction < 0.25

    def test_only_on_path_nodes_contacted(self, sdn1):
        partitioned = PartitionedProvenance(sdn1.good_execution.graph)
        _, stats = partitioned.query(sdn1.good_event)
        # The good packet takes s1-s2-s6-web1(+dpi mirror): switches on
        # the general path (s3, s4, s5) are never contacted.
        assert "s3" not in stats.nodes_contacted
        assert "s4" not in stats.nodes_contacted
        assert {"s1", "s2", "s6"} <= stats.nodes_contacted

    def test_cross_node_fetches_bounded_by_hops(self, sdn1):
        partitioned = PartitionedProvenance(sdn1.good_execution.graph)
        _, stats = partitioned.query(sdn1.good_event)
        assert 0 < stats.cross_node_fetches < stats.vertices_fetched
