"""Tests for the black-box emulator and external-spec reconstruction."""

import pytest

from repro.addresses import IPv4Address
from repro.core.seeds import find_seed
from repro.datalog.tuples import Tuple
from repro.errors import ReproError
from repro.provenance.query import provenance_query
from repro.replay.replayer import Change
from repro.sdn import model
from repro.sdn.emulation import (
    EmulatedNetwork,
    EmulatedNetworkExecution,
    NetworkConfig,
    ExternalSpecReconstructor,
)
from repro.sdn.topology import Topology


@pytest.fixture
def small_net():
    topo = Topology("emu")
    topo.add_switch("s1")
    topo.add_switch("s2")
    topo.add_host("h1", "10.0.0.1")
    topo.add_host("h2", "10.0.0.2")
    topo.add_link("s1", "s2")
    topo.add_link("s2", "h1")
    topo.add_link("s2", "h2")
    config = NetworkConfig(topo)
    config.install(model.flow_entry("s1", 1, "0.0.0.0/0", "0.0.0.0/0",
                                    topo.port("s1", "s2")))
    config.install(model.flow_entry("s2", 5, "0.0.0.0/0", "10.0.0.1/32",
                                    topo.port("s2", "h1")))
    config.install(model.flow_entry("s2", 1, "0.0.0.0/0", "0.0.0.0/0",
                                    topo.port("s2", "h2")))
    return topo, config


class TestEmulatedNetwork:
    def test_forwarding_and_delivery(self, small_net):
        topo, config = small_net
        network = EmulatedNetwork(config)
        network.inject("s1", 1, "9.9.9.9", "10.0.0.1")
        kinds = [(e.kind, e.switch) for e in network.traces]
        assert ("deliver", "s2") in kinds
        assert kinds[0] == ("in", "s1")

    def test_no_match_drops(self, small_net):
        topo, config = small_net
        empty = NetworkConfig(topo)
        network = EmulatedNetwork(empty)
        network.inject("s1", 1, "9.9.9.9", "10.0.0.1")
        assert network.traces[-1].kind == "drop"

    def test_drop_action(self, small_net):
        topo, config = small_net
        config.install(
            model.flow_entry("s2", 9, "0.0.0.0/0", "10.0.0.1/32",
                             model.DROP_ACTION)
        )
        network = EmulatedNetwork(config)
        network.inject("s1", 1, "9.9.9.9", "10.0.0.1")
        assert any(e.kind == "drop" and e.switch == "s2" for e in network.traces)

    def test_multicast_group(self, small_net):
        topo, config = small_net
        config.install(model.flow_entry("s2", 9, "0.0.0.0/0", "0.0.0.0/0", -1))
        config.install(model.group_entry("s2", -1, topo.port("s2", "h1")))
        config.install(model.group_entry("s2", -1, topo.port("s2", "h2")))
        network = EmulatedNetwork(config)
        network.inject("s1", 1, "9.9.9.9", "10.0.0.9")
        delivers = [e for e in network.traces if e.kind == "deliver"]
        assert len(delivers) == 2

    def test_forwarding_loop_hits_ttl(self):
        topo = Topology("loop")
        topo.add_switch("a")
        topo.add_switch("b")
        topo.add_link("a", "b")
        config = NetworkConfig(topo)
        config.install(model.flow_entry("a", 1, "0.0.0.0/0", "0.0.0.0/0",
                                        topo.port("a", "b")))
        config.install(model.flow_entry("b", 1, "0.0.0.0/0", "0.0.0.0/0",
                                        topo.port("b", "a")))
        network = EmulatedNetwork(config)
        network.inject("a", 1, "1.1.1.1", "2.2.2.2")
        assert network.traces[-1].kind == "drop"  # TTL exhausted


class TestNetworkConfig:
    def test_clone_is_independent(self, small_net):
        topo, config = small_net
        clone = config.clone()
        extra = model.flow_entry("s1", 9, "0.0.0.0/0", "1.0.0.0/8", 1)
        clone.install(extra)
        assert extra not in config.tables["s1"]
        assert extra in clone.tables["s1"]

    def test_apply_changes(self, small_net):
        topo, config = small_net
        old = model.flow_entry("s2", 5, "0.0.0.0/0", "10.0.0.1/32",
                               topo.port("s2", "h1"))
        new = model.flow_entry("s2", 5, "0.0.0.0/0", "10.0.0.0/24",
                               topo.port("s2", "h1"))
        config.apply_changes([Change(insert=new, remove=[old])])
        assert old not in config.tables["s2"]
        assert new in config.tables["s2"]

    def test_wiring_not_installable(self, small_net):
        topo, config = small_net
        with pytest.raises(ReproError):
            config.install(model.host_at("s2", 1, "h1"))


class TestExternalSpecReconstruction:
    def test_reconstructed_tree_matches_model_vocabulary(self, small_net):
        topo, config = small_net
        execution = EmulatedNetworkExecution(
            "emu", config, [("s1", 1, IPv4Address("9.9.9.9"), IPv4Address("10.0.0.1"))]
        )
        delivered = model.delivered("h1", 1, "9.9.9.9", "10.0.0.1")
        tree = provenance_query(execution.graph, delivered)
        tables = [n.tuple.table for n in tree.tuple_root.walk()]
        assert "packet" in tables
        assert "flowEntry" in tables
        assert "actionOut" in tables
        rules = {n.rule for n in tree.tuple_root.walk() if n.rule}
        assert rules == {"fwd", "out", "move", "recv"}

    def test_seed_is_the_injected_packet(self, small_net):
        topo, config = small_net
        execution = EmulatedNetworkExecution(
            "emu", config, [("s1", 1, IPv4Address("9.9.9.9"), IPv4Address("10.0.0.1"))]
        )
        delivered = model.delivered("h1", 1, "9.9.9.9", "10.0.0.1")
        tree = provenance_query(execution.graph, delivered)
        seed = find_seed(tree.tuple_root)
        assert seed.tuple == model.packet("s1", 1, "9.9.9.9", "10.0.0.1")
        assert seed.mutable is False

    def test_dropped_packets_have_provenance(self, small_net):
        topo, config = small_net
        config.install(
            model.flow_entry("s2", 9, "0.0.0.0/0", "10.0.0.1/32",
                             model.DROP_ACTION)
        )
        execution = EmulatedNetworkExecution(
            "emu", config, [("s1", 1, IPv4Address("9.9.9.9"), IPv4Address("10.0.0.1"))]
        )
        dropped = Tuple("dropped", ["s2", 1, IPv4Address("9.9.9.9"),
                                    IPv4Address("10.0.0.1")])
        tree = provenance_query(execution.graph, dropped)
        # The drop is explained by the matched (faulty) entry.
        leaf_tables = {n.tuple.table for n in tree.tuple_root.walk() if n.is_base}
        assert "flowEntry" in leaf_tables

    def test_replay_with_changes_alters_outcome(self, small_net):
        topo, config = small_net
        fault = model.flow_entry("s2", 9, "0.0.0.0/0", "10.0.0.1/32",
                                 model.DROP_ACTION)
        config.install(fault)
        execution = EmulatedNetworkExecution(
            "emu", config, [("s1", 1, IPv4Address("9.9.9.9"), IPv4Address("10.0.0.1"))]
        )
        before = execution.materialize()
        delivered = model.delivered("h1", 1, "9.9.9.9", "10.0.0.1")
        assert not before.alive(delivered)
        after = execution.replay([Change(remove=[fault])])
        assert after.alive(delivered)
        # The original execution is untouched (replay is on a clone).
        assert fault in execution.base_config.tables["s2"]

    def test_store_view_exposes_configuration(self, small_net):
        topo, config = small_net
        execution = EmulatedNetworkExecution(
            "emu", config, [("s1", 1, IPv4Address("9.9.9.9"), IPv4Address("10.0.0.1"))]
        )
        result = execution.materialize()
        entries = result.store.tuples("flowEntry")
        assert len(entries) == config.total_entries()
        assert result.store.is_mutable(entries[0])
        link = model.link("s1", topo.port("s1", "s2"), "s2")
        assert not result.store.is_mutable(link)

    def test_lazy_base_reporting_keeps_graph_small(self, small_net):
        topo, config = small_net
        # Install many never-used entries: the graph must not grow.
        for third in range(50):
            config.install(
                model.flow_entry("s1", 2, "0.0.0.0/0", f"99.0.{third}.0/24", 1)
            )
        execution = EmulatedNetworkExecution(
            "emu", config, [("s1", 1, IPv4Address("9.9.9.9"), IPv4Address("10.0.0.1"))]
        )
        result = execution.materialize()
        reported_entries = [
            t for t in result.recorder.graph.live_tuples("flowEntry")
        ]
        assert len(reported_entries) <= 3  # only the entries actually used
        # Yet alive_during still sees the unused configuration.
        unused = model.flow_entry("s1", 2, "0.0.0.0/0", "99.0.7.0/24", 1)
        assert result.graph.alive_during(unused, 0)
