"""Integration test: the Section 6.7 complex-network scenario.

Its canonical reports, across backends and repeated calls, are rows of
the contract matrix (tests/contract, "Stanford-SMALL")."""

import gc

import pytest

from repro.addresses import Prefix
from repro.core.diffprov import _DiagnosisState
from repro.scenarios import stanford
from repro.scenarios.stanford import (
    StanfordForwardingError,
    build_stanford_config,
    collector_paused,
    stanford_topology,
)
from repro.sdn.emulation import _ConfigStoreView
from repro.sdn.flowtable import FlowTable

from ..contract.registry import STANFORD_SMALL as SMALL

# The SMALL build's event log.  Its order (``order_key``, one flat
# string that must sort exactly as the nested ``(type name, str)``
# pairs it replaced) and its size model (``estimate_size``,
# ``IPv4Address.__str__``) are part of every replay-cache key and
# report; a drift in either shows up here first.
SMALL_LOG_FINGERPRINT = (
    "2714a7023f3e12a1c95da56f0769ae7356a93b951027cfe3c6adc10b14c5eef6"
)
SMALL_LOG_LENGTH = 2362
SMALL_LOG_BYTES = 119014


@pytest.fixture(scope="module")
def scenario():
    return StanfordForwardingError(**SMALL).setup()


class TestTopologyGeneration:
    def test_sixteen_routers(self):
        topo = stanford_topology()
        assert len(topo.switches()) == 16
        assert len([s for s in topo.switches() if s.startswith("oz")]) == 14

    def test_every_zone_reaches_both_backbones(self):
        topo = stanford_topology()
        for index in range(1, 15):
            neighbors = topo.neighbors(f"oz{index}")
            assert "bb1" in neighbors and "bb2" in neighbors

    def test_config_scales_with_parameters(self):
        _, small, _ = build_stanford_config(entries_per_router=50, acl_rules=16)
        _, large, _ = build_stanford_config(entries_per_router=200, acl_rules=16)
        assert large.total_entries() > small.total_entries()

    def test_twenty_one_faults_injected(self):
        _, _, faults = build_stanford_config(entries_per_router=50, acl_rules=16)
        assert len(faults) == 21  # the real one + 20 decoys

    def test_faults_cover_on_and_off_path_routers(self):
        _, _, faults = build_stanford_config(entries_per_router=50, acl_rules=16)
        switches = {fault.args[0] for fault in faults[1:]}
        assert switches & {"oz1", "bb1", "oz2"}
        assert switches - {"oz1", "bb1", "oz2"}


def test_the_log_is_pinned(scenario):
    log = scenario.good_execution.log
    assert log.fingerprint() == SMALL_LOG_FINGERPRINT
    assert len(log) == SMALL_LOG_LENGTH
    assert log.total_bytes == SMALL_LOG_BYTES


class TestSortKeysStayUncached:
    """Sorting the flow tables once for the log caches no key on them.

    A cached ``sort_key`` is a string as long as the entry's text, kept
    for the entry's lifetime; at 449k entries the nested key it
    replaced was half the build's peak memory.  Only the entries a
    search ranks keep one.
    """

    def test_setup_caches_no_sort_key(self):
        built = StanfordForwardingError(**SMALL).setup()
        entries = built.config.flow_entries()
        assert [e for e in entries if e._sort_key is not None] == []

    def test_compiled_diagnosis_keys_only_what_it_touched(self):
        built = StanfordForwardingError(**SMALL).setup()
        assert built.diagnose().success
        entries = built.config.flow_entries()
        keyed = [e for e in entries if e._sort_key is not None]
        assert 0 < len(keyed) < 0.05 * len(entries)


class TestCollectorPause:
    """The bulk build runs with the cyclic collector off, then puts the
    caller's collector back and collects once."""

    def test_restores_a_disabled_collector(self):
        gc.disable()
        try:
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_restores_the_collector_when_the_build_raises(self, monkeypatch):
        def broken(**params):
            assert not gc.isenabled()
            raise RuntimeError("build failed")

        monkeypatch.setattr(stanford, "build_stanford_config", broken)
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="build failed"):
            StanfordForwardingError(**SMALL).setup()
        assert gc.isenabled()

    def test_setup_leaves_the_collector_as_found(self):
        threshold = gc.get_threshold()
        gc.set_threshold(500, 7, 9)
        try:
            StanfordForwardingError(**SMALL).setup()
            assert gc.isenabled()
            assert gc.get_threshold() == (500, 7, 9)
        finally:
            gc.set_threshold(*threshold)

    def test_setup_runs_one_full_collection_and_no_other(self):
        # No pass of any generation inside the pause; the closing
        # collect is the one full collection.
        generations = []

        def record(phase, info):
            if phase == "start":
                generations.append(info["generation"])

        gc.collect()  # nothing pending before the build starts
        gc.callbacks.append(record)
        try:
            StanfordForwardingError(**SMALL).setup()
        finally:
            gc.callbacks.remove(record)
        assert generations == [2]


class TestDiagnosis:
    def test_symptom(self, scenario):
        # The bad packet is dropped at oz2; the reference is delivered.
        result = scenario.good_execution.materialize()
        assert result.alive(scenario.good_event)
        assert result.alive(scenario.bad_event)

    def test_root_cause_found_despite_noise(self, scenario):
        report = scenario.diagnose()
        assert report.success
        assert report.num_changes == 1
        (removed,) = report.changes[0].remove
        assert removed == scenario.expected_fault
        assert removed.args[3] == Prefix("172.20.10.32/27")

    def test_no_decoy_faults_in_diagnosis(self, scenario):
        report = scenario.diagnose()
        touched = set()
        for change in report.changes:
            touched.update(change.remove)
            if change.insert is not None:
                touched.add(change.insert)
        decoys = set(scenario.faults[1:])
        assert not (touched & decoys)

    def test_trees_are_small_but_diff_is_larger(self, scenario):
        good, bad = scenario.trees()
        assert good.size() < 120 and bad.size() < 120
        assert scenario.plain_diff_size() > max(good.size(), bad.size())

    def test_seed_types_are_packets(self, scenario):
        report = scenario.diagnose()
        assert report.good_seed.table == "packet"
        assert report.bad_seed.table == "packet"


def _spy(monkeypatch, owner, name):
    """Record every return value of ``owner.name``."""
    seen = []
    original = getattr(owner, name)

    def spied(self, *args):
        seen.append(original(self, *args))
        return seen[-1]

    monkeypatch.setattr(owner, name, spied)
    return seen


class TestCandidateSearchCost:
    """Blocker searches rank only the flow entries covering the packet.

    Counts, not a stopwatch: a search that lists the switch's whole
    flow table and runs the ``fwd`` rule's conditions on every entry is
    what made the 757k-entry diagnosis pay for the configuration.
    """

    def test_warm_diagnosis_lists_no_flow_table(self, scenario, monkeypatch):
        scenario.diagnose()  # warm: both executions materialized
        listed = _spy(monkeypatch, FlowTable, "entries")
        assert scenario.diagnose().success
        assert listed == []

    def test_conditions_run_once_per_covering_entry(
        self, scenario, monkeypatch
    ):
        searches = []  # [covering entries, table entries, evaluations]
        cover = _ConfigStoreView.tuples_covering
        holds = _DiagnosisState._conditions_hold

        def counted_cover(self, table, location, position, address):
            found = cover(self, table, location, position, address)
            if found is not None:  # None: the source-prefix condition
                table_size = len(self.config.tables[location])
                searches.append([len(found), table_size, 0])
            return found

        def counted_holds(self, rule, env):
            searches[-1][2] += 1
            return holds(self, rule, env)

        monkeypatch.setattr(_ConfigStoreView, "tuples_covering", counted_cover)
        monkeypatch.setattr(_DiagnosisState, "_conditions_hold", counted_holds)
        assert scenario.diagnose().success
        assert searches
        for covering, entries, evaluated in searches:
            assert covering < entries
            assert evaluated <= covering + 1  # + the expected child

    def test_reference_backend_scans_the_full_bucket(self, monkeypatch):
        reference = StanfordForwardingError(engine="reference", **SMALL).setup()
        answers = _spy(monkeypatch, _ConfigStoreView, "tuples_covering")
        evaluated = _spy(monkeypatch, _DiagnosisState, "_conditions_hold")
        assert reference.diagnose().success
        assert answers and set(answers) == {None}
        assert len(evaluated) >= len(reference.config.tables["oz2"])
