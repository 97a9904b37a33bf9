"""Session.diagnose under every fault kind, serial and parallel.

Two properties hold across the whole FaultPlan surface:

- the diagnosis *completes* — success or a typed failure category,
  never an unhandled crash; and
- ``workers=2`` is byte-identical to ``workers=1`` (the determinism
  contract survives injected faults).

Host faults (worker-crash, snapshot-corrupt) additionally leave the
report byte-identical to the fault-free run: they hit the diagnoser's
own machinery, which heals, not the diagnosed network.
"""

import pytest

from repro.api import Session
from repro.core.report import FAILURE_CATEGORIES
from repro.faults import FaultPlan

NETWORK_SPECS = [
    "drop=0.05,seed=7",
    "dup=0.05,seed=7",
    "reorder=0.05,seed=7",
    "delay=0.2,delay-steps=2,seed=7",
    "loss=0.1,seed=7",
    "fetch-loss=0.15,seed=7",
    "link-loss=0.1,seed=7",
    "flap=s2:*:0:2,seed=7",
    "crash=s2:0:2,seed=7",
]

HOST_SPECS = [
    "worker-crash=1.0,seed=7",
    "snapshot-corrupt=1.0,seed=7",
    "worker-crash=0.5,snapshot-corrupt=0.5,seed=7",
]


def _diagnose(spec, workers):
    return Session(
        scenario="SDN1", minimize=True, workers=workers, faults=spec
    ).diagnose()


@pytest.fixture(scope="module")
def baseline():
    return Session(scenario="SDN1", minimize=True).diagnose()


class TestNetworkFaults:
    @pytest.mark.parametrize("spec", NETWORK_SPECS)
    def test_completes_and_is_worker_invariant(self, spec):
        serial = _diagnose(spec, workers=1)
        parallel = _diagnose(spec, workers=2)
        for report in (serial, parallel):
            assert report.success or (
                report.failure_category in FAILURE_CATEGORIES
            )
        assert serial.canonical_json() == parallel.canonical_json()


class TestHostFaults:
    @pytest.mark.parametrize("spec", HOST_SPECS)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_heals_to_the_fault_free_report(self, baseline, spec, workers):
        report = _diagnose(spec, workers)
        assert report.success
        assert report.canonical_json() == baseline.canonical_json()

    def test_host_faults_do_not_count_as_network_degradation(self):
        plan = FaultPlan.parse("worker-crash=0.5,snapshot-corrupt=0.5,seed=7")
        assert plan.host_only()
        assert not plan.is_zero()
        report = _diagnose("worker-crash=0.5,snapshot-corrupt=0.5,seed=7", 2)
        assert not report.degraded

    def test_pool_restarts_are_visible_in_report_and_metrics(self):
        # SDN4's minimality post-pass carries several changes, so the
        # pooled evaluator actually runs (SDN1 has a single candidate,
        # which goes inline).
        from repro.observability import Telemetry

        base = Session(scenario="SDN4", minimize=True).diagnose()
        telemetry = Telemetry()
        report = Session(
            scenario="SDN4", minimize=True, workers=2,
            faults="worker-crash=1.0,seed=3", telemetry=telemetry,
        ).diagnose()
        assert report.success
        assert report.canonical_json() == base.canonical_json()
        assert report.resilience["evaluator"]["pool_restarts"] >= 1
        counters = telemetry.snapshot()["counters"]
        assert counters.get("parallel.pool_restarts", 0) >= 1

    def test_snapshot_corruption_is_visible_in_the_report(self, baseline):
        # Snapshots only exist in a cache that outlives one diagnosis:
        # the first Session stores a damaged prefix, the second seeds
        # its replay base from it — a quarantined miss, then re-derived.
        from repro.replay import ReplayCache

        cache = ReplayCache()
        for _ in range(2):
            with Session(scenario="SDN1", minimize=True, cache=cache,
                         faults="snapshot-corrupt=1.0,seed=7") as session:
                report = session.diagnose()
            assert report.canonical_json() == baseline.canonical_json()
        section = (report.resilience or {}).get("cache")
        assert section is not None and section["corrupt"] >= 1

    def test_host_faults_round_trip_through_the_spec_parser(self):
        plan = FaultPlan.parse("worker-crash=0.25,snapshot-corrupt=0.5,seed=9")
        assert plan.worker_crash == 0.25
        assert plan.snapshot_corrupt == 0.5
        assert FaultPlan.parse(plan.describe()).describe() == plan.describe()
