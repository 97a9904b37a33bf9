"""Session.diagnose under every fault kind.

Two properties hold across the whole FaultPlan surface:

- the diagnosis *completes* — success or a typed failure category,
  never an unhandled crash; and
- a second run under the same seeded plan is byte-identical (the
  determinism contract survives injected faults).

The host fault (snapshot-corrupt) additionally leaves the report
byte-identical to the fault-free run: it hits the diagnoser's own
cache, which heals, not the diagnosed network.
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

HOST_SPEC = "snapshot-corrupt=0.5,seed=7"


def _diagnose(spec):
    return Session(scenario="SDN1", minimize=True, faults=spec).diagnose()


@pytest.fixture(scope="module")
def baseline():
    return Session(scenario="SDN1", minimize=True).diagnose()


class TestNetworkFaults:
    @pytest.mark.parametrize("spec", NETWORK_SPECS)
    def test_completes_and_is_deterministic(self, spec):
        first = _diagnose(spec)
        second = _diagnose(spec)
        for report in (first, second):
            assert report.success or (
                report.failure_category in FAILURE_CATEGORIES
            )
        assert first.canonical_json() == second.canonical_json()


class TestHostFaults:
    def test_heals_to_the_fault_free_report(self, baseline):
        report = _diagnose(HOST_SPEC)
        assert report.success
        assert report.canonical_json() == baseline.canonical_json()

    def test_host_faults_do_not_count_as_network_degradation(self):
        plan = FaultPlan.parse(HOST_SPEC)
        assert plan.host_only()
        assert not plan.is_zero()
        report = _diagnose(HOST_SPEC)
        assert not report.degraded
        assert report.confidences is None

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
        plan = FaultPlan.parse("snapshot-corrupt=0.5,seed=9")
        assert plan.snapshot_corrupt == 0.5
        assert FaultPlan.parse(plan.describe()).describe() == plan.describe()
