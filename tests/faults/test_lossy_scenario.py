"""Integration: DiffProv under lossy provenance still finds the bug.

The acceptance bar from the robustness issue: at 10% provenance loss
(plus fallible fetches) the SDN1 diagnosis must come back degraded but
correct — no uncaught exception, the broken flow entry localized, and
the retries/timeouts visible in the distributed query stats.
"""

import json

import pytest

from repro.cli import main
from repro.scenarios import ALL_SCENARIOS

ROOT_CAUSE = "4.3.2.0/23"


def lossy_scenario(seed, loss="0.1"):
    return ALL_SCENARIOS["SDN1-F"](
        background_packets=8,
        faults=f"loss={loss},fetch-loss=0.15,retries=3,seed={seed}",
    )


class TestLossyDiagnosis:
    def test_default_plan_localizes_the_root_cause(self):
        report = ALL_SCENARIOS["SDN1-F"]().diagnose()
        assert report.success
        assert report.degraded
        assert any(ROOT_CAUSE in c.describe() for c in report.changes)
        assert report.lost_events > 0
        # Retry/timeout accounting from the fallible fetches is visible.
        stats = report.distributed_stats
        assert set(stats) == {"good", "bad"}
        assert sum(s.fetch_attempts for s in stats.values()) > 0
        assert sum(s.timeouts + s.retries for s in stats.values()) > 0

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_ten_percent_loss_across_seeds(self, seed):
        report = lossy_scenario(seed).diagnose()
        assert report.success, report.summary()
        assert report.degraded
        assert any(ROOT_CAUSE in c.describe() for c in report.changes)

    def test_confidence_is_likely_under_degradation(self):
        report = lossy_scenario(seed=3).diagnose()
        candidates = report.candidates()
        assert candidates
        change, confidence = candidates[0]
        assert ROOT_CAUSE in change.describe()
        assert confidence == "likely"

    def test_summary_reports_the_degradation(self):
        text = lossy_scenario(seed=3).diagnose().summary()
        assert "DEGRADED" in text
        assert "recovered by replaying the event log" in text
        assert "distributed[" in text

    def test_diagnosis_is_repeatable(self):
        first = lossy_scenario(seed=7).diagnose()
        second = lossy_scenario(seed=7).diagnose()
        assert first.changes == second.changes
        assert first.lost_events == second.lost_events
        assert first.summary() == second.summary()

    def test_unreachable_interior_node_does_not_crash(self):
        # s3 is on the bad packet's path; the bad tree loses subtrees
        # but the diagnosis must return a typed report, not raise.
        scenario = ALL_SCENARIOS["SDN1"](
            background_packets=8, faults="unreachable=s3"
        )
        report = scenario.diagnose()
        assert report is not None
        if report.success:
            assert any(ROOT_CAUSE in c.describe() for c in report.changes)
        else:
            assert report.failure_category is not None


def sweep_scenario(rate):
    """SDN1-F with both loss knobs at ``rate`` (the loss-rate sweep)."""
    return ALL_SCENARIOS["SDN1-F"](
        background_packets=20,
        faults=f"loss={rate:g},fetch-loss={rate:g},retries=3,timeout=1,seed=7",
    )


def coverage(report):
    return min(s.fetched_fraction for s in report.distributed_stats.values())


@pytest.fixture(scope="module")
def fault_free_sweep_report():
    return sweep_scenario(0.0).diagnose()


class TestLossRateSweep:
    """Graceful degradation across loss rates, counted not timed:
    coverage held by retries and log recovery, retry work bounded by
    the plan instead of by a turnaround ratio."""

    RETRIES = 3

    def test_fault_free_run_is_clean(self, fault_free_sweep_report):
        report = fault_free_sweep_report
        assert report.success
        assert any(ROOT_CAUSE in c.describe() for c in report.changes)
        assert not report.degraded and report.lost_events == 0
        stats = report.distributed_stats.values()
        assert sum(s.timeouts for s in stats) == 0
        assert sum(s.retries for s in stats) == 0
        assert 0 < coverage(report) <= 1.0

    @pytest.mark.parametrize("rate", [0.01, 0.05, 0.10])
    def test_lossy_run_degrades_but_localizes(self, rate,
                                              fault_free_sweep_report):
        report = sweep_scenario(rate).diagnose()
        assert report.success, report.summary()
        assert any(ROOT_CAUSE in c.describe() for c in report.changes)
        # Nonzero loss is detected and surfaced, not silently absorbed.
        assert report.degraded
        assert report.lost_events > 0
        assert coverage(report) >= 0.5 * coverage(fault_free_sweep_report)
        # Recovery re-replays each execution at most once, however many
        # events were lost.
        assert report.replays <= fault_free_sweep_report.replays + 2
        for side, stats in report.distributed_stats.items():
            # Every fetch that crossed the network tried at most
            # 1 + retries times; a failed fetch tried exactly that many.
            fetches = stats.cross_node_fetches + stats.failed_fetches
            assert stats.fetch_attempts <= (self.RETRIES + 1) * fetches, side
            assert stats.retries <= self.RETRIES * fetches, side
            assert (self.RETRIES + 1) * stats.failed_fetches \
                <= stats.fetch_attempts, side


class TestFaultsFlag:
    def test_cli_diagnose_with_faults(self, capsys):
        assert (
            main(
                [
                    "--json",
                    "diagnose",
                    "SDN1",
                    "--faults",
                    "loss=0.1,fetch-loss=0.15,retries=3,seed=3",
                ]
            )
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["success"]
        assert data["degraded"]
        assert data["faults"].startswith("seed=3")
        assert data["lost_events"] > 0
        assert set(data["distributed"]) == {"bad", "good"}
        assert data["confidences"] == ["likely"]

    def test_cli_zero_plan_emits_no_fault_keys(self, capsys):
        assert main(["--json", "diagnose", "SDN2", "--faults", "seed=5"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["success"]
        assert "degraded" not in data
        assert "faults" not in data

    def test_cli_rejects_bad_spec(self, capsys):
        assert main(["diagnose", "SDN1", "--faults", "drop=fast"]) == 2
        err = capsys.readouterr().err
        assert "drop=fast" in err
