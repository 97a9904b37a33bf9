"""Rollback planning on SDN1: ranking, minimality, and the probe veto.

SDN1 is the paper's running example — the 4.3.2.0/24 flow entry that
should have been /23 — so the expected plan set is known exactly:

- rank 1: the minimal prefix widening (insert the /23 entry), edit
  size 1, blast radius 0 against the verified reference world;
- rejected [replace-stale]: widening *in place* (retire the /24 entry)
  retracts the deliveries the /24 entry already supported — the
  good-probe veto;
- rejected [delete-spurious]: removing the /24 entry alone leaves the
  bad packet falling through to the catch-all — the symptom persists.
"""

import pytest

from repro.api import Session
from repro.errors import ReproError
from repro.repair import (
    REJECT_PROBES,
    REJECT_SYMPTOM,
    RollbackPlan,
    RollbackPlanner,
)
from repro.replay import Change


@pytest.fixture(scope="module")
def sdn1_repair():
    with Session(scenario="SDN1") as session:
        report = session.repair()
        yield session, report


class TestSDN1Plans:
    def test_diagnosis_still_succeeds(self, sdn1_repair):
        _, report = sdn1_repair
        assert report.success
        assert report.repair["status"] == "ok"

    def test_top_plan_is_the_minimal_prefix_widening(self, sdn1_repair):
        _, report = sdn1_repair
        plans = report.repair["plans"]
        assert plans, "SDN1 must yield at least one verified plan"
        top = plans[0]
        assert top["rank"] == 1
        assert top["edit_size"] == 1
        assert top["blast_radius"] == 0
        assert top["symptom_gone"] is True
        assert top["good_probes_ok"] is True
        (step,) = top["steps"]
        assert "4.3.2.0/23" in step
        assert step.startswith("insert flowEntry")

    def test_good_probes_were_collected(self, sdn1_repair):
        _, report = sdn1_repair
        # 30 background packets plus the good delivery (and its DPI
        # mirror) give a healthy regression suite.
        assert report.repair["probes"] > 10

    def test_in_place_widening_is_vetoed_by_good_probes(self, sdn1_repair):
        _, report = sdn1_repair
        rejected = {
            entry["origin"]: entry for entry in report.repair["rejected"]
        }
        veto = rejected["replace-stale"]
        assert veto["reason"] == REJECT_PROBES
        assert veto["probes_failed"] > 0
        assert veto["failed_probes"]
        assert any("delivered" in probe for probe in veto["failed_probes"])

    def test_bare_deletion_leaves_the_symptom(self, sdn1_repair):
        _, report = sdn1_repair
        rejected = {
            entry["origin"]: entry for entry in report.repair["rejected"]
        }
        assert rejected["delete-spurious"]["reason"] == REJECT_SYMPTOM

    def test_replay_accounting_covers_prepare_and_every_plan(
        self, sdn1_repair
    ):
        _, report = sdn1_repair
        section = report.repair
        verified = len(section["plans"])
        rejected = len(section["rejected"])
        # pristine + reference + one replay per enumerated plan.
        assert section["replays"] == 2 + verified + rejected

    def test_summary_carries_the_ranked_plans(self, sdn1_repair):
        _, report = sdn1_repair
        text = report.summary()
        assert "repair: 1 verified plan(s)" in text
        assert "#1 [revert-to-reference]" in text
        assert "rejected [replace-stale]: breaks-good-probes" in text


class TestRepairIsOptIn:
    def test_diagnose_leaves_the_section_empty(self):
        with Session(scenario="SDN1") as session:
            report = session.diagnose()
        assert report.repair is None
        assert report.canonical_dict()["repair"] is None

    def test_per_call_override_attaches_plans(self):
        with Session(scenario="SDN1") as session:
            report = session.diagnose(repair=True)
            assert report.repair["status"] == "ok"
            # The override is per-call: the next diagnose is plain.
            again = session.diagnose()
            assert again.repair is None


class TestPlanModel:
    def test_a_plan_needs_at_least_one_step(self):
        with pytest.raises(ReproError):
            RollbackPlan([], "empty")

    def test_identity_rests_on_steps_not_origin(self):
        tup = Session(scenario="SDN1").diagnose().changes[0].insert
        a = RollbackPlan([Change(insert=tup)], "revert-to-reference")
        b = RollbackPlan([Change(insert=tup)], "insert-missing")
        assert a.key() == b.key()
        assert a.edit_size == b.edit_size == 1

    def test_touched_counts_inserts_and_removes(self):
        with Session(scenario="SDN1") as session:
            report = session.diagnose()
            tup = report.changes[0].insert
            planner = _planner(session, report)
            planner.prepare()
            (stale,) = planner.counterparts[tup]
        replace = RollbackPlan(
            [Change(insert=tup, remove=(stale,))], "replace-stale"
        )
        assert replace.touched == 2


def _planner(session, report, **kwargs):
    anchor = session.bad.log.index_of_insert(report.bad_seed)
    return RollbackPlanner(
        session.program,
        session.bad,
        good_event=session.good_event,
        bad_event=session.bad_event,
        changes=report.changes,
        anchor_index=anchor,
        **kwargs,
    )


class TestPlannerDirectly:
    def test_no_changes_short_circuits(self):
        with Session(scenario="SDN1") as session:
            report = session.diagnose()
            planner = _planner(session, report)
            planner.changes = []
            section = planner.plan()
        assert section == {
            "status": "no-changes",
            "probes": 0,
            "replays": 0,
            "plans": [],
            "rejected": [],
        }

    def test_enumeration_is_deduplicated(self):
        with Session(scenario="SDN1") as session:
            report = session.diagnose()
            planner = _planner(session, report)
            plans = planner.enumerate()
        keys = [plan.key() for plan in plans]
        assert len(keys) == len(set(keys))
        assert plans[0].origin == "revert-to-reference"

    def test_removing_the_catch_all_breaks_good_probes(self):
        """The veto on a hand-built plan: drop the priority-1 fallback.

        Without the catch-all, the bad packet is no longer delivered
        anywhere (symptom gone!) — but every background delivery the
        fallback carried is retracted with it.  Exactly the plan shape
        the regression suite exists to kill.
        """
        with Session(scenario="SDN1") as session:
            report = session.diagnose()
            planner = _planner(session, report)
            planner.prepare()
            store = session.bad.replay().engine.store
            catch_all = [
                tup
                for tup in store.tuples_matching("flowEntry", 0, "s2")
                if tup.args[1] == 1
            ]
            assert catch_all, "SDN1 should have the priority-1 fallback"
            plan = RollbackPlan(
                [Change(remove=(catch_all[0],))], "hand-built"
            )
            verdict = planner.verify(plan)
        assert verdict["symptom_gone"] is True
        assert verdict["probes_failed"] > 0

    def test_degraded_diagnosis_skips_planning(self):
        # SDN1-F diagnoses under a fault plan; a degraded Δ is not a
        # trustworthy basis for fix plans.
        with Session(scenario="SDN1-F", repair=True) as session:
            report = session.diagnose()
        if report.success and report.degraded:
            assert report.repair["status"] == "skipped-degraded"
            assert report.repair["plans"] == []
