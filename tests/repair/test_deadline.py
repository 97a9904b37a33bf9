"""Deadline degradation: repair gives way, the diagnosis survives.

Rollback planning is strictly best-effort — when the incident budget
runs out mid-planning the report degrades to "diagnosis only": the
diagnosis conclusion stands, ``report.repair`` says why it is empty,
and the resilience section pins the expiry to the repair phase.
"""

from repro.api import Session
from repro.errors import DeadlineExceeded
from repro.resilience import Deadline


class _RepairBudget(Deadline):
    """A deadline that expires only when the repair phase asks.

    ``allow`` repair-phase checks pass before expiry, so tests can
    place the cut before planning starts or between verification
    replays.  All other phases always pass: the diagnosis itself
    finishes untouched.
    """

    def __init__(self, allow=0):
        super().__init__(3600.0)
        self.allow = allow
        self.repair_checks = 0

    def check(self, phase=""):
        if phase != "repair":
            return
        self.repair_checks += 1
        if self.repair_checks > self.allow:
            raise DeadlineExceeded(
                "repair budget exhausted", phase=phase
            )


def test_expiry_before_planning_degrades_to_diagnosis_only():
    budget = _RepairBudget(allow=0)
    with Session(scenario="SDN1", repair=True, deadline_s=budget) as session:
        report = session.diagnose()
    # The diagnosis conclusion is untouched...
    assert report.success
    assert report.changes
    # ...and the repair section records the degradation.
    assert report.repair == {
        "status": "deadline-exceeded",
        "probes": 0,
        "replays": 0,
        "plans": [],
        "rejected": [],
    }
    deadline = report.resilience["deadline"]
    assert deadline["expired"] is True
    assert deadline["expired_in"] == "repair"


def test_expiry_between_verifications_keeps_the_replay_count():
    # Three repair-phase checks pass: opening plan(), mid-prepare, and
    # the one ahead of the first verification.  The cut lands
    # before the second plan's replay.
    budget = _RepairBudget(allow=3)
    with Session(scenario="SDN1", repair=True, deadline_s=budget) as session:
        report = session.diagnose()
    assert report.success
    section = report.repair
    assert section["status"] == "deadline-exceeded"
    assert section["plans"] == []
    # pristine + reference + the one verification that completed.
    assert section["replays"] == 3
    assert report.resilience["deadline"]["expired_in"] == "repair"


def test_roomy_budget_leaves_planning_untouched():
    with Session(
        scenario="SDN1", repair=True, deadline_s=3600.0
    ) as session:
        report = session.diagnose()
    assert report.repair["status"] == "ok"
    assert report.resilience["deadline"]["expired"] is False
    assert "expired_in" not in report.resilience["deadline"]
