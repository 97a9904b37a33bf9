"""Tests for the end-to-end diagnosis deadline."""

import pytest

from repro.api import Session
from repro.errors import DeadlineExceeded
from repro.resilience import Deadline


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestDeadline:
    def test_counts_down_on_the_injected_clock(self):
        clock = FakeClock()
        deadline = Deadline(10.0, clock=clock)
        assert deadline.remaining() == pytest.approx(10.0)
        assert not deadline.expired
        clock.now += 9.0
        deadline.check("anywhere")  # still within budget
        clock.now += 1.5
        assert deadline.expired
        assert deadline.remaining() == pytest.approx(-0.5)

    def test_check_raises_a_typed_error_with_the_phase(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.now += 2.0
        with pytest.raises(DeadlineExceeded, match="engine.run") as info:
            deadline.check("engine.run")
        assert info.value.phase == "engine.run"

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(-1.0)

    def test_of_normalizes_every_options_spelling(self):
        assert Deadline.of(None) is None
        existing = Deadline(5.0)
        assert Deadline.of(existing) is existing
        fresh = Deadline.of(2.5)
        assert isinstance(fresh, Deadline)
        assert fresh.seconds == 2.5

    def test_of_clamps_an_already_spent_budget_to_zero(self):
        # A queue wait can eat the whole request budget before the
        # diagnosis starts; that must arrive as "already expired", not
        # as a ValueError from the constructor.
        spent = Deadline.of(-5.0)
        assert spent.seconds == 0.0
        assert spent.expired

    def test_timeout_is_the_clamped_form_of_remaining(self):
        clock = FakeClock()
        deadline = Deadline(10.0, clock=clock)
        assert deadline.timeout() == pytest.approx(10.0)
        clock.now += 12.0  # two seconds past expiry
        assert deadline.remaining() == pytest.approx(-2.0)
        # Never hand a negative timeout to a wait/selector call.
        assert deadline.timeout() == 0.0
        assert deadline.timeout(0.25) == 0.25


class TestDiagnosisUnderDeadline:
    def test_generous_budget_leaves_the_report_untouched(self):
        base = Session(scenario="SDN1", minimize=True).diagnose()
        timed = Session(scenario="SDN1", minimize=True,
                        deadline_s=120.0).diagnose()
        assert timed.canonical_json() == base.canonical_json()
        section = timed.resilience["deadline"]
        assert section["seconds"] == 120.0
        assert not section["expired"]

    def test_zero_budget_degrades_to_a_deadline_failure(self):
        report = Session(scenario="SDN1", minimize=True,
                         deadline_s=0.0).diagnose()
        assert not report.success
        assert report.failure_category == "deadline-exceeded"
        assert report.resilience["deadline"]["expired"]

    def test_autoref_sweep_stops_early_on_expiry(self):
        result = Session(scenario="SDN1", deadline_s=0.0).autoref(limit=5)
        assert not result.found
        assert result.stopped_early

    def test_expired_budget_entering_a_candidate_wave_degrades(self):
        # A *negative* budget reaching the candidate sweep must behave
        # exactly like a zero budget — stop the sweep, keep the partial
        # result.
        result = Session(scenario="DNS", deadline_s=-5.0).autoref(limit=5)
        assert not result.found
        assert result.stopped_early
        assert result.resilience["deadline"]["expired"] is True

    def test_negative_budget_degrades_diagnose_like_zero(self):
        report = Session(scenario="SDN1", minimize=True,
                         deadline_s=-1.0).diagnose()
        assert not report.success
        assert report.failure_category == "deadline-exceeded"
        assert report.resilience["deadline"]["expired"]
