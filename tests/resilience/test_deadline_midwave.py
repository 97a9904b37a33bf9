"""Deadline expiry in the middle of a parallel candidate wave.

Both wave-based pool consumers — the autoref candidate sweep and the
minimality post-pass — block on ``CandidateEvaluator.evaluate`` for a
whole wave at a time, so the realistic expiry shape is: a wave runs to
completion on the pool, and only the *next* deadline check sees the
overrun.  These tests pin down what must happen then: the work already
done is kept, the run degrades to a partial result instead of raising,
and the expiry is reported in the resilience section
(docs/resilience.md).

The fixtures drive a fake clock that leaps forward only after a real
pool wave returns, so the budget always dies mid-sweep, never before
the pool was touched.
"""

import pytest

from repro.api import Session
from repro.replay.parallel import CandidateEvaluator
from repro.resilience import Deadline


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture
def wave_burns_budget(monkeypatch):
    """Make each pool wave cost two virtual minutes on a fake clock.

    The wave itself runs for real (on the real process pool); the
    injected clock advances only after it returns, so the expiry is
    seen by the *next* between-wave deadline check — exactly the
    mid-candidate-wave shape.
    """
    clock = FakeClock()
    real_evaluate = CandidateEvaluator.evaluate

    def expiring_evaluate(self, func, shared, count):
        results = real_evaluate(self, func, shared, count)
        clock.t += 120.0
        return results

    monkeypatch.setattr(CandidateEvaluator, "evaluate", expiring_evaluate)
    return clock


@pytest.fixture
def wave_burns_budget_then_degrades(monkeypatch):
    """Run one real pool wave, burn the budget, then force the serial
    fallback.

    After the wave completes (and the clock has leapt), the patched
    evaluator reports its results as unusable — the same signal an
    unpicklable context sends — so the candidate sweep
    (``RunContext.sweep``) evaluates the remaining trials inline, where
    the replay's own budget check or the sweep's next per-candidate
    ``check("minimize")`` is what must observe the expiry.  (Every
    built-in scenario's minimize finishes in a single wave, so without
    the handoff no later check would ever run.)
    """
    clock = FakeClock()
    real_evaluate = CandidateEvaluator.evaluate

    def wasted_evaluate(self, func, shared, count):
        real_evaluate(self, func, shared, count)
        clock.t += 120.0
        return None

    monkeypatch.setattr(CandidateEvaluator, "evaluate", wasted_evaluate)
    return clock


def test_deadline_mid_wave_stops_autoref_sweep(wave_burns_budget):
    # DNS proposes 10 candidates and only accepts the fifth, so with
    # two workers the sweep needs three waves; 60s of budget dies
    # during the first.  The between-wave check must stop the sweep —
    # keeping the wave already evaluated — not raise.
    session = Session(
        scenario="DNS", workers=2,
        deadline_s=Deadline(60.0, clock=wave_burns_budget),
    )
    result = session.autoref(limit=10)

    assert result.stopped_early is True
    assert result.found is False and result.report is None
    # Exactly the first wave was evaluated before the budget died.
    assert len(result.tried) == 2
    deadline = result.resilience["deadline"]
    assert deadline["expired"] is True
    assert result.resilience["stopped_early"] is True

    # The partial sweep is a prefix of the full one: ranking (and
    # therefore what a retry would redo) is deterministic.
    full = Session(scenario="DNS").autoref(limit=10)
    assert [str(c.event) for c in result.tried] == [
        str(c.event) for c in full.tried[:2]
    ]


def test_deadline_mid_wave_degrades_to_partial_minimize(
    wave_burns_budget_then_degrades,
):
    # SDN4 reaches minimize with two changes in flight, i.e. a real
    # multi-job wave; 60s of budget dies during it.
    session = Session(
        scenario="SDN4", minimize=True, workers=2,
        deadline_s=Deadline(60.0, clock=wave_burns_budget_then_degrades),
    )
    report = session.diagnose()

    # The diagnosis still succeeds — with the Δ as minimized so far.
    assert report.success
    assert report.changes
    deadline = report.resilience["deadline"]
    assert deadline["expired"] is True
    assert deadline["expired_in"] == "minimize"
    assert report.failure_category is None


def test_partial_minimize_keeps_a_verified_superset(
    wave_burns_budget_then_degrades,
):
    """The degraded Δ contains everything the full minimize keeps."""
    full = Session(scenario="SDN4", minimize=True).diagnose()

    degraded = Session(
        scenario="SDN4", minimize=True, workers=2,
        deadline_s=Deadline(60.0, clock=wave_burns_budget_then_degrades),
    ).diagnose()

    full_described = {change.describe() for change in full.changes}
    degraded_described = {change.describe() for change in degraded.changes}
    assert full_described <= degraded_described
    assert len(degraded.changes) >= len(full.changes)


def test_generous_deadline_stays_byte_identical(wave_burns_budget):
    """A budget the waves never exhaust must not perturb the report."""
    baseline = Session(scenario="SDN4", minimize=True, workers=2).diagnose()
    budgeted = Session(
        scenario="SDN4", minimize=True, workers=2,
        deadline_s=Deadline(100_000.0, clock=wave_burns_budget),
    ).diagnose()
    assert budgeted.canonical_json() == baseline.canonical_json()
