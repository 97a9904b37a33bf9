"""Deadline expiry in the middle of a candidate sweep.

Both sweep consumers — the autoref reference search and the minimality
post-pass — check the budget before each candidate
(``RunContext.sweep``), so the realistic expiry shape is: a candidate
runs to completion, and only the *next* check sees the overrun.  These
tests pin down what must happen then: the work already done is kept,
the run degrades to a partial result instead of raising, and the expiry
is reported in the resilience section (docs/resilience.md).

The fixture drives a fake clock that leaps forward only after a real
candidate evaluation returns, so the budget always dies between
candidates, never before the first one ran.
"""

import pytest

import repro.core.autoref
import repro.core.diffprov
from repro.api import Session
from repro.resilience import Deadline


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture
def candidate_burns_budget(monkeypatch):
    """Make each candidate cost 25 virtual seconds on a fake clock.

    The candidate itself is evaluated for real; the injected clock
    advances only after its probe returns, so the expiry is seen by the
    sweep's *next* per-candidate deadline check.
    """
    clock = FakeClock()

    def burning(probe):
        def wrapped(shared, index):
            verdict = probe(shared, index)
            clock.t += 25.0
            return verdict
        return wrapped

    for module, name in (
        (repro.core.autoref, "_probe_reference"),
        (repro.core.diffprov, "_probe_minimize_trial"),
    ):
        monkeypatch.setattr(module, name, burning(getattr(module, name)))
    return clock


def test_deadline_mid_wave_stops_autoref_sweep(candidate_burns_budget):
    # DNS proposes 10 candidates and only accepts the fifth; 60s of
    # budget covers three (checks at 0, 25 and 50s pass, 75s does not).
    # The check must stop the sweep — keeping the candidates already
    # evaluated — not raise.
    session = Session(
        scenario="DNS",
        deadline_s=Deadline(60.0, clock=candidate_burns_budget),
    )
    result = session.autoref(limit=10)

    assert result.stopped_early is True
    assert result.found is False and result.report is None
    assert len(result.tried) == 3
    deadline = result.resilience["deadline"]
    assert deadline["expired"] is True
    assert result.resilience["stopped_early"] is True

    # The partial sweep is a prefix of the full one: ranking (and
    # therefore what a retry would redo) is deterministic.
    full = Session(scenario="DNS").autoref(limit=10)
    assert [str(c.event) for c in result.tried] == [
        str(c.event) for c in full.tried[:3]
    ]


def test_deadline_mid_wave_degrades_to_partial_minimize(
    candidate_burns_budget,
):
    # SDN4 reaches minimize with two changes in flight, i.e. several
    # trials; 20s of budget dies after the first.
    session = Session(
        scenario="SDN4", minimize=True,
        deadline_s=Deadline(20.0, clock=candidate_burns_budget),
    )
    report = session.diagnose()

    # The diagnosis still succeeds — with the Δ as minimized so far.
    assert report.success
    assert report.changes
    deadline = report.resilience["deadline"]
    assert deadline["expired"] is True
    assert deadline["expired_in"] == "minimize"
    assert report.failure_category is None


def test_partial_minimize_keeps_a_verified_superset(candidate_burns_budget):
    """The degraded Δ contains everything the full minimize keeps."""
    full = Session(scenario="SDN4", minimize=True).diagnose()

    degraded = Session(
        scenario="SDN4", minimize=True,
        deadline_s=Deadline(20.0, clock=candidate_burns_budget),
    ).diagnose()

    full_described = {change.describe() for change in full.changes}
    degraded_described = {change.describe() for change in degraded.changes}
    assert full_described <= degraded_described
    assert len(degraded.changes) >= len(full.changes)


def test_generous_deadline_stays_byte_identical(candidate_burns_budget):
    """A budget the candidates never exhaust must not perturb the report."""
    baseline = Session(scenario="SDN4", minimize=True).diagnose()
    budgeted = Session(
        scenario="SDN4", minimize=True,
        deadline_s=Deadline(100_000.0, clock=candidate_burns_budget),
    ).diagnose()
    assert budgeted.canonical_json() == baseline.canonical_json()
