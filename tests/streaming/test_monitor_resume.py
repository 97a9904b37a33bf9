"""SIGKILL mid-stream, resume, byte-identical record sequence.

The monitor journals every record write-ahead; a resumed monitor over
the same replayable stream re-emits the already-diagnosed records from
the journal (their replays are skipped) and continues fresh — and the
full sequence must be byte-identical to an uninterrupted run.
"""

import json

import pytest

from repro.api import Session

from ..crash import kill_when_journaled, run_child

FLAPS = 12
HOLD_AFTER = 3
MONITOR = {"scenario": "FLAP-S", "op": "monitor",
           "knobs": {"scenario_params": {"flaps": FLAPS}}}


def _canon(records):
    return json.dumps(records, sort_keys=True)


@pytest.fixture(scope="module")
def baseline():
    with Session("FLAP-S", scenario_params={"flaps": FLAPS}) as session:
        return session.monitor().records


def _kill_once_held(journal, out):
    # Count record entries only: the start entry's fingerprint also
    # says "kind":"monitor".
    kill_when_journaled(journal, out, MONITOR, '"type":"verdict"', HOLD_AFTER,
                        REPRO_TEST_HOLD_AFTER_VERDICTS=HOLD_AFTER)


def test_sigkill_then_resume_re_emits_identical_records(tmp_path, baseline):
    journal = str(tmp_path / "monitor.journal")
    out = str(tmp_path / "records.json")

    _kill_once_held(journal, out)

    payload = run_child(journal, out, MONITOR)
    assert _canon(payload["records"]) == _canon(baseline)
    # The already-diagnosed records came from the journal, not replays.
    assert payload["summary"]["resumed_records"] == HOLD_AFTER
    assert payload["summary"]["diagnoses"] == FLAPS - HOLD_AFTER


def test_uninterrupted_journaled_run_matches_baseline(tmp_path, baseline):
    journal = str(tmp_path / "monitor.journal")
    out = str(tmp_path / "records.json")
    payload = run_child(journal, out, MONITOR)
    assert _canon(payload["records"]) == _canon(baseline)
    assert payload["summary"]["resumed_records"] == 0


def test_resume_under_different_transport_noise(tmp_path, baseline):
    """A resumed monitor may see a differently perturbed feed.

    The journal fingerprint binds the *unperturbed* stream, so a
    resume whose transport reorders/duplicates differently still
    matches — and (within the lateness bound) still re-emits the same
    records.
    """
    journal = str(tmp_path / "monitor.journal")
    out = str(tmp_path / "records.json")

    _kill_once_held(journal, out)

    with Session(
        "FLAP-S",
        scenario_params={"flaps": FLAPS},
        faults="event-dup=0.2,event-reorder=0.3,seed=7",
        journal=journal,
        resume=True,
    ) as session:
        monitor = session.monitor()
    assert _canon(monitor.records) == _canon(baseline)
    assert monitor.resumed_records == HOLD_AFTER
