"""SIGKILL mid-repair, resume from the journal, byte-identical plans.

Repair rides the same journal contract as the search itself: plan
verdicts are durable (kind ``"repair"``), the phase boundary is marked
(``"name":"repair"``), and a resumed run replays recorded verdicts
instead of re-verifying.  Two kill points:

- at the repair phase boundary — the diagnosis is already journaled,
  every plan verification is recomputed on resume;
- right after the first plan verdict hit the disk — the resumed run
  reuses it (``skipped_candidates`` counts it).
"""

import pytest

from repro.api import Session

from ..crash import kill_when_journaled, run_child

REPAIR = {"scenario": "SDN1", "knobs": {"repair": True}}


@pytest.mark.parametrize(
    "holds,sentinel",
    [
        # Killed at the repair phase boundary: the diagnosis conclusion
        # is journaled, all plan verifications recompute on resume.
        ({"REPRO_TEST_HOLD_PHASE": "repair"}, '"name":"repair"'),
        # Killed right after the first plan verdict was fsync'd: the
        # resumed run replays it off the disk.  (Without minimize=True
        # the only verdict writes in this run are repair verdicts.)
        ({"REPRO_TEST_HOLD_AFTER_VERDICTS": "1"}, '"kind":"repair"'),
    ],
)
def test_sigkill_mid_repair_then_resume_is_byte_identical(
    tmp_path, holds, sentinel
):
    journal = str(tmp_path / "repair.journal")
    out = str(tmp_path / "report.json")

    baseline = Session(scenario="SDN1", repair=True).diagnose()
    assert baseline.repair["status"] == "ok"

    kill_when_journaled(journal, out, REPAIR, sentinel, **holds)

    payload = run_child(journal, out, REPAIR)
    assert payload["canonical"] == baseline.canonical_json()
    section = payload["resilience"]["journal"]
    assert section["resumed"] is True
    if "REPRO_TEST_HOLD_AFTER_VERDICTS" in holds:
        assert section["skipped_candidates"] >= 1
