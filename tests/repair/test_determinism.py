"""The repair section is part of the canonical report — and therefore
part of the determinism contract, whose matrix (tests/contract) holds it
byte-identical across replay-cache states, backends and journal resume.
What is left here is the journal's side: verdict reuse, and which
settings may resume which journal."""

import pytest

from repro.api import Session


@pytest.fixture(scope="module")
def baseline():
    with Session(scenario="SDN1", repair=True) as session:
        report = session.diagnose()
    assert report.repair["status"] == "ok"
    return report.canonical_json()


def test_journal_resume_reuses_plan_verdicts(tmp_path):
    journal = str(tmp_path / "repair.journal")
    with Session(scenario="SDN1", repair=True, journal=journal) as session:
        first = session.diagnose()
    assert first.resilience["journal"]["resumed"] is False

    with Session(scenario="SDN1", repair=True) as session:
        resumed = session.diagnose(resume_from=journal)
    section = resumed.resilience["journal"]
    assert section["resumed"] is True
    # All three enumerated plans' verdicts came off the disk.
    assert section["skipped_candidates"] >= 3


def test_uncached_run_may_resume_a_cached_journal(baseline, tmp_path):
    # replay_cache is not in the journal fingerprint: it changes no
    # verdict, so either setting may resume the other's journal.
    journal = str(tmp_path / "repair.journal")
    with Session(scenario="SDN1", repair=True, journal=journal) as session:
        session.diagnose()
    with Session(scenario="SDN1", repair=True, replay_cache=False) as session:
        resumed = session.diagnose(resume_from=journal)
    assert resumed.canonical_json() == baseline


def test_repair_toggle_changes_the_journal_fingerprint(tmp_path):
    from repro.errors import JournalError

    journal = str(tmp_path / "repair.journal")
    with Session(scenario="SDN1", repair=True, journal=journal) as session:
        session.diagnose()
    # Resuming the repair journal into a repair-less run would replay
    # plan verdicts into a search that never asks for them; the
    # fingerprint mismatch rejects it up front.
    with Session(scenario="SDN1") as session:
        with pytest.raises(JournalError):
            session.diagnose(resume_from=journal)
