"""The repair section is part of the canonical report — and therefore
part of the determinism contract: byte-identical across replay-cache
states, backends, and journal resume (docs/performance.md,
docs/resilience.md)."""

import pytest

from repro.api import Session
from repro.datalog import BACKENDS


@pytest.fixture(scope="module")
def baseline():
    with Session(scenario="SDN1", repair=True) as session:
        report = session.diagnose()
    assert report.repair["status"] == "ok"
    return report.canonical_json()


def test_replay_cache_off_is_byte_identical(baseline):
    with Session(scenario="SDN1", repair=True, replay_cache=False) as session:
        report = session.diagnose()
    assert report.canonical_json() == baseline


def test_replay_cache_off_is_byte_identical_on_sdn4():
    # Two faulty entries: several plans, each verified by an anchored
    # replay that forks off the live base when the cache is on.
    reports = []
    for replay_cache in (True, False):
        with Session(scenario="SDN4", repair=True,
                     replay_cache=replay_cache) as session:
            reports.append(session.diagnose())
    assert reports[0].repair["status"] == "ok"
    assert reports[0].repair["plans"]
    assert reports[1].canonical_json() == reports[0].canonical_json()


def test_journal_resume_reuses_plan_verdicts(baseline, tmp_path):
    journal = str(tmp_path / "repair.journal")
    with Session(scenario="SDN1", repair=True, journal=journal) as session:
        first = session.diagnose()
    assert first.canonical_json() == baseline
    assert first.resilience["journal"]["resumed"] is False

    with Session(scenario="SDN1", repair=True) as session:
        resumed = session.diagnose(resume_from=journal)
    assert resumed.canonical_json() == baseline
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


def test_cross_backend_byte_identity(baseline):
    for engine in BACKENDS:
        with Session(scenario="SDN1", repair=True, engine=engine) as session:
            report = session.diagnose()
        assert report.canonical_json() == baseline
