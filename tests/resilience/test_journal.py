"""Tests for the write-ahead diagnosis journal."""

import json

import pytest

from repro.errors import JournalError
from repro.resilience import SCHEMA_VERSION, DiagnosisJournal
from repro.resilience.integrity import verify_line

FP = {"kind": "diagnose", "good_log": "aaa", "bad_log": "bbb"}


def _entries(path):
    out = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            text = verify_line(line.rstrip("\n"))
            assert text is not None, f"corrupt line in journal: {line!r}"
            out.append(json.loads(text))
    return out


class TestRoundTrip:
    def test_fresh_journal_writes_header(self, tmp_path):
        path = str(tmp_path / "j.journal")
        journal = DiagnosisJournal(path, FP)
        journal.close()
        entries = _entries(path)
        assert entries[0]["type"] == "start"
        assert entries[0]["schema"] == SCHEMA_VERSION
        assert entries[0]["fingerprint"] == FP

    def test_verdicts_survive_a_reopen(self, tmp_path):
        path = str(tmp_path / "j.journal")
        journal = DiagnosisJournal(path, FP)
        journal.phase("minimize")
        journal.record("minimize", "change-a", True)
        journal.record("minimize", "change-b", False)
        journal.close()

        resumed = DiagnosisJournal(path, FP, resume=True)
        assert resumed.resumed
        assert resumed.lookup("minimize", "change-a") is True
        assert resumed.lookup("minimize", "change-b") is False
        assert resumed.lookup("minimize", "change-c") is None
        assert resumed.skipped == 2  # the two hits above
        resumed.close()

    def test_record_is_idempotent_per_key(self, tmp_path):
        journal = DiagnosisJournal(str(tmp_path / "j.journal"), FP)
        journal.record("minimize", "k", True)
        writes = journal.writes
        journal.record("minimize", "k", True)
        assert journal.writes == writes
        journal.close()

    def test_sequence_numbers_continue_after_resume(self, tmp_path):
        path = str(tmp_path / "j.journal")
        journal = DiagnosisJournal(path, FP)
        journal.phase("query")
        journal.close()
        resumed = DiagnosisJournal(path, FP, resume=True)
        resumed.phase("rounds")
        resumed.close()
        seqs = [entry["seq"] for entry in _entries(path)]
        assert seqs == sorted(seqs) == list(range(len(seqs)))


class TestCrashSafety:
    def test_torn_tail_is_discarded(self, tmp_path):
        path = str(tmp_path / "j.journal")
        journal = DiagnosisJournal(path, FP)
        journal.record("minimize", "good-verdict", True)
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('deadbeef {"seq": 99, "type": "verdict", "ki')

        resumed = DiagnosisJournal(path, FP, resume=True)
        assert resumed.lookup("minimize", "good-verdict") is True
        resumed.record("minimize", "after-crash", False)
        resumed.close()
        # The torn line is gone from disk; every surviving line verifies.
        kinds = [entry["type"] for entry in _entries(path)]
        assert kinds == ["start", "verdict", "verdict"]

    def test_corrupt_interior_line_truncates_the_rest(self, tmp_path):
        path = str(tmp_path / "j.journal")
        journal = DiagnosisJournal(path, FP)
        journal.record("minimize", "kept", True)
        journal.record("minimize", "lost", False)
        journal.close()
        lines = open(path, encoding="utf-8").read().splitlines(keepends=True)
        lines[2] = "00000000 " + lines[2].split(" ", 1)[1]
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)

        resumed = DiagnosisJournal(path, FP, resume=True)
        assert resumed.lookup("minimize", "kept") is True
        assert resumed.lookup("minimize", "lost") is None
        resumed.close()

    def test_headerless_file_starts_fresh(self, tmp_path):
        path = str(tmp_path / "j.journal")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("garbage that is not a journal\n")
        journal = DiagnosisJournal(path, FP, resume=True)
        assert not journal.resumed
        journal.close()
        assert _entries(path)[0]["type"] == "start"


class TestIdentity:
    def test_fingerprint_mismatch_is_a_typed_error(self, tmp_path):
        path = str(tmp_path / "j.journal")
        DiagnosisJournal(path, FP).close()
        other = dict(FP, bad_log="ccc")
        with pytest.raises(JournalError, match="bad_log"):
            DiagnosisJournal(path, other, resume=True)

    def test_schema_mismatch_is_a_typed_error(self, tmp_path):
        path = str(tmp_path / "j.journal")
        DiagnosisJournal(path, FP).close()
        text = open(path, encoding="utf-8").read()
        doctored = verify_line(text.rstrip("\n"))
        entry = json.loads(doctored)
        entry["schema"] = SCHEMA_VERSION + 1
        from repro.resilience.integrity import checksum_line

        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                checksum_line(json.dumps(entry, sort_keys=True,
                                         separators=(",", ":"))) + "\n"
            )
        with pytest.raises(JournalError, match="schema"):
            DiagnosisJournal(path, FP, resume=True)

    def test_without_resume_an_existing_file_is_overwritten(self, tmp_path):
        path = str(tmp_path / "j.journal")
        journal = DiagnosisJournal(path, FP)
        journal.record("minimize", "old", True)
        journal.close()
        fresh = DiagnosisJournal(path, FP)  # resume=False
        assert not fresh.resumed
        assert fresh.lookup("minimize", "old") is None
        fresh.close()


class TestLifecycle:
    def test_context_manager_closes(self, tmp_path):
        with DiagnosisJournal(str(tmp_path / "j.journal"), FP) as journal:
            journal.phase("query")
        assert journal.closed

    def test_progress_line_mentions_the_last_phase(self, tmp_path):
        journal = DiagnosisJournal(str(tmp_path / "j.journal"), FP)
        journal.phase("minimize")
        journal.record("minimize", "k", True)
        text = journal.progress()
        journal.close()
        assert "minimize" in text
        assert "1 verdict(s)" in text


class TestDurabilityIsCounted:
    """The write-ahead cost, counted instead of timed: one fsync per
    line whose loss would cost recomputation, none for markers."""

    def test_fsync_once_per_durable_line_plus_close(self, tmp_path,
                                                    monkeypatch):
        import repro.resilience.journal as journal_module
        from repro.api import Session

        calls = []
        real_fsync = journal_module.os.fsync

        def counting_fsync(fd):
            calls.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(journal_module.os, "fsync", counting_fsync)
        path = str(tmp_path / "sdn4.journal")
        with Session(scenario="SDN4", minimize=True, journal=path) as session:
            report = session.diagnose()
        assert report.success

        types = [entry["type"] for entry in _entries(path)]
        durable = sum(t in ("start", "verdict", "result") for t in types)
        assert types.count("verdict") > 0
        assert types.count("phase") > 0 and types.count("round") > 0
        assert len(calls) == durable + 1  # + the flush in close()
