"""The write-ahead diagnosis journal.

A diagnosis that dies — SIGKILL, OOM, a pulled plug — used to lose all
of its candidate-replay work.  The journal makes the expensive part of
the search *durable*: every phase boundary, explored change-set, and
candidate verdict from DiffProv's minimality post-pass and autoref's
reference sweep is appended as one checksummed JSON line and fsync'd
before the diagnosis moves on.  Resuming (``Session.diagnose(...,
resume_from=...)`` / ``repro diagnose --resume``) replays the recorded
verdicts instead of re-running their candidate replays, and — because
the diagnosis itself is deterministic — produces a ``canonical_json()``
report byte-identical to an uninterrupted run (docs/resilience.md).

File format (schema version 1)::

    <crc32hex> {"seq": 0, "type": "start", "schema": 1, "fingerprint": {...}}
    <crc32hex> {"seq": 1, "type": "phase", "name": "query"}
    <crc32hex> {"seq": 2, "type": "round", "number": 1, "changes": [...]}
    <crc32hex> {"seq": 3, "type": "verdict", "kind": "minimize", "key": "...",
                "value": true}
    <crc32hex> {"seq": 4, "type": "result", "success": true, "sha": "..."}

Crash-safety contract: entries are append-only; a torn or corrupt tail
line (the crash landed mid-write) is detected by its checksum and
discarded on resume — everything before it is intact by fsync order.
A *mismatched* journal (different scenario, different options) is a
typed :class:`~repro.errors.JournalError`: resuming against the wrong
search would corrupt the report.
"""

from __future__ import annotations

import json
import os
import time as _time
from typing import Dict, List, Optional

from ..errors import JournalError
from .integrity import checksum_line, verify_line

__all__ = ["DiagnosisJournal", "SCHEMA_VERSION", "request_journal_path"]

SCHEMA_VERSION = 1


def request_journal_path(directory: str, request_key: str) -> str:
    """The journal path for one service request.

    The diagnosis service (:mod:`repro.service`) namespaces journals
    per request under one directory so a crashed worker's successor can
    resume exactly the request it was handed.  ``request_key`` is
    sanitised to a filesystem-safe slug — two distinct keys may only
    collide if they differ solely in unsafe characters, which the
    server avoids by prefixing its own sequence number.
    """
    safe = "".join(
        ch if ch.isalnum() or ch in "-_." else "_" for ch in str(request_key)
    )[:120] or "request"
    return os.path.join(str(directory), f"req-{safe}.journal")

# Test-only hooks: hold the process inside a journal append so a
# subprocess test can deliver SIGINT/SIGKILL at a deterministic point
# (after a named phase entry, or after the Nth verdict write).  Unset
# in production; see tests/resilience/.
_HOLD_PHASE_ENV = "REPRO_TEST_HOLD_PHASE"
_HOLD_AFTER_VERDICTS_ENV = "REPRO_TEST_HOLD_AFTER_VERDICTS"
_HOLD_SECONDS_ENV = "REPRO_TEST_HOLD_S"


class DiagnosisJournal:
    """Appendable, resumable record of one diagnosis search.

    ``fingerprint`` identifies the search (log fingerprints, events,
    option signature); on resume it must match the header of the
    existing file.
    """

    def __init__(
        self,
        path: str,
        fingerprint: Optional[Dict[str, object]] = None,
        resume: bool = False,
    ):
        self.path = str(path)
        self.fingerprint = dict(fingerprint or {})
        self.resumed = False
        # Verdicts recovered from a previous run, keyed (kind, key).
        self._verdicts: Dict[tuple, object] = {}
        self.entries_replayed = 0
        # Resume savings / cost counters (surfaced in report.resilience).
        self.skipped = 0
        self.writes = 0
        self._verdict_writes = 0
        self._seq = 0
        self._handle = None
        self._phases: List[str] = []
        if resume and os.path.exists(self.path) and os.path.getsize(self.path):
            self._load_and_reopen()
        else:
            self._open_fresh()

    # -- opening -------------------------------------------------------------

    def _open_fresh(self) -> None:
        self._handle = open(self.path, "w", encoding="utf-8")
        self._append(
            "start", schema=SCHEMA_VERSION, fingerprint=self.fingerprint
        )

    def _load_and_reopen(self) -> None:
        entries, valid_bytes = self._read_valid_prefix()
        if not entries or entries[0].get("type") != "start":
            # Nothing trustworthy in the file (e.g. killed before the
            # header hit disk): start over.
            self._open_fresh()
            return
        header = entries[0]
        if header.get("schema") != SCHEMA_VERSION:
            raise JournalError(
                f"journal {self.path} has schema "
                f"{header.get('schema')!r}; this build writes "
                f"{SCHEMA_VERSION} and cannot resume across versions"
            )
        recorded = header.get("fingerprint") or {}
        if self.fingerprint and recorded != self.fingerprint:
            mismatched = sorted(
                key
                for key in set(recorded) | set(self.fingerprint)
                if recorded.get(key) != self.fingerprint.get(key)
            )
            raise JournalError(
                f"journal {self.path} was written by a different diagnosis "
                f"(mismatched: {', '.join(mismatched) or 'fingerprint'}); "
                f"refusing to resume"
            )
        for entry in entries[1:]:
            if entry.get("type") == "verdict":
                self._verdicts[(entry.get("kind"), entry.get("key"))] = (
                    entry.get("value")
                )
            elif entry.get("type") == "phase":
                self._phases.append(entry.get("name", ""))
        self.entries_replayed = len(entries)
        self.resumed = True
        self._seq = max(int(e.get("seq", 0)) for e in entries) + 1
        # Drop the torn tail (if any) before appending new entries.
        with open(self.path, "r+", encoding="utf-8") as handle:
            handle.truncate(valid_bytes)
        self._handle = open(self.path, "a", encoding="utf-8")

    def _read_valid_prefix(self):
        entries: List[dict] = []
        valid_bytes = 0
        with open(self.path, "rb") as handle:
            for raw in handle:
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError:
                    break
                if not raw.endswith(b"\n"):
                    break  # torn tail: the write never completed
                text = verify_line(line.rstrip("\n"))
                if text is None:
                    break
                try:
                    entry = json.loads(text)
                except ValueError:
                    break
                entries.append(entry)
                valid_bytes += len(raw)
        return entries, valid_bytes

    # -- appending -----------------------------------------------------------

    # Entry types whose loss would cost recomputation on resume: these
    # are fsync'd before the diagnosis moves on (the write-ahead
    # guarantee).  Phase/round markers are informative — a torn one is
    # discarded harmlessly — so they ride along with the next durable
    # write instead of paying their own fsync.
    _DURABLE_TYPES = frozenset({"start", "verdict", "result"})

    def _append(self, entry_type: str, **payload) -> None:
        if self._handle is None:
            return
        entry = {"seq": self._seq, "type": entry_type}
        entry.update(payload)
        self._seq += 1
        text = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        self._handle.write(checksum_line(text) + "\n")
        self._handle.flush()
        if entry_type in self._DURABLE_TYPES:
            os.fsync(self._handle.fileno())
        self.writes += 1

    def phase(self, name: str) -> None:
        """Record a phase boundary (query, rounds, minimize, ...)."""
        self._phases.append(name)
        self._append("phase", name=name)
        if os.environ.get(_HOLD_PHASE_ENV) == name:
            self._test_hold()

    def round(self, number: int, changes) -> None:
        """Record a committed round and its explored change-set."""
        self._append(
            "round",
            number=number,
            changes=[change.describe() for change in changes],
        )

    def record(self, kind: str, key: str, value) -> None:
        """Journal one candidate verdict (idempotent per key)."""
        if (kind, key) in self._verdicts:
            return
        self._verdicts[(kind, key)] = value
        self._append("verdict", kind=kind, key=key, value=value)
        self._verdict_writes += 1
        hold_after = os.environ.get(_HOLD_AFTER_VERDICTS_ENV)
        if hold_after is not None and self._verdict_writes == int(hold_after):
            self._test_hold()

    def lookup(self, kind: str, key: str):
        """A recorded verdict, or None.  Hits count as skipped work."""
        value = self._verdicts.get((kind, key))
        if value is not None:
            self.skipped += 1
        return value

    def result(self, success: bool, sha: str, **payload) -> None:
        """Record a finished diagnosis (the journal's commit marker)."""
        self._append("result", success=success, sha=sha, **payload)

    # -- lifecycle -----------------------------------------------------------

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            try:
                self.flush()
            finally:
                self._handle.close()
                self._handle = None

    @property
    def closed(self) -> bool:
        return self._handle is None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def progress(self) -> str:
        """One-line human summary (the CLI's Ctrl-C partial report)."""
        return (
            f"{self.path}: {self.writes} entr{'y' if self.writes == 1 else 'ies'} "
            f"written, {len(self._verdicts)} verdict(s) recorded, "
            f"last phase {self._phases[-1] if self._phases else 'none'!r}"
        )

    @staticmethod
    def _test_hold() -> None:
        _time.sleep(float(os.environ.get(_HOLD_SECONDS_ENV, "30")))

    def __repr__(self):
        return (
            f"DiagnosisJournal({self.path!r}, resumed={self.resumed}, "
            f"verdicts={len(self._verdicts)})"
        )
