"""Crash-safety for the diagnoser itself (docs/resilience.md).

PR 1's fault injection simulates failures in the *diagnosed* network;
this package covers failures of the *diagnosing host*:

- :mod:`repro.resilience.journal` — a write-ahead journal of the
  candidate search, so a killed diagnosis resumes instead of restarting
  (``Session.diagnose(resume_from=...)``, ``repro diagnose --resume``);
- :mod:`repro.resilience.integrity` — length+digest framing for cached
  replay snapshots and dumped event logs, so corruption is a recorded
  miss or a typed error, never an unpickling crash;
- :mod:`repro.resilience.deadline` — an end-to-end wall-clock budget
  threaded through engine steps, distributed fetches, and candidate
  sweeps (``--deadline-s``).
"""

from .deadline import Deadline
from .integrity import checksum_line, digest_text, frame, unframe, verify_line
from .journal import SCHEMA_VERSION, DiagnosisJournal, request_journal_path

__all__ = [
    "Deadline",
    "DiagnosisJournal",
    "SCHEMA_VERSION",
    "request_journal_path",
    "frame",
    "unframe",
    "checksum_line",
    "verify_line",
    "digest_text",
]
