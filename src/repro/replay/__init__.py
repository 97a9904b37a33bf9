"""Logging and replay engines (Section 5).

The logging engine records base events; the replay engine reconstructs
derivations — and therefore provenance — deterministically at query
time.  This is the paper's preferred "query-time" mode: runtime
overhead stays low, and diagnostic queries (which are rare) pay for the
replay.  The "runtime" mode, which materializes provenance as the
system executes, is also supported for the ablation benchmarks.
:class:`Substrate` is the contract every diagnosed system implements.
"""

from .log import EventLog, LogEntry, estimate_size
from .replayer import ReplayResult, replay, Change
from .cache import ReplayCache
from .substrate import StoreRecord, Substrate
from .execution import Execution
from .reported import ReportedExecution

__all__ = [
    "EventLog",
    "LogEntry",
    "estimate_size",
    "ReplayResult",
    "replay",
    "Change",
    "ReplayCache",
    "Substrate",
    "StoreRecord",
    "Execution",
    "ReportedExecution",
]
