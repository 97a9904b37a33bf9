"""The base-event log.

Only *base* events are logged — incoming packets, configuration
changes, job inputs.  Everything else is derived deterministically and
can be reconstructed by replay, which is why the paper's logs stay
small (Section 6.5: 26 kB of log for a 12.8 GB MapReduce input).

Each entry carries a byte size so the logging-rate experiments
(Figures 5 and 6) can account storage the way the paper's prototype
does: packets contribute a fixed-size record (header + timestamp), not
their payload.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, List, Optional, Sequence

from ..datalog.parser import parse_tuple
from ..datalog.tuples import Tuple
from ..errors import IntegrityError, ReproError
from ..resilience.integrity import digest_text

__all__ = ["LogEntry", "EventLog", "estimate_size", "PACKET_RECORD_BYTES"]

# A logged packet record: 14 B Ethernet + 20 B IP + 8 B transport ports
# + 8 B timestamp + 4 B switch/port id = 54 bytes, fixed regardless of
# payload size ("we only store fixed-size information for each packet,
# i.e., the header and the timestamp", Section 6.5).
PACKET_RECORD_BYTES = 54

_OPS = ("insert", "delete", "barrier")


class LogEntry:
    """One logged base event."""

    __slots__ = ("op", "tuple", "mutable", "size")

    def __init__(
        self,
        op: str,
        tup: Optional[Tuple],
        mutable: Optional[bool] = None,
        size: Optional[int] = None,
    ):
        if op not in _OPS:
            raise ReproError(f"unknown log op {op!r}")
        self.op = op
        self.tuple = tup
        self.mutable = mutable
        self.size = size if size is not None else estimate_size(tup)

    def __repr__(self):
        return f"LogEntry({self.op}, {self.tuple}, size={self.size})"


def estimate_size(
    tup: Optional[Tuple], texts: Optional[Sequence[str]] = None
) -> int:
    """Bytes needed to log a tuple (metadata-style accounting).

    ``texts``, if given, are the arguments' ``str()`` already computed.
    """
    if tup is None:
        return 1
    if texts is None:
        texts = [str(arg) for arg in tup.args]
    return len(tup.table) + sum(map(len, texts)) + len(texts) + 9


class EventLog:
    """An append-only log of base events plus aggregate barriers."""

    def __init__(self):
        self.entries: List[LogEntry] = []
        self.total_bytes = 0
        self._fingerprint: Optional[str] = None
        self._first_occurrence: Optional[Dict[Tuple, int]] = None
        # index_of_insert's answers, None included; append() clears it.
        self._insert_index: Dict[Tuple, Optional[int]] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[LogEntry]:
        return iter(self.entries)

    def __getitem__(self, index):
        return self.entries[index]

    def append(
        self,
        op: str,
        tup: Optional[Tuple] = None,
        mutable: Optional[bool] = None,
        size: Optional[int] = None,
    ) -> LogEntry:
        entry = LogEntry(op, tup, mutable, size)
        self.entries.append(entry)
        self.total_bytes += entry.size
        self._fingerprint = None
        self._first_occurrence = None
        self._insert_index.clear()
        return entry

    def index_of_insert(self, tup: Tuple) -> Optional[int]:
        """Index of the first insertion of ``tup`` (None if absent).

        Remembered until the next append: a Session asks for the same
        seeds on every diagnosis, and they can sit ~450k entries deep.
        """
        if tup not in self._insert_index:
            self._insert_index[tup] = next(
                (index for index, entry in enumerate(self.entries)
                 if entry.op == "insert" and entry.tuple == tup),
                None,
            )
        return self._insert_index[tup]

    def fingerprint(self) -> str:
        """Content hash of the log (entry ops, tuples, mutability flags).

        Used as part of replay-cache keys, so two logs with the same
        events share snapshots regardless of object identity.  Cached
        and invalidated on append.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            for entry in self.entries:
                digest.update(
                    f"{entry.op}|{entry.tuple}|{entry.mutable}\n".encode("utf-8")
                )
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def first_occurrence(self, tup: Tuple) -> Optional[int]:
        """Index of the first entry mentioning ``tup`` in any op.

        Unlike :meth:`index_of_insert` this also covers deletions,
        which matters for replay-cache forking: a removed tuple taints
        the replayed stream from its first mention onward.
        """
        if self._first_occurrence is None:
            table: Dict[Tuple, int] = {}
            for index, entry in enumerate(self.entries):
                if entry.tuple is not None and entry.tuple not in table:
                    table[entry.tuple] = index
            self._first_occurrence = table
        return self._first_occurrence.get(tup)

    # -- persistence --------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the log as text, one entry per line.

        The body is followed by a ``# sha256:`` trailer so :meth:`load`
        can detect truncation or corruption of a dumped log before
        replaying it (docs/resilience.md).
        """
        lines = []
        for entry in self.entries:
            if entry.op == "barrier":
                lines.append("barrier")
            else:
                flag = "" if entry.mutable is None else (
                    " mutable" if entry.mutable else " immutable"
                )
                lines.append(f"{entry.op} {entry.tuple}{flag}")
        body = "".join(line + "\n" for line in lines)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(body)
            handle.write(f"# sha256:{digest_text(body)}\n")

    @classmethod
    def load(cls, path: str) -> "EventLog":
        with open(path, "r", encoding="utf-8") as handle:
            raw_lines = handle.readlines()
        # Verify the dump trailer when present; logs written by older
        # versions (or by hand) have no trailer and load unchecked.
        body_lines = []
        expected = None
        for raw in raw_lines:
            stripped = raw.strip()
            if stripped.startswith("# sha256:"):
                expected = stripped[len("# sha256:"):]
            elif stripped.startswith("#"):
                continue
            else:
                body_lines.append(raw)
        if expected is not None:
            actual = digest_text("".join(body_lines))
            if actual != expected:
                raise IntegrityError(
                    f"event log {path} failed its integrity check "
                    f"(sha256 {actual[:12]}… != recorded {expected[:12]}…); "
                    f"the dump is truncated or corrupt"
                )
        log = cls()
        for line in body_lines:
            line = line.strip()
            if not line:
                continue
            if line == "barrier":
                log.append("barrier")
                continue
            op, _, rest = line.partition(" ")
            mutable = None
            if rest.endswith(" mutable"):
                mutable = True
                rest = rest[: -len(" mutable")]
            elif rest.endswith(" immutable"):
                mutable = False
                rest = rest[: -len(" immutable")]
            log.append(op, parse_tuple(rest), mutable)
        return log
