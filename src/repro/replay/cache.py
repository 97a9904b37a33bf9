"""Cross-Session snapshot store for deterministic replay.

Because the engine is deterministic, the state a replay reaches is a
pure function of (program, log, fault plan, change set).  This module
keeps such states as pickled bytes under keys that name exactly those
inputs, for whoever replays the same log *after the current diagnosis
is over*: another :class:`repro.api.Session` handed the same cache
(``Session(cache=)``), or the next request served by a
diagnosis-service worker (its warm cache).  Nothing creates a cache
implicitly: inside one diagnosis, candidates fork off the execution's
live replay base by checkpoint/rollback
(:meth:`repro.replay.execution.Execution.replay`) and nothing is
pickled at all.

Two snapshot granularities share one LRU store:

- **prefix snapshots** — engine/recorder state after consuming log
  entries ``[0, p)`` with no changes applied.  A replay that applies
  changes at anchor ``a`` can start from any prefix ``p <= fork`` where
  ``fork = min(a, first occurrence of any removed tuple)`` — before
  that point the changed replay is indistinguishable from the pristine
  one.  A prefix snapshot *seeds* a live base or a from-scratch replay;
  the one at ``len(log)`` doubles as the zero-change replay (the
  :meth:`repro.replay.execution.Execution.materialize` fast path).

- **result snapshots** — the final state of a changed replay, keyed by
  the change set and anchor.  Where evaluating Δ + suffix is not cheap
  (MR1-D submits its job in the last log entry: ≈ 25 ms against a 7 ms
  restore), a repeated request is served by restores alone.

Snapshots are held as pickled bytes, so every fetch yields fresh object
copies: consumers can mutate restored engines freely.  Restoring is a
pure speed-up — the unpickled state is byte-identical to the state a
fresh replay would have reached, including mid-stream fault-injector
PRNGs — so diagnoses are unchanged whether the cache is on, off, cold,
or warm.

Hit/miss/store/eviction counters are exposed via :meth:`stats` and can
be folded into a :class:`repro.observability.MetricsRegistry` with
:meth:`fold_into`; per-event counters are also bumped on whatever
telemetry the triggering replay carries.

Stored payloads carry length+digest framing
(:mod:`repro.resilience.integrity`), so a truncated or bit-flipped
snapshot — real-world memory pressure, or the ``snapshot-corrupt``
fault kind — is detected on fetch, quarantined (evicted and counted
under ``replay.cache.corrupt``), and reported as an ordinary miss: the
caller re-derives the state from scratch and the diagnosis is
unaffected.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from typing import Dict, List, Optional

from ..resilience.integrity import IntegrityError, frame, unframe

__all__ = ["ReplayCache", "DEFAULT_MAX_ENTRIES"]

# Snapshots are a few hundred kB each for the built-in scenarios; 64
# entries comfortably covers a service worker's scenario mix without
# growing past a few tens of MB.
DEFAULT_MAX_ENTRIES = 64


class _Entry:
    __slots__ = ("payload", "nbytes")

    def __init__(self, payload: bytes):
        self.payload = payload
        self.nbytes = len(payload)


class ReplayCache:
    """LRU store of pickled ``(engine, recorder)`` replay snapshots."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES, faults=None):
        self.max_entries = max_entries
        # Optional FaultInjector whose corrupt_snapshot() decides which
        # stores get their framed payload damaged (the snapshot-corrupt
        # fault kind); None in production.
        self.faults = faults
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        # base key -> sorted list of stored prefix lengths, so a replay
        # can find the longest usable prefix without scanning the LRU.
        self._prefixes: Dict[tuple, List[int]] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.corrupt = 0
        self.bytes_stored = 0

    # -- keys ----------------------------------------------------------------

    @staticmethod
    def base_key(log, faults, lossless: bool, record: bool,
                 engine=None) -> tuple:
        """Everything that shapes a replay besides changes/anchor.

        The fault plan enters via its canonical ``describe()`` spec
        (which includes the seed), so two plans with the same schedule
        share snapshots and different seeds never do.  ``lossless``
        only matters when a plan is present (it gates the prov-loss
        injector), so it is collapsed otherwise.  ``engine`` (an
        :class:`repro.datalog.config.EngineConfig`) keys snapshots by
        backend/provenance mode: results are byte-identical across
        modes, but the pickled *state* is not (different store classes,
        arena vs built graph), so snapshots never cross modes.
        """
        faults_fp = "" if faults is None else faults.describe()
        return (
            log.fingerprint(),
            len(log),
            faults_fp,
            bool(lossless) if faults is not None else False,
            bool(record),
            "" if engine is None else engine.describe(),
        )

    @staticmethod
    def prefix_key(base_key: tuple, prefix: int) -> tuple:
        """Key of the pristine state after log entries ``[0, prefix)``."""
        return (base_key, "prefix", prefix)

    @classmethod
    def result_key(
        cls, base_key: tuple, changes, anchor_index: Optional[int],
        log_length: int,
    ) -> tuple:
        """Key for the final state of a changed replay.

        A zero-change replay is exactly the full-length prefix, so its
        key collapses onto :meth:`prefix_key` — a warm materialization
        and a warm empty replay share one snapshot.
        """
        if not changes:
            return cls.prefix_key(base_key, log_length)
        described = tuple(
            (
                "" if change.insert is None else str(change.insert),
                tuple(sorted(str(t) for t in change.remove)),
            )
            for change in changes
        )
        return (base_key, "result", described,
                min(anchor_index or 0, log_length))

    # -- fetch/store ---------------------------------------------------------

    def fetch(self, key: tuple, telemetry=None, step_limit=None):
        """Restore a snapshot: fresh ``(engine, recorder)`` copies.

        Returns ``None`` on a miss.  The caller's telemetry and step
        limit are reattached to the restored engine (snapshots are
        stored stripped — see ``Engine.__getstate__``).
        """
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            if telemetry is not None:
                telemetry.inc("replay.cache.misses")
            return None
        self._entries.move_to_end(key)
        try:
            raw = unframe(entry.payload)
            if telemetry is not None:
                with telemetry.span("replay.cache.restore",
                                    bytes=entry.nbytes):
                    engine, recorder = pickle.loads(raw)
            else:
                engine, recorder = pickle.loads(raw)
        except (IntegrityError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError, IndexError, ValueError,
                TypeError):
            # A damaged snapshot must never take the diagnosis down:
            # quarantine the entry and report a miss so the caller
            # re-derives the state from scratch.
            self._quarantine(key, entry, telemetry)
            return None
        self.hits += 1
        if telemetry is not None:
            telemetry.inc("replay.cache.hits")
        engine.telemetry = telemetry
        engine.step_limit = step_limit
        if recorder is not None:
            recorder.telemetry = telemetry
        return engine, recorder

    def _quarantine(self, key: tuple, entry: "_Entry", telemetry) -> None:
        """Drop a corrupt entry and count the event as a recorded miss."""
        del self._entries[key]
        self._forget(key, entry)
        self.corrupt += 1
        self.misses += 1
        if telemetry is not None:
            telemetry.inc("replay.cache.corrupt")
            telemetry.inc("replay.cache.misses")

    def contains(self, key: tuple) -> bool:
        return key in self._entries

    def store(self, key: tuple, engine, recorder, telemetry=None) -> None:
        """Snapshot ``(engine, recorder)`` under ``key`` (idempotent)."""
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        payload = frame(pickle.dumps(
            (engine, recorder), protocol=pickle.HIGHEST_PROTOCOL
        ))
        if self.faults is not None and self.faults.corrupt_snapshot():
            # Simulated bit rot: keep the intact header, truncate the
            # body — exactly the shape a half-written snapshot takes.
            payload = payload[: max(1, len(payload) // 2)]
        self._entries[key] = _Entry(payload)
        self.stores += 1
        self.bytes_stored += len(payload)
        if key[1] == "prefix":
            base_key, _, prefix = key
            prefixes = self._prefixes.setdefault(base_key, [])
            if prefix not in prefixes:
                prefixes.append(prefix)
                prefixes.sort()
        if telemetry is not None:
            telemetry.inc("replay.cache.stores")
            telemetry.set_max("replay.cache.bytes_max", self.bytes_stored)
        while len(self._entries) > self.max_entries:
            self._evict(telemetry)

    def best_prefix(self, base_key: tuple, fork: int) -> int:
        """Longest stored prefix ``<= fork`` for this base (0 if none)."""
        best = 0
        for prefix in self._prefixes.get(base_key, ()):
            if prefix > fork:
                break
            best = prefix
        return best

    def _evict(self, telemetry=None) -> None:
        key, entry = self._entries.popitem(last=False)
        self.evictions += 1
        self._forget(key, entry)
        if telemetry is not None:
            telemetry.inc("replay.cache.evictions")

    def _forget(self, key: tuple, entry: "_Entry") -> None:
        """Bookkeeping for an entry that just left ``_entries``."""
        self.bytes_stored -= entry.nbytes
        base_key, _, prefix = key[:3]
        prefixes = self._prefixes.get(base_key) if key[1] == "prefix" else None
        if prefixes is not None:
            try:
                prefixes.remove(prefix)
            except ValueError:  # pragma: no cover - defensive
                pass
            if not prefixes:
                del self._prefixes[base_key]

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self._prefixes.clear()
        self.bytes_stored = 0

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "bytes": self.bytes_stored,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
        }

    def fold_into(self, telemetry) -> None:
        """Record occupancy gauges on a telemetry's MetricsRegistry.

        Hit/miss/store/eviction counters accumulate live (each replay
        bumps the telemetry it carries); occupancy is only meaningful
        at fold time.
        """
        if telemetry is None:
            return
        telemetry.set_gauge("replay.cache.entries", len(self._entries))
        telemetry.set_gauge("replay.cache.bytes", self.bytes_stored)

    def __repr__(self):
        return (
            f"ReplayCache(entries={len(self._entries)}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"bytes={self.bytes_stored})"
        )
