"""Seeded, deterministic execution of a :class:`FaultPlan`.

Each injector owns one independent PRNG *stream per fault category*
(drop, duplicate, reorder, delay, provenance loss, fetch loss, link
loss), all derived from ``(plan.seed, purpose, category)``.  Separate
streams mean the schedule of one category is unaffected by the rates of
the others: raising the duplicate rate never shifts which messages get
dropped.

Seeding uses :func:`zlib.crc32` of the purpose/category strings rather
than Python's :func:`hash`, which is randomized per process for strings
and would destroy cross-run determinism.

Every decision is appended to :attr:`schedule` as a plain string, so
"same seed ⇒ same fault schedule" can be asserted byte-for-byte via
:meth:`schedule_bytes`.

The *purpose* string keys the whole family of streams.  Components that
must see the same fault schedule on every replay (the engine's message
layer, the recorder's lossy log) construct a fresh injector with the
same purpose each time — e.g. ``FaultInjector(plan, "engine")`` in both
the live run and every query-time replay — so replays reproduce the
primary run's faults exactly.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, List

from .plan import FaultPlan

__all__ = ["FaultInjector"]


class FaultInjector:
    """Executes a plan: turns rates and windows into concrete decisions."""

    def __init__(self, plan: FaultPlan, purpose: str = "faults"):
        self.plan = plan
        self.purpose = purpose
        self.schedule: List[str] = []
        self.counters: Dict[str, int] = {
            "messages": 0,
            "dropped": 0,
            "duplicated": 0,
            "reordered": 0,
            "delayed": 0,
            "log_events": 0,
            "log_lost": 0,
            "fetch_attempts": 0,
            "fetch_failures": 0,
            "link_lost": 0,
            "crash_lost": 0,
            "snapshots_corrupted": 0,
        }
        self._streams: Dict[str, random.Random] = {}

    def fork(self, purpose: str) -> "FaultInjector":
        """A fresh injector over the same plan with its own streams."""
        return FaultInjector(self.plan, purpose)

    # -- engine messages -----------------------------------------------------

    def message_actions(self, src: str, dst: str) -> List[int]:
        """Fate of one cross-node message, as per-copy delivery delays.

        ``[0]`` deliver now, ``[]`` drop, ``[0, 0]`` duplicate; a
        positive entry delays that copy by that many engine steps.
        Draw order is fixed (drop, duplicate, reorder, delay) and each
        draw comes from its own stream, so schedules are stable.
        """
        plan = self.plan
        self.counters["messages"] += 1
        where = f"{src}->{dst}"
        if self._chance("drop", plan.drop):
            self.counters["dropped"] += 1
            self._note("drop", where)
            return []
        delays = [0]
        if self._chance("duplicate", plan.duplicate):
            self.counters["duplicated"] += 1
            delays.append(0)
            self._note("duplicate", where)
        if self._chance("reorder", plan.reorder):
            # Hold every copy back one step: it overtakes nothing but is
            # overtaken by whatever the current event emits next.
            self.counters["reordered"] += 1
            delays = [d + 1 for d in delays]
            self._note("reorder", where)
        if self._chance("delay", plan.delay):
            self.counters["delayed"] += 1
            delays = [d + plan.delay_steps for d in delays]
            self._note("delay", f"{where} +{plan.delay_steps}")
        return delays

    # -- provenance logging --------------------------------------------------

    def keep_log_event(self, kind: str) -> bool:
        """Whether one recorder event survives lossy logging."""
        self.counters["log_events"] += 1
        if self._chance("prov-loss", self.plan.prov_loss):
            self.counters["log_lost"] += 1
            self._note("log-lost", kind)
            return False
        return True

    # -- distributed fetches -------------------------------------------------

    def node_reachable(self, node: str) -> bool:
        return node not in self.plan.unreachable

    def fetch_ok(self, node: str) -> bool:
        """One fetch attempt against ``node`` (retries call this again)."""
        self.counters["fetch_attempts"] += 1
        if node in self.plan.unreachable:
            self.counters["fetch_failures"] += 1
            self._note("fetch-unreachable", node)
            return False
        if self._chance("fetch-loss", self.plan.fetch_loss):
            self.counters["fetch_failures"] += 1
            self._note("fetch-timeout", node)
            return False
        return True

    # -- emulated network ----------------------------------------------------

    def link_up(self, switch: str, port: int, time: int) -> bool:
        """Whether the (switch, port) link works at trace time ``time``."""
        for flap_switch, flap_port, start, end in self.plan.flaps:
            if flap_switch != switch:
                continue
            if flap_port is not None and flap_port != port:
                continue
            if start <= time <= end:
                self.counters["link_lost"] += 1
                self._note("link-flap", f"{switch}:{port}@{time}")
                return False
        if self._chance("link-loss", self.plan.link_loss):
            self.counters["link_lost"] += 1
            self._note("link-loss", f"{switch}:{port}@{time}")
            return False
        return True

    def switch_alive(self, switch: str, time: int) -> bool:
        """Whether ``switch`` is up (not in a crash window) at ``time``."""
        for crash_switch, start, end in self.plan.crashes:
            if crash_switch == switch and start <= time <= end:
                self.counters["crash_lost"] += 1
                self._note("crash", f"{switch}@{time}")
                return False
        return True

    # -- diagnoser-host faults -----------------------------------------------

    def corrupt_snapshot(self) -> bool:
        """Whether to corrupt the replay snapshot being stored now.

        Stream-based like the network faults: same seed ⇒ the same
        cache stores get corrupted, so corrupt-miss counters are
        deterministic across runs.
        """
        if self._chance("snapshot-corrupt", self.plan.snapshot_corrupt):
            self.counters["snapshots_corrupted"] += 1
            self._note("snapshot-corrupt", f"#{self.counters['snapshots_corrupted']}")
            return True
        return False

    # -- determinism surface -------------------------------------------------

    def schedule_bytes(self) -> bytes:
        """The full decision schedule, byte-comparable across runs."""
        return "\n".join(self.schedule).encode("utf-8")

    def stats(self) -> Dict[str, int]:
        return dict(self.counters)

    def fold_into(self, telemetry, prefix: str = None) -> None:
        """Fold the injected-event counters into a metrics registry.

        Counter names become ``faults.<purpose>.<counter>`` (zero
        entries are skipped), so a diagnosis run's snapshot shows
        exactly which faults fired in each stream.  Deterministic:
        the counters themselves are driven by the seeded schedule.
        """
        if telemetry is None:
            return
        telemetry.fold_counters(
            prefix if prefix is not None else f"faults.{self.purpose}",
            self.counters,
        )

    # -- internals -----------------------------------------------------------

    def _stream(self, category: str) -> random.Random:
        stream = self._streams.get(category)
        if stream is None:
            label = f"{self.purpose}:{category}".encode("utf-8")
            stream = random.Random(
                ((self.plan.seed & 0xFFFFFFFF) << 32) | zlib.crc32(label)
            )
            self._streams[category] = stream
        return stream

    def _chance(self, category: str, rate: float) -> bool:
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return self._stream(category).random() < rate

    def _note(self, action: str, detail: str) -> None:
        self.schedule.append(f"{len(self.schedule)} {action} {detail}")
