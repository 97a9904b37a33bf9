"""Admission control: the bounded priority queue in front of the fleet.

Every request passes through :meth:`AdmissionController.admit` before
any diagnosis work happens.  Admission can fail three ways — global
queue full, tenant quota, server draining — and each failure is a
typed :class:`~repro.errors.Overloaded` with a ``retry_after_s`` hint;
an admitted request becomes a :class:`Ticket` whose future the caller
awaits.  Dispatchers (one per worker shard) pull tickets in
``(priority, admission order)`` order.

The retry-after hint for a full queue is an honest estimate, not a
constant: queue depth times the EWMA of recent service times divided
by the shard count — i.e. "when will the backlog likely have moved by
one slot per shard".  Quota hints come from the token bucket's refill
rate (:mod:`repro.service.quotas`).
"""

from __future__ import annotations

import asyncio
import heapq
import time as _time
from typing import Callable, Dict, Optional

from ..errors import Overloaded
from .protocol import Request
from .quotas import QuotaRegistry

__all__ = ["AdmissionController", "Ticket"]

# Starting estimate for one request's service time, refined by EWMA as
# real requests complete.
_INITIAL_SERVICE_TIME_S = 1.0
_EWMA_ALPHA = 0.3


class Ticket:
    """One admitted request waiting for (or receiving) service."""

    __slots__ = (
        "request", "seq", "admitted_at", "started_at", "future",
        "attempts", "journal_path", "trace", "span",
    )

    def __init__(self, request: Request, seq: int, admitted_at: float,
                 future: "asyncio.Future"):
        self.request = request
        self.seq = seq
        self.admitted_at = admitted_at
        self.started_at: Optional[float] = None
        self.future = future
        # Worker-death retries consumed so far (fleet bookkeeping).
        self.attempts = 0
        # The per-request journal assigned at dispatch, if journaling.
        self.journal_path: Optional[str] = None
        # Cross-process trace context + the server's open request span
        # (set by the server when telemetry/ops are enabled).
        self.trace = None
        self.span = None

    def order_key(self):
        return (self.request.priority, self.seq)

    def remaining_deadline(self, now: float) -> Optional[float]:
        """What is left of the request's budget after queueing.

        Measured from admission, so time spent waiting in the queue
        spends the budget — an overloaded server hands the worker a
        *smaller* deadline rather than stretching the client's wait.
        """
        if self.request.deadline_s is None:
            return None
        return self.request.deadline_s - (now - self.admitted_at)

    def __repr__(self):
        return (
            f"Ticket(#{self.seq} {self.request.id!r} "
            f"prio={self.request.priority})"
        )


class AdmissionController:
    """Bounded, tenant-fair, priority-ordered admission queue."""

    def __init__(
        self,
        max_queue: int = 64,
        quotas: Optional[QuotaRegistry] = None,
        shards: int = 1,
        telemetry=None,
        clock: Callable[[], float] = _time.monotonic,
    ):
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.max_queue = max_queue
        self.quotas = quotas if quotas is not None else QuotaRegistry()
        self.shards = max(1, int(shards))
        self.telemetry = telemetry
        self.clock = clock
        self.draining = False
        self._heap = []  # (priority, seq, ticket)
        self._seq = 0
        self._available = asyncio.Event()
        # Admitted-but-unfinished (queued + in service), the number the
        # queue bound applies to; the queue alone would let in-flight
        # work overcommit the bound by one per shard.
        self.in_flight = 0
        self.admitted_total = 0
        self.shed: Dict[str, int] = {
            "queue-full": 0, "quota": 0, "concurrency": 0, "draining": 0,
        }
        self._service_time_ewma = _INITIAL_SERVICE_TIME_S

    # -- admission -----------------------------------------------------------

    def admit(self, request: Request) -> Ticket:
        """Admit or shed one request (synchronous, loop thread only)."""
        if self.draining:
            self._count_shed("draining")
            raise Overloaded(
                "server is draining and admits no new requests",
                reason="draining",
                retry_after_s=self._backlog_eta(),
            )
        if self.in_flight >= self.max_queue:
            self._count_shed("queue-full")
            raise Overloaded(
                f"admission queue is full ({self.in_flight} in flight, "
                f"bound {self.max_queue})",
                reason="queue-full",
                retry_after_s=self._backlog_eta(),
            )
        try:
            self.quotas.acquire(
                request.tenant, service_time_hint=self._service_time_ewma
            )
        except Overloaded as exc:
            self._count_shed(exc.reason)
            raise
        ticket = Ticket(
            request, self._seq, self.clock(),
            asyncio.get_running_loop().create_future(),
        )
        self._seq += 1
        self.in_flight += 1
        self.admitted_total += 1
        heapq.heappush(self._heap, (ticket.order_key(), ticket))
        self._available.set()
        if self.telemetry is not None:
            self.telemetry.inc("service.admitted")
            self.telemetry.set_max("service.queue.depth_max", len(self._heap))
            self.telemetry.set_gauge("service.queue.depth", len(self._heap))
        return ticket

    def _count_shed(self, reason: str) -> None:
        self.shed[reason] = self.shed.get(reason, 0) + 1
        if self.telemetry is not None:
            self.telemetry.inc(f"service.shed.{reason}")

    def _backlog_eta(self) -> float:
        """Estimated seconds until the backlog frees one slot per shard."""
        backlog = max(1, self.in_flight)
        eta = backlog * self._service_time_ewma / self.shards
        return min(max(eta, 0.05), 300.0)

    # -- dispatch ------------------------------------------------------------

    async def next(self) -> Optional[Ticket]:
        """The next ticket in (priority, seq) order; None when closed.

        Coroutine-safe: dispatchers race on the availability event and
        the loser goes back to waiting.
        """
        while True:
            if self._heap:
                _, ticket = heapq.heappop(self._heap)
                if not self._heap:
                    self._available.clear()
                if self.telemetry is not None:
                    self.telemetry.set_gauge(
                        "service.queue.depth", len(self._heap)
                    )
                ticket.started_at = self.clock()
                if self.telemetry is not None:
                    self.telemetry.observe(
                        "service.queue.wait_s",
                        round(ticket.started_at - ticket.admitted_at, 6),
                    )
                return ticket
            if self.draining:
                return None
            await self._available.wait()

    def mark_done(self, ticket: Ticket) -> None:
        """Release quota + record the observed service time."""
        self.in_flight -= 1
        self.quotas.release(ticket.request.tenant)
        now = self.clock()
        if ticket.started_at is not None:
            elapsed = max(0.0, now - ticket.started_at)
            self._service_time_ewma = (
                (1 - _EWMA_ALPHA) * self._service_time_ewma
                + _EWMA_ALPHA * elapsed
            )
            if self.telemetry is not None:
                self.telemetry.observe(
                    "service.request.service_s", round(elapsed, 6)
                )
        if self.telemetry is not None:
            self.telemetry.observe(
                "service.request.latency_s",
                round(now - ticket.admitted_at, 6),
            )

    # -- drain ---------------------------------------------------------------

    def start_draining(self) -> None:
        """Stop admitting; wake dispatchers so idle ones can exit."""
        self.draining = True
        self._available.set()

    @property
    def queued(self) -> int:
        return len(self._heap)

    def stats(self) -> Dict[str, object]:
        return {
            "queued": len(self._heap),
            "in_flight": self.in_flight,
            "admitted_total": self.admitted_total,
            "shed": dict(self.shed),
            "draining": self.draining,
            "service_time_ewma_s": round(self._service_time_ewma, 4),
            "tenants": self.quotas.stats(),
        }

    def __repr__(self):
        return (
            f"AdmissionController(queued={len(self._heap)}, "
            f"in_flight={self.in_flight}, max={self.max_queue}, "
            f"draining={self.draining})"
        )
