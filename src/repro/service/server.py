"""The asyncio diagnosis server: admission in front, worker fleet behind.

One :class:`DiagnosisServer` owns an
:class:`~repro.service.admission.AdmissionController`, a
:class:`~repro.service.fleet.WorkerFleet`, and one dispatcher task per
shard.  Requests arrive two ways with identical semantics: in-process
via :meth:`submit` (what :class:`~repro.service.client.ServiceClient`,
the tests, and the throughput benchmark use) or over a newline-
delimited-JSON socket via :meth:`serve`
(:mod:`repro.service.protocol`).

Request lifecycle::

    parse -> admit (or shed: typed Overloaded with retry-after)
          -> queue (priority, admission order; deadline keeps burning)
          -> dispatch to a shard (journal path assigned)
          -> worker diagnoses (warm ReplayCache, write-ahead journal)
          -> ok / error response (futures resolve, quota released)

Robustness guarantees (exercised by ``tests/service/test_chaos.py``):
a SIGKILL'd worker triggers restart-and-resume with byte-identical
reports; repeated crashes fence the shard via its circuit breaker and
in-flight work hands off to healthy shards; an expired deadline
degrades to a partial report, never an error; SIGTERM drains — stop
admitting, finish or journal in-flight work — before exiting.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import tempfile
import time as _time
from typing import Dict, Optional

from ..errors import Overloaded, ProtocolError
from ..observability import OpsCenter, TraceContext
from ..observability import active as _active_telemetry
from ..resilience.journal import request_journal_path
from .admission import AdmissionController, Ticket
from .fleet import WorkerDied, WorkerFleet, WorkerShard
from .protocol import (
    Request,
    encode,
    parse_request,
    response_error,
    response_ok,
    response_overloaded,
    response_pong,
)
from .quotas import QuotaRegistry

__all__ = ["DiagnosisServer"]

# Extra wall-clock a worker call gets beyond the request deadline
# before the parent declares it hung: covers scenario build and journal
# I/O that happen outside the deadline-checked diagnosis loop.
_DEADLINE_GRACE_S = 30.0


class DiagnosisServer:
    """A fault-tolerant, multi-tenant diagnosis service.

    ``workers`` sizes the shard fleet; ``max_queue`` bounds
    admitted-but-unfinished requests; ``quotas`` maps tenant names to
    :class:`~repro.service.quotas.TenantQuota` (the ``"default"``
    entry covers everyone else).  ``journal_dir`` holds the
    per-request write-ahead journals (a fresh temp dir by default);
    ``keep_journals`` leaves them on disk after success instead of
    unlinking.  ``drain_timeout_s`` bounds how long
    :meth:`drain` waits for in-flight work.  ``allow_test_hooks``
    gates the chaos-test ``test_hold`` request field — off by default
    so production clients cannot park a worker.
    """

    def __init__(
        self,
        workers: int = 2,
        max_queue: int = 64,
        quotas: Optional[Dict] = None,
        journal_dir: Optional[str] = None,
        keep_journals: bool = False,
        telemetry=None,
        breaker_threshold: int = 3,
        breaker_reset_s: float = 5.0,
        max_attempts: int = 3,
        drain_timeout_s: float = 60.0,
        default_deadline_s: Optional[float] = None,
        default_engine=None,
        allow_test_hooks: bool = False,
        clock=_time.monotonic,
        flight_capacity: int = 128,
        slo_objective: float = 0.99,
        slo_window_s: float = 300.0,
    ):
        self.telemetry = _active_telemetry(telemetry)
        self.clock = clock
        # The always-on operations surface: fleet-wide metrics,
        # per-tenant SLO books, and the flight recorder.
        self.ops = OpsCenter(
            clock=clock,
            flight_capacity=flight_capacity,
            slo_objective=slo_objective,
            slo_window_s=slo_window_s,
        )
        self.max_attempts = max(1, int(max_attempts))
        self.keep_journals = bool(keep_journals)
        self.default_deadline_s = default_deadline_s
        # Engine option applied to work requests that carry none; the
        # wire form of a validated EngineConfig (or None to keep the
        # package default).  Validation happens here, at construction,
        # so a bad --engine flag fails at server start, not per request.
        if default_engine is None:
            self.default_engine = None
        else:
            from ..datalog.config import EngineConfig

            self.default_engine = EngineConfig.coerce(default_engine).to_dict()
        self.allow_test_hooks = bool(allow_test_hooks)
        self.drain_timeout_s = drain_timeout_s
        if journal_dir is None:
            self._journal_tmp = tempfile.TemporaryDirectory(
                prefix="diffprov-service-"
            )
            journal_dir = self._journal_tmp.name
        else:
            self._journal_tmp = None
            os.makedirs(journal_dir, exist_ok=True)
        self.journal_dir = journal_dir
        registry = (
            quotas if isinstance(quotas, QuotaRegistry)
            else QuotaRegistry(quotas, clock=clock)
        )
        self.admission = AdmissionController(
            max_queue=max_queue,
            quotas=registry,
            shards=workers,
            telemetry=self.telemetry,
            clock=clock,
        )
        self.fleet = WorkerFleet(
            size=workers,
            telemetry=self.telemetry,
            breaker_threshold=breaker_threshold,
            breaker_reset_s=breaker_reset_s,
            clock=clock,
        )
        self.started = False
        self._tasks = []
        self._pending = set()
        self._shard_locks: Dict[int, asyncio.Lock] = {}
        self._stopped = asyncio.Event()
        self._socket_server = None
        self._metrics_server = None
        self._connections = set()
        self.responses_total = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "DiagnosisServer":
        """Spawn the fleet and the dispatcher tasks."""
        if self.started:
            return self
        await asyncio.to_thread(self.fleet.start)
        self._shard_locks = {
            shard.index: asyncio.Lock() for shard in self.fleet.shards
        }
        self._tasks = [
            asyncio.create_task(
                self._dispatch_loop(shard), name=f"dispatch-{shard.index}"
            )
            for shard in self.fleet.shards
        ]
        self.started = True
        return self

    async def __aenter__(self):
        return await self.start()

    async def __aexit__(self, *exc_info):
        await self.shutdown()

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful drain: stop admitting, let in-flight work finish.

        Returns True when everything completed inside ``timeout``
        (default ``drain_timeout_s``).  On timeout the stragglers'
        futures resolve to a ``drain-timeout`` error — their journals
        stay on disk, so the work is resumable offline.
        """
        self.admission.start_draining()
        timeout = self.drain_timeout_s if timeout is None else timeout
        pending = {t.future for t in self._pending if not t.future.done()}
        clean = True
        if pending:
            done, not_done = await asyncio.wait(pending, timeout=timeout)
            clean = not not_done
        for ticket in list(self._pending):
            if not ticket.future.done():
                response = response_error(
                    ticket.request.id,
                    "server drained before this request finished; its "
                    f"journal remains at {ticket.journal_path}",
                    category="drain-timeout",
                )
                # Keep the SLO books honest: a drained straggler is an
                # errored outcome for its tenant, counted here because
                # _serve_ticket will find the future already resolved.
                self._record_finished(
                    ticket, response, ok=False,
                    journal_kept=ticket.journal_path,
                )
                ticket.future.set_result(response)
        return clean

    async def shutdown(self) -> None:
        """Drain, stop the fleet, cancel tasks, close the socket."""
        if self.started:
            await self.drain()
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            with contextlib.suppress(asyncio.CancelledError):
                await task
        self._tasks = []
        if self._socket_server is not None:
            self._socket_server.close()
            await self._socket_server.wait_closed()
            self._socket_server = None
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
            self._metrics_server = None
        # Idle connections sit blocked in readline(); close their
        # transports so the handlers end before the loop tears down.
        for writer in list(self._connections):
            with contextlib.suppress(Exception):
                writer.close()
        if self.started:
            await asyncio.to_thread(self.fleet.stop)
            self.started = False
        if self._journal_tmp is not None:
            with contextlib.suppress(OSError):
                self._journal_tmp.cleanup()
        self._stopped.set()

    def install_signal_handlers(self, loop=None) -> None:
        """SIGTERM/SIGINT trigger a graceful drain-and-stop."""
        loop = loop or asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(self.shutdown())
            )

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    # -- request entry points ------------------------------------------------

    async def submit(self, payload) -> Dict:
        """Serve one request (a dict, an NDJSON line, or a Request).

        Never raises for request-level problems: malformed input is an
        ``error`` response, shed load an ``overloaded`` response.
        """
        try:
            request = (
                payload if isinstance(payload, Request)
                else parse_request(payload)
            )
        except ProtocolError as exc:
            # Best-effort id recovery, so a socket client can match the
            # error to its request even when validation rejected it
            # (lenient json.loads: a NaN-bearing line keeps its id).
            if isinstance(payload, (str, bytes)):
                with contextlib.suppress(ValueError):
                    payload = json.loads(payload)
            rid = payload.get("id") if isinstance(payload, dict) else None
            return response_error(
                rid if isinstance(rid, str) else None,
                str(exc), category="protocol",
            )
        if request.kind == "ping":
            return response_pong(request.id)
        if request.kind == "stats":
            return response_pong(request.id, stats=self.stats())
        if request.kind == "metrics":
            return response_pong(request.id, metrics=self.metrics_text())
        if request.kind == "flight":
            return response_pong(
                request.id, flight=self.ops.flight.snapshot()
            )
        if request.test_hold is not None and not self.allow_test_hooks:
            return response_error(
                request.id, "test_hold requires allow_test_hooks",
                category="protocol",
            )
        if request.deadline_s is None:
            request.deadline_s = self.default_deadline_s
        if self.default_engine is not None:
            request.options.setdefault("engine", dict(self.default_engine))
        ctx = self._trace_for(request)
        span = None
        if self.telemetry is not None:
            span = self.telemetry.tracer.start_span(
                "service.request",
                tenant=request.tenant,
                request=request.id,
                kind=request.kind,
                scenario=request.scenario,
                **ctx.span_attrs(),
            )
        self.ops.slo.offered(request.tenant)
        try:
            if span is not None:
                admission_span = self.telemetry.tracer.start_span(
                    "service.admission", parent=span,
                )
                try:
                    ticket = self.admission.admit(request)
                except Overloaded as exc:
                    self.telemetry.tracer.finish(
                        admission_span, "error", error=f"shed: {exc.reason}"
                    )
                    raise
                self.telemetry.tracer.finish(admission_span)
            else:
                ticket = self.admission.admit(request)
        except Overloaded as exc:
            self.ops.slo.shed(request.tenant, exc.reason)
            if span is not None:
                self.telemetry.tracer.finish(
                    span, "error", error=f"shed: {exc.reason}"
                )
            return response_overloaded(request.id, exc)
        self.ops.slo.admitted(request.tenant)
        ticket.trace = ctx
        ticket.span = span
        self._pending.add(ticket)
        try:
            response = await ticket.future
        finally:
            self._pending.discard(ticket)
        if span is not None:
            ok = response.get("status") == "ok"
            self.telemetry.tracer.finish(
                span,
                "ok" if ok else "error",
                error=None if ok else response.get(
                    "message", response.get("status")
                ),
            )
        self.responses_total += 1
        return response

    def _trace_for(self, request: Request) -> TraceContext:
        """The request's trace position: continue the client's trace or
        root a fresh one from the request fingerprint (deterministic —
        the same request always lands in the same trace)."""
        if request.trace is not None:
            upstream = TraceContext.from_dict(request.trace)
        else:
            upstream = TraceContext.root({
                "id": request.id,
                "kind": request.kind,
                "scenario": request.scenario,
                "tenant": request.tenant,
                "priority": request.priority,
                "options": request.options,
            })
        return upstream.child("service.request")

    async def serve(self, host: str = "127.0.0.1", port: int = 0):
        """Listen for NDJSON clients; returns the bound (host, port)."""
        if not self.started:
            await self.start()
        self._socket_server = await asyncio.start_server(
            self._handle_connection, host=host, port=port
        )
        return self._socket_server.sockets[0].getsockname()[:2]

    async def _handle_connection(self, reader, writer):
        self._connections.add(writer)
        write_lock = asyncio.Lock()
        in_flight = set()

        async def answer(line):
            response = await self.submit(line)
            async with write_lock:
                writer.write(encode(response))
                await writer.drain()

        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.IncompleteReadError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                # Requests on one connection run concurrently;
                # responses are matched by id, not order.
                task = asyncio.create_task(answer(line))
                in_flight.add(task)
                task.add_done_callback(in_flight.discard)
        finally:
            self._connections.discard(writer)
            if in_flight:
                await asyncio.gather(*in_flight, return_exceptions=True)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    # -- dispatch ------------------------------------------------------------

    async def _dispatch_loop(self, shard: WorkerShard) -> None:
        while True:
            await self._wait_serviceable(shard)
            ticket = await self.admission.next()
            if ticket is None:
                break  # draining and the queue is empty
            await self._serve_ticket(shard, ticket)

    async def _wait_serviceable(self, shard: WorkerShard) -> None:
        while not shard.breaker.allow():
            await asyncio.sleep(0.05)

    async def _serve_ticket(self, shard: WorkerShard, ticket: Ticket) -> None:
        request = ticket.request
        try:
            response = await self._run_ticket(shard, ticket)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - dispatcher must survive
            response = response_error(
                request.id, f"{type(exc).__name__}: {exc}",
                category="internal",
            )
        self.admission.mark_done(ticket)
        ok = response.get("status") == "ok"
        journal_kept = ticket.journal_path if (
            not ok or self.keep_journals
        ) else None
        if ok and not self.keep_journals and ticket.journal_path:
            with contextlib.suppress(OSError):
                os.unlink(ticket.journal_path)
        if not ticket.future.done():
            self._record_finished(ticket, response, ok, journal_kept)
            ticket.future.set_result(response)

    def _record_finished(self, ticket: Ticket, response: Dict, ok: bool,
                         journal_kept: Optional[str]) -> None:
        """SLO + flight-recorder bookkeeping for one resolved ticket."""
        request = ticket.request
        now = self.clock()
        queue_wait = (
            None if ticket.started_at is None
            else max(0.0, ticket.started_at - ticket.admitted_at)
        )
        latency = max(0.0, now - ticket.admitted_at)
        self.ops.slo.finished(
            request.tenant, ok, queue_wait_s=queue_wait, latency_s=latency
        )
        report = response.get("report") or {}
        verdict = None
        if isinstance(report, dict) and ok:
            verdict = (
                "success" if report.get("success")
                else report.get("failure")
            )
        self.ops.flight.record(
            request=request.id,
            tenant=request.tenant,
            kind=request.kind,
            scenario=request.scenario,
            status=response.get("status"),
            verdict=verdict,
            category=response.get("category"),
            trace_id=ticket.trace.trace_id if ticket.trace else None,
            shard=response.get("shard"),
            attempts=ticket.attempts + 1,
            queue_wait_s=None if queue_wait is None else round(queue_wait, 6),
            latency_s=round(latency, 6),
            journal=journal_kept,
        )

    def _journal_for(self, ticket: Ticket) -> str:
        # The server-side sequence number namespaces the path, so two
        # clients reusing an id can never cross-resume each other.
        return request_journal_path(
            self.journal_dir, f"{ticket.seq:06d}-{ticket.request.id}"
        )

    async def _run_ticket(self, shard: WorkerShard, ticket: Ticket) -> Dict:
        request = ticket.request
        job = request.job()
        ticket.journal_path = self._journal_for(ticket)
        job["journal"] = ticket.journal_path
        while True:
            attempt = ticket.attempts + 1
            dispatch_ctx = None
            if ticket.trace is not None:
                # Same trace across retries: a crash-resumed attempt
                # re-derives the same span ids, tagged attempt=N.
                dispatch_ctx = ticket.trace.child(
                    "service.dispatch"
                ).with_attempt(attempt)
                job["trace"] = dispatch_ctx.to_dict()
            dispatch_span = None
            if self.telemetry is not None and ticket.span is not None:
                dispatch_span = self.telemetry.tracer.start_span(
                    "service.dispatch",
                    parent=ticket.span,
                    shard=shard.index,
                    **(dispatch_ctx.span_attrs() if dispatch_ctx else {}),
                )
            remaining = ticket.remaining_deadline(self.clock())
            if remaining is not None:
                # An expired budget still dispatches: the worker's
                # deadline machinery degrades it to a partial report
                # in milliseconds — a partial answer, not a 500.
                job["deadline_s"] = max(remaining, 0.001)
            timeout = (
                None if remaining is None
                else max(remaining, 0.0) + _DEADLINE_GRACE_S
            )
            try:
                status, payload = await self._call_shard(
                    shard, ticket, job, timeout
                )
            except WorkerDied as died:
                if dispatch_span is not None:
                    self.telemetry.tracer.finish(
                        dispatch_span, "error", error=str(died)
                    )
                self.fleet.record_crash(shard)
                ticket.attempts += 1
                # Chaos holds fire on the first attempt only (like the
                # evaluator's simulated crashes): the retry must run to
                # completion, not park itself again.
                job.pop("test_hold", None)
                restarted = self.fleet.restart(shard)
                if ticket.attempts >= self.max_attempts:
                    return response_error(
                        request.id,
                        f"request crashed its worker {ticket.attempts} "
                        f"time(s); journal kept at {ticket.journal_path}",
                        category="worker-failure",
                    )
                if not restarted:
                    # This shard is fenced: hand the (journaled,
                    # resumable) request to a healthy one.
                    other = self.fleet.pick_healthy(exclude=shard)
                    if other is None:
                        return response_error(
                            request.id,
                            "no healthy worker shards; journal kept at "
                            f"{ticket.journal_path}",
                            category="no-workers",
                        )
                    shard = other
                continue
            self.fleet.record_success(shard)
            if isinstance(payload, dict):
                delta = payload.pop("metrics_delta", None)
                if delta:
                    self.ops.fold_worker_delta(delta)
            if dispatch_span is not None:
                worker_spans = (
                    (payload.get("telemetry") or {}).get("spans")
                    if status == "ok" and isinstance(payload, dict) else None
                )
                for span_data in worker_spans or ():
                    self.telemetry.tracer.graft(span_data, dispatch_span)
                self.telemetry.tracer.finish(
                    dispatch_span,
                    "ok" if status == "ok" else "error",
                )
            if status == "err":
                return response_error(
                    request.id,
                    payload.get("message", "diagnosis failed"),
                    category=payload.get("category", "diagnosis-error"),
                )
            return response_ok(
                request.id,
                payload,
                shard=shard.index,
                attempts=ticket.attempts + 1,
            )

    async def _call_shard(self, shard, ticket, job, timeout):
        lock = self._shard_locks[shard.index]
        async with lock:
            shard.busy = True
            shard.current_request = ticket.request.id
            try:
                return await asyncio.to_thread(shard.call, job, timeout)
            finally:
                shard.busy = False
                shard.current_request = None

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Queue, shed, tenant, and fleet state (the ops surface)."""
        return {
            "admission": self.admission.stats(),
            "fleet": self.fleet.stats(),
            "responses_total": self.responses_total,
            "slo": self.ops.slo.snapshot(),
            "flight": {
                "capacity": self.ops.flight.capacity,
                "recorded_total": self.ops.flight.recorded_total,
            },
        }

    def metrics_text(self) -> str:
        """The Prometheus-style exposition page (``metrics`` verb and
        the ``--metrics-port`` endpoint)."""
        metrics = self.ops.metrics
        metrics.set_gauge("service.queue.depth", self.admission.queued)
        metrics.set_gauge("service.in_flight", self.admission.in_flight)
        metrics.set_gauge(
            "service.admitted_total", self.admission.admitted_total
        )
        for reason, count in sorted(self.admission.shed.items()):
            metrics.set_gauge(f"service.shed_total.{reason}", count)
        metrics.set_gauge("service.responses_total", self.responses_total)
        metrics.set_gauge("service.fleet.size", self.fleet.size)
        metrics.set_gauge("service.fleet.restarts", self.fleet.restarts)
        metrics.set_gauge("service.fleet.fenced", sum(
            1 for shard in self.fleet.shards if shard.breaker.open
        ))
        metrics.set_gauge("service.draining", int(self.admission.draining))
        extras = ()
        if self.telemetry is not None:
            extras = (self.telemetry.snapshot(),)
        return self.ops.prometheus(*extras)

    async def serve_metrics(self, host: str = "127.0.0.1", port: int = 0):
        """Expose :meth:`metrics_text` over plain HTTP/1.0.

        A minimal responder (stdlib only): any request path gets the
        full exposition page.  Returns the bound ``(host, port)``.
        """
        self._metrics_server = await asyncio.start_server(
            self._handle_metrics, host=host, port=port
        )
        return self._metrics_server.sockets[0].getsockname()[:2]

    async def _handle_metrics(self, reader, writer):
        try:
            # Read the request line + headers up to the blank line;
            # the path is irrelevant (every path is /metrics).
            while True:
                line = await reader.readline()
                if not line or line in (b"\r\n", b"\n"):
                    break
            body = self.metrics_text().encode("utf-8")
            writer.write(
                b"HTTP/1.0 200 OK\r\n"
                b"Content-Type: text/plain; version=0.0.4; "
                b"charset=utf-8\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
                + body
            )
            await writer.drain()
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    def shard_for_request(self, request_id: str) -> Optional[WorkerShard]:
        """The shard currently serving ``request_id`` (chaos tests)."""
        for shard in self.fleet.shards:
            if shard.current_request == request_id:
                return shard
        return None

    def __repr__(self):
        return (
            f"DiagnosisServer(workers={self.fleet.size}, "
            f"queued={self.admission.queued}, "
            f"in_flight={self.admission.in_flight}, "
            f"draining={self.admission.draining})"
        )
