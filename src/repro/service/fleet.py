"""The sharded fleet of persistent diagnosis worker processes.

Each :class:`WorkerShard` owns one long-lived worker process (a
single-worker ``ProcessPoolExecutor`` over the fork-preferring
:func:`pool_mp_context`) that serves one request at a time.
Persistence is the point: a worker that has diagnosed a scenario once
keeps a warm :class:`~repro.replay.cache.ReplayCache` in its process —
keyed by log fingerprint, so repeat workloads fork snapshots instead of
re-deriving baseline state, across requests and across tenants.

Robustness model (docs/service.md):

- **Worker death** (OOM kill, segfault, chaos SIGKILL) surfaces as a
  broken pool on the in-flight call and is raised as a typed
  :class:`WorkerDied`.  The dispatcher restarts the shard and retries
  the request with ``resume=True`` — the request's write-ahead journal
  (:mod:`repro.resilience.journal`) is on shared disk, so the retried
  diagnosis skips every verdict the dead worker recorded and produces
  a byte-identical report.
- **Crash loops** trip a per-shard :class:`CircuitBreaker`: after
  ``threshold`` consecutive crashes the shard is fenced for
  ``reset_s`` seconds (half-open after that — one probe request
  re-closes or re-opens it).  Fenced shards serve nothing; their
  dispatchers wait, and in-flight retries hand off to healthy shards.
- **Hangs** are bounded by per-call timeouts derived from the
  request deadline; a timed-out worker is killed and treated as a
  crash (the journal makes the retry cheap).

Worker-side job execution lives in :func:`_worker_job`, a module-level
function (pickled by reference).
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import signal
import threading
import time as _time
from typing import Callable, Dict, List, Optional

from ..errors import ServiceError

__all__ = ["CircuitBreaker", "WorkerDied", "WorkerFleet", "WorkerShard"]


def pool_mp_context():
    """The multiprocessing context for diagnosis worker processes.

    Prefer fork on platforms that have it: parent state is shared
    copy-on-write and worker start-up is milliseconds.  Spawn-only
    platforms get the default context — identical semantics, slower
    start.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return multiprocessing.get_context()


class WorkerDied(ServiceError):
    """A shard's worker process vanished mid-call (or hung past its
    bound).  Internal to the fleet: dispatchers convert it into a
    restart-and-resume, never into a client-visible 500."""


# Test-only environment hooks honoured by the diagnosis journal; a
# request's ``test_hold`` maps onto them inside the worker process so
# chaos tests can park a diagnosis at a deterministic point and SIGKILL
# the worker mid-request.
_HOLD_KEYS = {
    "phase": "REPRO_TEST_HOLD_PHASE",
    "after_verdicts": "REPRO_TEST_HOLD_AFTER_VERDICTS",
    "seconds": "REPRO_TEST_HOLD_S",
}

# Worker-process global: one warm ReplayCache shared by every request
# the worker serves.  Snapshot keys embed the log fingerprint and fault
# plan (ReplayCache.base_key), so scenarios never collide and the one
# LRU store serves the whole request mix.
_WARM_CACHE = None

# Worker-process metric counters, shipped to the server as *deltas*
# piggybacked on each response (payload["metrics_delta"]), so the
# server's exposition covers the whole fleet without a side channel.
# Plain dicts, not a MetricsRegistry: absolute cumulative values delta
# cleanly across ships even when a counter is bumped by another metric
# source (e.g. cache stats).
_COUNTS: Dict[str, float] = {}
_SHIPPED: Dict[str, float] = {}


def _count(name: str, amount: float = 1) -> None:
    _COUNTS[name] = _COUNTS.get(name, 0) + amount


def _metrics_delta() -> Dict[str, float]:
    """Positive counter increments since the last shipped delta."""
    delta: Dict[str, float] = {}
    for name in sorted(_COUNTS):
        increment = _COUNTS[name] - _SHIPPED.get(name, 0)
        if increment > 0:
            delta[name] = round(increment, 6)
            _SHIPPED[name] = _COUNTS[name]
    return delta


def _warm_cache():
    global _WARM_CACHE
    if _WARM_CACHE is None:
        from ..replay.cache import ReplayCache

        _WARM_CACHE = ReplayCache()
    return _WARM_CACHE


def _worker_job(job: Dict):
    """Serve one fleet job inside the worker process.

    Returns ``("ok", payload)`` or ``("err", {...})`` — diagnosis
    failures are *data*, transported back and answered as typed error
    responses; only worker death is an exception the parent sees.
    """
    op = job.get("op")
    if op == "ping":
        return ("ok", {"pid": os.getpid(), "cache": _warm_cache().stats()})
    if op == "_crash":  # chaos-test hook: die like a SIGKILL'd worker
        os._exit(int(job.get("code", 66)))
    hold = job.get("test_hold") or {}
    saved = {}
    for key, env in _HOLD_KEYS.items():
        if key in hold:
            saved[env] = os.environ.get(env)
            os.environ[env] = str(hold[key])
    started = _time.perf_counter()
    _count("worker.requests")
    try:
        status, payload = _serve_diagnosis(job)
    except Exception as exc:  # noqa: BLE001 - transported to the parent
        status, payload = ("err", {
            "message": f"{type(exc).__name__}: {exc}",
            "category": "diagnosis-error",
        })
    finally:
        for env, value in saved.items():
            if value is None:
                os.environ.pop(env, None)
            else:
                os.environ[env] = value
    if status != "ok":
        _count("worker.errors")
    _count("worker.busy_s", _time.perf_counter() - started)
    if isinstance(payload, dict):
        payload["metrics_delta"] = _metrics_delta()
    return (status, payload)


def _serve_diagnosis(job: Dict):
    from ..api import Session
    from ..observability import ManualClock, Telemetry

    # Admission (protocol.parse_request) already type-checked every
    # option; the ones present are forwarded as they are and Session's
    # own defaults cover the rest.
    options = dict(job.get("options") or {})
    limit = options.pop("limit", None)
    # telemetry: False (off) / True (wall clock) / "manual" — the last
    # runs the worker's tracer on a fresh ManualClock so exported spans
    # (and the stitched service trace) are byte-identical across runs.
    telemetry = options.pop("telemetry", False)
    if telemetry == "manual":
        telemetry = Telemetry(clock=ManualClock())
    session = Session(
        scenario=job["scenario"],
        telemetry=telemetry,
        trace=job.get("trace"),
        journal=job.get("journal"),
        resume=True,  # first attempt finds no file and starts fresh
        deadline_s=job.get("deadline_s"),
        cache=_warm_cache(),
        **options,
    )
    with session:
        if job["op"] == "autoref":
            result = (
                session.autoref() if limit is None
                else session.autoref(limit=limit)
            )
            report = result.report
            payload = {
                "found": result.found,
                "reference": (
                    str(result.reference) if result.reference else None
                ),
                "tried": len(result.tried),
            }
            if report is None:
                # The sweep exhausted its candidates: a negative
                # answer, not an error.
                payload.update({
                    "pid": os.getpid(),
                    "success": False,
                    "failure": "no-reference-found",
                    "changes": [],
                    "canonical": None,
                    "deadline_degraded": bool(result.stopped_early),
                    "resilience": result.resilience,
                    "cache": _warm_cache().stats(),
                })
                return ("ok", payload)
        else:
            report = session.diagnose()
            payload = {}
        resilience = report.resilience or {}
        deadline = resilience.get("deadline", {})
        payload.update({
            "pid": os.getpid(),
            "success": report.success,
            "failure": report.failure_category,
            "changes": [change.describe() for change in report.changes],
            "canonical": report.canonical_json(),
            "deadline_degraded": bool(
                report.failure_category == "deadline-exceeded"
                or deadline.get("expired")
            ),
            "resilience": resilience or None,
            "cache": _warm_cache().stats(),
        })
        if report.repair is not None:
            # Convenience mirror; the section is authoritative inside
            # "canonical" (it is part of the canonical report).
            payload["repair"] = report.repair
        if session.telemetry is not None:
            tracer = session.telemetry.tracer
            payload["telemetry"] = {
                "phases": report.telemetry.get("phases", [])
                if report.telemetry else [],
                # The worker's span forest, serialized so the server
                # can graft it under its dispatch span — one stitched
                # trace across the process boundary.
                "spans": [root.to_dict() for root in tracer.roots],
            }
        return ("ok", payload)


class CircuitBreaker:
    """Fence a shard after consecutive crashes; half-open after reset.

    ``record_failure`` counts a crash; at ``threshold`` the breaker
    opens for ``reset_s`` seconds.  ``allow()`` is True while closed
    *or* once the reset window has passed (half-open: the next call is
    the probe — a success closes the breaker, a failure re-opens it
    with a fresh window).
    """

    __slots__ = ("threshold", "reset_s", "clock", "failures", "opened_at",
                 "trips")

    def __init__(self, threshold: int = 3, reset_s: float = 5.0,
                 clock: Callable[[], float] = _time.monotonic):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.reset_s = float(reset_s)
        self.clock = clock
        self.failures = 0
        self.opened_at: Optional[float] = None
        self.trips = 0

    def record_failure(self) -> None:
        self.failures += 1
        if self.failures >= self.threshold:
            if self.opened_at is None:
                self.trips += 1
            self.opened_at = self.clock()

    def record_success(self) -> None:
        self.failures = 0
        self.opened_at = None

    @property
    def open(self) -> bool:
        return (
            self.opened_at is not None
            and self.clock() - self.opened_at < self.reset_s
        )

    def allow(self) -> bool:
        return not self.open

    def __repr__(self):
        state = "open" if self.open else (
            "half-open" if self.opened_at is not None else "closed"
        )
        return f"CircuitBreaker({state}, failures={self.failures})"


class WorkerShard:
    """One persistent worker process and its health bookkeeping."""

    def __init__(self, index: int, breaker: CircuitBreaker):
        self.index = index
        self.breaker = breaker
        self.pid: Optional[int] = None
        self.busy = False
        self.current_request: Optional[str] = None
        self.crashes = 0
        self.served = 0
        self._pool = None

    def start(self) -> None:
        self._pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=1, mp_context=pool_mp_context()
        )

    def call(self, job: Dict, timeout: Optional[float] = None):
        """Run one job on the shard's worker (blocking; call off-loop).

        Raises :class:`WorkerDied` when the process vanished or blew
        the timeout; every other outcome comes back as the worker's
        ``(status, payload)`` pair.
        """
        if self._pool is None:
            raise WorkerDied(f"shard {self.index} is not started")
        try:
            future = self._pool.submit(_worker_job, job)
            if timeout is not None:  # a 1e300 s budget overflows the wait
                timeout = min(timeout, threading.TIMEOUT_MAX)
            status, payload = future.result(timeout=timeout)
        except concurrent.futures.process.BrokenProcessPool as exc:
            raise WorkerDied(
                f"shard {self.index} worker died mid-call"
            ) from exc
        except concurrent.futures.TimeoutError as exc:
            # A hung worker is indistinguishable from a lost one: kill
            # it so the restart path (journal resume) takes over.
            self.kill()
            raise WorkerDied(
                f"shard {self.index} exceeded its {timeout:g}s call bound"
            ) from exc
        if status == "ok" and isinstance(payload, dict):
            self.pid = payload.get("pid", self.pid)
        self.served += 1
        return status, payload

    def ping(self, timeout: float = 10.0) -> Dict:
        status, payload = self.call({"op": "ping"}, timeout=timeout)
        return payload

    def kill(self) -> None:
        """SIGKILL the worker process (hang recovery, fleet stop)."""
        if self.pid is not None:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass

    def restart(self) -> None:
        old = self._pool
        self._pool = None
        if old is not None:
            old.shutdown(wait=False, cancel_futures=True)
        self.kill()
        self.pid = None
        self.start()

    def stop(self) -> None:
        pool = self._pool
        self._pool = None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        self.kill()

    def __repr__(self):
        return (
            f"WorkerShard({self.index}, pid={self.pid}, "
            f"crashes={self.crashes}, {self.breaker!r})"
        )


class WorkerFleet:
    """All shards plus the crash/restart/fencing policy around them."""

    def __init__(
        self,
        size: int = 2,
        telemetry=None,
        breaker_threshold: int = 3,
        breaker_reset_s: float = 5.0,
        clock: Callable[[], float] = _time.monotonic,
    ):
        if size < 1:
            raise ValueError(f"fleet size must be >= 1, got {size}")
        self.telemetry = telemetry
        self.clock = clock
        self.shards: List[WorkerShard] = [
            WorkerShard(i, CircuitBreaker(breaker_threshold,
                                          breaker_reset_s, clock))
            for i in range(size)
        ]
        self.restarts = 0
        self.started = False

    @property
    def size(self) -> int:
        return len(self.shards)

    def start(self, prewarm: bool = True) -> None:
        for shard in self.shards:
            shard.start()
        self.started = True
        if prewarm:
            # First contact spawns the process and records its pid —
            # so the first real request pays no fork, and chaos tests
            # know who to kill.
            for shard in self.shards:
                try:
                    shard.ping()
                except WorkerDied:  # pragma: no cover - start-up race
                    self.record_crash(shard)
                    self.restart(shard)

    def stop(self) -> None:
        for shard in self.shards:
            shard.stop()
        self.started = False

    # -- crash policy --------------------------------------------------------

    def record_crash(self, shard: WorkerShard) -> None:
        shard.crashes += 1
        was_open = shard.breaker.open
        shard.breaker.record_failure()
        if self.telemetry is not None:
            self.telemetry.inc("service.worker.crashes")
            if shard.breaker.open and not was_open:
                self.telemetry.inc("service.breaker.trips")

    def record_success(self, shard: WorkerShard) -> None:
        shard.breaker.record_success()

    def restart(self, shard: WorkerShard) -> bool:
        """Respawn the shard's worker unless its breaker fences it."""
        if not shard.breaker.allow():
            return False
        shard.restart()
        self.restarts += 1
        if self.telemetry is not None:
            self.telemetry.inc("service.worker.restarts")
        return True

    def pick_healthy(self, exclude: Optional[WorkerShard] = None):
        """The least-crashed serviceable shard (None when all fenced)."""
        candidates = [
            shard for shard in self.shards
            if shard is not exclude and shard.breaker.allow()
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda s: (s.crashes, s.index))

    def stats(self) -> Dict[str, object]:
        return {
            "size": self.size,
            "restarts": self.restarts,
            "shards": [
                {
                    "index": shard.index,
                    "pid": shard.pid,
                    "busy": shard.busy,
                    "crashes": shard.crashes,
                    "served": shard.served,
                    "breaker_open": shard.breaker.open,
                    "breaker_trips": shard.breaker.trips,
                }
                for shard in self.shards
            ],
        }

    def __repr__(self):
        fenced = sum(1 for s in self.shards if s.breaker.open)
        return (
            f"WorkerFleet(size={self.size}, restarts={self.restarts}, "
            f"fenced={fenced})"
        )
