"""The diagnosis service wire protocol (docs/service.md).

Newline-delimited JSON, one object per line, in both directions.  A
request names a built-in scenario plus tuning knobs; a response echoes
the request ``id`` and carries one of four statuses:

``ok``
    The diagnosis ran.  ``report`` holds the summary fields and
    ``canonical`` the byte-exact :meth:`DiagnosisReport.canonical_json`
    string (the determinism contract: identical across shards, cache
    states, and crash-resume).
``overloaded``
    The request was *refused at admission* — queue full, quota
    exhausted, tenant concurrency cap, or a draining server.  Carries
    ``reason`` and a ``retry_after_s`` hint.  No diagnosis work ran.
``error``
    The request was admitted but could not produce a report (unknown
    scenario, worker fleet exhausted, drain timeout).  ``category``
    is machine-readable.
``pong``
    Liveness answer to a ``ping`` request.

Only JSON-representable requests exist on the wire, so the service is
scenario-mode only; explicit program/execution sessions stay a library
feature (:class:`repro.api.Session`).
"""

from __future__ import annotations

import json
import sys
from typing import Dict, Optional

from ..api import check_option
from ..datalog.config import EngineConfig
from ..errors import Overloaded, ProtocolError, ReproError

__all__ = [
    "PROTOCOL_VERSION",
    "Request",
    "parse_request",
    "encode",
    "decode",
    "response_ok",
    "response_error",
    "response_overloaded",
    "response_pong",
]

PROTOCOL_VERSION = 1

# Request kinds the server dispatches to the worker fleet, plus the
# inline-answered control kinds (``metrics`` returns the Prometheus
# exposition text, ``flight`` the flight-recorder ring buffer).
WORK_KINDS = ("diagnose", "autoref")
CONTROL_KINDS = ("ping", "stats", "metrics", "flight")

# Keys an upstream trace context may carry (repro.observability.ops
# TraceContext.to_dict); anything else is a protocol error.
_TRACE_KEYS = frozenset({"trace_id", "span_id", "parent_span_id", "attempt"})

_MAX_LINE_BYTES = 64 * 1024


class Request:
    """One validated service request.

    ``priority`` orders the admission queue (0 = most urgent, default
    5); ``deadline_s`` is the end-to-end budget measured from
    *admission* — queue wait spends it, and what remains is what the
    worker's diagnosis gets (docs/service.md).
    """

    __slots__ = (
        "id", "kind", "scenario", "tenant", "priority", "deadline_s",
        "options", "test_hold", "trace",
    )

    def __init__(
        self,
        id: str,
        kind: str,
        scenario: Optional[str] = None,
        tenant: str = "default",
        priority: int = 5,
        deadline_s: Optional[float] = None,
        options: Optional[Dict] = None,
        test_hold: Optional[Dict] = None,
        trace: Optional[Dict] = None,
    ):
        self.id = id
        self.kind = kind
        self.scenario = scenario
        self.tenant = tenant
        self.priority = priority
        self.deadline_s = deadline_s
        self.options = dict(options or {})
        self.test_hold = test_hold
        # Upstream trace context (trace_id + span lineage), if the
        # client is itself part of a trace; the server roots one
        # otherwise.
        self.trace = trace

    def job(self) -> Dict[str, object]:
        """The worker-fleet payload (plain JSON types only)."""
        job: Dict[str, object] = {
            "op": self.kind,
            "scenario": self.scenario,
            "options": dict(self.options),
        }
        if self.test_hold is not None:
            job["test_hold"] = dict(self.test_hold)
        return job

    def __repr__(self):
        return (
            f"Request({self.id!r}, {self.kind}, scenario={self.scenario}, "
            f"tenant={self.tenant!r}, priority={self.priority})"
        )


def parse_request(payload) -> Request:
    """Validate one request object (a dict, or a raw NDJSON line)."""
    if isinstance(payload, (str, bytes)):
        payload = decode(payload)
    if not isinstance(payload, dict):
        raise ProtocolError(f"request must be a JSON object, got "
                            f"{type(payload).__name__}")
    unknown = set(payload) - {
        "id", "kind", "scenario", "tenant", "priority", "deadline_s",
        "options", "test_hold", "trace", "v",
    }
    if unknown:
        raise ProtocolError(f"unknown request field(s): "
                            f"{', '.join(sorted(unknown))}")
    version = payload.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {version!r} unsupported "
            f"(this server speaks {PROTOCOL_VERSION})"
        )
    request_id = payload.get("id")
    if not isinstance(request_id, str) or not request_id:
        raise ProtocolError("request needs a non-empty string 'id'")
    kind = payload.get("kind")
    if kind not in WORK_KINDS + CONTROL_KINDS:
        raise ProtocolError(
            f"unknown kind {kind!r} (choose from "
            f"{', '.join(WORK_KINDS + CONTROL_KINDS)})"
        )
    scenario = payload.get("scenario")
    if kind in WORK_KINDS:
        if not isinstance(scenario, str) or not scenario:
            raise ProtocolError(f"kind {kind!r} needs a 'scenario' name")
        scenario = scenario.upper()
    tenant = payload.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError("'tenant' must be a non-empty string")
    priority = payload.get("priority", 5)
    if not isinstance(priority, int) or isinstance(priority, bool) \
            or not 0 <= priority <= 9:
        raise ProtocolError("'priority' must be an integer in 0..9 "
                            "(0 = most urgent)")
    deadline_s = payload.get("deadline_s")
    if deadline_s is not None:
        # NaN fails every comparison; infinities and integers past the
        # float range fail the upper bound.
        if not isinstance(deadline_s, (int, float)) \
                or isinstance(deadline_s, bool) \
                or not 0 < deadline_s <= sys.float_info.max:
            raise ProtocolError("'deadline_s' must be positive and finite")
        deadline_s = float(deadline_s)
    options = payload.get("options") or {}
    if not isinstance(options, dict):
        raise ProtocolError("'options' must be an object")
    # The tuning knobs a request may forward to the worker's Session
    # are the wire rows of repro.api.KNOBS — names *and* value types.
    # A table, not a passthrough: a typo or a mistyped value ("false",
    # "ten") fails loudly here, before it spends a quota token and a
    # worker slot or silently changes the Δ, and a client can never
    # reach knobs that break determinism or isolation (journal paths,
    # worker counts).
    for name in sorted(options):
        try:
            check_option(name, options[name])
        except ReproError as exc:
            raise ProtocolError(str(exc)) from exc
    if options.get("engine") is not None:
        options = dict(options)
        options["engine"] = EngineConfig.coerce(options["engine"]).to_dict()
    test_hold = payload.get("test_hold")
    if test_hold is not None and not isinstance(test_hold, dict):
        raise ProtocolError("'test_hold' must be an object")
    trace = payload.get("trace")
    if trace is not None:
        if not isinstance(trace, dict):
            raise ProtocolError("'trace' must be an object")
        bad_trace = set(trace) - _TRACE_KEYS
        if bad_trace:
            raise ProtocolError(
                f"unknown trace field(s): {', '.join(sorted(bad_trace))} "
                f"(allowed: {', '.join(sorted(_TRACE_KEYS))})"
            )
        trace_id = trace.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            raise ProtocolError(
                "'trace' needs a non-empty string 'trace_id'"
            )
    return Request(
        id=request_id,
        kind=kind,
        scenario=scenario,
        tenant=tenant,
        priority=priority,
        deadline_s=deadline_s,
        options=options,
        test_hold=test_hold,
        trace=trace,
    )


# -- framing -----------------------------------------------------------------


def encode(obj: Dict) -> bytes:
    """One NDJSON frame: compact JSON, sorted keys, newline-terminated."""
    return (
        json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def _reject_constant(name: str):
    # Python's json accepts NaN / Infinity / -Infinity; strict JSON does not.
    raise ProtocolError(f"request is not valid JSON: {name} is not a number")


_STRICT_JSON = json.JSONDecoder(parse_constant=_reject_constant)


def decode(line) -> Dict:
    """Parse one NDJSON frame; typed errors, never a raw ValueError."""
    if isinstance(line, bytes):
        if len(line) > _MAX_LINE_BYTES:
            raise ProtocolError(
                f"request line exceeds {_MAX_LINE_BYTES} bytes"
            )
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request is not valid UTF-8: {exc}") from exc
    try:
        return _STRICT_JSON.decode(line)
    except ValueError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc


# -- responses ---------------------------------------------------------------


def response_ok(request_id: str, report: Dict, **extra) -> Dict:
    response = {"id": request_id, "status": "ok", "report": report}
    response.update(extra)
    return response


def response_error(request_id: Optional[str], message: str,
                   category: str = "error") -> Dict:
    return {
        "id": request_id,
        "status": "error",
        "category": category,
        "message": message,
    }


def response_overloaded(request_id: str, exc: Overloaded) -> Dict:
    return {
        "id": request_id,
        "status": "overloaded",
        "reason": exc.reason,
        "retry_after_s": round(exc.retry_after_s, 3),
        "message": str(exc),
    }


def response_pong(request_id: str, **extra) -> Dict:
    response = {"id": request_id, "status": "pong"}
    response.update(extra)
    return response
