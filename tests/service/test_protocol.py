"""The NDJSON wire protocol: validation, framing, typed responses."""

import json

import pytest

from repro.errors import Overloaded, ProtocolError
from repro.service.protocol import (
    PROTOCOL_VERSION,
    Request,
    decode,
    encode,
    parse_request,
    response_error,
    response_ok,
    response_overloaded,
    response_pong,
)


def test_parse_minimal_diagnose_request():
    request = parse_request({"id": "r1", "kind": "diagnose", "scenario": "sdn1"})
    assert request.id == "r1"
    assert request.scenario == "SDN1"  # case-normalised
    assert request.tenant == "default"
    assert request.priority == 5
    assert request.deadline_s is None


def test_parse_accepts_raw_ndjson_line():
    line = json.dumps({"id": "x", "kind": "ping"}).encode() + b"\n"
    assert parse_request(line).kind == "ping"


def test_parse_full_request_round_trips_into_job():
    request = parse_request({
        "id": "r2", "kind": "autoref", "scenario": "DNS",
        "tenant": "ops", "priority": 1, "deadline_s": 2.5,
        "options": {"limit": 3, "minimize": True},
    })
    job = request.job()
    assert job["op"] == "autoref"
    assert job["scenario"] == "DNS"
    assert job["options"] == {"limit": 3, "minimize": True}
    assert "test_hold" not in job


@pytest.mark.parametrize("payload,fragment", [
    ("{not json", "not valid JSON"),
    ([1, 2], "JSON object"),
    ({"kind": "diagnose", "scenario": "SDN1"}, "'id'"),
    ({"id": "", "kind": "diagnose", "scenario": "SDN1"}, "'id'"),
    ({"id": "x", "kind": "frobnicate"}, "unknown kind"),
    ({"id": "x", "kind": "diagnose"}, "needs a 'scenario'"),
    ({"id": "x", "kind": "diagnose", "scenario": "SDN1",
      "tenant": ""}, "'tenant'"),
    ({"id": "x", "kind": "diagnose", "scenario": "SDN1",
      "priority": 17}, "'priority'"),
    ({"id": "x", "kind": "diagnose", "scenario": "SDN1",
      "priority": True}, "'priority'"),
    ({"id": "x", "kind": "diagnose", "scenario": "SDN1",
      "deadline_s": -1}, "'deadline_s'"),
    ({"id": "x", "kind": "diagnose", "scenario": "SDN1",
      "options": {"workers": 8}}, "unsupported option"),
    ({"id": "x", "kind": "diagnose", "scenario": "SDN1",
      "bogus": 1}, "unknown request field"),
    ({"id": "x", "kind": "ping", "v": 99}, "protocol version"),
    ({"id": "x", "kind": "diagnose", "scenario": "SDN1",
      "trace": "cafe"}, "'trace' must be an object"),
    ({"id": "x", "kind": "diagnose", "scenario": "SDN1",
      "trace": {"trace_id": "cafe", "flavour": 1}}, "unknown trace field"),
    ({"id": "x", "kind": "diagnose", "scenario": "SDN1",
      "trace": {"span_id": "cafe"}}, "non-empty string 'trace_id'"),
    ({"id": "x", "kind": "diagnose", "scenario": "SDN1",
      "trace": {"trace_id": ""}}, "non-empty string 'trace_id'"),
    ({"id": "x", "kind": "diagnose", "scenario": "SDN1",
      "deadline_s": 10 ** 400}, "'deadline_s' must be positive and finite"),
    # json.loads accepts bare NaN / Infinity / -Infinity; a NaN deadline
    # slipped past ``deadline_s <= 0`` and crashed its worker.
    (b'{"id": "x", "kind": "ping", "deadline_s": NaN}',
     "NaN is not a number"),
    (b'{"id": "x", "kind": "ping", "deadline_s": Infinity}',
     "Infinity is not a number"),
    (b'{"id": "x", "kind": "ping", "deadline_s": -Infinity}',
     "-Infinity is not a number"),
    # Dicts from the in-process ServiceClient skip decode().
    ({"id": "x", "kind": "diagnose", "scenario": "SDN1",
      "deadline_s": float("nan")}, "must be positive and finite"),
    ({"id": "x", "kind": "diagnose", "scenario": "SDN1",
      "deadline_s": float("inf")}, "must be positive and finite"),
    ({"id": "x", "kind": "diagnose", "scenario": "SDN1",
      "deadline_s": float("-inf")}, "must be positive and finite"),
])
def test_parse_rejections_are_typed(payload, fragment):
    with pytest.raises(ProtocolError, match=fragment):
        parse_request(payload)


@pytest.mark.parametrize("options,fragment", [
    # A string is not a boolean: bool("false") is True, which used to
    # switch minimization *on* and return a different Δ.
    ({"minimize": "false"}, "'minimize' must be true or false"),
    ({"taint": 0}, "'taint' must be true or false"),
    ({"repair": None}, "'repair' must be true or false"),
    ({"max_rounds": "ten"}, "'max_rounds' must be an integer >= 1"),
    ({"max_rounds": True}, "'max_rounds' must be an integer >= 1"),
    ({"max_rounds": 0}, "'max_rounds' must be an integer >= 1"),
    ({"max_rounds": 2.5}, "'max_rounds' must be an integer >= 1"),
    ({"limit": -1}, "'limit' must be an integer >= 0"),
    ({"limit": "3"}, "'limit' must be an integer >= 0"),
    ({"faults": 5}, "'faults' must be a fault-plan spec string"),
    ({"faults": "drop=fast"}, "bad fault spec token 'drop=fast'"),
    ({"telemetry": "loud"}, "'telemetry' must be false, true or"),
    ({"telemetry": 1}, "'telemetry' must be false, true or"),
    ({"engine": 17}, "'engine' cannot interpret 17 as an EngineConfig"),
    # A removed fault kind is an unknown key like any other.
    ({"faults": "worker-crash=0.5"}, "unknown key 'worker-crash'"),
])
def test_hostile_option_values_are_rejected_at_admission(options, fragment):
    with pytest.raises(ProtocolError, match=fragment):
        parse_request({"id": "x", "kind": "diagnose", "scenario": "MR1-D",
                       "options": options})


def test_well_typed_options_pass_through_unchanged():
    options = {"max_rounds": 3, "minimize": True, "taint": False,
               "repair": True, "limit": 0, "faults": "loss=0.1,seed=7",
               "telemetry": "manual", "engine": None}
    request = parse_request({"id": "x", "kind": "autoref", "scenario": "DNS",
                             "options": options})
    assert request.options == options


def test_decode_bounds_line_length():
    huge = b'{"id": "' + b"a" * 70_000 + b'"}'
    with pytest.raises(ProtocolError, match="exceeds"):
        decode(huge)


def test_encode_decode_round_trip_is_canonical():
    obj = {"b": 2, "a": 1}
    line = encode(obj)
    assert line.endswith(b"\n")
    assert line == b'{"a":1,"b":2}\n'  # sorted keys, compact
    assert decode(line) == obj


def test_response_shapes():
    ok = response_ok("r", {"success": True}, shard=0)
    assert (ok["status"], ok["shard"]) == ("ok", 0)
    err = response_error("r", "boom", category="internal")
    assert err["category"] == "internal"
    shed = response_overloaded(
        "r", Overloaded("full", reason="queue-full", retry_after_s=1.23456)
    )
    assert shed["status"] == "overloaded"
    assert shed["reason"] == "queue-full"
    assert shed["retry_after_s"] == 1.235
    assert response_pong("r")["status"] == "pong"


def test_parse_carries_an_upstream_trace_context():
    request = parse_request({
        "id": "x", "kind": "diagnose", "scenario": "SDN1",
        "trace": {"trace_id": "feedfacecafebeef", "span_id": "0123"},
    })
    assert request.trace == {
        "trace_id": "feedfacecafebeef", "span_id": "0123",
    }
    # The trace rides the request, not the worker job.
    assert "trace" not in request.job()


def test_requests_default_protocol_version():
    request = parse_request({"id": "x", "kind": "ping", "v": PROTOCOL_VERSION})
    assert isinstance(request, Request)
