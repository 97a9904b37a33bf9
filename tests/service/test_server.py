"""DiagnosisServer end to end (in-process and socket transports).

Everything here uses the DNS scenario — the cheapest diagnosis in the
suite — so a full request costs milliseconds of worker time and the
tests exercise the server, not the differ.
"""

import asyncio

import pytest

from repro.service import (
    DiagnosisServer,
    ServiceClient,
    SocketServiceClient,
    TenantQuota,
)


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def server_loop():
    """One server (and one event loop) shared by the module's tests.

    Worker processes take ~1s to prewarm; sharing the fleet keeps the
    module fast.  Each test still sees isolated admission state where
    it matters (tenants are per-test names).
    """
    loop = asyncio.new_event_loop()
    server = DiagnosisServer(
        workers=2,
        max_queue=8,
        quotas={
            "capped": TenantQuota(max_concurrent=1),
            "metered": TenantQuota(rate=0.001, burst=1),
        },
    )
    loop.run_until_complete(server.start())
    yield loop, server
    loop.run_until_complete(server.shutdown())
    loop.close()


def test_diagnose_ok_and_deterministic(server_loop):
    loop, server = server_loop
    client = ServiceClient(server)

    async def scenario():
        first = await client.diagnose("DNS")
        second = await client.diagnose("DNS")
        return first, second

    first, second = loop.run_until_complete(scenario())
    assert first["status"] == "ok"
    assert first["report"]["success"] is True
    assert first["report"]["changes"]
    # The determinism contract, across whatever shards served them.
    assert first["report"]["canonical"] == second["report"]["canonical"]


def test_ping_and_stats_answer_inline(server_loop):
    loop, server = server_loop
    client = ServiceClient(server)
    pong = loop.run_until_complete(client.ping())
    assert pong["status"] == "pong"
    stats = loop.run_until_complete(client.stats())
    assert stats["stats"]["fleet"]["size"] == 2


def test_malformed_request_is_an_error_response(server_loop):
    loop, server = server_loop

    async def scenario():
        return (
            await server.submit({"id": "bad", "kind": "nope"}),
            await server.submit(b"{broken json"),
            await server.submit({"kind": "ping"}),  # no id
        )

    bad_kind, bad_json, no_id = loop.run_until_complete(scenario())
    assert bad_kind == {
        "id": "bad", "status": "error", "category": "protocol",
        "message": bad_kind["message"],
    }
    assert bad_json["status"] == "error" and bad_json["id"] is None
    assert no_id["status"] == "error"


def test_malformed_raw_line_keeps_its_id(server_loop):
    """A rejected NDJSON line still gets an id-matched error, so a
    socket client's pending future resolves instead of hanging."""
    loop, server = server_loop
    response = loop.run_until_complete(
        server.submit(b'{"id": "oops", "kind": "nope"}\n')
    )
    assert response["id"] == "oops"
    assert response["status"] == "error"
    assert response["category"] == "protocol"


def test_tenant_concurrency_cap_sheds_typed(server_loop):
    loop, server = server_loop
    client = ServiceClient(server)

    async def scenario():
        slow = asyncio.ensure_future(client.request({
            "kind": "diagnose", "scenario": "SDN1", "tenant": "capped",
            "options": {"minimize": True},
        }))
        await asyncio.sleep(0.05)  # let it get admitted
        shed = await client.diagnose("DNS", tenant="capped")
        return await slow, shed

    slow, shed = loop.run_until_complete(scenario())
    assert slow["status"] == "ok"
    assert shed["status"] == "overloaded"
    assert shed["reason"] == "concurrency"
    assert shed["retry_after_s"] > 0


def test_rate_quota_sheds_typed(server_loop):
    loop, server = server_loop
    client = ServiceClient(server)

    async def scenario():
        first = await client.diagnose("DNS", tenant="metered")
        second = await client.diagnose("DNS", tenant="metered")
        return first, second

    first, second = loop.run_until_complete(scenario())
    assert first["status"] == "ok"
    assert second["status"] == "overloaded"
    assert second["reason"] == "quota"


def test_test_hold_rejected_without_opt_in(server_loop):
    loop, server = server_loop
    response = loop.run_until_complete(server.submit({
        "id": "h", "kind": "diagnose", "scenario": "DNS",
        "test_hold": {"seconds": 1},
    }))
    assert response["status"] == "error"
    assert "allow_test_hooks" in response["message"]


def test_autoref_requests_work(server_loop):
    loop, server = server_loop
    client = ServiceClient(server)
    response = loop.run_until_complete(client.request({
        "kind": "autoref", "scenario": "DNS", "options": {"limit": 5},
    }))
    assert response["status"] == "ok"
    assert response["report"]["found"] is True
    assert response["report"]["reference"]


def test_expired_deadline_degrades_not_errors(server_loop):
    loop, server = server_loop
    client = ServiceClient(server)
    response = loop.run_until_complete(client.diagnose(
        "SDN1", deadline_s=0.0001, options={"minimize": True},
    ))
    # A hopeless budget still gets a structured answer, not a 500.
    assert response["status"] == "ok"
    report = response["report"]
    assert report["deadline_degraded"] is True


def test_astronomical_finite_deadline_is_served(server_loop):
    # Finite, so admitted; the worker-call timeout derived from it must
    # not overflow the platform's wait primitive.
    loop, server = server_loop
    response = loop.run_until_complete(
        ServiceClient(server).diagnose("DNS", deadline_s=1e300)
    )
    assert response["status"] == "ok", response


def test_socket_transport_round_trip(server_loop):
    loop, server = server_loop

    async def scenario():
        host, port = await server.serve(port=0)
        async with SocketServiceClient(host, port) as client:
            pong = await client.ping()
            ok = await client.diagnose("DNS", timeout=120)
            # Concurrent requests on one connection, matched by id.
            pair = await asyncio.gather(
                client.diagnose("DNS", timeout=120),
                client.ping(),
            )
        return pong, ok, pair

    pong, ok, (second, pong2) = loop.run_until_complete(scenario())
    assert pong["status"] == "pong"
    assert ok["status"] == "ok"
    assert second["status"] == "ok" and pong2["status"] == "pong"


def test_non_finite_deadlines_are_refused_before_admission():
    constants = ("NaN", "Infinity", "-Infinity")

    async def scenario():
        async with DiagnosisServer(workers=1) as server:
            host, port = await server.serve(port=0)
            async with SocketServiceClient(host, port) as client:
                # encode() writes the bare JSON constant onto the wire.
                responses = [
                    await client.diagnose(
                        "DNS", id=name, deadline_s=float(name), timeout=60,
                    )
                    for name in constants
                ]
            return responses, server.fleet.stats(), server.admission.stats()

    responses, fleet, admission = run(scenario())
    for name, response in zip(constants, responses):
        assert response["id"] == name
        assert response["status"] == "error"
        assert response["category"] == "protocol"
    assert fleet["restarts"] == 0
    assert all(shard["crashes"] == 0 and not shard["breaker_open"]
               for shard in fleet["shards"])
    assert admission["admitted_total"] == 0


def test_warm_cache_spans_requests(server_loop):
    loop, server = server_loop
    client = ServiceClient(server)

    async def scenario():
        # Enough repeats that every shard has served DNS at least once.
        responses = []
        for _ in range(4):
            responses.append(await client.diagnose("DNS"))
        return responses

    responses = loop.run_until_complete(scenario())
    hits = sum(r["report"]["cache"]["hits"] for r in responses)
    assert hits > 0  # later requests seeded from warm prefix snapshots


def test_drain_refuses_new_work_then_finishes():
    async def scenario():
        server = DiagnosisServer(workers=1, max_queue=4)
        async with server:
            client = ServiceClient(server)
            ok = await client.diagnose("DNS")
            clean = await server.drain()
            after = await client.diagnose("DNS")
            return ok, clean, after

    ok, clean, after = run(scenario())
    assert ok["status"] == "ok"
    assert clean is True
    assert after["status"] == "overloaded"
    assert after["reason"] == "draining"


def test_queue_full_sheds_under_flood():
    async def scenario():
        server = DiagnosisServer(workers=1, max_queue=2)
        async with server:
            client = ServiceClient(server)
            responses = await asyncio.gather(*[
                client.diagnose("SDN1", options={"minimize": True})
                for _ in range(6)
            ])
        return responses

    responses = run(scenario())
    statuses = [r["status"] for r in responses]
    assert statuses.count("ok") == 2  # exactly the bound
    shed = [r for r in responses if r["status"] == "overloaded"]
    assert len(shed) == 4
    assert all(r["reason"] == "queue-full" for r in shed)
    assert all(r["retry_after_s"] > 0 for r in shed)


def test_default_deadline_applies_to_bare_requests():
    async def scenario():
        server = DiagnosisServer(workers=1, default_deadline_s=0.0001)
        async with server:
            client = ServiceClient(server)
            return await client.diagnose("SDN1", options={"minimize": True})

    response = run(scenario())
    assert response["status"] == "ok"
    assert response["report"]["deadline_degraded"] is True
