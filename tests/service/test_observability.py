"""The service's operations surface: verbs, the endpoint, SLO stats.

The ``metrics`` and ``flight`` control verbs, the ``--metrics-port``
HTTP exposition endpoint, and the SLO/flight sections of ``stats`` —
everything ``diffprov top`` and a Prometheus scraper consume.
"""

import asyncio

from repro.service import DiagnosisServer, ServiceClient


def _run(coro):
    return asyncio.run(coro)


def test_metrics_verb_returns_the_exposition_page():
    async def scenario():
        async with DiagnosisServer(workers=1) as server:
            client = ServiceClient(server)
            await client.diagnose("DNS")
            return await client.metrics()

    response = _run(scenario())
    assert response["status"] == "pong"
    text = response["metrics"]
    assert "# TYPE diffprov_service_responses_total gauge" in text
    assert "diffprov_service_responses_total 1" in text
    # The worker shipped its own counters back; they fold under fleet.
    assert "diffprov_fleet_worker_requests 1" in text
    # Per-tenant SLO series ride along.
    assert 'diffprov_tenant_offered{tenant="default"} 1' in text


def test_flight_verb_exposes_the_ring_buffer():
    async def scenario():
        async with DiagnosisServer(workers=1, flight_capacity=8) as server:
            client = ServiceClient(server)
            await client.request({
                "id": "fl-1", "kind": "diagnose", "scenario": "DNS",
            })
            return await client.flight()

    response = _run(scenario())
    assert response["status"] == "pong"
    flight = response["flight"]
    assert flight["capacity"] == 8
    assert flight["recorded_total"] == 1
    (entry,) = flight["entries"]
    assert entry["request"] == "fl-1"
    assert entry["tenant"] == "default"
    assert entry["status"] == "ok"
    assert entry["verdict"] == "success"
    assert len(entry["trace_id"]) == 16
    assert entry["attempts"] == 1
    assert entry["latency_s"] >= 0.0


def test_stats_carries_slo_books_and_flight_summary():
    async def scenario():
        async with DiagnosisServer(workers=1) as server:
            client = ServiceClient(server)
            await client.diagnose("DNS", tenant="acme")
            return await client.stats()

    stats = _run(scenario())["stats"]
    book = stats["slo"]["acme"]
    assert book["offered"] == 1
    assert book["admitted"] == 1
    assert book["ok"] == 1 and book["errored"] == 0
    assert book["latency_s"]["count"] == 1
    assert book["queue_wait_s"]["count"] == 1
    assert book["error_budget"]["burn"] == 0.0
    assert stats["flight"]["recorded_total"] == 1


def test_shed_requests_land_in_the_slo_books():
    from repro.service import TenantQuota

    async def scenario():
        server = DiagnosisServer(
            workers=1, quotas={"capped": TenantQuota(max_concurrent=1)},
        )
        async with server:
            client = ServiceClient(server)
            burst = [
                asyncio.ensure_future(
                    client.diagnose("DNS", tenant="capped")
                )
                for _ in range(3)
            ]
            responses = await asyncio.gather(*burst)
            return responses, await client.stats()

    responses, stats = _run(scenario())
    stats = stats["stats"]
    shed = [r for r in responses if r["status"] == "overloaded"]
    book = stats["slo"]["capped"]
    assert book["offered"] == 3
    assert sum(book["shed"].values()) == len(shed)
    assert book["admitted"] + sum(book["shed"].values()) == book["offered"]


def test_mistyped_option_is_refused_before_admission():
    """A hostile option value never reaches the SLO book, the quota
    bucket or a worker: it is a protocol error, not a diagnosis-error."""
    async def scenario():
        async with DiagnosisServer(workers=1) as server:
            client = ServiceClient(server)
            rejected = await client.request({
                "id": "bad-1", "kind": "diagnose", "scenario": "MR1-D",
                "tenant": "acme", "options": {"minimize": "false"},
            })
            served = await client.diagnose("DNS", tenant="acme")
            return rejected, served, await client.stats()

    rejected, served, stats = _run(scenario())
    assert rejected["status"] == "error"
    assert rejected["category"] == "protocol"
    assert rejected["id"] == "bad-1"
    assert "'minimize' must be true or false" in rejected["message"]
    assert served["status"] == "ok"
    book = stats["stats"]["slo"]["acme"]
    assert (book["offered"], book["admitted"]) == (1, 1)
    assert book["errored"] == 0


def test_metrics_endpoint_answers_a_raw_http_scrape():
    async def scenario():
        async with DiagnosisServer(workers=1) as server:
            client = ServiceClient(server)
            await client.diagnose("DNS")
            host, port = await server.serve_metrics("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            return raw

    raw = _run(scenario())
    headers, _, body = raw.partition(b"\r\n\r\n")
    assert headers.startswith(b"HTTP/1.0 200 OK")
    assert b"Content-Type: text/plain; version=0.0.4" in headers
    text = body.decode("utf-8")
    assert "# TYPE diffprov_service_responses_total gauge" in text
    assert int(
        headers.split(b"Content-Length: ")[1].split(b"\r\n")[0]
    ) == len(body)
