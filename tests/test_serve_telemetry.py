"""Serve-plane telemetry: access log, route metrics, watchdog, healthz.

The faces account *server* behaviour here — requests by route/status,
bytes served, event-loop scheduling lag — and surface liveness over
``GET /healthz`` on both protocol faces.  The parity test pins that
the HTTP and CoAP healthz bodies carry the same key set: one service,
two codecs.
"""

from __future__ import annotations

import asyncio
import json
import re

from repro.obs.export import to_openmetrics
from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    CoapDatagramRelay,
    CoapDeviceClient,
    CoapFront,
    EventLoopWatchdog,
    FleetService,
    HttpServer,
    ServeTelemetry,
)
from repro.serve.telemetry import REQUEST_LATENCY_MS_BUCKETS
from repro.serve.routes import route_label
from repro.tools.swarm import SwarmHttpClient, run_http_session

DEVICE = 0x40DD0001


# -- ServeTelemetry unit behaviour --------------------------------------------


def test_observe_request_feeds_counters_histogram_and_ring():
    registry = MetricsRegistry()
    telemetry = ServeTelemetry(registry)
    telemetry.request_started()
    telemetry.observe_request("http", "GET /images/{token}", 206,
                              1024, 0.004, trace_id="ab" * 16)
    assert registry.counter(
        "serve.requests_by_route.get_images_token.206").to_value() == 1
    assert registry.counter("serve.bytes_served").to_value() == 1024
    assert registry.gauge(
        "serve.in_flight_requests").to_value() == 0
    record = telemetry.records[-1]
    assert record["route"] == "GET /images/{token}"
    assert record["status"] == 206
    assert record["trace_id"] == "ab" * 16
    assert record["duration_ms"] == 4.0


def _reference_observe(registry, route, status, nbytes, duration_s):
    """Per-request accounting as a fresh get-or-create of each family:
    what the cached families must reproduce."""
    slug = re.sub(r"[^a-z0-9]+", "_", route.lower()).strip("_") \
        or "unknown"
    registry.counter("serve.requests_by_route.%s.%d" % (slug, status),
                     "requests: %s -> %d" % (route, status)).inc()
    registry.counter("serve.bytes_served",
                     "response body bytes sent").inc(nbytes)
    registry.histogram("serve.latency_ms.%s" % slug,
                       REQUEST_LATENCY_MS_BUCKETS,
                       "request latency: %s" % route).observe(
        duration_s * 1000.0)


def test_route_families_are_created_once_with_unchanged_exposition():
    mix = [("http", "GET /images/{token}", 206, 2048, 0.0007),
           ("coap", "GET manifests/{token}", 200, 512, 0.0031),
           ("http", "GET /images/{token}", 416, 0, 0.0002),
           ("http", "POST /devices", 201, 64, 0.012),
           ("coap", "GET manifests/{token}", 200, 512, 0.0009),
           ("http", "GET /images/{token}", 206, 2048, 0.0011),
           ("http", "!!!", 404, 16, 0.0001)] * 3
    registry = MetricsRegistry()
    created = []
    for kind in ("counter", "histogram"):
        def spy(name, *args, _get=getattr(registry, kind), **kwargs):
            created.append(name)
            return _get(name, *args, **kwargs)
        setattr(registry, kind, spy)
    telemetry = ServeTelemetry(registry)
    reference = MetricsRegistry()
    ServeTelemetry(reference)
    for proto, route, status, nbytes, seconds in mix:
        telemetry.request_started()
        telemetry.observe_request(proto, route, status, nbytes, seconds)
        reference.gauge("serve.in_flight_requests").inc()
        reference.gauge("serve.in_flight_requests").inc(-1.0)
        _reference_observe(reference, route, status, nbytes, seconds)
    assert to_openmetrics([("serve", registry)]) \
        == to_openmetrics([("serve", reference)])
    per_request = [name for name in created
                   if name.startswith(("serve.requests_by_route.",
                                       "serve.latency_ms."))]
    assert sorted(per_request) == sorted(set(per_request))
    assert len(per_request) == 5 + 4


def test_slow_request_record_carries_span_tree():
    telemetry = ServeTelemetry(MetricsRegistry(), slow_request_ms=10.0)
    telemetry.request_started()
    spans = [{"name": "http.request", "span_id": 1,
              "duration_ms": 25.0}]
    telemetry.observe_request("http", "POST /campaigns", 201, 64,
                              0.025, span_tree=spans)
    slow = [r for r in telemetry.records
            if r.get("event") == "slow_request"]
    assert len(slow) == 1
    assert slow[0]["spans"] == spans
    assert telemetry.registry.counter(
        "serve.slow_requests").to_value() == 1


def test_access_log_file_is_json_lines(tmp_path):
    path = tmp_path / "access.jsonl"
    telemetry = ServeTelemetry(MetricsRegistry(),
                               access_log_path=str(path))
    telemetry.request_started()
    telemetry.observe_request("http", "GET /healthz", 200, 128, 0.001)
    telemetry.request_started()
    telemetry.observe_request("coap", "GET manifests/{token}", 200,
                              512, 0.002, trace_id="cd" * 16)
    telemetry.close()
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    first, second = (json.loads(line) for line in lines)
    assert first["route"] == "GET /healthz"
    assert first["trace_id"] is None
    assert second["proto"] == "coap"
    assert second["trace_id"] == "cd" * 16


def test_watchdog_samples_lag_and_flags_stalls():
    """A deliberate synchronous stall on the loop thread must show up
    as scheduling lag and (over the stall threshold) a loop_stall
    record — the signal that attributes a frozen server."""
    import time as _time

    telemetry = ServeTelemetry(MetricsRegistry())
    watchdog = EventLoopWatchdog(telemetry, interval=0.01,
                                 stall_ms=30.0)

    async def main():
        watchdog.start()
        await asyncio.sleep(0.03)       # a few clean samples
        _time.sleep(0.08)               # block the loop thread
        await asyncio.sleep(0.03)       # let the watchdog observe it
        await watchdog.stop()

    asyncio.run(main())
    assert len(telemetry._lag_samples) >= 2
    assert telemetry.lag_p99_ms() >= 30.0
    assert telemetry.registry.counter(
        "serve.loop.stalls").to_value() >= 1
    stalls = [r for r in telemetry.records
              if r.get("event") == "loop_stall"]
    assert stalls and stalls[0]["lag_ms"] >= 30.0


# -- route labels stay low-cardinality ----------------------------------------


def test_http_route_labels_fold_identifiers():
    assert route_label("http", "GET", "/images/deadbeef?offset=0") == \
        "GET /images/{token}"
    assert route_label("http", "POST", "/devices/123/token") == \
        "POST /devices/{id}/token"
    assert route_label("http", "GET", "/healthz") == "GET /healthz"
    assert route_label("http", "GET", "/totally/unknown/path") == \
        "GET <other>"


def test_coap_route_labels_fold_identifiers():
    from repro.net.coap import CoapCode
    assert route_label("coap", CoapCode.GET.name, "images/ff01") == \
        "GET images/{token}"
    assert route_label("coap", CoapCode.POST.name, "devices") == \
        "POST devices"
    assert route_label("coap", CoapCode.GET.name, "healthz") == \
        "GET healthz"
    assert route_label("coap", CoapCode.GET.name, "nope/x") == \
        "GET <other>"


# -- healthz parity across faces ----------------------------------------------


def _http_healthz():
    async def main():
        service = FleetService(chunk_size=1024)
        service.seed_channels(image_size=4096)
        async with HttpServer(service) as server:
            async with SwarmHttpClient("127.0.0.1",
                                       server.port) as client:
                await run_http_session(client, DEVICE, 1024)
                status, _h, raw = await client.request("GET", "/healthz")
                assert status == 200
                return json.loads(raw)

    return asyncio.run(main())


def _coap_healthz():
    service = FleetService(chunk_size=1024)
    service.seed_channels(image_size=4096)
    front = CoapFront(service)
    relay = CoapDatagramRelay(front)
    client = CoapDeviceClient(relay, DEVICE, block_size=256)

    async def main():
        await client.run_session()
        return json.loads(await client._get_blockwise("healthz"))

    return asyncio.run(main())


def test_healthz_parity_between_http_and_coap_faces():
    """Same service snapshot over both codecs: identical key set, same
    registry-derived values after one full device session each."""
    http_body = _http_healthz()
    coap_body = _coap_healthz()
    assert set(http_body) == set(coap_body)
    for body in (http_body, coap_body):
        assert body["status"] == "ok"
        assert body["devices_registered"] == 1
        assert body["open_tokens"] == 0
        assert body["in_flight_requests"] >= 0
        assert body["uptime_seconds"] >= 0.0


def test_healthz_is_advertised_and_counts_itself():
    async def main():
        service = FleetService(chunk_size=1024)
        service.seed_channels(image_size=4096)
        async with HttpServer(service) as server:
            async with SwarmHttpClient("127.0.0.1",
                                       server.port) as client:
                _s, _h, raw = await client.request("GET", "/")
                assert "GET /healthz" in json.loads(raw)["endpoints"]
                await client.request("GET", "/healthz")
                await client.request("GET", "/healthz")
                return service
    service = asyncio.run(main())
    assert service.metrics.counter(
        "serve.requests_by_route.get_healthz.200").to_value() == 2


def test_serve_counters_cover_routes_bytes_and_dedup():
    """The satellite counters: requests by route/status and bytes
    served on HTTP; dedup-cache hits on the lossy CoAP face."""
    async def main():
        service = FleetService(chunk_size=1024)
        service.seed_channels(image_size=4096)
        async with HttpServer(service) as server:
            async with SwarmHttpClient("127.0.0.1",
                                       server.port) as client:
                await run_http_session(client, DEVICE, 1024)
        return service

    service = asyncio.run(main())
    metrics = service.metrics
    assert metrics.counter(
        "serve.requests_by_route.post_devices.201").to_value() == 1
    assert metrics.counter(
        "serve.requests_by_route.get_images_token.206").to_value() >= 1
    assert metrics.counter("serve.bytes_served").to_value() > 4096
    assert metrics.counter("serve.token_replays").to_value() == 0

    lossy = FleetService(chunk_size=1024)
    lossy.seed_channels(image_size=4096)
    relay = CoapDatagramRelay(CoapFront(lossy), drop_every=2)
    outcome = asyncio.run(
        CoapDeviceClient(relay, DEVICE, block_size=256).run_session())
    assert outcome["digest_ok"] is True
    assert lossy.metrics.counter(
        "serve.coap_dedup_hits").to_value() > 0


def test_metrics_endpoint_exposes_serve_families():
    async def main():
        service = FleetService(chunk_size=1024)
        service.seed_channels(image_size=4096)
        async with HttpServer(service) as server:
            async with SwarmHttpClient("127.0.0.1",
                                       server.port) as client:
                await run_http_session(client, DEVICE, 1024)
                _s, _h, raw = await client.request("GET", "/metrics")
                return raw.decode("utf-8")

    text = asyncio.run(main())
    assert "upkit_serve_bytes_served" in text
    assert "upkit_serve_latency_ms_" in text
    assert "upkit_serve_in_flight_requests" in text
