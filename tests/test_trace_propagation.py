"""Cross-plane trace propagation: one trace_id from device to server.

The tentpole claim of the distributed-tracing work: a device-side
session span and the server-side request spans it caused merge into a
*single* trace — over the HTTP header on the swarm path, over the CoAP
option on the datagram path, and surviving lossy-relay retransmission
without ever minting a second trace_id for the same request.  The
merged artifact must pass containment and the trace v2 join check, and
tracing-on must stay inside its req/s budget.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.obs.trace import Tracer, containment_errors, \
    merge_chrome_traces
from repro.serve import (
    CoapDatagramRelay,
    CoapDeviceClient,
    CoapFront,
    FleetService,
    HttpServer,
)
from repro.tools import report, swarm
from repro.tools.cli import main

DEVICE = 0x40EE0001


def traced_pair():
    return (Tracer(enabled=True), Tracer(enabled=True))


def merged_doc(device_tracer, server_tracer):
    doc = merge_chrome_traces([
        device_tracer.to_chrome_trace(
            pid=swarm.DEVICE_TRACE_PID, process_name="swarm-devices"),
        server_tracer.to_chrome_trace(
            pid=swarm.SERVER_TRACE_PID, process_name="upkit-serve"),
    ])
    doc["join"] = {"device_pid": swarm.DEVICE_TRACE_PID,
                   "server_pid": swarm.SERVER_TRACE_PID}
    return doc


def roots(tracer, name=None):
    return [s for s in tracer.spans if s.parent_id is None
            and (name is None or s.name == name)]


# -- HTTP header propagation --------------------------------------------------


def test_http_session_and_server_requests_share_one_trace():
    device_tracer, server_tracer = traced_pair()

    async def scenario():
        service = FleetService(chunk_size=1024)
        service.seed_channels(image_size=4096)
        async with HttpServer(service,
                              tracer=server_tracer) as server:
            async with swarm.SwarmHttpClient("127.0.0.1",
                                             server.port) as client:
                return await swarm.run_http_session(
                    client, DEVICE, 1024, tracer=device_tracer)

    outcome = asyncio.run(scenario())
    assert outcome["digest_ok"] is True

    (session,) = roots(device_tracer, "device.session")
    server_roots = roots(server_tracer, "http.request")
    assert len(server_roots) == 9   # register..report + closing token
    assert {s.trace_id for s in server_roots} == {session.trace_id}
    for root in server_roots:
        assert root.args.get("remote_parent_id") is not None

    doc = merged_doc(device_tracer, server_tracer)
    assert containment_errors(doc["traceEvents"]) == []
    assert report.validate_data("trace", 2, dict(doc)) == []


def test_server_without_client_trace_mints_fresh_traces():
    """No traceparent header -> every request is its own trace; the
    server must never fabricate a join."""
    _ignored, server_tracer = traced_pair()

    async def scenario():
        service = FleetService(chunk_size=1024)
        service.seed_channels(image_size=4096)
        async with HttpServer(service,
                              tracer=server_tracer) as server:
            async with swarm.SwarmHttpClient("127.0.0.1",
                                             server.port) as client:
                return await swarm.run_http_session(client, DEVICE,
                                                    1024)

    asyncio.run(scenario())
    server_roots = roots(server_tracer, "http.request")
    trace_ids = {s.trace_id for s in server_roots}
    assert len(trace_ids) == len(server_roots)
    assert all(s.args.get("remote_parent_id") is None
               for s in server_roots)


def test_malformed_traceparent_header_never_fails_the_request():
    _ignored, server_tracer = traced_pair()

    async def scenario():
        service = FleetService(chunk_size=1024)
        service.seed_channels(image_size=4096)
        async with HttpServer(service,
                              tracer=server_tracer) as server:
            async with swarm.SwarmHttpClient("127.0.0.1",
                                             server.port) as client:
                return await client.request(
                    "GET", "/healthz",
                    headers={"traceparent": "garbage-not-a-trace"})

    status, _headers, _raw = asyncio.run(scenario())
    assert status == 200
    (root,) = roots(server_tracer, "http.request")
    assert root.args.get("remote_parent_id") is None


# -- CoAP option propagation + lossy retransmission ---------------------------


@pytest.mark.parametrize("drop_every", [0, 3])
def test_coap_session_joins_and_loss_reuses_trace_id(drop_every):
    """The parity-harness claim for the datagram face: the device
    session and every server request span share one trace_id — and
    because retransmission resends the *already-encoded* datagram,
    a lossy relay must not mint extra trace_ids or extra request
    spans (dedup serves replays from cache, untraced)."""
    device_tracer, server_tracer = traced_pair()
    service = FleetService(chunk_size=1024)
    service.seed_channels(image_size=4096)
    front = CoapFront(service, tracer=server_tracer)
    relay = CoapDatagramRelay(front, drop_every=drop_every)
    client = CoapDeviceClient(relay, DEVICE, block_size=256,
                              tracer=device_tracer)

    outcome = asyncio.run(client.run_session())
    assert outcome["digest_ok"] is True
    if drop_every:
        assert relay.dropped > 0

    (session,) = roots(device_tracer, "device.session")
    server_roots = roots(server_tracer, "coap.request")
    assert {s.trace_id for s in server_roots} == {session.trace_id}
    # Dedup must answer retransmitted datagrams from cache: the span
    # count matches the *distinct* requests, lossy or not.
    lossless_count = len(server_roots)
    assert lossless_count > 0
    assert service.metrics.counter("serve.token_replays") \
        .to_value() == 0
    if drop_every:
        assert service.metrics.counter("serve.coap_dedup_hits") \
            .to_value() > 0

    doc = merged_doc(device_tracer, server_tracer)
    assert containment_errors(doc["traceEvents"]) == []
    assert report.validate_data("trace", 2, dict(doc)) == []


def test_lossy_and_lossless_sessions_trace_identically():
    """Same request-span names in the same order with one trace_id
    each way — loss is invisible in the server's span inventory."""
    inventories = []
    for drop_every in (0, 2):
        device_tracer, server_tracer = traced_pair()
        service = FleetService(chunk_size=1024)
        service.seed_channels(image_size=4096)
        relay = CoapDatagramRelay(
            CoapFront(service, tracer=server_tracer),
            drop_every=drop_every)
        client = CoapDeviceClient(relay, DEVICE, block_size=256,
                                  tracer=device_tracer)
        asyncio.run(client.run_session())
        inventories.append(
            [(s.name, s.args.get("route")) for s in
             sorted(roots(server_tracer, "coap.request"),
                    key=lambda s: s.span_id)])
    assert inventories[0] == inventories[1]


# -- merged artifact + overhead gate ------------------------------------------


def test_traced_benchmark_merges_and_stays_in_budget(tmp_path):
    results, trace_doc = swarm.run_traced_benchmark(
        sessions=30, concurrency=8, image_size=4096, chunk_bytes=1024)
    server = results["server"]
    assert server["failed_sessions"] == 0
    overhead = server["trace_overhead"]
    assert overhead["failed_sessions_on"] == 0
    assert overhead["req_per_s_on"] > 0

    path = report.write_report(trace_doc, str(tmp_path / "trace.json"),
                               "trace")
    assert report.validate_file(path) == []
    events = trace_doc["traceEvents"]
    sessions = [e for e in events if e.get("ph") == "X"
                and e["name"] == "device.session"]
    assert len(sessions) == 30
    assert {e["pid"] for e in sessions} == {swarm.DEVICE_TRACE_PID}


def test_trace_overhead_gate_trips_on_synthetic_regression():
    good = {"trace_overhead": {"req_per_s_off": 1000.0,
                               "req_per_s_on": 900.0,
                               "failed_sessions_on": 0}}
    assert swarm.trace_overhead_problems(good) == []
    bad = {"trace_overhead": {"req_per_s_off": 1000.0,
                              "req_per_s_on": 700.0,
                              "failed_sessions_on": 0}}
    problems = swarm.trace_overhead_problems(bad)
    assert problems and "budget" in problems[0]
    assert swarm.trace_overhead_problems({}) == []


def test_bench_gate_includes_trace_overhead(tmp_path):
    """`cli swarm --trace --baseline` path: compare_to_baseline must
    surface an over-budget trace_overhead block even when the plain
    server metrics look fine."""
    from repro.tools import bench

    base_server = {"sessions": 10, "failed_sessions": 0,
                   "concurrency": 4, "requests": 90,
                   "elapsed_seconds": 1.0, "req_per_s": 1000.0,
                   "p50_session_ms": 10.0, "p99_session_ms": 20.0,
                   "endpoints": {}, "endpoint_mix": {},
                   "peak_rss_kb": 1000, "image_bytes": 4096,
                   "chunk_bytes": 1024}
    current_server = dict(base_server)
    current_server["trace_overhead"] = {
        "req_per_s_off": 1000.0, "req_per_s_on": 500.0,
        "failed_sessions_on": 0}
    problems = bench.compare_to_baseline({"server": current_server},
                                         {"server": base_server})
    assert any("budget" in p for p in problems)


def test_join_validation_rejects_orphan_server_traces():
    device_tracer, server_tracer = traced_pair()
    with device_tracer.span("device.session", device_id=1):
        pass
    with server_tracer.span("http.request"):   # fresh trace, no join
        pass
    doc = merged_doc(device_tracer, server_tracer)
    problems = report.validate_data("trace", 2, dict(doc))
    assert any("trace_ids minted by no device session" in p
               for p in problems)


def test_legacy_device_trace_doc_still_validates(tmp_path):
    """The v1 shape (configurations + metrics, no join) stays valid
    under trace schema v2 — `cli trace` artifacts keep passing."""
    doc = {"traceEvents": [], "metrics": {}, "configurations": ["x"]}
    assert report.validate_data("trace", 2, doc) == []
    assert report.validate_data("trace", 1, doc) == []
    missing = report.validate_data("trace", 2, {"traceEvents": []})
    assert any("configurations" in p for p in missing)


def test_cli_swarm_trace_writes_merged_artifact(tmp_path, capsys):
    out = str(tmp_path / "BENCH_server.json")
    trace_out = str(tmp_path / "SWARM_trace.json")
    # A 30-session run is noise-dominated; the budget assertion for
    # real runs lives in the gate tests above, so keep this one about
    # plumbing, not timing.
    rc = main(["swarm", "--sessions", "30", "--concurrency", "8",
               "--image-size", "4096", "--chunk-bytes", "1024",
               "--trace", "--trace-budget", "0.9",
               "--out", out, "--trace-out", trace_out])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "tracing overhead:" in captured
    assert main(["report", "--validate", out, trace_out]) == 0
    with open(out, "r", encoding="utf-8") as fh:
        artifact = json.load(fh)
    assert "trace_overhead" in artifact["server"]
