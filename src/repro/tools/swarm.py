"""Swarm bench: tens of thousands of device sessions, one server.

The serve plane's load proof.  Each session is the paper's full pull
flow spoken over real HTTP/1.1 on a keep-alive connection: register →
token → manifest → chunked ranged download (digest-verified) → report.
Sessions run concurrently under a semaphore against a single
:class:`~repro.serve.httpd.HttpServer` process, and the harness
records what CI gates on: per-endpoint-class p50/p99 latency,
end-to-end session latency, aggregate req/s, and peak RSS — the
``server`` section of the ``BENCH_server.json`` artifact (bench
schema v5), wired into ``cli report --validate`` and the
``--baseline`` regression gate in :mod:`repro.tools.bench`.

A session that deviates anywhere — unexpected status, digest
mismatch, short read — counts as *failed*, and schema v5 refuses
artifacts with ``failed_sessions != 0``: the bench is only meaningful
over a fully correct run.

Tracing (PR 9): ``run_traced_benchmark`` runs the bench twice —
tracing off (the gated numbers) then tracing on — and records the
overhead (req/s and p99 delta) into the ``server`` section's
``trace_overhead`` block, gated against
:data:`TRACE_OVERHEAD_BUDGET` by ``--baseline`` comparisons.  The
traced run also yields one *merged* Chrome-trace document: device
session spans (pid 1) and the server request spans they caused
(pid 2), joined by the trace_id each session propagated through its
``traceparent`` headers.
"""

from __future__ import annotations

import asyncio
import json
import resource
import time
from hashlib import sha256
from typing import Dict, List, Optional, Tuple

from ..obs.slo import percentile
from ..obs.trace import NULL_TRACER, TRACEPARENT_HEADER, Tracer, \
    merge_chrome_traces
from .report import host_info

__all__ = [
    "DEFAULT_SESSIONS",
    "DEFAULT_CONCURRENCY",
    "DEFAULT_IMAGE_SIZE",
    "DEFAULT_CHUNK_BYTES",
    "DEVICE_TRACE_PID",
    "SERVER_TRACE_PID",
    "TRACE_OVERHEAD_BUDGET",
    "ENDPOINT_CLASSES",
    "PROFILE_PHASES",
    "SwarmHttpClient",
    "SwarmError",
    "run_swarm",
    "run_benchmark",
    "run_traced_benchmark",
    "run_profiled_benchmark",
    "profile_section",
    "aggregate_server_profile",
    "trace_overhead_problems",
    "write_results",
    "format_summary",
]

DEFAULT_SESSIONS = 1000
DEFAULT_CONCURRENCY = 256
DEFAULT_IMAGE_SIZE = 8 * 1024
DEFAULT_CHUNK_BYTES = 2048
DEVICE_ID_BASE = 0x40000000
ENDPOINT_CLASSES = ("register", "token", "manifest", "chunk",
                    "report")

#: Export pids of the merged swarm trace: device plane vs serve plane.
DEVICE_TRACE_PID = 1
SERVER_TRACE_PID = 2

#: Tracing-on must keep at least (1 - budget) of tracing-off req/s.
TRACE_OVERHEAD_BUDGET = 0.15

#: Request phases ``cli swarm --profile`` breaks out per endpoint
#: class, aggregated from the server tracer's spans: header parse,
#: signer-pool queue wait (``sign.queue``), a service call on the loop
#: or the default executor ("service"), a service call on the signer
#: pool ("sign" — the ECDSA-bearing manifest resolution), response
#: serialization, and the socket write.
PROFILE_PHASES = ("parse", "queue_wait", "service", "sign", "serialize",
                  "write")

#: Server-side HTTP route labels folded onto swarm endpoint classes.
_ROUTE_TO_CLASS = {
    "POST /devices": "register",
    "POST /devices/{id}/token": "token",
    "GET /manifests/{token}": "manifest",
    "GET /images/{token}": "chunk",
    "POST /reports/{token}": "report",
}

#: Direct span-name -> phase folds; ``service.*`` folds to "sign" when
#: it ran on the signer pool, to "service" otherwise.
_SPAN_TO_PHASE = {"parse": "parse", "sign.queue": "queue_wait",
                  "serialize": "serialize", "write": "write"}


class SwarmError(RuntimeError):
    """A session deviated from the expected flow."""


class SwarmHttpClient:
    """Minimal keep-alive HTTP/1.1 client on raw asyncio streams.

    Deliberately not a generic HTTP client: exactly what the swarm
    (and the protocol-parity tests) need — JSON requests, binary
    ranged reads, chunked-response re-assembly for ``/metrics``.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> "SwarmHttpClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port)
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            self._writer = None
            self._reader = None

    async def __aenter__(self) -> "SwarmHttpClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def request(self, method: str, path: str,
                      body: Optional[Dict[str, object]] = None,
                      headers: Optional[Dict[str, str]] = None
                      ) -> Tuple[int, Dict[str, str], bytes]:
        """One round-trip; returns ``(status, headers, body)``."""
        if self._writer is None or self._reader is None:
            raise SwarmError("client is not connected")
        payload = b"" if body is None else json.dumps(
            body, sort_keys=True).encode("utf-8")
        lines = ["%s %s HTTP/1.1" % (method, path),
                 "Host: %s:%d" % (self.host, self.port)]
        if payload:
            lines.append("Content-Type: application/json")
        lines.append("Content-Length: %d" % len(payload))
        for name, value in (headers or {}).items():
            lines.append("%s: %s" % (name, value))
        self._writer.write(("\r\n".join(lines) + "\r\n\r\n")
                           .encode("latin-1") + payload)
        await self._writer.drain()
        return await self._read_response()

    async def _read_response(
            self) -> Tuple[int, Dict[str, str], bytes]:
        assert self._reader is not None
        # The whole head in one readuntil: one event-loop trip for
        # headers plus one for the body, instead of a readline per
        # header line (the per-await scheduling cost dominates at
        # swarm concurrency).
        try:
            head = await self._reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                raise SwarmError("server closed the connection")
            raise SwarmError("connection died inside headers")
        raw_lines = head[:-4].split(b"\r\n")
        parts = raw_lines[0].decode("latin-1").split(" ", 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise SwarmError("unparseable status line %r"
                             % raw_lines[0])
        status = int(parts[1])
        headers: Dict[str, str] = {}
        for raw in raw_lines[1:]:
            name, _sep, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if headers.get("transfer-encoding", "").lower() == "chunked":
            body = await self._read_chunked()
        else:
            length = int(headers.get("content-length", "0") or "0")
            body = await self._reader.readexactly(length) \
                if length else b""
        return status, headers, body

    async def _read_chunked(self) -> bytes:
        assert self._reader is not None
        body = bytearray()
        while True:
            size_line = await self._reader.readline()
            try:
                size = int(size_line.strip().split(b";")[0], 16)
            except ValueError:
                # An empty line means the server closed mid-body; a
                # SwarmError fails just this session instead of
                # detonating the whole gather.
                raise SwarmError("bad chunk-size line %r" % size_line)
            if size == 0:
                await self._reader.readline()   # trailing CRLF
                return bytes(body)
            body.extend(await self._reader.readexactly(size))
            await self._reader.readexactly(2)   # chunk CRLF


async def run_http_session(client: SwarmHttpClient, device_id: int,
                           chunk_bytes: int,
                           channel: str = "stable",
                           timings: Optional[
                               Dict[str, List[float]]] = None,
                           tracer: Optional[Tracer] = None
                           ) -> Dict[str, object]:
    """The full device flow on an open client; returns the
    device-visible outcome (same shape as the CoAP client's).

    With an enabled ``tracer``, the session becomes a
    ``device.session`` root span, each request a child span whose
    traceparent rides the HTTP header — the server grafts its request
    spans onto that trace_id, which is the cross-plane join the trace
    validator checks."""
    tracer = tracer or NULL_TRACER
    with tracer.span("device.session", category="device",
                     device_id=device_id, proto="http"):
        return await _run_http_flow(client, device_id, chunk_bytes,
                                    channel, timings, tracer)


async def _run_http_flow(client: SwarmHttpClient, device_id: int,
                         chunk_bytes: int, channel: str,
                         timings: Optional[Dict[str, List[float]]],
                         tracer: Tracer) -> Dict[str, object]:
    async def timed(cls: str, method: str, path: str,
                    body=None, headers=None, expect=(200, 201)):
        with tracer.span("http.%s" % cls, category="device"):
            traceparent = tracer.current_traceparent()
            if traceparent is not None:
                headers = dict(headers or {})
                headers[TRACEPARENT_HEADER] = traceparent
            start = time.perf_counter()
            status, resp_headers, resp = await client.request(
                method, path, body, headers)
        if timings is not None:
            timings[cls].append(
                (time.perf_counter() - start) * 1000.0)
        if status not in expect:
            raise SwarmError("%s %s -> %d: %s"
                             % (method, path, status,
                                resp[:200].decode("utf-8", "replace")))
        return status, resp_headers, resp

    _s, _h, raw = await timed(
        "register", "POST", "/devices",
        {"device_id": device_id, "channel": channel,
         "current_version": 1})
    register = json.loads(raw)
    _s, _h, raw = await timed(
        "token", "POST", "/devices/%d/token" % device_id, {})
    token_hex = str(json.loads(raw)["token"])
    _s, _h, raw = await timed("manifest", "GET",
                              "/manifests/%s" % token_hex)
    manifest = json.loads(raw)
    total = int(manifest["payload_size"])
    payload = bytearray()
    offset = 0
    while offset < total:
        end = min(total, offset + chunk_bytes) - 1
        _s, _h, raw = await timed(
            "chunk", "GET", "/images/%s" % token_hex,
            headers={"Range": "bytes=%d-%d" % (offset, end)},
            expect=(206,))
        if not raw:
            raise SwarmError("empty chunk at offset %d" % offset)
        payload.extend(raw)
        offset += len(raw)
    digest_ok = (sha256(bytes(payload)).hexdigest()
                 == manifest["payload_sha256"])
    if not digest_ok:
        raise SwarmError("payload digest mismatch for device %d"
                         % device_id)
    _s, _h, raw = await timed("report", "POST",
                              "/reports/%s" % token_hex,
                              {"status": "updated"})
    report = json.loads(raw)
    if report.get("acknowledged") is not True:
        raise SwarmError("report was not acknowledged")
    return {
        "register": register,
        "token": token_hex,
        "envelope": manifest["envelope"],
        "version": int(manifest["version"]),
        "payload": bytes(payload),
        "digest_ok": digest_ok,
        "report": report,
    }


async def run_swarm(host: str, port: int,
                    sessions: int = DEFAULT_SESSIONS,
                    concurrency: int = DEFAULT_CONCURRENCY,
                    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
                    device_id_base: int = DEVICE_ID_BASE,
                    tracer: Optional[Tracer] = None
                    ) -> Dict[str, object]:
    """Drive ``sessions`` full device flows; returns the ``server``
    metrics section (see module docstring for the contract)."""
    if sessions < 1:
        raise ValueError("sessions must be at least 1")
    if concurrency < 1:
        raise ValueError("concurrency must be at least 1")
    semaphore = asyncio.Semaphore(concurrency)
    timings: Dict[str, List[float]] = {cls: []
                                       for cls in ENDPOINT_CLASSES}
    session_ms: List[float] = []
    failures: List[str] = []

    async def one(index: int) -> None:
        async with semaphore:
            start = time.perf_counter()
            client = SwarmHttpClient(host, port)
            try:
                await client.connect()
                await run_http_session(client,
                                       device_id_base + index,
                                       chunk_bytes, timings=timings,
                                       tracer=tracer)
                session_ms.append(
                    (time.perf_counter() - start) * 1000.0)
            except (SwarmError, OSError, asyncio.IncompleteReadError,
                    json.JSONDecodeError, KeyError) as exc:
                if len(failures) < 5:
                    failures.append("session %d: %s" % (index, exc))
                else:
                    failures.append("session %d" % index)
            finally:
                await client.close()

    started = time.perf_counter()
    await asyncio.gather(*(one(index) for index in range(sessions)))
    elapsed = time.perf_counter() - started

    requests = sum(len(values) for values in timings.values())
    endpoints: Dict[str, object] = {}
    mix: Dict[str, int] = {}
    for cls in ENDPOINT_CLASSES:
        values = timings[cls]
        endpoints[cls] = {
            "count": len(values),
            "p50_ms": round(percentile(values, 50.0), 3)
            if values else None,
            "p99_ms": round(percentile(values, 99.0), 3)
            if values else None,
        }
        # Sessions are identical by construction, so the per-session
        # request count per class is exact — the workload fingerprint
        # the baseline gate matches on.
        mix[cls] = len(values) // sessions
    return {
        "sessions": sessions,
        "failed_sessions": len(failures),
        "failures": failures[:5],
        "concurrency": concurrency,
        "chunk_bytes": chunk_bytes,
        "requests": requests,
        "elapsed_seconds": round(elapsed, 3),
        "req_per_s": round(requests / elapsed, 1) if elapsed else 0.0,
        "p50_session_ms": round(percentile(session_ms, 50.0), 3)
        if session_ms else None,
        "p99_session_ms": round(percentile(session_ms, 99.0), 3)
        if session_ms else None,
        "endpoints": endpoints,
        "endpoint_mix": mix,
        "peak_rss_kb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss,
    }


def run_benchmark(sessions: int = DEFAULT_SESSIONS,
                  concurrency: int = DEFAULT_CONCURRENCY,
                  image_size: int = DEFAULT_IMAGE_SIZE,
                  chunk_bytes: int = DEFAULT_CHUNK_BYTES,
                  host: str = "127.0.0.1") -> Dict[str, object]:
    """Self-hosted bench: stand up one server process' worth of
    service + HTTP face, swarm it, tear it down.  Returns the full
    artifact document (``{"server": ...}``)."""
    return _run_benchmark(sessions, concurrency, image_size,
                          chunk_bytes, host)


def _run_benchmark(sessions: int, concurrency: int, image_size: int,
                   chunk_bytes: int, host: str,
                   client_tracer: Optional[Tracer] = None,
                   server_tracer: Optional[Tracer] = None
                   ) -> Dict[str, object]:
    from ..serve import FleetService, HttpServer

    async def main() -> Dict[str, object]:
        service = FleetService()
        service.seed_channels(image_size=image_size)
        pool_before = service.signer.stats_snapshot().to_dict()
        cache_before = service.signer.signatures \
            .stats_snapshot().to_dict()
        async with HttpServer(service, host=host,
                              tracer=server_tracer) as server:
            section = await run_swarm(
                host, server.port, sessions=sessions,
                concurrency=concurrency, chunk_bytes=chunk_bytes,
                tracer=client_tracer)
        section["image_bytes"] = image_size
        section["served_devices"] = service.device_count()
        # The signer pool (and its signature cache) are process-wide,
        # so report this run's *delta*, not the cumulative counters.
        pool_after = service.signer.stats_snapshot().to_dict()
        cache_after = service.signer.signatures \
            .stats_snapshot().to_dict()
        section["signer_pool"] = {
            key: pool_after[key] - pool_before[key]
            for key in ("signs", "jobs", "batches")}
        section["signer_pool"]["max_batch"] = pool_after["max_batch"]
        section["signer_pool"]["signature_cache"] = {
            key: cache_after[key] - cache_before[key]
            for key in ("hits", "misses", "coalesced", "evictions")}
        return {"host": host_info(), "server": section}

    return asyncio.run(main())


def run_traced_benchmark(sessions: int = DEFAULT_SESSIONS,
                         concurrency: int = DEFAULT_CONCURRENCY,
                         image_size: int = DEFAULT_IMAGE_SIZE,
                         chunk_bytes: int = DEFAULT_CHUNK_BYTES,
                         host: str = "127.0.0.1"
                         ) -> Tuple[Dict[str, object],
                                    Dict[str, object]]:
    """The overhead-accounted bench: tracing off, then tracing on.

    Returns ``(results, trace_doc)``.  ``results`` is the tracing-off
    artifact (so ``--baseline`` comparisons against plain runs stay
    apples-to-apples) with a ``server.trace_overhead`` block recording
    both runs' req/s and p99; ``trace_doc`` is the merged Chrome-trace
    document (device plane at :data:`DEVICE_TRACE_PID`, server at
    :data:`SERVER_TRACE_PID`, ``join`` metadata for the validator's
    trace_id-join check).
    """
    results = _run_benchmark(sessions, concurrency, image_size,
                             chunk_bytes, host)
    client_tracer = Tracer(enabled=True)
    server_tracer = Tracer(enabled=True)
    traced = _run_benchmark(sessions, concurrency, image_size,
                            chunk_bytes, host,
                            client_tracer=client_tracer,
                            server_tracer=server_tracer)
    server = results["server"]
    on_server = traced["server"]
    off_rps = float(server.get("req_per_s") or 0.0)
    on_rps = float(on_server.get("req_per_s") or 0.0)
    off_p99 = float(server.get("p99_session_ms") or 0.0)
    on_p99 = float(on_server.get("p99_session_ms") or 0.0)
    server["trace_overhead"] = {
        "req_per_s_off": off_rps,
        "req_per_s_on": on_rps,
        "req_per_s_delta_pct":
            round(100.0 * (off_rps - on_rps) / off_rps, 1)
            if off_rps else 0.0,
        "p99_session_ms_off": off_p99,
        "p99_session_ms_on": on_p99,
        "p99_session_delta_pct":
            round(100.0 * (on_p99 - off_p99) / off_p99, 1)
            if off_p99 else 0.0,
        "failed_sessions_on": on_server.get("failed_sessions", 0),
    }
    trace_doc = merge_chrome_traces([
        client_tracer.to_chrome_trace(pid=DEVICE_TRACE_PID,
                                      process_name="swarm-devices"),
        server_tracer.to_chrome_trace(pid=SERVER_TRACE_PID,
                                      process_name="upkit-serve"),
    ])
    trace_doc["join"] = {"device_pid": DEVICE_TRACE_PID,
                         "server_pid": SERVER_TRACE_PID}
    return results, trace_doc


def aggregate_server_profile(tracer: Tracer) -> Dict[str, object]:
    """Fold a server tracer's spans into a per-endpoint phase profile.

    Each ``http.request`` root span is classed by its route label;
    every descendant span folds onto one of :data:`PROFILE_PHASES`.
    A ``service.*`` span counts as "sign" only when it ran on the
    signer pool — the pool records a ``sign.queue`` sibling for every
    job it runs — and as "service" otherwise.  Phases report count/p50/p99/total in ms, which is
    what makes "where did the milliseconds go" answerable per
    endpoint class straight from ``BENCH_server.json``.
    """
    with tracer._lock:
        spans = list(tracer.spans)
    by_parent: Dict[int, List[object]] = {}
    roots = []
    pooled = {span.parent_id for span in spans
              if span.name == "sign.queue"}
    for span in spans:
        if span.parent_id is None:
            if span.name == "http.request":
                roots.append(span)
        else:
            by_parent.setdefault(span.parent_id, []).append(span)
    per_class: Dict[str, Dict[str, object]] = {}
    for root in roots:
        cls = _ROUTE_TO_CLASS.get(root.args.get("route"))
        if cls is None:
            continue
        entry = per_class.setdefault(
            cls, {"requests": 0,
                  "phases": {phase: [] for phase in PROFILE_PHASES}})
        entry["requests"] += 1
        frontier = list(by_parent.get(root.span_id, ()))
        while frontier:
            node = frontier.pop()
            phase = _SPAN_TO_PHASE.get(node.name)
            if phase is None and node.name.startswith("service."):
                phase = "sign" if node.parent_id in pooled else "service"
            if phase is not None:
                entry["phases"][phase].append(node.duration * 1000.0)
            frontier.extend(by_parent.get(node.span_id, ()))
    endpoints: Dict[str, object] = {}
    for cls, entry in sorted(per_class.items()):
        phases: Dict[str, object] = {}
        for phase in PROFILE_PHASES:
            values = entry["phases"][phase]
            if not values:
                continue
            phases[phase] = {
                "count": len(values),
                "p50_ms": round(percentile(values, 50.0), 3),
                "p99_ms": round(percentile(values, 99.0), 3),
                "total_ms": round(sum(values), 3),
            }
        endpoints[cls] = {"requests": entry["requests"],
                          "phases": phases}
    return {"endpoints": endpoints}


def run_profiled_benchmark(sessions: int = DEFAULT_SESSIONS,
                           concurrency: int = DEFAULT_CONCURRENCY,
                           image_size: int = DEFAULT_IMAGE_SIZE,
                           chunk_bytes: int = DEFAULT_CHUNK_BYTES,
                           host: str = "127.0.0.1"
                           ) -> Dict[str, object]:
    """The phase-profiled bench: plain run for the gated numbers,
    then a re-run with the *server* tracer on, aggregated into a
    ``server.profile`` block (the gated req/s and latencies never
    carry tracer overhead)."""
    results = _run_benchmark(sessions, concurrency, image_size,
                             chunk_bytes, host)
    results["server"]["profile"] = profile_section(
        sessions, concurrency, image_size, chunk_bytes, host)
    return results


def profile_section(sessions: int = DEFAULT_SESSIONS,
                    concurrency: int = DEFAULT_CONCURRENCY,
                    image_size: int = DEFAULT_IMAGE_SIZE,
                    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
                    host: str = "127.0.0.1") -> Dict[str, object]:
    """One server-traced swarm run, aggregated into a ``profile``
    block (req/s of the profiled run recorded for context only)."""
    server_tracer = Tracer(enabled=True)
    profiled = _run_benchmark(sessions, concurrency, image_size,
                              chunk_bytes, host,
                              server_tracer=server_tracer)
    profile = aggregate_server_profile(server_tracer)
    profile["req_per_s_profiled"] = \
        profiled["server"].get("req_per_s")
    profile["failed_sessions_profiled"] = \
        profiled["server"].get("failed_sessions", 0)
    return profile


def trace_overhead_problems(server: Dict[str, object],
                            budget: float = TRACE_OVERHEAD_BUDGET
                            ) -> List[str]:
    """Gate problems from a ``server`` section's ``trace_overhead``
    block; empty when the block is absent or within budget."""
    overhead = server.get("trace_overhead") \
        if isinstance(server, dict) else None
    if not isinstance(overhead, dict):
        return []
    problems: List[str] = []
    try:
        off = float(overhead["req_per_s_off"])     # type: ignore
        on = float(overhead["req_per_s_on"])       # type: ignore
    except (KeyError, TypeError, ValueError):
        return ["trace_overhead lacks numeric req_per_s_off/"
                "req_per_s_on"]
    if off <= 0.0:
        return ["trace_overhead records non-positive tracing-off "
                "req/s"]
    if on < off * (1.0 - budget):
        problems.append(
            "tracing overhead exceeds %.0f%% req/s budget: "
            "%.1f req/s on vs %.1f off (-%.1f%%)"
            % (budget * 100.0, on, off, 100.0 * (off - on) / off))
    failed = overhead.get("failed_sessions_on")
    if failed:
        problems.append("tracing-on run had %s failed sessions"
                        % failed)
    return problems


def write_results(results: Dict[str, object], path: str) -> str:
    from .report import write_report
    return write_report(results, path, "bench")


def format_summary(results: Dict[str, object]) -> str:
    server = results.get("server")
    if not isinstance(server, dict):
        return "swarm: no server section"
    endpoints = server.get("endpoints", {})
    lines = [
        "swarm: %d sessions (%d failed), %d requests in %.1fs "
        "-> %.0f req/s"
        % (server.get("sessions", 0),
           server.get("failed_sessions", 0),
           server.get("requests", 0),
           server.get("elapsed_seconds", 0.0),
           server.get("req_per_s", 0.0)),
        "  session latency p50 %.1f ms  p99 %.1f ms   peak RSS %d kB"
        % (server.get("p50_session_ms") or 0.0,
           server.get("p99_session_ms") or 0.0,
           server.get("peak_rss_kb", 0)),
    ]
    for cls in ENDPOINT_CLASSES:
        entry = endpoints.get(cls)
        if isinstance(entry, dict) and entry.get("count"):
            lines.append(
                "  %-9s %6d reqs  p50 %8.2f ms  p99 %8.2f ms"
                % (cls, entry["count"], entry.get("p50_ms") or 0.0,
                   entry.get("p99_ms") or 0.0))
    pool = server.get("signer_pool")
    if isinstance(pool, dict):
        cache = pool.get("signature_cache") or {}
        lines.append(
            "  signer pool: %d signs, %d jobs in %d batches "
            "(max %d)  sig-cache %d hits / %d misses "
            "(%d coalesced)"
            % (pool.get("signs", 0), pool.get("jobs", 0),
               pool.get("batches", 0), pool.get("max_batch", 0),
               cache.get("hits", 0), cache.get("misses", 0),
               cache.get("coalesced", 0)))
    overhead = server.get("trace_overhead")
    if isinstance(overhead, dict):
        lines.append(
            "  tracing overhead: %.0f req/s on vs %.0f off "
            "(%.1f%% drop)  p99 %.1f -> %.1f ms"
            % (overhead.get("req_per_s_on") or 0.0,
               overhead.get("req_per_s_off") or 0.0,
               overhead.get("req_per_s_delta_pct") or 0.0,
               overhead.get("p99_session_ms_off") or 0.0,
               overhead.get("p99_session_ms_on") or 0.0))
    profile = server.get("profile")
    if isinstance(profile, dict):
        for cls, entry in sorted(
                (profile.get("endpoints") or {}).items()):
            if not isinstance(entry, dict):
                continue
            parts = []
            for phase in PROFILE_PHASES:
                stats = (entry.get("phases") or {}).get(phase)
                if isinstance(stats, dict):
                    parts.append("%s p50 %.2f" % (
                        phase, stats.get("p50_ms") or 0.0))
            lines.append("  profile %-9s %s ms"
                         % (cls, "  ".join(parts)))
    return "\n".join(lines)
