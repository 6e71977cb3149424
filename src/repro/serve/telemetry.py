"""Request-scoped telemetry for the serve plane.

The serve faces measure *what the server did* — not what simulated
devices did — and this module is where those measurements land:

* a **JSON-lines access log** (route, status, bytes, duration,
  trace_id), kept in a bounded in-memory ring and optionally appended
  to a file (``cli serve --access-log``);
* **per-route latency histograms**, request counters by route/status,
  a bytes-served counter and an in-flight gauge, all bound into the
  owning :class:`~repro.serve.service.FleetService`'s
  ``MetricsRegistry`` so ``GET /metrics`` reports the server's own
  traffic alongside device/engine stats;
* **slow-request records**: any request over ``slow_request_ms``
  is logged together with its span tree (from the
  :class:`~repro.obs.trace.Tracer`), so a stall is
  attributable without re-running under a profiler;
* the **event-loop watchdog** (:class:`EventLoopWatchdog`): an asyncio
  task that sleeps a fixed interval and measures how late the loop
  woke it — the scheduling-lag signal that would have caught the PR 8
  ``run_in_executor`` stalls.  Lag samples feed a gauge, a histogram
  and the ``/healthz`` p99.

Route labels are *low-cardinality by construction*: the faces pass
``"GET /images/{token}"``, never a raw path with token hex, so metric
families stay bounded no matter how many sessions run.
"""

from __future__ import annotations

import asyncio
import json
import re
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from ..obs.metrics import MetricsRegistry
from ..obs.slo import percentile

__all__ = ["ServeTelemetry", "EventLoopWatchdog",
           "REQUEST_LATENCY_MS_BUCKETS", "LOOP_LAG_MS_BUCKETS"]

#: Request-latency histogram bounds (milliseconds): sub-millisecond
#: in-memory hits through multi-second campaign builds.
REQUEST_LATENCY_MS_BUCKETS = (0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
                              100.0, 250.0, 500.0, 1000.0, 5000.0)

#: Event-loop scheduling-lag bounds (milliseconds).  A healthy loop
#: sits in the lowest buckets; an executor-starved loop climbs.
LOOP_LAG_MS_BUCKETS = (0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0)

_SLUG_RE = re.compile(r"[^a-z0-9]+")


def _route_slug(route: str) -> str:
    slug = _SLUG_RE.sub("_", route.lower()).strip("_")
    return slug or "unknown"


class ServeTelemetry:
    """Access log + per-route metrics + slow-request records.

    One instance per server face (HTTP or CoAP front), all binding
    into the same service-owned registry — metric families are
    get-or-create, so both faces sharing a service share counters.
    """

    def __init__(self, registry: MetricsRegistry,
                 access_log_path: Optional[str] = None,
                 slow_request_ms: float = 500.0,
                 max_records: int = 256,
                 now_fn=time.perf_counter) -> None:
        self.registry = registry
        self.slow_request_ms = slow_request_ms
        self.now_fn = now_fn
        self.started = now_fn()
        #: Bounded in-memory tail of the access log (newest last).
        self.records: Deque[Dict[str, Any]] = deque(maxlen=max_records)
        self._file = open(access_log_path, "a", encoding="utf-8") \
            if access_log_path else None
        self._in_flight = registry.gauge(
            "serve.in_flight_requests", "requests currently executing")
        self._bytes = registry.counter(
            "serve.bytes_served", "response body bytes sent")
        self._slow = registry.counter(
            "serve.slow_requests",
            "requests over the slow-request threshold")
        self._stalls = registry.counter(
            "serve.loop.stalls", "event-loop ticks over the stall "
            "threshold")
        self._lag_gauge = registry.gauge(
            "serve.loop.lag_ms", "last sampled event-loop lag")
        self._lag_hist = registry.histogram(
            "serve.loop.lag_hist_ms", LOOP_LAG_MS_BUCKETS,
            "event-loop scheduling lag")
        self._lag_samples: Deque[float] = deque(maxlen=2048)

    # -- request accounting -------------------------------------------------

    def request_started(self) -> None:
        self._in_flight.inc()

    def observe_request(self, proto: str, route: str, status: int,
                        nbytes: int, duration_s: float,
                        trace_id: Optional[str] = None,
                        span_tree: Optional[List[Dict[str, Any]]]
                        = None) -> None:
        """Account one finished request and emit its access-log line."""
        self._in_flight.inc(-1.0)
        slug = _route_slug(route)
        self.registry.counter(
            "serve.requests_by_route.%s.%d" % (slug, status),
            "requests: %s -> %d" % (route, status)).inc()
        self._bytes.inc(nbytes)
        duration_ms = duration_s * 1000.0
        self.registry.histogram(
            "serve.latency_ms.%s" % slug, REQUEST_LATENCY_MS_BUCKETS,
            "request latency: %s" % route).observe(duration_ms)
        record: Dict[str, Any] = {
            "t": round(time.time(), 3),
            "proto": proto,
            "route": route,
            "status": status,
            "bytes": nbytes,
            "duration_ms": round(duration_ms, 3),
            "trace_id": trace_id,
        }
        self._emit(record)
        if duration_ms >= self.slow_request_ms:
            self._slow.inc()
            slow = dict(record, event="slow_request")
            if span_tree:
                slow["spans"] = span_tree
            self._emit(slow)

    # -- event-loop lag -----------------------------------------------------

    def observe_lag(self, lag_s: float) -> None:
        lag_ms = lag_s * 1000.0
        self._lag_gauge.set(lag_ms)
        self._lag_hist.observe(lag_ms)
        self._lag_samples.append(lag_ms)

    def record_stall(self, lag_s: float) -> None:
        self._stalls.inc()
        self._emit({"t": round(time.time(), 3), "event": "loop_stall",
                    "lag_ms": round(lag_s * 1000.0, 3)})

    def lag_p99_ms(self) -> float:
        return round(percentile(list(self._lag_samples), 99.0), 3)

    # -- liveness -----------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """The telemetry half of the ``/healthz`` body."""
        return {
            "uptime_seconds": round(self.now_fn() - self.started, 3),
            "in_flight_requests": int(self._in_flight.value),
            "event_loop_lag_p99_ms": self.lag_p99_ms(),
            "slow_requests": int(self._slow.value),
            "loop_stalls": int(self._stalls.value),
        }

    # -- plumbing -----------------------------------------------------------

    def _emit(self, record: Dict[str, Any]) -> None:
        self.records.append(record)
        if self._file is not None:
            self._file.write(json.dumps(record, sort_keys=True) + "\n")
            self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


class EventLoopWatchdog:
    """Samples event-loop scheduling lag from inside the loop.

    Sleeps ``interval`` seconds and measures how much *later* than
    requested the loop resumed it — the canonical cooperative-
    scheduling health probe (any long synchronous call on the loop
    thread shows up here).  Lag at or over ``stall_ms`` additionally
    emits a ``loop_stall`` access-log record.  Owned by a server
    face: started in ``start()``, cancelled and awaited in ``stop()``
    so the no-leaked-tasks shutdown contract holds.
    """

    def __init__(self, telemetry: ServeTelemetry,
                 interval: float = 0.05,
                 stall_ms: float = 100.0) -> None:
        self.telemetry = telemetry
        self.interval = interval
        self.stall_ms = stall_ms
        self._task: Optional[asyncio.Task] = None

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop() \
                .create_task(self._run())

    async def stop(self) -> None:
        if self._task is None:
            return
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._task = None

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            before = loop.time()
            await asyncio.sleep(self.interval)
            lag = max(0.0, loop.time() - before - self.interval)
            self.telemetry.observe_lag(lag)
            if lag * 1000.0 >= self.stall_ms:
                self.telemetry.record_stall(lag)
