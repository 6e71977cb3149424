"""The serve workloads: ``http-fleet`` and ``coap-blockwise``.

Untraced run (end-to-end metrics):

1. set-up, ``SETUP_SPAWNS`` times: spawn the server, wait until it
   listens with its channels seeded, complete one session (lazy set-up
   such as the signer's P-256 tables happens here).  ``setup_s`` is the
   median; the last server stays up, the others are stopped;
2. ``WARM_SECONDS`` of closed-loop warm-up;
3. open loop for ``1 - CLOSED_SHARE`` of the run at the face's fixed
   offered rate: ``update_p50_ms``, and ``update_p99_ms`` as the median
   of the 99th percentiles of ``P99_WINDOWS`` equal windows; then
   ``peak_rss_mb``, over set-up, warm-up and this seeded set of sessions;
4. closed loop for the rest: ``updates_per_s`` and
   ``server_cpu_ms_per_update``, totals over the whole loop;
5. the deeper checks on the seeded sample.

Traced run (per-layer metrics): an untraced server for a closed loop
over a quarter of the run (the tracing-overhead base), then a traced
server for a closed loop over another quarter (per-update layer costs)
and an open loop over the last half (request latencies, queue waits,
generator lateness).
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import math
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

from . import serve_load
from .common import (FAILED, DeviceIds, OUT_DIR, median, nproc, percentile,
                     rng, self_cpu_seconds)
from .layers import REQUEST_LAYER, SELF_TIME_LAYERS, SERVICE_CALLS
from .serverproc import ServerProcess
from .spans import Span, durations_ms, in_window, self_ms_by_layer, \
    self_times, spans_from_rows

SETUP_SPAWNS = 5
WARM_SECONDS = 2.0
CLOSED_SHARE = 0.25
#: One host stall lands in one window of the open loop, not in the run's
#: tail; a program change that fattens the tail moves every window.
P99_WINDOWS = 5

HTTP_READY = r"http://[0-9.]+:(\d+)"
COAP_READY = r"udp://[0-9.]+:(\d+)"

#: Fixed open-loop offered rates (sessions/s): the CPU that client and
#: server share is then about a fifth (HTTP) to a third (CoAP) busy on
#: the 2-CPU host the benchmark was defined on (see README.md).
OFFERED_RATE = {"http": 60.0, "coap": 25.0}


@contextlib.contextmanager
def quiet_client_gc():
    """No garbage-collector pauses in the load generator while it
    measures: a full collection over the client's heap stalls every
    session in flight, and those stalls would land in the tail."""
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


def pin_client() -> int:
    """Client and server share one CPU, the last this process may use.
    On a shared virtual machine two busy vCPUs are often given about
    one physical core between them, so a client and a server on two
    CPUs ran at full or at half speed from run to run; one busy vCPU is
    served steadily.  Pins this (client) process; returns the server's
    CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


@contextlib.contextmanager
def keep_awake(cpu: int):
    """A busy loop at ``SCHED_IDLE`` priority on ``cpu`` while the block
    runs: it gets the CPU only when neither client nor server wants it,
    so the vCPU never halts.  A halted vCPU waits for the hypervisor to
    run it again once woken, and those waits (seconds per run, counted
    as steal) landed in the session latencies."""
    spinner = subprocess.Popen(
        [sys.executable, "-c", "import os\n"
         "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
         "while True:\n    pass\n"], stdin=subprocess.DEVNULL)
    try:
        os.sched_setaffinity(spinner.pid, {cpu})
        yield
    finally:
        spinner.kill()
        spinner.wait()


def windowed_p99(latencies_ms: Sequence[float]) -> float:
    """Median over ``P99_WINDOWS`` equal windows (in due order) of each
    window's 99th percentile; ``inf`` if any session failed."""
    if any(math.isinf(x) for x in latencies_ms):
        return FAILED
    n = len(latencies_ms)
    windows = [latencies_ms[i * n // P99_WINDOWS:
                            (i + 1) * n // P99_WINDOWS]
               for i in range(P99_WINDOWS)]
    return median([percentile(w, 99.0) for w in windows if w])


def server_argv(face: str, spans_path: Optional[str] = None) -> List[str]:
    """The server command for a face; traced servers run the benchmark's
    launcher, which wraps the layers and then runs the same server."""
    if face == "http" and spans_path is None:
        return [sys.executable, "-m", "repro.tools.cli", "serve",
                "--port", "0"]
    argv = [sys.executable, "-m", "perfbench.server_main", face]
    if spans_path is not None:
        argv += ["--spans", spans_path]
    return argv


class ServeRun:
    """State shared by the phases of one serve-workload run."""

    def __init__(self, workload: str, face: str, seed: int) -> None:
        self.face_name = face
        self.ready = HTTP_READY if face == "http" else COAP_READY
        self.ids = DeviceIds(rng(workload, seed, "devices"))
        self.warm_ids = DeviceIds(rng(workload, seed, "warm-devices"))
        self.sampler = rng(workload, seed, "sample")
        self.arrivals = rng(workload, seed, "arrivals")
        self.servers: List[ServerProcess] = []
        self.phases: List[serve_load.PhaseResult] = []
        self.addresses = serve_load.LoopbackAddresses()
        self.workers = nproc()          # before pinning narrows it
        self.cpu = pin_client()

    def face(self, server: ServerProcess,
             timings: Optional[List[float]] = None):
        if self.face_name == "http":
            return serve_load.HttpFace(server.port, timings=timings)
        return serve_load.CoapFace(server.port, timings=timings,
                                   addresses=self.addresses)

    def spawn(self, spans_path: Optional[str] = None) -> ServerProcess:
        server = ServerProcess(server_argv(self.face_name, spans_path),
                               self.ready, cpu=self.cpu)
        self.servers.append(server)
        return server.start()

    def driver(self, server: ServerProcess, face=None,
               ids: Optional[DeviceIds] = None) -> serve_load.Driver:
        face = face or self.face(server)
        ids = ids or self.ids
        return serve_load.Driver(
            face, self.workers, ids.next,
            lambda: self.sampler.random() < serve_load.SAMPLE_RATE,
            server.alive)

    def schedule(self, seconds: float) -> List[float]:
        return serve_load.poisson_schedule(
            self.arrivals, OFFERED_RATE[self.face_name], seconds)

    async def setup(self) -> float:
        """Spawn → listening → one completed session; returns seconds."""
        started = time.perf_counter()
        server = self.spawn()
        first = await self.driver(server, ids=self.warm_ids).sequential(1)
        if first.failed:
            raise serve_load.CheckFailed("set-up session failed: %s"
                                         % first.failures[0])
        return time.perf_counter() - started

    async def warm(self, server: ServerProcess, face=None) -> None:
        """Full load before measuring: the host takes a second or two
        to give both processes full speed once both are busy.  Its
        sessions count (and are checked) like measured ones."""
        phase = await self.driver(server, face, self.warm_ids).closed_loop(
            WARM_SECONDS, lambda: (0.0, 0.0))
        self.phases.append(phase)

    async def closed(self, server: ServerProcess, seconds: float,
                     face=None) -> Dict[str, float]:
        """Closed-loop capacity over the whole loop: sessions and CPU
        seconds summed over its slices, so a slower stretch of the host
        weighs by its length (NaN when no session completed)."""
        driver = self.driver(server, face)
        phase = await driver.closed_loop(
            seconds, lambda: (server.cpu_seconds(), self_cpu_seconds()))
        self.phases.append(phase)
        slices = phase.slices
        span, done, server_cpu, client_cpu = (
            sum(column) for column in zip(*slices)) if slices else (0.0,) * 4
        if not done:
            nan = float("nan")
            return {"updates_per_s": nan, "server_cpu_ms_per_update": nan,
                    "server_cpu_util": nan, "client_cpu_util": nan,
                    "started": phase.started, "ended": phase.ended}
        return {
            "updates_per_s": done / span,
            "server_cpu_ms_per_update": server_cpu * 1000.0 / done,
            "server_cpu_util": server_cpu / span,
            "client_cpu_util": client_cpu / span,
            "slice_rates": [n / t for t, n, _s, _c in slices],
            "started": phase.started, "ended": phase.ended}

    async def open(self, server: ServerProcess, seconds: float,
                   face=None) -> serve_load.PhaseResult:
        phase = await self.driver(server, face).open_loop(
            self.schedule(seconds))
        self.phases.append(phase)
        return phase

    async def checks(self, server: ServerProcess,
                     phases: Sequence[serve_load.PhaseResult]) -> None:
        """Deeper checks of the sampled sessions ``server`` served (a
        token is only known to the server that issued it)."""
        await serve_load.check_sampled(self.face(server), phases)

    def stop_all(self) -> None:
        for server in self.servers:
            server.stop()

    def totals(self) -> Dict[str, object]:
        failures = [f for phase in self.phases for f in phase.failures]
        return {"attempted": sum(p.attempted for p in self.phases),
                "failed": len(failures), "failures": failures[:20],
                "servers": [server.info() for server in self.servers],
                "sampled_checks": sum(len(p.sampled)
                                      for p in self.phases)}


def run_untraced(workload: str, face: str, seed: int, seconds: float
                 ) -> Dict[str, object]:
    run = ServeRun(workload, face, seed)

    async def main() -> Dict[str, object]:
        setups = []
        for spawn in range(SETUP_SPAWNS):
            setups.append(await run.setup())
            if spawn < SETUP_SPAWNS - 1:
                run.servers[-1].stop()
        server = run.servers[-1]
        with quiet_client_gc():
            await run.warm(server)
            opened = await run.open(server, seconds * (1 - CLOSED_SHARE))
            # Before the closed loop: its session count follows
            # throughput, and the server's memory grows with every
            # session it serves.
            peak_rss = server.peak_rss_mb() if server.alive() \
                else float("nan")
            closed = await run.closed(server, seconds * CLOSED_SHARE)
        await run.checks(server, run.phases)
        latencies = opened.latencies_ms
        return {
            "metrics": {
                "updates_per_s": closed["updates_per_s"],
                "update_p50_ms": percentile(latencies, 50.0),
                "update_p99_ms": windowed_p99(latencies),
                "setup_s": median(setups),
                "peak_rss_mb": peak_rss,
                "server_cpu_ms_per_update":
                    closed["server_cpu_ms_per_update"],
            },
            "samples": {"setup_s": setups,
                        "open_loop_sessions": len(latencies),
                        "closed_loop_sessions": run.phases[-1].attempted},
            "offered_rate_per_s": OFFERED_RATE[face],
            "cpu_util": {"server": closed["server_cpu_util"],
                         "client": closed["client_cpu_util"]},
            "closed_loop_slice_rates": closed.get("slice_rates", []),
        }

    try:
        with keep_awake(run.cpu):
            result = asyncio.run(main())
    finally:
        run.stop_all()
    result.update(run.totals())
    return result


def run_traced(workload: str, face: str, seed: int, seconds: float
               ) -> Dict[str, object]:
    run = ServeRun(workload, face, seed)
    spans_path = OUT_DIR / ("%s-seed%d-server-spans.json" % (workload,
                                                             seed))
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    if spans_path.exists():
        spans_path.unlink()
    timings: List[float] = []

    async def main() -> Dict[str, object]:
        base = run.spawn()
        with quiet_client_gc():
            await run.warm(base)
            untraced = await run.closed(base, seconds * 0.25)
        await run.checks(base, run.phases)
        base.stop()
        checked = len(run.phases)
        server = run.spawn(str(spans_path))
        timed_face = run.face(server, timings)
        with quiet_client_gc():
            await run.warm(server, timed_face)
            closed = await run.closed(server, seconds * 0.25, timed_face)
            timings.clear()
            opened = await run.open(server, seconds * 0.5, timed_face)
        client_ms = list(timings)
        await run.checks(server, run.phases[checked:])
        return {"untraced": untraced, "closed": closed,
                "open": opened, "client_ms": client_ms}

    try:
        with keep_awake(run.cpu):
            phases = asyncio.run(main())
    finally:
        run.stop_all()
    result = run.totals()
    with open(spans_path, encoding="utf-8") as handle:
        document = json.load(handle)
    spans = spans_from_rows(document["spans"])
    result["metrics"] = serve_layer_metrics(
        face, spans, document["stats"], phases)
    result["span_file"] = str(spans_path.relative_to(OUT_DIR.parent))
    result["span_count"] = len(spans)
    return result


def _ratio(hits: int, lookups: int) -> float:
    return hits / lookups if lookups else 0.0


def serve_layer_metrics(face: str, spans: Sequence[Span],
                        stats: Dict[str, Dict[str, int]],
                        phases: Dict[str, object]) -> Dict[str, float]:
    """Per-layer metrics of a traced serve run (see README.md)."""
    closed = phases["closed"]
    opened: serve_load.PhaseResult = phases["open"]
    cap = in_window(spans, closed["started"], closed["ended"])
    lat = in_window(spans, opened.started, opened.ended)
    updates = max(1, sum(
        1 for s in cap if s.name == "serve.service.close_token"))
    metrics: Dict[str, float] = {}

    if face == "http":
        request_ms = durations_ms(lat, "serve.request.http")
    else:
        request_ms = durations_ms(lat, "serve.coapface.handle_datagram")
    metrics["serve.request_ms.p50"] = percentile(request_ms, 50.0)
    metrics["serve.request_ms.p99"] = percentile(request_ms, 99.0)
    metrics["serve.client_gap_ms"] = (
        percentile(phases["client_ms"], 50.0)
        - metrics["serve.request_ms.p50"])

    for call in SERVICE_CALLS:
        name = "serve.service." + call
        calls = [s for s in cap if s.name == name]
        metrics[name + ".calls"] = len(calls) / updates
        metrics[name + ".busy_ms"] = sum(
            s.duration for s in calls) * 1000.0 / updates

    selfs = self_times(lat)
    queue = [selfs[s.sid] * 1000.0 for s in lat
             if s.name == "serve.signing.dispatch"]
    metrics["serve.signing.queue_wait_ms.p50"] = percentile(queue, 50.0)
    metrics["serve.signing.queue_wait_ms.p99"] = percentile(queue, 99.0)
    metrics["serve.signing.sign_ms.p50"] = percentile(
        durations_ms(cap, "crypto.ecdsa.sign"), 50.0)
    metrics["serve.signing.signs"] = sum(
        1 for s in cap if s.name == "crypto.ecdsa.sign") / updates
    signatures = stats.get("signature_cache", {})
    lookups = signatures.get("hits", 0) + signatures.get("misses", 0)
    metrics["serve.signing.signature_cache.hit_ratio"] = _ratio(
        signatures.get("hits", 0), lookups)
    metrics["serve.signing.signature_cache.lookups"] = lookups
    artifacts = stats.get("artifacts", {})
    lookups = artifacts.get("hits", 0) + artifacts.get("misses", 0)
    metrics["delta.artifacts.hit_ratio"] = _ratio(artifacts.get("hits", 0),
                                                  lookups)
    metrics["delta.artifacts.lookups"] = lookups
    prepare = durations_ms(cap, "core.server.prepare_update")
    metrics["core.server.prepare_update_ms"] = percentile(prepare, 50.0)
    metrics["core.server.prepare_update.calls"] = len(prepare) / updates
    metrics["workload.generator.firmware_ms"] = sum(
        s.duration for s in spans
        if s.layer == "workload" and not s.parent) * 1000.0

    by_layer = self_ms_by_layer(cap)
    if face == "http":
        # The HTTP face has no public per-request function to wrap: its
        # self time is the faces' own request timings minus the wrapped
        # calls those requests made (the roots of every other span).
        requests = sum(s.duration for s in cap
                       if s.layer == REQUEST_LAYER)
        roots = sum(s.duration for s in cap
                    if not s.parent and s.layer != REQUEST_LAYER)
        by_layer["serve.httpd"] = by_layer.get("serve.httpd", 0.0) + (
            requests - roots) * 1000.0
    for layer in SELF_TIME_LAYERS:
        metrics[layer + ".self_ms_per_update"] = by_layer.get(
            layer, 0.0) / updates

    metrics["bench.server.cpu_util"] = closed["server_cpu_util"]
    metrics["bench.client.cpu_util"] = closed["client_cpu_util"]
    metrics["bench.loadgen.late_ms.p99"] = percentile(opened.late_ms, 99.0)
    base = phases["untraced"]["updates_per_s"]
    metrics["bench.trace_overhead_pct"] = (
        (base - closed["updates_per_s"]) / base * 100.0 if base else 0.0)
    metrics["bench.traced.updates"] = updates
    return metrics
