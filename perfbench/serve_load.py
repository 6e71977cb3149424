"""The serve workloads' client: device sessions against a server process.

One single-threaded asyncio process drives the server over the
loopback interface with at most ``nproc`` sessions in flight:

* **closed loop** — ``nproc`` workers, each running sessions back to
  back on its own connection; completed sessions per second is the
  server's capacity.
* **open loop** — sessions are due on a seeded Poisson schedule at a
  fixed offered rate; ``nproc`` workers take them in order.  A session
  is timed from when it was *due*, so waiting for a free worker counts;
  the generator's own lateness (a free worker waking after the due
  time) is reported separately.

A session that fails anywhere — an unexpected status, a payload whose
SHA-256 is not the manifest's, an unacknowledged report, a timeout, a
dead server — counts as failed, with latency ``inf``.  A seeded sample
of completed sessions gets deeper checks after the measured window:
both envelope signatures against the trust anchors, the manifest's
binding of the issued token's device id and nonce, and a replay of the
closed token, which must be refused with 403.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .common import FAILED

#: A session's whole budget; a hung server fails it instead of the run.
SESSION_TIMEOUT = 10.0
#: One UDP exchange's wait before the CoAP client retransmits.
COAP_RETRANSMIT_TIMEOUT = 1.0
#: Share of sessions that get the deeper post-window checks.
SAMPLE_RATE = 1.0 / 8.0
#: Closed-loop sampling period; the per-slice rates are kept in the
#: result, where a stretch of outside load shows as a run of slow slices.
SLICE = 1.0
HTTP_CHUNK_BYTES = 2048
COAP_BLOCK_SIZE = 256


class CheckFailed(RuntimeError):
    """The server answered, but the answer is wrong."""


@dataclass
class Outcome:
    """What a completed session leaves for the deeper checks."""

    device_id: int
    token: str
    nonce: int
    envelope_hex: str


@dataclass
class PhaseResult:
    """One measured phase of sessions."""

    started: float = 0.0
    ended: float = 0.0
    attempted: int = 0
    completed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Per-session latency in ms (``inf`` for failed), open loop only.
    latencies_ms: List[float] = field(default_factory=list)
    #: Generator lateness per session in ms, open loop only.
    late_ms: List[float] = field(default_factory=list)
    #: Sampled sessions: (index into latencies or -1, outcome).
    sampled: List[Tuple[int, Outcome]] = field(default_factory=list)
    #: Closed loop: per slice (seconds, completed, server CPU s,
    #: client CPU s).
    slices: List[Tuple[float, ...]] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)


# -- faces ---------------------------------------------------------------------


class HttpConnection:
    """A minimal keep-alive HTTP/1.1 client (Content-Length bodies)."""

    def __init__(self, host: str, port: int,
                 timings: Optional[List[float]]) -> None:
        self.host = host
        self.port = port
        self.timings = timings
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port)

    async def close(self) -> None:
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    async def request(self, method: str, path: str,
                      body: Optional[Dict[str, object]] = None,
                      headers: str = "") -> Tuple[int, bytes]:
        if self._writer is None or self._reader is None:
            await self.open()
        assert self._writer is not None and self._reader is not None
        payload = b"" if body is None else json.dumps(body).encode()
        head = ("%s %s HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\n%s"
                "\r\n" % (method, path, self.host, len(payload), headers))
        started = time.perf_counter()
        self._writer.write(head.encode("latin-1") + payload)
        raw = await self._reader.readuntil(b"\r\n\r\n")
        lines = raw[:-4].split(b"\r\n")
        status = int(lines[0].split(b" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _sep, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        data = await self._reader.readexactly(length) if length else b""
        if self.timings is not None:
            self.timings.append((time.perf_counter() - started) * 1000.0)
        return status, data


def _expect(status: int, allowed: Tuple[int, ...], what: str,
            data: bytes) -> None:
    if status not in allowed:
        raise CheckFailed("%s -> %d: %s" % (
            what, status, data[:160].decode("utf-8", "replace")))


class HttpFace:
    """``cli serve``: register → token → manifest → 2 KB ranged GETs →
    report, all on one keep-alive connection per worker."""

    def __init__(self, port: int, host: str = "127.0.0.1",
                 timings: Optional[List[float]] = None) -> None:
        self.host = host
        self.port = port
        self.timings = timings

    def connection(self) -> HttpConnection:
        return HttpConnection(self.host, self.port, self.timings)

    async def session(self, conn: HttpConnection, device_id: int,
                      index: int) -> Outcome:
        status, data = await conn.request(
            "POST", "/devices", {"device_id": device_id,
                                 "channel": "stable",
                                 "current_version": 1})
        _expect(status, (200, 201), "register", data)
        status, data = await conn.request(
            "POST", "/devices/%d/token" % device_id, {})
        _expect(status, (200, 201), "token", data)
        issued = json.loads(data)
        token = str(issued["token"])
        status, data = await conn.request("GET", "/manifests/" + token)
        _expect(status, (200,), "manifest", data)
        manifest = json.loads(data)
        total = int(manifest["payload_size"])
        digest = sha256()
        offset = 0
        while offset < total:
            end = min(total, offset + HTTP_CHUNK_BYTES) - 1
            status, data = await conn.request(
                "GET", "/images/" + token,
                headers="Range: bytes=%d-%d\r\n" % (offset, end))
            _expect(status, (206,), "chunk", data)
            if not data:
                raise CheckFailed("empty chunk at offset %d" % offset)
            digest.update(data)
            offset += len(data)
        if offset != total or digest.hexdigest() != \
                manifest["payload_sha256"]:
            raise CheckFailed("payload SHA-256 differs from the manifest "
                              "(device %d)" % device_id)
        status, data = await conn.request(
            "POST", "/reports/" + token, {"status": "updated"})
        _expect(status, (200,), "report", data)
        if json.loads(data).get("acknowledged") is not True:
            raise CheckFailed("report not acknowledged")
        return Outcome(device_id, token, int(issued["nonce"]),
                       str(manifest["envelope"]))

    async def replay_status(self, token: str) -> int:
        conn = self.connection()
        try:
            status, _data = await conn.request(
                "POST", "/reports/" + token, {"status": "updated"})
            return status
        finally:
            await conn.close()


def _exchange_key(datagram: bytes) -> bytes:
    """Message id and token: the header bytes a response must echo."""
    return bytes(datagram[2:4 + (datagram[0] & 0x0F)]) if datagram \
        else b""


class UdpRelay(asyncio.DatagramProtocol):
    """Client socket with ``CoapDeviceClient``'s relay interface.  A
    response that does not arrive in time reads as lost, so the client
    retransmits (CON semantics).  Only a datagram echoing the pending
    request's message id and token answers it (RFC 7252 §5.3.2): a late
    reply to an earlier transmission is dropped, not taken as the answer
    to the next request."""

    def __init__(self, timings: Optional[List[float]]) -> None:
        self.timings = timings
        self.transport: Optional[asyncio.DatagramTransport] = None
        self._waiter: Optional[asyncio.Future] = None
        self._expected = b""

    def connection_made(self, transport) -> None:
        self.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        if self._waiter is not None and not self._waiter.done() \
                and _exchange_key(data) == self._expected:
            self._waiter.set_result(data)

    async def request(self, datagram: bytes,
                      endpoint: bytes = b"") -> Optional[bytes]:
        assert self.transport is not None
        self._expected = _exchange_key(datagram)
        self._waiter = asyncio.get_running_loop().create_future()
        started = time.perf_counter()
        self.transport.sendto(datagram)
        try:
            response = await asyncio.wait_for(self._waiter,
                                              COAP_RETRANSMIT_TIMEOUT)
        except asyncio.TimeoutError:
            return None
        if self.timings is not None:
            self.timings.append((time.perf_counter() - started) * 1000.0)
        return response

    def close(self) -> None:
        if self.transport is not None:
            self.transport.close()


class LoopbackAddresses:
    """A distinct loopback address (127.b.c.d) per simulated device.

    The CoAP server deduplicates on (source address, token, message id)
    and ``CoapDeviceClient`` starts every session at the same token and
    message id.  A session from a reused source port would be answered
    from another session's cached responses, so no address is handed
    out twice in a run."""

    def __init__(self) -> None:
        self._next = 0

    def next(self) -> str:
        self._next += 1
        index = self._next
        return "127.%d.%d.%d" % (1 + (index >> 16) % 254,
                                 (index >> 8) & 0xFF, index & 0xFF)


class CoapFace:
    """The UDP adapter around ``CoapFront``, driven by the program's
    ``CoapDeviceClient`` at 256 B blocks; each session comes from its
    own socket and address (a device has its own address), and sessions
    alternate between the stable and developer channels."""

    def __init__(self, port: int, host: str = "127.0.0.1",
                 timings: Optional[List[float]] = None,
                 addresses: Optional[LoopbackAddresses] = None) -> None:
        self.host = host
        self.port = port
        self.timings = timings
        self.addresses = addresses or LoopbackAddresses()

    def connection(self) -> "CoapFace":
        return self     # no per-worker state: one socket per session

    async def close(self) -> None:
        """Nothing to close: each session owns its socket."""

    async def _relay(self) -> UdpRelay:
        loop = asyncio.get_running_loop()
        _transport, relay = await loop.create_datagram_endpoint(
            lambda: UdpRelay(self.timings),
            local_addr=(self.addresses.next(), 0),
            remote_addr=(self.host, self.port))
        return relay

    async def session(self, _conn: object, device_id: int,
                      index: int) -> Outcome:
        from repro.serve import CoapDeviceClient

        relay = await self._relay()
        try:
            client = CoapDeviceClient(
                relay, device_id,
                channel="developer" if index % 2 else "stable",
                block_size=COAP_BLOCK_SIZE)
            result = await client.run_session()
        finally:
            relay.close()
        if not result["digest_ok"]:
            raise CheckFailed("payload SHA-256 differs from the manifest "
                              "(device %d)" % device_id)
        if result["report"].get("acknowledged") is not True:
            raise CheckFailed("report not acknowledged")
        token = str(result["token"])
        return Outcome(device_id, token, _token_nonce(token),
                       str(result["envelope"]))

    async def replay_status(self, token: str) -> int:
        from repro.net.coap import CoapCode, CoapMessage, CoapOption, \
            CoapType

        request = CoapMessage(mtype=CoapType.CON, code=CoapCode.POST,
                              message_id=1, token=b"\x00\x00\x00\x01")
        for segment in ("reports", token):
            request.add_option(CoapOption.URI_PATH, segment.encode())
        request.payload = json.dumps({"status": "updated"}).encode()
        relay = await self._relay()
        try:
            for _attempt in range(4):
                response = await relay.request(request.encode())
                if response is not None:
                    code = CoapMessage.decode(response).code
                    return 403 if code == CoapCode.FORBIDDEN else int(code)
        finally:
            relay.close()
        return 0


def _token_nonce(token_hex: str) -> int:
    from repro.core.token import DeviceToken

    return DeviceToken.unpack(bytes.fromhex(token_hex)).nonce


# -- driving -------------------------------------------------------------------


class Driver:
    """Runs phases of sessions against one server process."""

    def __init__(self, face, workers: int, next_device: Callable[[], int],
                 sample: Callable[[], bool],
                 alive: Callable[[], bool]) -> None:
        self.face = face
        self.workers = workers
        self.next_device = next_device
        self.sample = sample
        self.alive = alive
        self.index = 0

    async def _one(self, conn, result: PhaseResult
                   ) -> Tuple[Optional[Outcome], bool]:
        """One session; returns its outcome (None if it failed) and
        whether the seeded sample picked it for the deeper checks."""
        index = self.index
        self.index += 1
        device_id = self.next_device()
        sampled = self.sample()
        result.attempted += 1
        try:
            outcome = await asyncio.wait_for(
                self.face.session(conn, device_id, index),
                SESSION_TIMEOUT)
        except Exception as exc:  # any deviation fails this session
            result.failures.append("device %d: %s: %s" % (
                device_id, type(exc).__name__, exc))
            await conn.close()      # a fresh connection for the next one
            return None, sampled
        result.completed += 1
        return outcome, sampled

    async def sequential(self, sessions: int) -> PhaseResult:
        """Sessions one at a time on one connection (set-up)."""
        result = PhaseResult(started=time.perf_counter())
        conn = self.face.connection()
        try:
            for _ in range(sessions):
                await self._one(conn, result)
        finally:
            await conn.close()
        result.ended = time.perf_counter()
        return result

    async def closed_loop(self, seconds: float,
                          probe: Callable[[], Tuple[float, float]]
                          ) -> PhaseResult:
        """Back-to-back sessions for ``seconds``.  Every ``SLICE``
        seconds, and once more at the end, ``probe()`` reads (server
        CPU s, client CPU s); each slice records (length, completed,
        server CPU, client CPU).  The slices cover the whole loop
        unless the server died."""
        result = PhaseResult(started=time.perf_counter())
        deadline = result.started + seconds
        marks = [(result.started, 0) + probe()]

        def mark() -> None:
            marks.append((time.perf_counter(), result.completed) + probe())
            result.slices.append(tuple(b - a for a, b in
                                       zip(marks[-2], marks[-1])))

        async def worker() -> None:
            conn = self.face.connection()
            try:
                while time.perf_counter() < deadline and self.alive():
                    outcome, sampled = await self._one(conn, result)
                    if outcome is not None and sampled:
                        result.sampled.append((-1, outcome))
            finally:
                await conn.close()

        async def sampler() -> None:
            while True:
                await asyncio.sleep(SLICE)
                if not self.alive():
                    return
                mark()

        watcher = asyncio.ensure_future(sampler())
        try:
            await asyncio.gather(*(worker() for _ in range(self.workers)))
        finally:
            watcher.cancel()
            try:
                await watcher
            except asyncio.CancelledError:
                pass
        if self.alive():
            mark()
        result.ended = time.perf_counter()
        return result

    async def open_loop(self, schedule: List[float]) -> PhaseResult:
        """``schedule``: due offsets (s) from the phase start."""
        result = PhaseResult(started=time.perf_counter())
        start = result.started
        position = [0]

        async def worker() -> None:
            conn = self.face.connection()
            free_at = start
            try:
                while position[0] < len(schedule):
                    due = start + schedule[position[0]]
                    position[0] += 1
                    slot = len(result.latencies_ms)
                    result.latencies_ms.append(FAILED)
                    if not self.alive():
                        result.attempted += 1
                        result.failures.append(
                            "server died before a due session")
                        continue
                    delay = due - time.perf_counter()
                    if delay > 0:
                        await asyncio.sleep(delay)
                    began = time.perf_counter()
                    result.late_ms.append(
                        max(0.0, began - max(due, free_at)) * 1000.0)
                    outcome, sampled = await self._one(conn, result)
                    free_at = time.perf_counter()
                    if outcome is not None:
                        result.latencies_ms[slot] = (free_at - due) * 1000.0
                        if sampled:
                            result.sampled.append((slot, outcome))
            finally:
                await conn.close()

        await asyncio.gather(*(worker() for _ in range(self.workers)))
        result.ended = time.perf_counter()
        return result


def poisson_schedule(source, rate: float, seconds: float) -> List[float]:
    """Seeded Poisson arrivals (offsets in s) at ``rate`` per second."""
    due: List[float] = []
    now = source.expovariate(rate)
    while now < seconds:
        due.append(now)
        now += source.expovariate(rate)
    return due


# -- deeper checks -------------------------------------------------------------


async def check_sampled(face, phases: Sequence[PhaseResult]) -> None:
    """Signatures, token binding and single use for sampled sessions.

    A failed check fails its session: it is appended to the phase's
    failures and, in an open loop, its latency becomes ``inf``."""
    from repro.core import make_test_identities
    from repro.core.image import SignedManifest
    from repro.core.token import DeviceToken
    from repro.core.verifier import Verifier
    from repro.crypto import get_backend, use_engine

    _vendor, _server, anchors = make_test_identities()
    verifier = Verifier(anchors, get_backend("tinycrypt"))
    for phase in phases:
        for slot, outcome in phase.sampled:
            problem = None
            try:
                envelope = SignedManifest.unpack(
                    bytes.fromhex(outcome.envelope_hex))
                with use_engine("fast"):
                    verifier.verify_signatures(envelope)
                token = DeviceToken.unpack(bytes.fromhex(outcome.token))
                manifest = envelope.manifest
                if (manifest.device_id, manifest.nonce) != (
                        outcome.device_id, outcome.nonce) or (
                        token.device_id, token.nonce) != (
                        outcome.device_id, outcome.nonce):
                    problem = "manifest does not bind the issued token"
                else:
                    status = await face.replay_status(outcome.token)
                    if status != 403:
                        problem = "closed token replay got %d, not 403" \
                            % status
            except Exception as exc:  # a bad signature or format
                problem = "%s: %s" % (type(exc).__name__, exc)
            if problem is not None:
                phase.failures.append("device %d: %s"
                                      % (outcome.device_id, problem))
                phase.completed -= 1
                if slot >= 0:
                    phase.latencies_ms[slot] = FAILED
