"""The simulated-CoAP face: block-wise named chunks, same service.

Constrained clients in the paper pull over CoAP, not HTTP.  This face
speaks real RFC 7252 datagrams (the :mod:`repro.net.coap` codec — the
same bytes a Zoap/libcoap stack would emit) over an in-process
datagram relay, and routes every request into the *same*
:class:`~repro.serve.service.FleetService` the HTTP face uses.  The
image resource follows the ICN-style named-chunk model (Gündoğan et
al.): the resource name is the token, each Block2 exchange names an
absolute chunk, and any block may be re-requested after a loss —
which is exactly the service layer's overlapping-range contract.

The face serves the CoAP-exposed entries of
:data:`~repro.serve.routes.ROUTES` (register, token, manifest, image,
report, healthz; URI paths mirror the HTTP routes).  Routing, error
mapping, signer offload, tracing and request accounting are the
shared pipeline of :mod:`repro.serve.routes`; this module is
datagram decode, §4.2 dedup and Block2 framing.  Success codes derive
from the route's status — 201 is 2.01 Created, a POST's 200 is 2.04
Changed, a GET's 200 is 2.05 Content — and errors carry the service's
structured JSON body with the closest CoAP code
(4.00/4.03/4.04/4.05/4.09), so a client can branch on ``error.code``
identically over either protocol.

Observability: trace context crosses the datagram as the
elective :data:`~repro.net.coap.CoapOption.TRACEPARENT` option.  A
CON retransmission reuses the *encoded* datagram, so one logical
request keeps one trace_id no matter how many times the response was
lost; a §4.2 dedup replay is counted (``serve.coap_dedup_hits``) and
marked as an instant, never re-traced as fresh work.
"""

from __future__ import annotations

import asyncio
import json
import secrets
from collections import OrderedDict
from hashlib import sha256
from typing import Dict, Optional, Tuple

from ..net.coap import (
    Block,
    CoapCode,
    CoapError,
    CoapMessage,
    CoapOption,
    CoapType,
    VERSION,
)
from ..obs.trace import NULL_TRACER
from .routes import RoutedFace, keep_heap_top
from .service import FleetService, ServiceError
from .telemetry import ServeTelemetry

__all__ = ["CoapFront", "CoapDatagramRelay", "CoapDeviceClient",
           "DEFAULT_BLOCK_SIZE"]

DEFAULT_BLOCK_SIZE = 256

_STATUS_TO_COAP = {
    400: CoapCode.BAD_REQUEST,
    403: CoapCode.FORBIDDEN,
    404: CoapCode.NOT_FOUND,
    405: CoapCode.METHOD_NOT_ALLOWED,
    409: CoapCode.CONFLICT,
    416: CoapCode.BAD_REQUEST,
}


class CoapFront(RoutedFace):
    """Datagram-in, datagram-out codec over one FleetService.

    Implements RFC 7252 §4.2 deduplication: a CON retransmission
    (same message ID + token — the client never got our response)
    replays the *cached* response instead of re-executing the
    request.  Without this, a lost response to a non-idempotent POST
    (token issuance, outcome report) would burn the single-use token
    and strand the device.

    Message IDs are scoped *per endpoint* (RFC 7252 §4.4): the dedup
    key includes the source endpoint passed into
    :meth:`handle_datagram`, so two clients that happen to emit the
    same token/MID pair never see each other's cached responses.

    A retransmission arriving *while* the original is still being
    served (e.g. a manifest resolution waiting on the signer pool)
    re-executes the route — safe, because manifest resolution is
    idempotent while the token is open (concurrent resolutions await
    one in-flight preparation in the service); non-idempotent POSTs
    run inline and finish before the next datagram is read.
    """

    proto = "coap"
    DEDUP_WINDOW = 1024

    def __init__(self, service: FleetService,
                 telemetry: Optional[ServeTelemetry] = None,
                 tracer=None) -> None:
        super().__init__(service, telemetry, tracer)
        self._dedup_hits = service.metrics.counter(
            "serve.coap_dedup_hits",
            "retransmissions answered from the dedup cache")
        self._seen: "OrderedDict[Tuple[bytes, bytes, int], bytes]" = \
            OrderedDict()
        #: Encoded Block2+Size2 option bytes keyed by
        #: (num, more, size, total): every image response for the same
        #: block geometry reuses the serialized prefix instead of
        #: re-running delta option encoding (see :meth:`_block`).
        self._block_options: Dict[Tuple[int, bool, int, int], bytes] \
            = {}

    async def handle_datagram(self, datagram: bytes,
                              endpoint: bytes = b"") -> bytes:
        """Process one encoded request from ``endpoint`` (the source
        address on a real UDP socket); always returns a response
        datagram (malformed requests get a 4.00, never silence)."""
        started = self.telemetry.now_fn()
        try:
            request = CoapMessage.decode(datagram)
        except CoapError as exc:
            response = CoapMessage(
                mtype=CoapType.ACK, code=CoapCode.BAD_REQUEST,
                message_id=0,
                payload=_json({"error": {"code": "bad-datagram",
                                         "status": 400,
                                         "detail": str(exc)}})).encode()
            self.telemetry.request_started()
            self.telemetry.observe_request(
                "coap", "<bad-datagram>", 400, len(response),
                self.telemetry.now_fn() - started)
            return response
        key = (endpoint, request.token, request.message_id)
        cached = self._seen.get(key)
        if cached is not None:
            # A replay is *not* new work: count the cache hit, mark it
            # in the trace, and keep the original request's accounting.
            self._seen.move_to_end(key)
            self._dedup_hits.inc()
            if self.tracer.enabled:
                self.tracer.instant("coap.dedup",
                                    category="serve.coap",
                                    args={"mid": request.message_id})
            return cached
        traceparent = None
        if self.tracer.enabled:
            raw = request.option(CoapOption.TRACEPARENT)
            if raw:
                traceparent = raw.decode("ascii", "replace")
        block = request.block2() or Block(num=0, more=False,
                                          size=DEFAULT_BLOCK_SIZE)
        response = await self._serve(
            (request, block), request.code.name, request.uri_path(),
            request.payload, started, traceparent)
        self._seen[key] = response
        while len(self._seen) > self.DEDUP_WINDOW:
            self._seen.popitem(last=False)
        return response

    # -- framing hooks ---------------------------------------------------------

    def chunk_range(self, raw: Tuple[CoapMessage, Block]
                    ) -> Tuple[int, int]:
        """Named chunks: Block2 names an absolute payload range."""
        block = raw[1]
        return block.num * block.size, block.size

    async def _respond(self, raw: Tuple[CoapMessage, Block],
                       status: int, payload: object
                       ) -> Tuple[int, int, bytes]:
        request, block = raw
        try:
            response = self._encode(request, block, status, payload)
        except ServiceError as exc:      # a Block2 past the resource
            status = exc.status
            response = self._encode(request, block, status,
                                    exc.to_body())
        return status, len(response), response

    def _encode(self, request: CoapMessage, block: Block, status: int,
                payload: object) -> bytes:
        if status >= 400:
            code = _STATUS_TO_COAP.get(status,
                                       CoapCode.INTERNAL_SERVER_ERROR)
        elif isinstance(payload, tuple):
            # A payload chunk: the slice Block2 named, no copy.
            return self._block(request, block, *payload)
        elif request.code == CoapCode.GET:
            # Other GET resources go out Block2-wise; the manifest
            # arrives pre-serialized (the canonical JSON the service
            # encodes once per token), so both faces serve those bytes.
            body = payload if isinstance(payload, bytes) \
                else _json(payload)
            start = block.num * block.size
            if start > len(body):
                raise ServiceError("range-unsatisfiable", 416,
                                   "block %d past end of %d-byte "
                                   "resource" % (block.num, len(body)))
            return self._block(request, block,
                               body[start:start + block.size], len(body))
        else:
            code = CoapCode.CREATED if status == 201 else CoapCode.CHANGED
        return CoapMessage(
            mtype=CoapType.ACK, code=code,
            message_id=request.message_id, token=request.token,
            payload=_json(payload)).encode()

    def _block(self, request: CoapMessage, block: Block, data,
               total: int) -> bytes:
        """One 2.05 Block2 response — the hot path of a download.

        The encoded Block2+Size2 option bytes are cached per block
        geometry, so the datagram is assembled with a single ``join``
        — header, token, cached options, marker, slice — instead of
        re-encoding a :class:`CoapMessage` per chunk.
        """
        more = block.num * block.size + len(data) < total
        options = self._block_option_bytes(block.num, more,
                                           block.size, total)
        header = bytes((
            (VERSION << 6) | (int(CoapType.ACK) << 4)
            | len(request.token),
            int(CoapCode.CONTENT))) \
            + request.message_id.to_bytes(2, "big")
        if len(data):
            return b"".join((header, request.token, options,
                             b"\xff", data))
        return b"".join((header, request.token, options))

    def _block_option_bytes(self, num: int, more: bool, size: int,
                            total: int) -> bytes:
        """Encoded Block2+Size2 options for one block geometry,
        built once via the codec and reused (the codec's own output:
        a probe message with an empty token encodes as a 4-byte
        header followed by exactly the option bytes)."""
        key = (num, more, size, total)
        cached = self._block_options.get(key)
        if cached is None:
            probe = CoapMessage(mtype=CoapType.ACK,
                                code=CoapCode.CONTENT, message_id=0)
            probe.add_option(CoapOption.BLOCK2,
                             Block(num=num, more=more,
                                   size=size).encode())
            probe.add_option(CoapOption.SIZE2,
                             total.to_bytes(4, "big"))
            cached = bytes(probe.encode()[4:])
            if len(self._block_options) >= 4096:
                self._block_options.clear()
            self._block_options[key] = cached
        return cached


class CoapDatagramRelay:
    """The in-process virtual network between client and front.

    One async hop per direction; a real UDP socket pair would carry
    identical bytes.  ``endpoint`` plays the role of the datagram's
    source address and is forwarded into the front's per-endpoint
    dedup scope.  ``drop_every`` drops every Nth *response*
    datagram, which is how the tests exercise named-chunk
    re-requests after loss.
    """

    def __init__(self, front: CoapFront,
                 drop_every: int = 0) -> None:
        self.front = front
        self.drop_every = drop_every
        self.exchanges = 0
        self.dropped = 0

    async def request(self, datagram: bytes,
                      endpoint: bytes = b"") -> Optional[bytes]:
        await asyncio.sleep(0)          # the uplink hop
        response = await self.front.handle_datagram(datagram,
                                                    endpoint)
        self.exchanges += 1
        if self.drop_every and self.exchanges % self.drop_every == 0:
            self.dropped += 1
            return None                 # the downlink datagram is lost
        await asyncio.sleep(0)          # the downlink hop
        return response


class CoapDeviceClient:
    """A constrained client driving the full session over datagrams.

    ``run_session`` performs register → token → manifest → block-wise
    named-chunk download → report and returns the device-visible
    outcome — the same tuple the HTTP swarm client produces, which is
    what the protocol-parity test compares.
    """

    def __init__(self, relay: CoapDatagramRelay, device_id: int,
                 channel: str = "stable",
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 max_retries: int = 8, tracer=None) -> None:
        self.relay = relay
        self.device_id = device_id
        self.channel = channel
        self.block_size = block_size
        self.max_retries = max_retries
        self.tracer = tracer or NULL_TRACER
        # The client's source address scopes the front's dedup cache.
        # Message IDs and tokens start at random values (RFC 7252
        # §4.4, §5.3.1), so a later session from the same endpoint
        # never collides with the earlier one's cached responses.
        self.endpoint = b"coap-ep-%d" % device_id
        self._mid = secrets.randbits(16)
        self._token_counter = secrets.randbits(32)
        keep_heap_top()

    async def run_session(self) -> Dict[str, object]:
        with self.tracer.span("device.session", category="device",
                              device_id=self.device_id,
                              proto="coap"):
            return await self._run_session()

    async def _run_session(self) -> Dict[str, object]:
        register = await self._post_json(
            "devices", {"device_id": self.device_id,
                        "channel": self.channel})
        issued = await self._post_json(
            "devices/%d/token" % self.device_id, {})
        token_hex = str(issued["token"])
        manifest = json.loads((await self._get_blockwise(
            "manifests/%s" % token_hex)).decode("utf-8"))
        payload = await self._get_blockwise(
            "images/%s" % token_hex,
            expected=int(manifest["payload_size"]))
        digest_ok = (sha256(payload).hexdigest()
                     == manifest["payload_sha256"])
        report = await self._post_json(
            "reports/%s" % token_hex,
            {"status": "updated" if digest_ok else "failed"})
        return {
            "register": register,
            "token": token_hex,
            "envelope": manifest["envelope"],
            "version": manifest["version"],
            "payload": payload,
            "digest_ok": digest_ok,
            "report": report,
        }

    # -- exchanges -------------------------------------------------------------

    async def _exchange(self, request: CoapMessage) -> CoapMessage:
        """CON semantics: retransmit until a response datagram lands."""
        datagram = request.encode()
        for _attempt in range(self.max_retries):
            response = await self.relay.request(datagram,
                                                self.endpoint)
            if response is not None:
                return CoapMessage.decode(response)
        raise CoapError("no response after %d retransmissions"
                        % self.max_retries)

    def _request(self, code: CoapCode, path: str) -> CoapMessage:
        self._mid = (self._mid + 1) & 0xFFFF
        self._token_counter = (self._token_counter + 1) & 0xFFFFFFFF
        message = CoapMessage(
            mtype=CoapType.CON, code=code, message_id=self._mid,
            token=self._token_counter.to_bytes(4, "big"))
        for segment in path.split("/"):
            message.add_option(CoapOption.URI_PATH,
                               segment.encode("utf-8"))
        # Trace context rides in the datagram itself; because
        # _exchange retransmits the already-encoded bytes, a lost
        # response never mints a second trace_id for the same request.
        traceparent = self.tracer.current_traceparent()
        if traceparent is not None:
            message.add_option(CoapOption.TRACEPARENT,
                               traceparent.encode("ascii"))
        return message

    async def _post_json(self, path: str,
                         body: Dict[str, object]) -> Dict[str, object]:
        with self.tracer.span("coap.post", category="device",
                              resource=path.split("/")[0]):
            request = self._request(CoapCode.POST, path)
            request.payload = json.dumps(body, sort_keys=True) \
                .encode("utf-8")
            response = await self._exchange(request)
        if response.code not in (CoapCode.CONTENT, CoapCode.CHANGED,
                                 CoapCode.CREATED):
            raise _service_error(response)
        return _parse(response)

    async def _get_blockwise(self, path: str,
                             expected: Optional[int] = None) -> bytes:
        """Named-chunk download; lost responses re-request the same
        absolute block — overlap the service must (and does) allow."""
        chunks: Dict[int, bytes] = {}
        num = 0
        total: Optional[int] = expected
        with self.tracer.span("coap.get", category="device",
                              resource=path.split("/")[0]):
            while True:
                request = self._request(CoapCode.GET, path)
                request.add_option(
                    CoapOption.BLOCK2,
                    Block(num=num, more=False,
                          size=self.block_size).encode())
                response = await self._exchange(request)
                if response.code != CoapCode.CONTENT:
                    raise _service_error(response)
                chunks[num] = response.payload
                size2 = response.option(CoapOption.SIZE2)
                if size2 is not None:
                    total = int.from_bytes(size2, "big")
                block = response.block2()
                if block is None or not block.more:
                    break
                num += 1
        body = b"".join(chunks[i] for i in sorted(chunks))
        if total is not None and len(body) != total:
            raise CoapError("assembled %d bytes, resource is %d"
                            % (len(body), total))
        return body


def _json(body: object) -> bytes:
    return json.dumps(body, sort_keys=True).encode("utf-8")


def _parse(response: CoapMessage) -> Dict[str, object]:
    return json.loads(response.payload.decode("utf-8")) \
        if response.payload else {}


def _service_error(response: CoapMessage) -> ServiceError:
    """The structured error an error response carries."""
    error = _parse(response).get("error", {})
    return ServiceError(str(error.get("code", "coap")),
                        int(error.get("status", 500)),
                        str(error.get("detail", response.code.name)))
