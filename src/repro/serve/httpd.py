"""The HTTP/1.1 face of the fleet service: stdlib asyncio, no deps.

A deliberately small server — request line, headers, Content-Length
bodies, keep-alive — because constrained-device update traffic *is*
small: five JSON endpoints and one binary range endpoint per session.
Routing, argument parsing, error mapping, offload, tracing and request
accounting all live in the shared pipeline of
:mod:`repro.serve.routes`; this module is HTTP framing only.

The routes — device sessions, campaign CRUD (management shapes
modeled on moonraker's update_manager), ``/metrics`` and ``/healthz``
— are the table :data:`~repro.serve.routes.ROUTES`; ``GET /`` lists
it.

Errors are :class:`~repro.serve.service.ServiceError` bodies verbatim:
``{"error": {"code", "status", "detail"}}`` — the CoAP face serializes
the same object, so a client's error handling is protocol-portable.

What stays here: one ``readuntil`` per request head, the Range header
or ``offset=&length=`` query (206 with Content-Range), chunked
``/metrics``, cached response-header prefixes, and ``writelines``
zero-copy writes of payload slices.  The ``traceparent`` header feeds
the pipeline's trace grafting, and an
:class:`~repro.serve.telemetry.EventLoopWatchdog` runs for the
server's lifetime, sampling scheduling lag into ``/metrics`` and
``/healthz``.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple

from ..obs.export import OPENMETRICS_CONTENT_TYPE
from ..obs.trace import TRACEPARENT_HEADER
from .routes import RoutedFace
from .service import FleetService, ServiceError
from .telemetry import EventLoopWatchdog, ServeTelemetry

__all__ = ["HttpServer", "MAX_BODY_BYTES"]

MAX_BODY_BYTES = 1 << 20
_STATUS_TEXT = {200: "OK", 201: "Created", 206: "Partial Content",
                400: "Bad Request", 403: "Forbidden", 404: "Not Found",
                405: "Method Not Allowed", 409: "Conflict",
                413: "Payload Too Large",
                416: "Range Not Satisfiable",
                500: "Internal Server Error"}
#: /metrics flows through chunked transfer-encoding on purpose: the
#: OpenMetrics conformance test asserts the ``# EOF`` terminator
#: survives re-assembly from chunk frames.
METRICS_CHUNK_BYTES = 512
_JSON = "application/json; charset=utf-8"
_OCTETS = "application/octet-stream"


class _HttpRequest:
    """One framed request plus what its response needs to know."""

    __slots__ = ("writer", "headers", "query", "close", "offset",
                 "ranged")

    def __init__(self, writer: asyncio.StreamWriter,
                 headers: Dict[str, str], query: str) -> None:
        self.writer = writer
        self.headers = headers
        self.query = query
        self.close = headers.get("connection", "").lower() == "close"
        self.offset = 0
        self.ranged = False


class HttpServer(RoutedFace):
    """``asyncio.start_server`` front end over one FleetService."""

    proto = "http"

    def __init__(self, service: FleetService,
                 host: str = "127.0.0.1", port: int = 0,
                 telemetry: Optional[ServeTelemetry] = None,
                 tracer=None) -> None:
        super().__init__(service, telemetry, tracer)
        self.host = host
        self.port = port
        self._watchdog = EventLoopWatchdog(self.telemetry)
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: "set[asyncio.Task]" = set()
        #: Pre-serialized response-header skeletons keyed by
        #: (status, content type, close): the hot JSON endpoints write
        #: a cached prefix + the length digits instead of rebuilding
        #: the header block per request.
        self._header_cache: Dict[Tuple[int, str, bool], bytes] = {}

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._watchdog.start()

    async def stop(self) -> None:
        """Close the listener and every live connection task — after
        this returns, the server has left ``asyncio.all_tasks()``."""
        await self._watchdog.stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks,
                                 return_exceptions=True)
        self._conn_tasks.clear()

    async def __aenter__(self) -> "HttpServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- connection loop -------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    alive = await self._next_request(reader, writer)
                except (asyncio.IncompleteReadError,
                        ConnectionResetError, asyncio.LimitOverrunError):
                    break
                except ServiceError as exc:
                    # The request never framed (bad request line, bad
                    # or oversized Content-Length), so the stream
                    # position is unknown: answer and close.
                    self.telemetry.request_started()
                    _status, nbytes, _alive = await self._respond(
                        _HttpRequest(writer, {"connection": "close"}, ""),
                        exc.status, exc.to_body())
                    self.telemetry.observe_request(
                        "http", "<bad-request>", exc.status, nbytes,
                        0.0)
                    break
                if not alive:
                    break
        except asyncio.CancelledError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.CancelledError):
                # Swallowing a cancel here is safe: the handler is
                # about to finish anyway, and stop() must be able to
                # gather this task to completion.
                pass
            # Deregister only once fully done — stop() snapshots
            # _conn_tasks, and a task that removed itself before its
            # last await could linger past stop() unobserved.
            if task is not None:
                self._conn_tasks.discard(task)

    async def _next_request(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> bool:
        """Read, serve and answer one request.  Returns False when the
        connection must close (a clean keep-alive close, an explicit
        Connection: close, or a broken peer)."""
        # One readuntil for the whole head instead of a readline per
        # header: at 10k-session swarm scale the per-await event-loop
        # trips dominate header parsing, so the hot path takes exactly
        # one scheduling round for head plus one for the body.
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial or exc.partial in (b"\r\n", b"\n"):
                return False         # clean keep-alive close
            raise
        except asyncio.LimitOverrunError:
            raise ServiceError("bad-request-line", 400,
                               "request head exceeds the stream limit")
        # Timestamp the moment the request head lands, not when the
        # keep-alive connection went idle — parse time and request
        # duration both anchor here.
        now = self.telemetry.now_fn
        started = now()
        raw_lines = head[:-4].split(b"\r\n")
        try:
            method, target, _version = \
                raw_lines[0].decode("ascii").strip().split(" ", 2)
        except (UnicodeDecodeError, ValueError):
            raise ServiceError("bad-request-line", 400,
                               "unparseable request line")
        headers: Dict[str, str] = {}
        for raw in raw_lines[1:]:
            name, _sep, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise ServiceError("invalid-content-length", 400,
                               "Content-Length must be an integer")
        if length < 0:
            raise ServiceError("invalid-content-length", 400,
                               "Content-Length must be non-negative")
        if length > MAX_BODY_BYTES:
            raise ServiceError("body-too-large", 413,
                               "body exceeds %d bytes" % MAX_BODY_BYTES)
        body = await reader.readexactly(length) if length else b""
        path, _sep, query = target.partition("?")
        return await self._serve(
            _HttpRequest(writer, headers, query), method.upper(), path,
            body, started, headers.get(TRACEPARENT_HEADER),
            parsed_at=now())

    # -- framing hooks ---------------------------------------------------------

    def chunk_range(self, request: _HttpRequest
                    ) -> Tuple[int, Optional[int]]:
        offset, length, request.ranged = _parse_range(
            request.headers.get("range"), request.query)
        request.offset = offset
        return offset, length

    async def _respond(self, request: _HttpRequest, status: int,
                       payload: object) -> Tuple[int, int, bool]:
        writer, close = request.writer, request.close
        fields = b""
        content_type = _JSON
        if isinstance(payload, tuple):
            # A payload chunk: the slice is a memoryview into the
            # image (no copy); ranged reads answer 206.  A satisfied
            # zero-length range has no valid Content-Range (RFC 7233
            # reserves 'bytes */N' for 416), so it stays a plain 200.
            payload, total = payload
            content_type = _OCTETS
            if request.ranged and len(payload):
                status = 206
                fields = b"Content-Range: bytes %d-%d/%d\r\n" % (
                    request.offset, request.offset + len(payload) - 1,
                    total)
        elif isinstance(payload, bytes):
            # Pre-serialized canonical JSON (the manifest): framed,
            # never re-encoded.
            payload = payload + b"\n"
        try:
            if isinstance(payload, str):
                nbytes = await self._write_chunked(writer, status,
                                                   payload, close)
            else:
                nbytes = await self._write_response(
                    writer, status, payload, content_type, close, fields)
        except (ConnectionResetError, BrokenPipeError):
            return status, 0, False
        return status, nbytes, not close

    # -- response writing ------------------------------------------------------

    def _header_prefix(self, status: int, content_type: str,
                       close: bool) -> bytes:
        """The response header block up to the Content-Length digits,
        pre-serialized once per (status, content type, close)."""
        key = (status, content_type, close)
        prefix = self._header_cache.get(key)
        if prefix is None:
            prefix = ("HTTP/1.1 %d %s\r\n"
                      "Content-Type: %s\r\n"
                      "Connection: %s\r\n"
                      "Content-Length: "
                      % (status, _STATUS_TEXT.get(status, "Unknown"),
                         content_type,
                         "close" if close else "keep-alive")
                      ).encode("latin-1")
            self._header_cache[key] = prefix
        return prefix

    async def _write_response(self, writer: asyncio.StreamWriter,
                              status: int, payload: object,
                              content_type: str, close: bool,
                              fields: bytes = b"") -> int:
        """One Content-Length response; ``fields`` are extra encoded
        header lines (the Content-Range of a 206)."""
        tracer = self.tracer
        with tracer.span("serialize", category="serve.http"):
            if isinstance(payload, (bytes, bytearray, memoryview)):
                # Zero-copy: ranged chunks arrive as memoryview slices
                # and pre-serialized manifests as bytes; neither is
                # joined with the header — both buffers go straight to
                # the transport.
                body = payload
            else:
                body = (json.dumps(payload, sort_keys=True) + "\n") \
                    .encode("utf-8")
            header_bytes = self._header_prefix(
                status, content_type, close) \
                + b"%d\r\n%s\r\n" % (len(body), fields)
        with tracer.span("write", category="serve.http"):
            # writelines hands both buffers to the transport in one
            # call, so header and body leave in a single send()
            # syscall — two writes cost two syscalls on an empty
            # buffer, which at swarm scale is measurable CPU.
            if body:
                writer.writelines((header_bytes, body))
            else:
                writer.write(header_bytes)
            await writer.drain()
        return len(body)

    async def _write_chunked(self, writer: asyncio.StreamWriter,
                             status: int, text: str,
                             close: bool) -> int:
        body = text.encode("utf-8")
        headers = ["HTTP/1.1 %d %s"
                   % (status, _STATUS_TEXT.get(status, "Unknown")),
                   "Content-Type: %s" % OPENMETRICS_CONTENT_TYPE,
                   "Transfer-Encoding: chunked",
                   "Connection: %s"
                   % ("close" if close else "keep-alive")]
        writer.write(("\r\n".join(headers) + "\r\n\r\n")
                     .encode("latin-1"))
        for start in range(0, len(body), METRICS_CHUNK_BYTES):
            chunk = body[start:start + METRICS_CHUNK_BYTES]
            writer.write(b"%x\r\n%s\r\n" % (len(chunk), chunk))
        writer.write(b"0\r\n\r\n")
        await writer.drain()
        return len(body)


def _parse_range(header: Optional[str], query: str
                 ) -> Tuple[int, Optional[int], bool]:
    """``(offset, length, was_ranged)`` from a Range header or an
    ``offset=&length=`` query string (header wins)."""
    if header:
        spec = header.strip().lower()
        if not spec.startswith("bytes="):
            raise ServiceError("invalid-range", 400,
                               "only bytes= ranges are supported")
        first = spec[len("bytes="):].split(",")[0].strip()
        start_s, sep, end_s = first.partition("-")
        if not sep or not start_s:
            raise ServiceError("invalid-range", 400,
                               "suffix ranges are not supported")
        try:
            start = int(start_s)
            end = int(end_s) if end_s else None
        except ValueError:
            raise ServiceError("invalid-range", 400,
                               "unparseable Range header")
        if end is not None and end < start:
            raise ServiceError("invalid-range", 400,
                               "range end precedes range start")
        length = None if end is None else end - start + 1
        return start, length, True
    if query:
        params = {}
        for pair in query.split("&"):
            key, _sep, value = pair.partition("=")
            params[key] = value
        if "offset" in params or "length" in params:
            try:
                offset = int(params.get("offset", "0"))
                length = (int(params["length"])
                          if "length" in params else None)
            except ValueError:
                raise ServiceError("invalid-range", 400,
                                   "offset/length must be integers")
            return offset, length, True
    return 0, None, False
