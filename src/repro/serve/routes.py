"""One route table for both protocol faces, and the pipeline serving it.

Every endpoint is one :class:`Route` in :data:`ROUTES`: method and
path template, the :class:`~repro.serve.service.FleetService` method
it calls (by name, looked up on the service at request time), its
success status, where the call runs, and whether CoAP exposes it.
Route labels derive from the template per face — ``GET
/images/{token}`` on HTTP, ``GET images/{token}`` on CoAP — so access
logs and metric families stay low-cardinality by construction.

:class:`RoutedFace` is the request pipeline both faces inherit: match,
build the call's arguments, run the call through its offload class,
map :class:`~repro.serve.service.ServiceError` to a status, trace the
request (``<proto>.request -> [parse] -> handle -> service.* ->
respond``, grafted onto any incoming traceparent), and make its one
:meth:`~repro.serve.telemetry.ServeTelemetry.observe_request` call.
A face supplies only framing — :meth:`RoutedFace.chunk_range` and
:meth:`RoutedFace._respond` — and frames a result by type: a
``(slice, total)`` pair is a payload chunk, ``bytes`` are pre-encoded
JSON, ``str`` is text (OpenMetrics), anything else a JSON object.
"""

from __future__ import annotations

import asyncio
import contextvars
import ctypes
import functools
import json
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..obs.trace import NULL_TRACER, parse_traceparent
from .service import FleetService, ServiceError
from .telemetry import ServeTelemetry

__all__ = ["Route", "ROUTES", "RoutedFace", "INLINE", "SIGNER",
           "EXECUTOR", "match", "route_label", "directory"]

#: Offload classes.  In-memory device-session calls run on the loop;
#: ECDSA-bearing calls on the service's signer pool; campaign calls
#: (world builds, WAL replays, ``wait: true`` joins) on the default
#: executor, so none of them stalls the other connections.
INLINE = "inline"
SIGNER = "signer"
EXECUTOR = "executor"


class Route:
    """One endpoint: ``args(request)`` builds the service call's
    positional arguments from a :class:`_Request`."""

    __slots__ = ("method", "path", "call", "status", "offload", "coap",
                 "args", "segments", "span_name", "labels")

    def __init__(self, method: str, path: str, call: Optional[str],
                 status: int = 200, offload: str = INLINE,
                 coap: bool = False,
                 args: Callable[["_Request"], tuple] = lambda q: ()
                 ) -> None:
        self.method = method
        self.path = path
        self.call = call
        self.status = status
        self.offload = offload
        self.coap = coap
        self.args = args
        self.segments = tuple(p for p in path.split("/") if p)
        self.span_name = "service.%s" % call
        self.labels = {face: _label(face, method, self.segments)
                       for face in ("http", "coap")}


def _label(face: str, method: str, segments: Tuple[str, ...]) -> str:
    return "%s %s%s" % (method, "/" if face == "http" else "",
                        "/".join(segments))


def json_body(raw: bytes, optional: bool = False) -> Dict[str, object]:
    """A request body as a JSON object (``{}`` when ``optional`` and
    empty); a 400 ``invalid-body`` otherwise."""
    if not raw:
        if optional:
            return {}
        raise ServiceError("invalid-body", 400, "a JSON body is required")
    try:
        parsed = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceError("invalid-body", 400,
                           "body is not valid JSON: %s" % exc)
    if not isinstance(parsed, dict):
        raise ServiceError("invalid-body", 400,
                           "body must be a JSON object")
    return parsed


def device_id(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ServiceError("invalid-device-id", 400,
                           "device id must be an integer")


def _flag(raw: bytes, key: str) -> bool:
    return bool(json_body(raw, optional=True).get(key, False))


ROUTES: Tuple[Route, ...] = (
    Route("GET", "/", None),
    Route("GET", "/channels", "channel_status"),
    Route("POST", "/devices", "register_device", 201, coap=True,
          args=lambda q: (json_body(q.body),)),
    Route("GET", "/devices/{id}", "device_status",
          args=lambda q: (device_id(q.params["id"]),)),
    Route("POST", "/devices/{id}/token", "issue_token", 201, coap=True,
          args=lambda q: (device_id(q.params["id"]),
                          _flag(q.body, "supports_differential"))),
    Route("GET", "/manifests/{token}", "resolve_manifest_encoded",
          offload=SIGNER, coap=True,
          args=lambda q: (q.params["token"],)),
    Route("GET", "/images/{token}", "read_chunk", coap=True,
          args=lambda q: (q.params["token"],)
          + q.face.chunk_range(q.raw)),
    Route("POST", "/reports/{token}", "close_token", coap=True,
          args=lambda q: (q.params["token"], json_body(q.body))),
    Route("GET", "/campaigns", "list_campaigns", offload=EXECUTOR),
    Route("POST", "/campaigns", "create_campaign", 201, EXECUTOR,
          args=lambda q: (json_body(q.body),)),
    Route("GET", "/campaigns/{name}", "campaign_status",
          offload=EXECUTOR, args=lambda q: (q.params["name"],)),
    Route("DELETE", "/campaigns/{name}", "delete_campaign",
          offload=EXECUTOR, args=lambda q: (q.params["name"],)),
    Route("POST", "/campaigns/{name}/refresh", "refresh_campaign",
          offload=EXECUTOR,
          args=lambda q: (q.params["name"],
                          json_body(q.body, optional=True))),
    Route("POST", "/campaigns/{name}/resume", "resume_campaign",
          offload=EXECUTOR,
          args=lambda q: (q.params["name"], _flag(q.body, "wait"))),
    Route("GET", "/metrics", "openmetrics"),
    Route("GET", "/healthz", "health_snapshot", coap=True,
          args=lambda q: (q.face.telemetry,)),
)


def _index(face: str) -> Dict[Tuple[int, str], List[Route]]:
    """Routes a face exposes, keyed by (segment count, first segment)
    — every template's first segment is literal."""
    index: Dict[Tuple[int, str], List[Route]] = {}
    for route in ROUTES:
        if face == "http" or route.coap:
            key = (len(route.segments),
                   route.segments[0] if route.segments else "")
            index.setdefault(key, []).append(route)
    return index


_INDEX = {face: _index(face) for face in ("http", "coap")}


def match(face: str, method: str, path: str
          ) -> Tuple[Optional[Route], Optional[Dict[str, str]], str]:
    """``(route, params, label)`` for a request on ``face``.

    ``route`` is ``None`` when no entry serves the request; ``params``
    is then ``None`` too if no template matched the path (a 404), or
    the template's parameters if only the method is wrong (a 405).
    """
    parts = [p for p in path.split("/") if p]
    key = (len(parts), parts[0] if parts else "")
    found: Optional[Route] = None
    for route in _INDEX[face].get(key, ()):
        params: Optional[Dict[str, str]] = {}
        for want, got in zip(route.segments, parts):
            if want[0] == "{":
                params[want[1:-1]] = got
            elif want != got:
                params = None
                break
        if params is None:
            continue
        if route.method == method:
            return route, params, route.labels[face]
        found = route
    if found is None:
        return None, None, "%s <other>" % method
    return None, {}, _label(face, method, found.segments)


def route_label(face: str, method: str, target: str) -> str:
    """Bounded route label of a request target (query stripped)."""
    return match(face, method, target.partition("?")[0])[2]


def directory() -> Dict[str, object]:
    """The ``GET /`` body: every HTTP route, straight from the table."""
    return {"service": "upkit-serve",
            "endpoints": [route.labels["http"] for route in ROUTES]}


class _Request(NamedTuple):
    """What a route's ``args`` builder sees of one request."""

    params: Dict[str, str]
    body: bytes
    face: "RoutedFace"
    raw: Any


@functools.lru_cache(maxsize=None)
def keep_heap_top() -> None:
    """Serve socket reads from a heap top glibc neither maps nor trims.

    asyncio reads each datagram or stream chunk into a fresh 256 KiB
    buffer and shrinks it to what arrived.  glibc carves that buffer
    from the heap top when the top has room, and otherwise maps it
    (when it exceeds the dynamic mmap threshold) or grows the heap,
    trimming the freed tail again afterwards — in the last two modes
    every read costs two page faults and a syscall or two.  Which mode
    a process lands in is a heap-layout accident (even the checkout
    path's length flips it).  Both ends of a session read that way:
    on the server, the CoAP face's bad modes cost ~15% of server CPU;
    a :class:`~repro.serve.coapface.CoapDeviceClient` process in them
    took 33k-40k minor faults in a 6 s run instead of ~8k, and two to
    three times the system time (CPython 3.11, glibc 2.36, 2-vCPU
    x86-64 VM).  Fixed thresholds — ``M_MMAP_THRESHOLD`` (-3) at
    1 MiB, ``M_TRIM_THRESHOLD`` (-1) at 16 MiB — keep every read on a
    retained heap top.  The settings are process-wide, so the first
    call applies them and later ones return at once; ``RoutedFace``
    (both server faces) and ``CoapDeviceClient`` call it.  Without
    glibc there is nothing to do.
    """
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt(-3, 1 << 20)
        libc.mallopt(-1, 16 << 20)
    except (OSError, AttributeError):
        pass


class RoutedFace:
    """The request pipeline shared by the HTTP and CoAP faces.

    Subclasses set :attr:`proto` and implement :meth:`chunk_range` and
    :meth:`_respond`; :meth:`_serve` does everything else.
    """

    proto = ""

    def __init__(self, service: FleetService,
                 telemetry: Optional[ServeTelemetry] = None,
                 tracer=None) -> None:
        self.service = service
        self.telemetry = telemetry or ServeTelemetry(service.metrics)
        self.tracer = tracer or NULL_TRACER
        self._category = "serve." + self.proto
        keep_heap_top()

    def chunk_range(self, raw: Any) -> Tuple[int, Optional[int]]:
        """``(offset, length)`` of a payload-chunk request."""
        raise NotImplementedError

    async def _respond(self, raw: Any, status: int, payload: object
                       ) -> Tuple[int, int, Any]:
        """Frame and send one result; returns ``(status, bytes,
        outcome)`` — the status actually sent, the body bytes, and
        whatever :meth:`_serve` should hand back to the face."""
        raise NotImplementedError

    async def _serve(self, raw: Any, method: str, path: str,
                     body: bytes, started: float,
                     traceparent: Optional[str] = None,
                     parsed_at: Optional[float] = None) -> Any:
        """Serve one decoded request end to end; returns the outcome
        of :meth:`_respond`."""
        route, params, label = match(self.proto, method, path)
        telemetry = self.telemetry
        tracer = self.tracer
        category = self._category
        telemetry.request_started()
        remote = parse_traceparent(traceparent) \
            if traceparent and tracer.enabled else None
        span_args = {"method": method, "route": label}
        if remote is not None:
            span_args["remote_parent_id"] = remote[1]
        with tracer.span(self.proto + ".request", category=category,
                         start=started,
                         trace_id=remote[0] if remote else None,
                         **span_args) as root:
            if parsed_at is not None:
                tracer.record_span("parse", started, parsed_at,
                                   category=category)
            try:
                with tracer.span("handle", category=category):
                    if route is None:
                        raise ServiceError(
                            "unknown-route", 404,
                            "%s %s is not a service endpoint"
                            % (method, path)) if params is None else \
                            ServiceError("method-not-allowed", 405,
                                         "%s is not allowed on %s"
                                         % (method, path))
                    status = route.status
                    args = route.args(_Request(params, body, self, raw))
                    if route.call is None:
                        payload = directory()
                    elif route.offload == INLINE:
                        with tracer.span(route.span_name,
                                         category="serve.service"):
                            payload = getattr(self.service,
                                              route.call)(*args)
                    else:
                        payload = await self._offload(route, args)
            except ServiceError as exc:
                status, payload = exc.status, exc.to_body()
            except Exception as exc:
                status = 500
                payload = {"error": {
                    "code": "internal", "status": 500,
                    "detail": "%s: %s" % (type(exc).__name__, exc)}}
            with tracer.span("respond", category=category):
                status, nbytes, outcome = await self._respond(
                    raw, status, payload)
            if root is not None:
                root.args["status"] = status
        duration = telemetry.now_fn() - started
        span_tree = None
        if root is not None and duration * 1000.0 \
                >= telemetry.slow_request_ms:
            span_tree = tracer.subtree(root)
        telemetry.observe_request(
            self.proto, label, status, nbytes, duration,
            trace_id=root.trace_id if root is not None else None,
            span_tree=span_tree)
        return outcome

    async def _offload(self, route: Route, args: tuple) -> object:
        """Run the route's service call off the loop: the signer pool
        (which records its queue wait as ``sign.queue``) or the default
        executor under a copy of the current contextvars context, so
        the call's span nests under its request either way."""
        fn = getattr(self.service, route.call)
        tracer = self.tracer
        if tracer.enabled:
            inner = fn

            def fn(*call_args):
                with tracer.span(route.span_name,
                                 category="serve.service"):
                    return inner(*call_args)

        if route.offload == SIGNER:
            return await self.service.signer.dispatch(fn, *args,
                                                      tracer=tracer)
        ctx = contextvars.copy_context()
        return await asyncio.get_running_loop().run_in_executor(
            None, ctx.run, fn, *args)

