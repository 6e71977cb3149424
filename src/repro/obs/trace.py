"""Span tracing for both clocks: the device's virtual one and the host's.

A :class:`Tracer` records **spans** — named intervals, nested by a
:mod:`contextvars` "current span" — and **instants** (zero-duration
marks, e.g. lifecycle events), and exports both as Chrome-trace JSON
loadable by ``chrome://tracing`` or Perfetto.  One tracer serves two
planes:

* **Device plane, virtual time.**  Every
  :class:`~repro.sim.SimulatedDevice` carries a tracer whose
  ``now_fn`` reads its virtual clock, so ``cli trace`` shows the
  modeled timeline, not host scheduling noise.  Tracing reads time, it
  never spends it.
* **Serve plane, wall time.**  The HTTP and CoAP faces trace
  interleaved asyncio requests on :func:`time.perf_counter` (the
  default clock).  Because the current span is a context variable,
  each task — and each executor call run under
  ``contextvars.copy_context()`` — nests independently.

A disabled tracer's :meth:`~Tracer.span` is one ``enabled`` check
returning a shared null context, so untraced hot paths pay only that.
Exported spans carry ``span_id``, ``parent_id`` and ``trace_id`` in
``args`` (checked by :func:`containment_errors` and the report
validator's trace_id join), and each root span owns an export ``tid``
lane.  Each root mints a W3C-style ``trace_id``;
:func:`format_traceparent` / :func:`parse_traceparent` carry it in an
HTTP header or a CoAP option, and a remote parent is recorded as
``args["remote_parent_id"]`` — it lives in another export (another
``pid``), so containment stays per pid and the join is on trace_id.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
import time
import uuid
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Span", "Tracer", "NULL_TRACER", "TRACEPARENT_HEADER",
           "new_trace_id", "format_traceparent", "parse_traceparent",
           "merge_chrome_traces", "containment_errors"]

#: Clock seconds → Chrome-trace microseconds.
_US = 1_000_000.0

#: Header (HTTP) / option payload semantics follow W3C Trace Context:
#: ``00-<32 hex trace-id>-<16 hex parent-id>-01``.
TRACEPARENT_HEADER = "traceparent"

_TRACEPARENT_VERSION = "00"
_HEX_DIGITS = frozenset("0123456789abcdef")


def new_trace_id() -> str:
    """Mint a 32-hex-digit W3C trace id."""
    return uuid.uuid4().hex


def format_traceparent(trace_id: str, span_id: int) -> str:
    """Render ``00-<trace_id>-<span_id as 16 hex>-01``."""
    return "%s-%s-%016x-01" % (_TRACEPARENT_VERSION, trace_id, span_id)


def parse_traceparent(value: str) -> Optional[Tuple[str, int]]:
    """Parse a traceparent into ``(trace_id, parent_span_id)``.

    Returns ``None`` for anything malformed — a bad header from a
    stranger must never fail a request, it just starts a fresh trace.
    """
    parts = value.strip().lower().split("-")
    if len(parts) != 4:
        return None
    version, trace_id, parent_id, _flags = parts
    if version == "ff" or len(version) != 2:
        return None
    if len(trace_id) != 32 or not set(trace_id) <= _HEX_DIGITS:
        return None
    if len(parent_id) != 16 or not set(parent_id) <= _HEX_DIGITS:
        return None
    if trace_id == "0" * 32 or parent_id == "0" * 16:
        return None
    return trace_id, int(parent_id, 16)


class Span:
    """One closed interval within a trace.

    ``lane`` is the export ``tid``: children inherit their root's lane
    so each root renders as one horizontal track.
    """

    __slots__ = ("name", "category", "start", "end", "span_id",
                 "parent_id", "trace_id", "lane", "args")

    def __init__(self, name: str, category: str, start: float,
                 span_id: int, parent_id: Optional[int], trace_id: str,
                 lane: int, args: Dict[str, Any]) -> None:
        self.name = name
        self.category = category
        self.start = start
        self.end = start
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.lane = lane
        self.args = args

    @property
    def duration(self) -> float:
        return self.end - self.start


#: What a disabled tracer's span() returns: one shared, reusable
#: do-nothing context manager.
_NULL_CONTEXT = contextlib.nullcontext()


class _SpanContext:
    """Binds a span as the context's current span for the with-block
    and closes it on exit (even on exceptions)."""

    __slots__ = ("_tracer", "_span", "_token")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._token = self._tracer._current.set(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            # Record why the span ended early; the exception propagates.
            self._span.args.setdefault("error", exc_type.__name__)
        self._tracer._current.reset(self._token)
        self._tracer._close(self._span)
        return False


class Tracer:
    """Records spans and instants against ``now_fn``.

    ``now_fn`` supplies timestamps: :func:`time.perf_counter` by
    default, ``lambda: clock.now`` for a simulated device.  Disabled by
    default: every device carries a tracer, but only explicit consumers
    (``cli trace``, ``cli swarm --trace``, the observability tests) flip
    ``enabled``.  The span *list* is shared and lock-guarded because
    executor and signer-pool threads close spans too.
    """

    def __init__(self, now_fn: Optional[Callable[[], float]] = None,
                 enabled: bool = False) -> None:
        self.now_fn = now_fn or time.perf_counter
        self.enabled = enabled
        self.spans: List[Span] = []
        self.instants: List[Dict[str, Any]] = []
        self._current: "contextvars.ContextVar[Optional[Span]]" = \
            contextvars.ContextVar("upkit_current_span", default=None)
        self._lock = threading.Lock()
        self._next_id = 1
        self._next_lane = 1

    # -- recording ----------------------------------------------------------

    def _open(self, name: str, category: str, start: float,
              trace_id: Optional[str], args: Dict[str, Any]) -> Span:
        parent: Optional[Span] = self._current.get()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            if parent is None:
                lane = self._next_lane
                self._next_lane += 1
        if parent is not None:
            return Span(name, category, start, span_id, parent.span_id,
                        parent.trace_id, parent.lane, args)
        return Span(name, category, start, span_id, None,
                    trace_id or new_trace_id(), lane, args)

    def span(self, name: str, category: str = "update",
             start: Optional[float] = None,
             trace_id: Optional[str] = None,
             **args: Any) -> "_SpanContext | contextlib.nullcontext":
        """Open a span under the context's current span; close it by
        exiting the ``with`` block.

        ``start`` backdates the open (e.g. a request span opened only
        after its header was parsed); ``trace_id`` grafts a root span
        into a remote trace (from a parsed traceparent).  Children
        always inherit their parent's trace and lane.
        """
        if not self.enabled:
            return _NULL_CONTEXT
        opened = self.now_fn() if start is None else start
        return _SpanContext(self, self._open(name, category, opened,
                                             trace_id, args))

    def _close(self, span: Span) -> None:
        span.end = self.now_fn()
        with self._lock:
            self.spans.append(span)

    def record_span(self, name: str, start: float, end: float,
                    category: str = "serve", **args: Any) -> None:
        """Record an already-closed child of the current span.

        For phases measured before their parent span existed — e.g.
        request parsing, timed before the traceparent header it yields
        is known.  The parent's backdated ``start`` keeps containment.
        """
        if not self.enabled:
            return
        span = self._open(name, category, start, None, args)
        span.end = end
        with self._lock:
            self.spans.append(span)

    def instant(self, name: str, category: str = "mark",
                args: Optional[Dict[str, Any]] = None) -> None:
        """Record a zero-duration mark in the current span's lane."""
        if not self.enabled:
            return
        parent: Optional[Span] = self._current.get()
        with self._lock:
            lane = parent.lane if parent is not None else self._next_lane
            self.instants.append({
                "name": name,
                "category": category,
                "t": self.now_fn(),
                "parent_id": parent.span_id if parent is not None
                else None,
                "lane": lane,
                "args": dict(args) if args else {},
            })

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()
            self.instants.clear()
            self._next_id = 1
            self._next_lane = 1

    # -- context introspection ----------------------------------------------

    def current_span(self) -> Optional[Span]:
        """The innermost open span of *this* context, or ``None``."""
        if not self.enabled:
            return None
        return self._current.get()

    def current_traceparent(self) -> Optional[str]:
        """Wire form of the current span, ready for a header/option."""
        span = self.current_span()
        if span is None:
            return None
        return format_traceparent(span.trace_id, span.span_id)

    def subtree(self, root: Span) -> List[Dict[str, Any]]:
        """Closed spans of ``root``'s trace tree, for slow-request logs.

        Walks recorded spans by parentage starting at ``root`` (which
        may itself still be open); returns dicts sorted by start time.
        """
        with self._lock:
            recorded = list(self.spans)
        children: Dict[int, List[Span]] = {}
        for span in recorded:
            if span.parent_id is not None:
                children.setdefault(span.parent_id, []).append(span)
        tree: List[Span] = []
        frontier = [root]
        while frontier:
            node = frontier.pop()
            if node is not root:
                tree.append(node)
            frontier.extend(children.get(node.span_id, ()))
        tree.sort(key=lambda s: (s.start, s.span_id))
        root_end = root.end if root.end > root.start else self.now_fn()
        out = [{"name": root.name, "span_id": root.span_id,
                "start": root.start, "duration_ms":
                round((root_end - root.start) * 1000.0, 3)}]
        out.extend({"name": span.name, "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "start": span.start,
                    "duration_ms": round(span.duration * 1000.0, 3)}
                   for span in tree)
        return out

    # -- export -------------------------------------------------------------

    def to_chrome_trace(self, pid: int = 1,
                        process_name: Optional[str] = None
                        ) -> Dict[str, Any]:
        """Chrome-trace document: complete (``X``) + instant (``i``)
        events, each root span owning a ``tid`` lane."""
        with self._lock:
            recorded = sorted(self.spans,
                              key=lambda s: (s.start, s.span_id))
            instants = list(self.instants)
        events: List[Dict[str, Any]] = []
        if process_name:
            events.append({
                "ph": "M", "pid": pid, "tid": 1,
                "name": "process_name",
                "args": {"name": process_name},
            })
        for span in recorded:
            args = dict(span.args)
            args["span_id"] = span.span_id
            args["parent_id"] = span.parent_id
            args["trace_id"] = span.trace_id
            events.append({
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": round(span.start * _US, 3),
                "dur": round(span.duration * _US, 3),
                "pid": pid,
                "tid": span.lane,
                "args": args,
            })
        for instant in instants:
            events.append({
                "name": instant["name"],
                "cat": instant["category"],
                "ph": "i",
                "s": "t",
                "ts": round(instant["t"] * _US, 3),
                "pid": pid,
                "tid": instant["lane"],
                "args": dict(instant["args"],
                             parent_id=instant["parent_id"]),
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


#: Shared disabled tracer — the null default of every call site that
#: was handed no tracer.
NULL_TRACER = Tracer(enabled=False)


def merge_chrome_traces(documents: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Concatenate several Chrome-trace documents into one."""
    events: List[Dict[str, Any]] = []
    for document in documents:
        events.extend(document.get("traceEvents", []))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def containment_errors(trace_events: List[Dict[str, Any]],
                       tolerance_us: float = 0.5) -> List[str]:
    """Check parent/child containment of exported ``X`` spans.

    Every span naming a ``parent_id`` must lie within its parent's
    ``[ts, ts + dur]`` window, up to rounding tolerance.  Parents are
    resolved per ``pid`` but across ``tid`` lanes: the tracer exports
    one lane per root span, and concurrent siblings in different lanes
    legitimately share a parent (span ids are unique per exporting
    process, i.e. per pid).  Cross-process parentage is carried as
    ``args.remote_parent_id`` and deliberately *not* checked here —
    merged documents join on ``trace_id`` instead.  Returns
    human-readable violations; empty means the trace nests.
    """
    errors: List[str] = []
    spans: List[tuple] = []
    by_id: Dict[tuple, Dict[str, Any]] = {}
    for event in trace_events:
        if event.get("ph") != "X":
            continue
        span_id = event.get("args", {}).get("span_id")
        if span_id is None:
            errors.append("X event %r lacks args.span_id"
                          % event.get("name"))
            continue
        spans.append((event["pid"], span_id, event))
        by_id[(event["pid"], span_id)] = event
    for pid, span_id, event in spans:
        parent_id = event["args"].get("parent_id")
        if parent_id is None:
            continue
        parent = by_id.get((pid, parent_id))
        if parent is None:
            errors.append("span %r (id %d) names missing parent %d"
                          % (event["name"], span_id, parent_id))
            continue
        start, end = event["ts"], event["ts"] + event["dur"]
        pstart = parent["ts"] - tolerance_us
        pend = parent["ts"] + parent["dur"] + tolerance_us
        if start < pstart or end > pend:
            errors.append(
                "span %r [%s, %s] escapes parent %r [%s, %s]"
                % (event["name"], start, end, parent["name"],
                   parent["ts"], parent["ts"] + parent["dur"]))
    return errors
