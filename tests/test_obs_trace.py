"""Unit tests for the tracing core (repro.obs.trace).

One tracer serves the device's virtual clock and the serve plane's
wall clock.  Pinned here: nesting and export on a hand-cranked clock;
per-task lane isolation for interleaved asyncio tasks (and executor
threads reached via ``contextvars.copy_context``); traceparent wire
format; backdated spans; the zero-cost null default; and the
containment checker accepting concurrent siblings across ``tid``
lanes.
"""

import asyncio
import contextvars

import pytest

from repro.obs.trace import (
    NULL_TRACER,
    Tracer,
    containment_errors,
    format_traceparent,
    merge_chrome_traces,
    new_trace_id,
    parse_traceparent,
)


class FakeClock:
    """Hand-cranked clock for deterministic span timestamps."""

    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def tracer(clock):
    return Tracer(now_fn=lambda: clock.now, enabled=True)


def test_disabled_tracer_records_nothing(clock):
    tracer = Tracer(now_fn=lambda: clock.now, enabled=False)
    with tracer.span("outer"):
        clock.advance(1.0)
        tracer.instant("mark")
    assert tracer.spans == []
    assert tracer.instants == []


def test_disabled_span_contexts_are_shared():
    # The hot path must not allocate per call when tracing is off.
    assert NULL_TRACER.span("a") is NULL_TRACER.span("b")


def test_span_nesting_records_parentage(tracer, clock):
    with tracer.span("outer") as outer:
        clock.advance(2.0)
        with tracer.span("inner") as inner:
            clock.advance(1.0)
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    assert outer.start == 0.0 and outer.end == 3.0
    assert inner.start == 2.0 and inner.end == 3.0
    # Closed inner-first.
    assert [s.name for s in tracer.spans] == ["inner", "outer"]


def test_span_records_error_and_propagates(tracer, clock):
    with pytest.raises(ValueError):
        with tracer.span("failing"):
            clock.advance(1.0)
            raise ValueError("boom")
    (span,) = tracer.spans
    assert span.args["error"] == "ValueError"
    assert span.end == 1.0


def test_instant_carries_open_parent(tracer, clock):
    with tracer.span("outer") as outer:
        clock.advance(0.5)
        tracer.instant("event", args={"k": 1})
    (instant,) = tracer.instants
    assert instant["parent_id"] == outer.span_id
    assert instant["t"] == 0.5
    assert instant["args"] == {"k": 1}


def test_tracing_never_advances_the_clock(tracer, clock):
    with tracer.span("outer"):
        tracer.instant("mark")
    assert clock.now == 0.0


def test_chrome_export_units_and_metadata(tracer, clock):
    with tracer.span("outer", category="lifecycle", answer=42):
        clock.advance(1.5)
    doc = tracer.to_chrome_trace(pid=7, process_name="dev-7")
    meta = doc["traceEvents"][0]
    assert meta["ph"] == "M" and meta["args"]["name"] == "dev-7"
    (event,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert event["ts"] == 0.0
    assert event["dur"] == 1.5e6          # virtual seconds -> us
    assert event["pid"] == 7
    assert event["args"]["answer"] == 42
    assert event["args"]["span_id"] == 1


def test_merge_keeps_all_events(tracer, clock):
    with tracer.span("a"):
        clock.advance(1.0)
    other = Tracer(now_fn=lambda: clock.now, enabled=True)
    with other.span("b"):
        clock.advance(1.0)
    merged = merge_chrome_traces([tracer.to_chrome_trace(pid=1),
                                  other.to_chrome_trace(pid=2)])
    names = {e["name"] for e in merged["traceEvents"]}
    assert {"a", "b"} <= names


def test_clear_resets_ids(tracer, clock):
    with tracer.span("a"):
        pass
    tracer.clear()
    with tracer.span("b") as span:
        pass
    assert span.span_id == 1


def _x(name, ts, dur, span_id, parent_id=None, pid=1):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur,
            "pid": pid, "tid": 1,
            "args": {"span_id": span_id, "parent_id": parent_id}}


def test_containment_accepts_nested_spans():
    events = [_x("outer", 0, 100, 1), _x("inner", 10, 50, 2, 1)]
    assert containment_errors(events) == []


def test_containment_flags_escaping_child():
    events = [_x("outer", 0, 100, 1), _x("inner", 90, 50, 2, 1)]
    errors = containment_errors(events)
    assert len(errors) == 1 and "escapes" in errors[0]


def test_containment_flags_missing_parent():
    errors = containment_errors([_x("orphan", 0, 10, 2, parent_id=9)])
    assert len(errors) == 1 and "missing parent" in errors[0]


def test_containment_is_per_process():
    # Same span ids in different pids must not collide.
    events = [_x("outer", 0, 100, 1, pid=1),
              _x("outer", 500, 100, 1, pid=2),
              _x("inner", 510, 50, 2, 1, pid=2)]
    assert containment_errors(events) == []


# -- traceparent wire format --------------------------------------------------


def test_traceparent_round_trip():
    trace_id = new_trace_id()
    assert len(trace_id) == 32
    wire = format_traceparent(trace_id, 0x1234)
    assert wire == "00-%s-0000000000001234-01" % trace_id
    assert parse_traceparent(wire) == (trace_id, 0x1234)


@pytest.mark.parametrize("bad", [
    "",                                            # empty
    "00-abc-0000000000000001-01",                  # short trace id
    "00-" + "g" * 32 + "-0000000000000001-01",     # non-hex trace id
    "00-" + "a" * 32 + "-00000001-01",             # short parent id
    "00-" + "0" * 32 + "-0000000000000001-01",     # all-zero trace id
    "00-" + "a" * 32 + "-0000000000000000-01",     # all-zero parent id
    "ff-" + "a" * 32 + "-0000000000000001-01",     # forbidden version
    "00-" + "a" * 32 + "-0000000000000001",        # missing flags
])
def test_malformed_traceparent_is_rejected_not_fatal(bad):
    """A stranger's bad header must yield ``None`` (fresh trace), never
    an exception that would fail the request."""
    assert parse_traceparent(bad) is None


def test_traceparent_is_case_insensitive():
    trace_id = "AB" * 16
    wire = "00-%s-00000000000000AB-01" % trace_id
    assert parse_traceparent(wire) == (trace_id.lower(), 0xAB)


# -- concurrent nesting -------------------------------------------------------


def test_interleaved_tasks_nest_independently():
    """N concurrent tasks each open root -> child spans with await
    points inside; every task must keep its own parentage and lane,
    and the exported document must pass containment."""
    tracer = Tracer(enabled=True)

    async def session(idx):
        with tracer.span("device.session", idx=idx) as root:
            for step in range(3):
                with tracer.span("step", n=step) as child:
                    assert child.parent_id == root.span_id
                    assert child.trace_id == root.trace_id
                    assert child.lane == root.lane
                    await asyncio.sleep(0)
            return root

    async def main():
        return await asyncio.gather(*(session(i) for i in range(5)))

    roots = asyncio.run(main())
    lanes = {root.lane for root in roots}
    traces = {root.trace_id for root in roots}
    assert len(lanes) == 5, "each root span must own a tid lane"
    assert len(traces) == 5, "each root span must mint its own trace"
    doc = tracer.to_chrome_trace(pid=7, process_name="test")
    assert containment_errors(doc["traceEvents"]) == []
    x_events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(x_events) == 5 * 4


def test_containment_accepts_concurrent_siblings_across_lanes():
    """Regression for the single-stack checker: two overlapping-in-time
    requests live in different tid lanes of one pid; the checker must
    resolve parents per pid across lanes instead of flagging the
    interleave as an escape."""
    tracer = Tracer(enabled=True)

    async def request(gate, idx):
        with tracer.span("request", idx=idx):
            await gate.wait()          # force wall-clock overlap
            with tracer.span("handle"):
                await asyncio.sleep(0)

    async def main():
        gate = asyncio.Event()
        tasks = [asyncio.create_task(request(gate, i)) for i in range(3)]
        await asyncio.sleep(0)
        gate.set()
        await asyncio.gather(*tasks)

    asyncio.run(main())
    events = tracer.to_chrome_trace(pid=2)["traceEvents"]
    lanes = {e["tid"] for e in events if e["ph"] == "X"}
    assert len(lanes) == 3
    assert containment_errors(events) == []


def test_containment_still_rejects_true_escapes_and_orphans():
    events = [
        {"name": "parent", "ph": "X", "ts": 0.0, "dur": 10.0,
         "pid": 1, "tid": 1, "args": {"span_id": 1, "parent_id": None}},
        {"name": "late-child", "ph": "X", "ts": 5.0, "dur": 10.0,
         "pid": 1, "tid": 2, "args": {"span_id": 2, "parent_id": 1}},
        {"name": "orphan", "ph": "X", "ts": 1.0, "dur": 1.0,
         "pid": 1, "tid": 3, "args": {"span_id": 3, "parent_id": 99}},
    ]
    problems = containment_errors(events)
    assert any("escapes parent" in p for p in problems)
    assert any("missing parent" in p for p in problems)


def test_parent_ids_do_not_leak_across_pids():
    """Two merged exports reuse the same small span ids; parentage must
    resolve within each pid only — cross-process linkage is by
    trace_id, not parent_id."""
    first = Tracer(enabled=True)
    second = Tracer(enabled=True)
    for tracer in (first, second):
        with tracer.span("root"):
            with tracer.span("child"):
                pass
    merged = merge_chrome_traces([first.to_chrome_trace(pid=1),
                                  second.to_chrome_trace(pid=2)])
    assert containment_errors(merged["traceEvents"]) == []


# -- backdating and grafting --------------------------------------------------


def test_backdated_root_contains_pre_parse_phase():
    """The request root opens only after headers are parsed, backdated
    to the read start; the parse phase recorded via record_span must
    nest inside it."""
    clock = iter([10.0, 10.5, 11.0]).__next__
    tracer = Tracer(enabled=True, now_fn=clock)
    started = 9.0
    with tracer.span("http.request", start=started):
        tracer.record_span("parse", started, 9.4)
    events = tracer.to_chrome_trace()["traceEvents"]
    assert containment_errors(events) == []
    by_name = {e["name"]: e for e in events if e["ph"] == "X"}
    assert by_name["http.request"]["ts"] == pytest.approx(9.0e6)
    assert by_name["parse"]["args"]["parent_id"] == \
        by_name["http.request"]["args"]["span_id"]


def test_root_grafts_onto_remote_trace_id():
    tracer = Tracer(enabled=True)
    remote = new_trace_id()
    with tracer.span("coap.request", trace_id=remote) as root:
        assert root.trace_id == remote
        with tracer.span("service.call") as child:
            assert child.trace_id == remote
    with tracer.span("fresh") as other:
        assert other.trace_id != remote


def test_current_traceparent_reflects_innermost_span():
    tracer = Tracer(enabled=True)
    assert tracer.current_traceparent() is None
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            wire = tracer.current_traceparent()
            assert parse_traceparent(wire) == (inner.trace_id,
                                               inner.span_id)
        assert parse_traceparent(tracer.current_traceparent()) == \
            (outer.trace_id, outer.span_id)
    assert tracer.current_traceparent() is None


def test_span_records_exception_and_still_closes():
    tracer = Tracer(enabled=True)
    with pytest.raises(ValueError):
        with tracer.span("boom"):
            raise ValueError("nope")
    (span,) = tracer.spans
    assert span.args["error"] == "ValueError"
    assert span.end >= span.start


# -- executor propagation -----------------------------------------------------


def test_copied_context_carries_parent_into_executor_thread():
    """`loop.run_in_executor` does not copy context; the serve plane
    wraps offloaded calls in ``contextvars.copy_context().run`` — a
    span closed on that thread must still parent under the request."""
    tracer = Tracer(enabled=True)

    def offloaded():
        with tracer.span("service.create_campaign"):
            return tracer.current_span().parent_id

    async def main():
        loop = asyncio.get_running_loop()
        with tracer.span("http.request") as root:
            ctx = contextvars.copy_context()
            parent_seen = await loop.run_in_executor(
                None, ctx.run, offloaded)
            assert parent_seen == root.span_id

    asyncio.run(main())
    assert containment_errors(
        tracer.to_chrome_trace()["traceEvents"]) == []


# -- null default -------------------------------------------------------------


def test_null_tracer_records_nothing_and_costs_no_state():
    assert NULL_TRACER.enabled is False
    with NULL_TRACER.span("anything", device_id=1):
        assert NULL_TRACER.current_span() is None
        assert NULL_TRACER.current_traceparent() is None
        NULL_TRACER.record_span("x", 0.0, 1.0)
        NULL_TRACER.instant("mark")
    assert NULL_TRACER.spans == []
    assert NULL_TRACER.instants == []


def test_subtree_lists_descendants_sorted_by_start():
    clock = iter([float(t) for t in range(1, 20)]).__next__
    tracer = Tracer(enabled=True, now_fn=clock)
    with tracer.span("request") as root:
        with tracer.span("parse"):
            pass
        with tracer.span("handle"):
            with tracer.span("service.read_chunk"):
                pass
    tree = tracer.subtree(root)
    assert [entry["name"] for entry in tree] == \
        ["request", "parse", "handle", "service.read_chunk"]
    assert tree[0]["duration_ms"] > 0
