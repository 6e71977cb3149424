"""The benchmark's own tests: metric names, seeds, span arithmetic,
failure accounting against a faulty server, and tiny runs of every
workload through the command line."""

from __future__ import annotations

import asyncio
import json
import math
import re
import subprocess
import sys

import pytest

from perfbench import campaign, compare, serve_load, serve_workload
from perfbench.common import (DeviceIds, INF_AS_JSON, ROOT, percentile,
                              rng)
from perfbench.run import result_line
from perfbench.serverproc import ServerProcess
from perfbench.spans import (Span, SpanRecorder, in_window, self_times,
                             union_length)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- BENCHMARK.json -----------------------------------------------------------


def test_metric_names_and_units_are_well_formed():
    entries = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [entry["name"] for entry in entries]
    assert len(names) == len(set(names))
    for entry in entries:
        assert NAME.match(entry["name"]) and len(entry["name"]) <= 64
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("higher", "lower")
    for entry in SPEC["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    setup = [e for e in SPEC["end_to_end"] if e["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(e["bound"]
                                   for e in SPEC["end_to_end"])}]
    assert [w["name"] for w in SPEC["workloads"]] == [
        "http-fleet", "coap-blockwise", "campaign"]


# -- seeds --------------------------------------------------------------------


def test_same_seed_same_inputs_and_another_seed_differs():
    def inputs(seed):
        ids = DeviceIds(rng("http-fleet", seed, "devices"))
        return ([ids.next() for _ in range(50)],
                serve_load.poisson_schedule(
                    rng("http-fleet", seed, "arrivals"), 100.0, 2.0),
                campaign.fleet_mix(seed))

    assert inputs(7) == inputs(7)
    first, second = inputs(7), inputs(8)
    assert all(a != b for a, b in zip(first, second))


def test_device_ids_are_distinct():
    ids = DeviceIds(rng("x", 1, "devices"))
    drawn = [ids.next() for _ in range(2000)]
    assert len(set(drawn)) == len(drawn)
    assert all(0 < d < 1 << 32 for d in drawn)


def test_campaign_report_depends_on_the_seed_only():
    from repro.crypto import use_engine

    def report(seed, repeats):
        mix = campaign.fleet_mix(seed, size=4)
        ids = DeviceIds(rng("campaign", seed, "devices"))
        with use_engine("fast"):
            runs, reference = campaign.run_repeats(
                campaign.World(), mix, ids, 0.0, None, repeats)
        assert all(r.updated == r.devices == 4 and not r.problems
                   for r in runs)
        return reference

    assert report(3, 2) == report(3, 1)
    assert report(3, 1) != report(4, 1)


def test_windowed_p99_ignores_one_stalled_window_but_not_a_failure():
    steady = [10.0] * 500
    stalled = steady[:50] + [900.0] * 8 + steady[58:]
    assert serve_workload.windowed_p99(steady) == 10.0
    assert serve_workload.windowed_p99(stalled) == 10.0
    assert percentile(stalled, 99.0) == 900.0
    slower = [20.0 if i % 50 == 0 else 10.0 for i in range(500)]
    assert serve_workload.windowed_p99(slower) == 20.0
    failed = steady[:-1] + [math.inf]
    assert math.isinf(serve_workload.windowed_p99(failed))


# -- spans --------------------------------------------------------------------


def span(sid, parent, start, end, name="s", layer="l"):
    return Span(sid, parent, name, layer, None, start, end)


def test_union_length_merges_and_clips():
    assert union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert union_length([(-5, 2), (9, 20)], 0, 10) == 3
    assert union_length([], 0, 10) == 0
    assert union_length([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_only_direct_children():
    spans = [span(1, 0, 0.0, 10.0), span(2, 1, 1.0, 3.0),
             span(3, 1, 2.0, 5.0), span(4, 3, 2.5, 4.5),
             span(5, 1, 7.0, 8.0)]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(5.0)     # children cover 1-5, 7-8
    assert selfs[3] == pytest.approx(1.0)     # grandchild is 3's, not 1's
    assert selfs[4] == pytest.approx(2.0)


def test_self_times_of_a_sequential_tree_add_up_to_the_root():
    spans = [span(1, 0, 0.0, 10.0), span(2, 1, 1.0, 4.0),
             span(3, 2, 2.0, 3.0), span(4, 1, 6.0, 9.5)]
    assert sum(self_times(spans).values()) == pytest.approx(10.0)


def test_window_keeps_whole_trees_by_root_start():
    spans = [span(1, 0, 0.0, 2.0), span(2, 1, 1.5, 2.5),
             span(3, 0, 3.0, 4.0), span(4, 3, 3.5, 3.6)]
    assert [s.sid for s in in_window(spans, 0.0, 1.0)] == [1, 2]
    assert [s.sid for s in in_window(spans, 2.0, 5.0)] == [3, 4]


class _Layer:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2

    async def slow(self, delay):
        await asyncio.sleep(delay)
        return self.inner(1)


def test_recorder_nests_calls_and_restores_functions():
    recorder = SpanRecorder()
    original = _Layer.__dict__["inner"]
    recorder.wrap(_Layer, "outer", "outer", "a", lambda _s, n: n)
    recorder.wrap(_Layer, "inner", "inner", "b")
    recorder.wrap(_Layer, "slow", "slow", "c", lambda _s, d: d)
    try:
        assert _Layer().outer(3) == 7

        async def two():
            return await asyncio.gather(_Layer().slow(0.02),
                                        _Layer().slow(0.01))

        assert asyncio.run(two()) == [2, 2]
    finally:
        recorder.unwrap_all()
    assert _Layer.__dict__["inner"] is original
    by_name = {}
    for s in recorder.spans:
        by_name.setdefault(s.name, []).append(s)
    outer, = by_name["outer"]
    nested = [s for s in by_name["inner"] if s.parent == outer.sid]
    assert len(nested) == 1 and nested[0].key == 3   # key inherited
    for slow in by_name["slow"]:
        child, = [s for s in by_name["inner"] if s.parent == slow.sid]
        assert child.key == slow.key                 # interleaved tasks


# -- failure accounting -------------------------------------------------------


def _fault_server(*flags):
    return ServerProcess([sys.executable, "-m",
                          "perfbench.tests.fault_server", *flags],
                         serve_workload.HTTP_READY)


def _drive_open_loop(server, sessions):
    ids = DeviceIds(rng("test", 1, "devices"))
    driver = serve_load.Driver(serve_load.HttpFace(server.port), 2,
                               ids.next, lambda: True, server.alive)
    schedule = [0.01 * i for i in range(sessions)]

    async def main():
        phase = await driver.open_loop(schedule)
        if server.alive():
            await serve_load.check_sampled(
                serve_load.HttpFace(server.port), [phase])
        return phase

    return asyncio.run(main())


def test_a_corrupted_payload_fails_its_session_as_inf_latency():
    with _fault_server("--corrupt-session", "5") as server:
        phase = _drive_open_loop(server, 40)
    assert phase.attempted == 40 and phase.failed == 1
    assert "SHA-256" in phase.failures[0]
    assert sum(math.isinf(x) for x in phase.latencies_ms) == 1
    assert math.isinf(percentile(phase.latencies_ms, 99.0))
    line = result_line(SPEC, {
        "attempted": phase.attempted, "failed": phase.failed,
        "metrics": {"updates_per_s": 1.0, "setup_s": 1.0,
                    "update_p50_ms": percentile(phase.latencies_ms, 50),
                    "update_p99_ms": percentile(phase.latencies_ms, 99),
                    "peak_rss_mb": 1.0, "server_cpu_ms_per_update": 1.0}},
        trace=False)
    assert line["correct"] is False and line["failed"] == 1
    assert line["metrics"]["update_p99_ms"]["value"] == INF_AS_JSON


def test_a_server_dying_mid_run_fails_the_rest_and_is_reaped():
    server = _fault_server("--die-after", "6")
    server.start()
    try:
        phase = _drive_open_loop(server, 30)
    finally:
        server.stop()
    assert phase.attempted == 30
    assert phase.completed <= 6 and phase.failed == 30 - phase.completed
    info = server.info()
    assert info["returncode"] == 3
    assert "dying after 6 reports" in info["stderr_tail"]


class _LateReply:
    """A UDP adapter around ``CoapFront`` that holds back its reply to
    one datagram until the client, having retransmitted and been
    answered, sends its next request; the held-back reply then lands
    just before that request's own: a delayed duplicate."""

    def __init__(self, late_datagram):
        self.late_datagram = late_datagram
        self.received = 0
        self.held = None
        self.late_sent = False

    def wrap(self, server):
        serve = server._serve

        async def _serve(data, addr):
            self.received += 1
            if self.received == self.late_datagram:
                self.held = (data, addr)
                return
            if self.received == self.late_datagram + 2:
                await serve(*self.held)
                self.late_sent = True
                await asyncio.sleep(0.02)
            await serve(data, addr)

        server._serve = _serve
        return server


def test_a_delayed_duplicate_coap_reply_does_not_shift_the_session(
        monkeypatch):
    from repro.serve import CoapFront, FleetService
    from perfbench.server_main import IMAGE_SIZE, UdpCoapServer

    monkeypatch.setattr(serve_load, "COAP_RETRANSMIT_TIMEOUT", 0.2)
    service = FleetService()
    service.seed_channels(image_size=IMAGE_SIZE)
    late = _LateReply(late_datagram=4)

    async def main():
        loop = asyncio.get_running_loop()
        transport, _ = await loop.create_datagram_endpoint(
            lambda: late.wrap(UdpCoapServer(CoapFront(service))),
            local_addr=("127.0.0.1", 0))
        try:
            face = serve_load.CoapFace(
                transport.get_extra_info("sockname")[1])
            return await face.session(None, 9001, 0)
        finally:
            transport.close()

    outcome = asyncio.run(main())
    assert late.late_sent and late.received > 6
    assert outcome.device_id == 9001


# -- comparisons --------------------------------------------------------------


def _document(host, value):
    return {"workload": "campaign", "trace": 0, "host": host,
            "summary": {"metrics": {"updates_per_s": {"value": value}}}}


def test_compare_refuses_results_from_different_hosts():
    here = {"cpu_count": 2, "python": "3.11.7", "platform": "x"}
    there = dict(here, cpu_count=1)
    with pytest.raises(compare.Incomparable):
        compare.compare([_document(here, 10.0)], [_document(there, 10.0)],
                        SPEC)
    lines, regressions = compare.compare(
        [_document(here, 10.0)], [_document(here, 7.0)], SPEC)
    assert len(lines) == 1 and len(regressions) == 1


# -- tiny runs ----------------------------------------------------------------


def _run(workload, trace, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "11", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return done


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_declared_metric(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(line["metrics"]) == sorted(e["name"] for e in declared)
    for entry in declared:
        value = line["metrics"][entry["name"]]
        assert value["unit"] == entry["unit"]
        assert math.isfinite(value["value"])
        if not trace:
            assert value["value"] > 0


def test_refuses_to_run_without_the_program_source(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for file in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / file.name).write_bytes(file.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes(
        (ROOT / "BENCHMARK.json").read_bytes())
    done = _run("campaign", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
