"""The lean per-packet receive path models exactly what it always did.

Per packet, the device plane skips work that cannot change a modelled
number: the clock keeps a running total per label instead of a log of
advances, a clean link prices a transfer in closed form, and the
per-packet, per-stage and flash-write spans open only under an enabled
tracer.  These properties pin that every float, counter and event comes
out bit for bit as the general path computes it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EventKind
from repro.crypto import use_engine
from repro.net.link import (BLE_GATT, COAP_6LOWPAN, Link, LinkDownError,
                            Outage, Slowdown)
from repro.sim import Testbed
from repro.sim.clock import VirtualClock
from repro.workload import FirmwareGenerator

LABELS = ("propagation", "verification", "loading", "backoff")


# -- clock -----------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(LABELS),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False,
              allow_infinity=False)), max_size=300))
def test_clock_totals_equal_a_summed_log(advances):
    clock = VirtualClock()
    for label, seconds in advances:
        clock.advance(seconds, label)
    totals = {}
    now = 0.0
    for label, seconds in advances:
        totals[label] = totals.get(label, 0.0) + seconds
        now += seconds
    assert repr(clock.elapsed_by_label()) == repr(totals)
    assert repr(clock.now) == repr(now)


# -- link ------------------------------------------------------------------


def _drive(link, sizes):
    """Transfer each size in turn; an outage counts as one ``None``."""
    reports = []
    for nbytes in sizes:
        try:
            reports.append(link.transfer(nbytes))
        except LinkDownError:
            reports.append(None)
    return reports, (link.total_packets, link.total_retransmissions,
                     link.total_bytes, link.down_events)


@settings(max_examples=200, deadline=None)
@given(profile=st.sampled_from([BLE_GATT, COAP_6LOWPAN]),
       sizes=st.lists(st.integers(min_value=0, max_value=5000),
                      max_size=60),
       outage_at=st.none() | st.integers(min_value=0, max_value=20000),
       failures=st.integers(min_value=1, max_value=3))
def test_clean_link_equals_the_general_expression(profile, sizes,
                                                  outage_at, failures):
    outages = [] if outage_at is None else [Outage(outage_at, failures)]
    lean = Link(profile, outages=outages)
    # A slowdown by 1.0 from byte 0 changes no cost but keeps every
    # transfer on the general path.
    general = Link(profile, outages=outages,
                   slowdowns=[Slowdown(at_byte=0, factor=1.0)])
    lean_reports, lean_totals = _drive(lean, sizes)
    general_reports, general_totals = _drive(general, sizes)
    assert lean_reports == general_reports
    assert [r.seconds.hex() for r in lean_reports if r] \
        == [r.seconds.hex() for r in general_reports if r]
    assert lean_totals == general_totals


# -- whole updates, traced and untraced -------------------------------------


IMAGE_SIZE = 8 * 1024


def _corrupt_tail(envelope: bytes, payload: bytes):
    """Overwrite the payload from its first eighth on with 0xF0.  As
    LZSS flags and tokens these are back-references 3,856 bytes deep,
    further back than the decoder's window reaches that early, so the
    decoder fails within a few bytes of the damage."""
    start = len(payload) // 8
    return envelope, payload[:start] + b"\xF0" * (len(payload) - start)


def _events(log):
    return [(e.source, e.kind, sorted(e.detail.items())) for e in log.all()]


def _run(seed, transport, slots, delta, traced, corrupt):
    gen = FirmwareGenerator(seed=b"hot-path-%d" % seed)
    v1 = gen.firmware(IMAGE_SIZE, image_id=1)
    bed = Testbed.create(slot_configuration=slots, initial_firmware=v1,
                         supports_differential=delta)
    device = bed.device
    device.tracer.enabled = traced
    bed.release(gen.os_version_change(v1, revision=2), 2)
    update = bed.push_update if transport == "push" else bed.pull_update
    outcome = update(
        interceptor=_corrupt_tail if corrupt else None)
    observed = {
        "outcome": (outcome.success, repr(outcome.error),
                    outcome.phases, outcome.phases.keys(),
                    outcome.total_seconds.hex(), outcome.energy_mj,
                    outcome.bytes_over_air, outcome.booted_version,
                    outcome.rebooted, outcome.interruptions),
        "clock": {k: v.hex() for k, v in device.phase_breakdown().items()},
        "energy": {k: v.hex()
                   for k, v in device.meter.breakdown_mj().items()},
        "flash": [flash.stats for flash in device.flash_devices],
        "agent_events": _events(device.agent.events),
        "agent_stats": device.agent.stats,
        "boot_events": _events(device.bootloader.events),
        # Carries the pipeline's per-stage bytes (``pipeline.*``).
        "metrics": device.metrics.snapshot(),
    }
    return observed, device.tracer


CASES = [(transport, slots, delta)
         for transport in ("push", "pull")
         for slots in ("a", "b")
         for delta in (False, True)]


@pytest.mark.parametrize("transport,slots,delta", CASES)
@pytest.mark.parametrize("seed", [1, 2])
def test_traced_and_untraced_updates_model_the_same(seed, transport, slots,
                                                    delta):
    with use_engine("fast"):
        untraced, _ = _run(seed, transport, slots, delta, False, False)
        traced, tracer = _run(seed, transport, slots, delta, True, False)
    assert untraced["outcome"][0] and untraced["outcome"][7] == 2
    assert untraced == traced
    names = {span.name for span in tracer.spans}
    assert {"block", "buffer", "flash.write"} <= names
    assert ({"decompression", "patching"} <= names) == delta
    stages = {name.split(".")[1] for name in untraced["metrics"]
              if name.startswith("pipeline.") and name.endswith(".bytes_in")}
    assert stages == ({"decompression", "patching", "buffer"} if delta
                      else {"buffer"})


@pytest.mark.parametrize("transport", ["push", "pull"])
def test_corrupted_delta_is_rejected_mid_stream_the_same_way(transport):
    with use_engine("fast"):
        untraced, _ = _run(3, transport, "a", True, False, True)
        traced, _ = _run(3, transport, "a", True, True, True)
    assert untraced == traced
    assert not untraced["outcome"][0]
    detail = {kind: dict(items) for _source, kind, items
              in untraced["agent_events"]}
    declared = detail[EventKind.MANIFEST_VERIFIED]["payload_size"]
    received = detail[EventKind.UPDATE_REJECTED]["after_payload_bytes"]
    assert declared // 8 <= received < declared // 2
    assert untraced["agent_stats"].rejected_after_download == 1
