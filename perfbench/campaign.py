"""The ``campaign`` workload: UpKit's device plane, in process.

A ``repro.fleet.Campaign`` with the default serial executor and the
fast crypto engine (as ``cli bench`` runs it) updates a fleet of
``SimulatedDevice``s from v1 to v2.  The seed picks the device ids and
which devices get the A/B layout (two bootable slots) and which the
static one (one bootable slot plus staging); push and pull transports
alternate; every device accepts differential (bsdiff + LZSS) updates.
Three in four devices have the A/B layout, in a seeded order, so every
seed does the same work.

The release train, the factory server (v1 only, for provisioning) and
the campaign server (v1 and v2) are built once per run.  One untimed
campaign then warms the caches a long-lived server keeps — the v1→v2
delta, the fixed-window P-256 tables.  After that, repeats run until
the time is up: each builds and provisions a fresh fleet (``setup_s``)
and runs the campaign (``updates_per_s``).  Every repeat must update
every device, abort nothing, leave no device unbootable, and produce
a report identical to the first one.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .common import (FAILED, DeviceIds, OUT_DIR, median, percentile, rng,
                     self_cpu_seconds, self_peak_rss_mb, write_json)
from .layers import (SELF_TIME_LAYERS, TRANSPORT_SPANS, trace_device_plane,
                     trace_transports)
from .spans import Span, SpanRecorder, durations_ms, self_ms_by_layer, \
    under

FLEET = 40
IMAGE_SIZE = 24 * 1024
SLOT_SIZE = 128 * 1024
MIN_REPEATS = 3
APP_ID = 0x55504B49
LINK_OFFSET = 0x8000


@dataclass(frozen=True)
class DeviceSpec:
    name: str
    device_id: int
    layout: str          # "ab" or "static"
    transport: str       # "push" or "pull"


def fleet_mix(seed: int, size: int = FLEET) -> List[Tuple[str, str]]:
    """The seeded per-device mix: a shuffled layout list, three A/B
    devices to each static one, with push and pull alternating.

    The shares are fixed, so every seed does the same work.  They are
    unequal on purpose: with four equally common (layout, transport)
    classes the median device would sit on the edge between two
    classes, and ``update_p50_ms`` would jump between them from one
    seed to the next.  For the same reason the first device is always
    A/B: it pays the server's v1→v2 delta computation, one device in
    forty, so ``update_p99_ms`` falls among first devices, and a static
    one there read about a fifth slower."""
    static = size // 4
    layouts = ["ab"] * (size - static - 1) + ["static"] * static
    rng("campaign", seed, "layouts").shuffle(layouts)
    return [(layout, "push" if index % 2 == 0 else "pull")
            for index, layout in enumerate(["ab"] + layouts)]


def fleet_specs(mix: Sequence[Tuple[str, str]],
                ids: DeviceIds) -> List[DeviceSpec]:
    """One campaign's fleet: the mix, with fresh seeded device ids.
    Names carry the mix, so a campaign's report depends on the seed but
    not on which of its repeats produced it."""
    return [DeviceSpec("%s-%s-%03d" % (layout, transport, index),
                       ids.next(), layout, transport)
            for index, (layout, transport) in enumerate(mix)]


class World:
    """The release train and the factory server, built once per run."""

    def __init__(self) -> None:
        from repro.core import make_test_identities
        from repro.core.server import UpdateServer
        from repro.core.vendor import VendorServer
        from repro.workload import FirmwareGenerator

        generator = FirmwareGenerator(seed=b"perfbench-campaign")
        fw_v1 = generator.firmware(IMAGE_SIZE, image_id=1)
        fw_v2 = generator.os_version_change(fw_v1, revision=2)
        vendor_id, self.server_id, self.anchors = make_test_identities()
        vendor = VendorServer(vendor_id, app_id=APP_ID,
                              link_offset=LINK_OFFSET)
        self.releases = (vendor.release(fw_v1, 1), vendor.release(fw_v2, 2))
        self.factory = UpdateServer(self.server_id)
        self.factory.publish(self.releases[0])

    def build_fleet(self, specs: Sequence[DeviceSpec]):
        from repro.core import DeviceProfile
        from repro.core.factory import install_factory_image, \
            make_factory_image
        from repro.fleet import DeviceRecord
        from repro.memory import MemoryLayout
        from repro.platform import NRF52840, ZEPHYR
        from repro.sim import SimulatedDevice

        fleet = []
        for spec in specs:
            internal = NRF52840.make_internal_flash()
            layout = (MemoryLayout.configuration_a(internal, SLOT_SIZE)
                      if spec.layout == "ab" else
                      MemoryLayout.configuration_b(internal, SLOT_SIZE))
            profile = DeviceProfile(device_id=spec.device_id, app_id=APP_ID,
                                    link_offset=LINK_OFFSET)
            device = SimulatedDevice(board=NRF52840, os_profile=ZEPHYR,
                                     layout=layout, profile=profile,
                                     anchors=self.anchors)
            install_factory_image(layout.get("a"), make_factory_image(
                self.factory, spec.device_id))
            fleet.append(DeviceRecord(name=spec.name, device=device,
                                      transport=spec.transport))
        return fleet

    def campaign(self, fleet):
        """A campaign on a fresh server: it computes the v1→v2 delta in
        its first wave, as a server new to the version pair does."""
        from repro.core.server import UpdateServer
        from repro.fleet import Campaign, RolloutPolicy

        server = UpdateServer(self.server_id)
        for release in self.releases:
            server.publish(release)
        return Campaign(server, fleet, RolloutPolicy(canary_fraction=0.1))


@dataclass
class Repeat:
    setup_s: float
    run_s: float
    cpu_s: float
    device_ids: List[int]
    #: Devices that count as failed: not updated, or the whole campaign
    #: when its report differs from the first repeat's.
    failed_ids: Set[int]
    report: Dict[str, object]
    problems: List[str]
    flash_bytes_written: int
    flash_erases: int

    @property
    def devices(self) -> int:
        return len(self.device_ids)

    @property
    def updated(self) -> int:
        return self.devices - len(self.failed_ids)


def check_fleet(report, fleet, target: int = 2
                ) -> Tuple[Set[int], List[str]]:
    """Failed device ids, and every problem found: an abort, a device
    not updated, or one that does not boot the target version."""
    from repro.fleet import DeviceState

    problems = []
    if report.aborted or report.paused:
        problems.append("campaign aborted or paused")
    failed = set()
    for record in fleet:
        outcome = record.last_outcome
        ok = (record.state == DeviceState.UPDATED and outcome is not None
              and outcome.success and outcome.booted_version == target
              and record.device.installed_version() == target)
        if not ok:
            failed.add(record.device.profile.device_id)
            problems.append("%s not updated to v%d (state %s)"
                            % (record.name, target, record.state.value))
    return failed, problems


def run_repeat(world: World, specs: Sequence[DeviceSpec]) -> Repeat:
    gc.collect()            # drop the previous fleet before measuring
    started = time.perf_counter()
    fleet = world.build_fleet(specs)
    campaign = world.campaign(fleet)
    setup_s = time.perf_counter() - started
    flashes = list({id(slot.flash): slot.flash for record in fleet
                    for slot in record.device.layout.slots}.values())
    written0 = sum(f.stats.bytes_written for f in flashes)
    erased0 = sum(f.stats.pages_erased for f in flashes)
    cpu0 = self_cpu_seconds()
    started = time.perf_counter()
    report = campaign.run()
    run_s = time.perf_counter() - started
    cpu_s = self_cpu_seconds() - cpu0
    failed, problems = check_fleet(report, fleet)
    return Repeat(setup_s, run_s, cpu_s, [s.device_id for s in specs],
                  failed, report.to_dict(), problems,
                  sum(f.stats.bytes_written for f in flashes) - written0,
                  sum(f.stats.pages_erased for f in flashes) - erased0)


def run_repeats(world: World, mix: Sequence[Tuple[str, str]],
                ids: DeviceIds, seconds: float,
                reference: Optional[Dict[str, object]],
                min_repeats: int = MIN_REPEATS
                ) -> Tuple[List[Repeat], Dict[str, object]]:
    """Repeat until ``seconds`` pass (at least ``min_repeats``); a
    repeat whose report differs from ``reference`` fails every device."""
    repeats: List[Repeat] = []
    deadline = time.perf_counter() + seconds
    while len(repeats) < min_repeats or time.perf_counter() < deadline:
        repeat = run_repeat(world, fleet_specs(mix, ids))
        if reference is None:
            reference = repeat.report
        elif repeat.report != reference:
            repeat.problems.append("report differs from the first repeat "
                                   "of this seed")
            repeat.failed_ids = set(repeat.device_ids)
        repeats.append(repeat)
    return repeats, reference


def _totals(repeats: Sequence[Repeat]) -> Dict[str, object]:
    problems = [p for r in repeats for p in r.problems]
    attempted = sum(r.devices for r in repeats)
    return {"attempted": attempted,
            "failed": attempted - sum(r.updated for r in repeats),
            "failures": problems[:20], "repeats": len(repeats)}


def _rate(repeats: Sequence[Repeat]) -> float:
    """Devices updated per second of campaign wall time, over all
    repeats: a slower stretch of the host weighs by its length."""
    return sum(r.updated for r in repeats) / sum(r.run_s for r in repeats)


def _latencies_ms(spans: Sequence[Span], repeats: Sequence[Repeat]
                  ) -> List[float]:
    """Per-device update time (all attempts); a failed device reads
    ``inf``."""
    spent: Dict[object, float] = defaultdict(float)
    for span in spans:
        if span.name in TRANSPORT_SPANS:
            spent[span.key] += span.duration * 1000.0
    return [FAILED if device in repeat.failed_ids else spent[device]
            for repeat in repeats for device in repeat.device_ids]


def run_untraced(seed: int, seconds: float) -> Dict[str, object]:
    from repro.crypto import use_engine

    mix, ids = fleet_mix(seed), DeviceIds(rng("campaign", seed, "devices"))
    # Only the transports are timed, for per-device update latency.
    timer = SpanRecorder()
    with use_engine("fast"):
        world = World()
        warm, reference = run_repeats(world, mix, ids, 0.0, None, 1)
        trace_transports(timer)
        try:
            repeats, _ = run_repeats(world, mix, ids, seconds, reference)
        finally:
            timer.unwrap_all()
    latencies = _latencies_ms(timer.spans, repeats)
    updated = sum(r.updated for r in repeats)
    result = _totals(warm + repeats)
    result["metrics"] = {
        "updates_per_s": _rate(repeats),
        "update_p50_ms": percentile(latencies, 50.0),
        "update_p99_ms": percentile(latencies, 99.0),
        "setup_s": median([r.setup_s for r in repeats]),
        "peak_rss_mb": self_peak_rss_mb(),
        "server_cpu_ms_per_update":
            sum(r.cpu_s for r in repeats) * 1000.0 / max(1, updated),
    }
    result["samples"] = {"devices_timed": len(latencies),
                         "repeats_timed": len(repeats),
                         "fleet": len(mix),
                         "repeat_rates": [r.updated / r.run_s
                                          for r in repeats]}
    result["report"] = reference
    return result


def run_traced(seed: int, seconds: float) -> Dict[str, object]:
    from repro.crypto import get_engine, use_engine

    mix, ids = fleet_mix(seed), DeviceIds(rng("campaign", seed, "devices"))
    recorder = SpanRecorder()
    trace_device_plane(recorder)
    try:
        with use_engine("fast"):
            world = World()
            warm, reference = run_repeats(world, mix, ids, 0.0, None, 1)
            engine = get_engine()
            calls0 = engine.stats.verify_calls
            hits0 = engine.stats.verify_cache_hits
            setup_spans = len(recorder.spans)
            traced, _ = run_repeats(world, mix, ids, seconds / 2,
                                    reference)
            lookups = engine.stats.verify_calls - calls0
            hits = engine.stats.verify_cache_hits - hits0
    finally:
        recorder.unwrap_all()
    with use_engine("fast"):
        untraced, _ = run_repeats(world, mix, ids, seconds / 2, reference)
    spans = recorder.spans
    window = under(spans[setup_spans:], "fleet.campaign.run")
    updates = max(1, sum(r.updated for r in traced))
    metrics: Dict[str, float] = {}

    def per_update(name: str) -> float:
        return sum(s.duration for s in window
                   if s.name == name) * 1000.0 / updates

    def calls(name: str) -> float:
        return sum(1 for s in window if s.name == name) / updates

    prepare = durations_ms(window, "core.server.prepare_update")
    metrics["core.server.prepare_update_ms"] = percentile(prepare, 50.0)
    metrics["core.server.prepare_update.calls"] = len(prepare) / updates
    for kind, name in zip(("push", "pull"), TRANSPORT_SPANS):
        runs = durations_ms(window, name)
        metrics["net.transports.%s.run_update_ms.p50" % kind] = \
            percentile(runs, 50.0)
        metrics["net.transports.%s.run_update_ms.p99" % kind] = \
            percentile(runs, 99.0)
    metrics["core.verifier.verify_ms"] = percentile(
        durations_ms(window, "core.verifier.verify_signatures"), 50.0)
    metrics["core.verifier.verify.calls"] = calls(
        "core.verifier.verify_signatures")
    metrics["crypto.engine.verify_cache.hit_ratio"] = \
        hits / lookups if lookups else 0.0
    metrics["crypto.engine.verify_cache.lookups"] = lookups
    metrics["compression.lzss.decode_ms"] = per_update(
        "compression.lzss.decode")
    metrics["delta.bspatch.patch_ms"] = per_update("delta.bspatch.patch")
    metrics["core.bootloader.boot_ms"] = percentile(
        durations_ms(window, "core.bootloader.boot"), 50.0)
    metrics["core.bootloader.boot.calls"] = calls("core.bootloader.boot")
    metrics["memory.flash.bytes_written"] = sum(
        r.flash_bytes_written for r in traced) / updates
    metrics["memory.flash.erases"] = sum(
        r.flash_erases for r in traced) / updates
    diffs = durations_ms(window, "delta.bsdiff.diff")
    metrics["delta.bsdiff.diff_ms"] = percentile(diffs, 50.0)
    metrics["delta.bsdiff.calls"] = len(diffs) / len(traced)
    metrics["workload.generator.firmware_ms"] = sum(
        s.duration for s in spans
        if s.layer == "workload" and not s.parent) * 1000.0
    by_layer = self_ms_by_layer(window)
    for layer in SELF_TIME_LAYERS:
        metrics[layer + ".self_ms_per_update"] = by_layer.get(
            layer, 0.0) / updates
    run_s = sum(r.run_s for r in traced)
    metrics["bench.server.cpu_util"] = sum(
        r.cpu_s for r in traced) / run_s
    traced_ups, base_ups = _rate(traced), _rate(untraced)
    metrics["bench.trace_overhead_pct"] = (
        (base_ups - traced_ups) / base_ups * 100.0)
    metrics["bench.traced.updates"] = updates
    result = _totals(warm + traced + untraced)
    result["metrics"] = metrics
    span_file = OUT_DIR / ("campaign-seed%d-spans.json" % seed)
    write_json(span_file, {"spans": recorder.to_rows()})
    result["span_file"] = str(span_file.relative_to(OUT_DIR.parent))
    result["span_count"] = len(spans)
    return result
