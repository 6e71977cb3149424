"""Chaos sweep: the anti-bricking invariant under an exhaustive fault grid.

UpKit's central robustness claim (Sect. III/IV): whatever fails during
an update — power, link, server, even the stored bits — the device
always boots a *valid, signed* image.  This harness makes the claim
executable:

1. **calibrate** — run one clean update on a pristine testbed and
   measure the fault axes (flash operations, bytes over the air);
2. **build a grid** — hundreds of :class:`~repro.faults.FaultPoint` s
   spread over every axis: power loss at each write/erase, link outages
   and loss bursts at byte offsets, reboots mid-transfer, bit-rot in
   both slots, server outage windows;
3. **run each point** — a fresh device replays the end-to-end update
   with that fault injected, surviving power cycles the way hardware
   does (RAM lost, flash kept, reboot, retry);
4. **assert the invariant** — after the dust settles a *fresh*
   bootloader (full double-signature + digest verification) must boot
   some valid image.  ``NoValidImage`` means the device is bricked:
   that is the failure the sweep exists to catch.

The sweep is deterministic end to end (seeded links, seeded jitter,
attempt-counted outages) and emits a machine-readable report
(``CHAOS_report.json`` via ``upkit chaos``), so a failing point can be
replayed in isolation from its serialized plan.

Expensive immutable artifacts (identities, signed releases, the factory
image) are built once per sweep in :class:`ChaosLab`; every point still
gets a pristine server, device and link.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core import (
    Bootloader,
    DeviceProfile,
    ENVELOPE_SIZE,
    NoValidImage,
    TransferAbandoned,
    UpdateServer,
    VendorServer,
    install_factory_image,
    make_factory_image,
    make_test_identities,
    provision_device,
)
from ..faults import DeviceRebooted, DomainEvent, DomainPlan, \
    FaultDomain, FaultInjector, FaultKind, FaultPlan, FaultPoint, \
    derive_seed
from ..fleet import (
    BreakerPolicy,
    Campaign,
    CampaignJournal,
    CoordinatorKilled,
    DeviceRecord,
    RetryBudget,
    RetryGovernor,
    RetryPolicy,
    RolloutPolicy,
)
from ..memory import MemoryLayout, PowerLossError
from ..net import BLE_GATT, COAP_6LOWPAN, PayloadBitFlipper, \
    PullTransport, PushTransport, TransportRetryPolicy
from ..platform import NRF52840, ZEPHYR
from ..sim.device import SimulatedDevice
from ..sim.runner import DEFAULT_APP_ID, DEFAULT_DEVICE_ID, \
    DEFAULT_LINK_OFFSET, Testbed
from ..workload import FirmwareGenerator

__all__ = ["ChaosLab", "Calibration", "PointResult", "ChaosReport",
           "calibrate", "build_grid", "run_point", "run_sweep",
           "write_report", "format_summary", "DEFAULT_POINTS",
           "DEFAULT_IMAGE_SIZE",
           "CorrelatedLab", "CorrelatedPoint", "CorrelatedResult",
           "CorrelatedReport", "build_correlated_grid",
           "run_correlated_point", "run_correlated_sweep",
           "format_correlated_summary", "CORRELATED_EVENT_KINDS",
           "KILL_POINTS", "DEFAULT_CORRELATED_DEVICES",
           "DEFAULT_CORRELATED_IMAGE_SIZE"]

DEFAULT_IMAGE_SIZE = 16 * 1024
#: Grid size of the full sweep (the acceptance floor is 200).
DEFAULT_POINTS = 216
#: A single fault point never needs more: one fired fault costs at most
#: a couple of power cycles (transfer + install).
MAX_POWER_CYCLES = 6
#: Transport resume budget during a sweep point: generous enough that a
#: multi-failure outage converges, bounded so a sweep never hangs.
SWEEP_TRANSPORT_RETRY = TransportRetryPolicy(max_attempts=8,
                                             backoff_initial=0.5)


class ChaosLab:
    """Shared, immutable sweep context: firmware, keys, signed releases.

    ``build()`` assembles a pristine testbed (fresh flash, fresh device,
    fresh server) around the cached artifacts — the per-point cost is
    flash allocation and one factory-image write, not key generation
    and signing.
    """

    def __init__(self, image_size: int = DEFAULT_IMAGE_SIZE,
                 slot_configuration: str = "b",
                 transport: str = "push", seed: int = 0) -> None:
        if slot_configuration not in ("a", "b"):
            raise ValueError("slot_configuration must be 'a' or 'b'")
        if transport not in ("push", "pull"):
            raise ValueError("transport must be 'push' or 'pull'")
        self.image_size = image_size
        self.slot_configuration = slot_configuration
        self.transport = transport
        self.seed = seed
        self.target_version = 2

        generator = FirmwareGenerator(seed=b"chaos-%d" % seed)
        self.base_firmware = generator.firmware(image_size, image_id=1)
        self.new_firmware = generator.os_version_change(self.base_firmware,
                                                        revision=2)
        vendor_id, self.server_identity, self.anchors = \
            make_test_identities()
        self.vendor = VendorServer(vendor_id, app_id=DEFAULT_APP_ID,
                                   link_offset=DEFAULT_LINK_OFFSET)
        self.releases = (self.vendor.release(self.base_firmware, 1),
                         self.vendor.release(self.new_firmware,
                                             self.target_version))
        self._factory_image = None

    def build(self) -> Testbed:
        """A pristine testbed: v1 installed, v2 published, zero cost."""
        server = UpdateServer(self.server_identity)
        server.publish(self.releases[0])
        if self._factory_image is None:
            # Signed against the v1-only server (factory state), then
            # reused byte-for-byte for every later device.
            self._factory_image = make_factory_image(server,
                                                     DEFAULT_DEVICE_ID)
        board = NRF52840
        internal = board.make_internal_flash()
        usable = internal.size - 2 * internal.page_size
        slot_size = usable // 2
        slot_size -= slot_size % internal.page_size
        if self.slot_configuration == "a":
            layout = MemoryLayout.configuration_a(internal, slot_size)
        else:
            external = (board.make_external_flash()
                        if board.has_external_flash else None)
            layout = MemoryLayout.configuration_b(internal, slot_size,
                                                  external=external)
        profile = DeviceProfile(
            device_id=DEFAULT_DEVICE_ID,
            app_id=DEFAULT_APP_ID,
            link_offset=DEFAULT_LINK_OFFSET,
            # Full images keep the fault axes identical across points.
            supports_differential=False,
        )
        device = SimulatedDevice(board=board, os_profile=ZEPHYR,
                                 layout=layout, profile=profile,
                                 anchors=self.anchors)
        install_factory_image(layout.get("a"), self._factory_image)
        server.publish(self.releases[1])
        for slot in layout.slots:
            slot.flash.stats.busy_seconds = 0.0
        device.backend.reset_counters()
        return Testbed(vendor=self.vendor, server=server, device=device,
                       anchors=self.anchors)

    def make_transport(self, bed: Testbed, link=None, retry=None):
        cls = PushTransport if self.transport == "push" else PullTransport
        return cls(bed.device, bed.server, link=link, retry=retry,
                   reboot_on_success=False)

    @property
    def link_profile(self):
        return BLE_GATT if self.transport == "push" else COAP_6LOWPAN


# -- calibration --------------------------------------------------------------


@dataclass(frozen=True)
class Calibration:
    """Measured fault-axis extents of one clean end-to-end update."""

    ops_any: int        # flash writes + erases, transfer through install
    ops_write: int
    ops_erase: int
    transfer_bytes: int  # bytes over the air
    fed_bytes: int       # bytes the agent consumed (envelope + payload)

    def to_dict(self) -> Dict[str, int]:
        return {"ops_any": self.ops_any, "ops_write": self.ops_write,
                "ops_erase": self.ops_erase,
                "transfer_bytes": self.transfer_bytes,
                "fed_bytes": self.fed_bytes}


def calibrate(lab: ChaosLab) -> Calibration:
    """Run one fault-free update and measure every fault axis."""
    bed = lab.build()
    device = bed.device
    flashes = bed.device.flash_devices

    fed = {"bytes": 0}
    original_feed = device.feed

    def feed(chunk):
        fed["bytes"] += len(chunk)
        return original_feed(chunk)

    device.feed = feed

    def ops() -> "tuple[int, int]":
        return (sum(flash.stats.write_calls for flash in flashes),
                sum(flash.stats.pages_erased for flash in flashes))

    writes0, erases0 = ops()
    outcome = lab.make_transport(bed).run_update()
    if not outcome.success:
        raise RuntimeError("calibration update failed: %s" % outcome.error)
    result = device.reboot()
    if result.version != lab.target_version:
        raise RuntimeError("calibration boot landed on v%d" % result.version)
    writes1, erases1 = ops()
    return Calibration(
        ops_any=(writes1 - writes0) + (erases1 - erases0),
        ops_write=writes1 - writes0,
        ops_erase=erases1 - erases0,
        transfer_bytes=outcome.bytes_over_air,
        fed_bytes=fed["bytes"],
    )


# -- grid ---------------------------------------------------------------------


def _spread(limit: int, count: int) -> List[int]:
    """``count`` distinct evenly spaced ints in [0, limit)."""
    if limit <= 0:
        return []
    count = max(1, min(count, limit))
    step = limit / count
    return sorted({int(index * step) for index in range(count)})


def build_grid(calibration: Calibration, seed: int = 0,
               points: int = DEFAULT_POINTS,
               image_size: int = DEFAULT_IMAGE_SIZE) -> FaultPlan:
    """Spread ``points`` fault points across every measured axis."""
    if points < 16:
        raise ValueError("a grid needs at least 16 points "
                         "(two per fault family)")
    server_windows = [(0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (0, 3)]
    budget = points - len(server_windows)
    # Fraction of the budget per family; power loss dominates because it
    # is the axis that can actually brick a device.
    shares = [
        (FaultKind.POWER_LOSS_ANY, 0.25, calibration.ops_any, 0),
        (FaultKind.POWER_LOSS_WRITE, 0.14, calibration.ops_write, 0),
        (FaultKind.POWER_LOSS_ERASE, 0.10, calibration.ops_erase, 0),
        (FaultKind.LINK_OUTAGE, 0.14, calibration.transfer_bytes, 2),
        (FaultKind.REBOOT, 0.14, calibration.fed_bytes, 0),
        # A 4x mid-transfer slowdown never breaks the update; it is in
        # the grid so the sweep also proves *degraded* links converge
        # (and feeds the telemetry plane's straggler detector).
        (FaultKind.SLOW_LINK, 0.05, calibration.transfer_bytes, 4),
    ]
    grid: List[FaultPoint] = []
    for kind, share, limit, param in shares:
        for at in _spread(limit, max(2, round(budget * share))):
            grid.append(FaultPoint(kind, at, param))
    burst_width = max(256, calibration.transfer_bytes // 16)
    burst_span = max(1, calibration.transfer_bytes - burst_width)
    for at in _spread(burst_span, max(2, round(budget * 0.07))):
        grid.append(FaultPoint(FaultKind.LOSS_BURST, at, burst_width))
    rot_span = ENVELOPE_SIZE + image_size
    for slot_index in (0, 1):
        for at in _spread(rot_span, max(2, round(budget * 0.055))):
            grid.append(FaultPoint(FaultKind.BIT_ROT, at, slot_index))
    for at, length in server_windows:
        grid.append(FaultPoint(FaultKind.SERVER_OUTAGE, at, length))
    plan = FaultPlan(points=tuple(grid), seed=seed)
    # Small layouts offer fewer distinct flash-op coordinates than their
    # share asked for (configuration A skips the swap entirely), so the
    # deduplicated plan can fall short of the requested size.  Top up on
    # the byte-addressed link axis, whose coordinate space is ~the whole
    # transfer; param=1 outages never collide with the param=2 share.
    shortfall = points - len(plan)
    if shortfall > 0:
        extra = tuple(
            FaultPoint(FaultKind.LINK_OUTAGE, at + 1, 1)
            for at in _spread(calibration.transfer_bytes - 1, shortfall))
        plan = plan.merged_with(FaultPlan(points=extra, seed=seed))
    return plan


# -- per-point execution ------------------------------------------------------


@dataclass
class PointResult:
    """What one fault point did to one device."""

    point: FaultPoint
    status: str                 # "updated" | "not-updated" | "bricked"
    final_version: int
    power_cycles: int
    interruptions: int
    abandoned: bool
    error: Optional[str] = None
    #: The device's black-box post-mortem (``BlackBox.post_mortem``):
    #: what the flight recorder says happened, read back from flash
    #: *after* the injected faults — including which lifecycle phase an
    #: injected power loss interrupted.
    black_box: Optional[Dict[str, object]] = None

    @property
    def bricked(self) -> bool:
        return self.status == "bricked"

    def to_dict(self) -> Dict[str, object]:
        return {"point": self.point.to_dict(), "label": self.point.label,
                "status": self.status,
                "final_version": self.final_version,
                "power_cycles": self.power_cycles,
                "interruptions": self.interruptions,
                "abandoned": self.abandoned, "error": self.error,
                "black_box": self.black_box}


def run_point(lab: ChaosLab, point: FaultPoint) -> PointResult:
    """Replay one end-to-end update with ``point`` injected.

    Models what hardware does on a power cut: the agent's RAM state is
    lost (``power_cycle``), flash stays exactly as written, the device
    reboots through the bootloader (which may resume an interrupted
    swap), and the update is retried.  The final verdict comes from a
    *fresh* bootloader doing full verification.
    """
    bed = lab.build()
    device = bed.device
    injector = FaultInjector(FaultPlan(points=(point,), seed=lab.seed))
    link = injector.make_link(lab.link_profile)
    injector.arm(bed)

    power_cycles = 0
    abandoned = False
    error: Optional[str] = None
    bricked = False

    def survive_boot() -> bool:
        """Boot until stable; False when the power-cycle budget is out."""
        nonlocal power_cycles, error, bricked
        while True:
            try:
                device.reboot()
                return True
            except PowerLossError as exc:
                power_cycles += 1
                if power_cycles > MAX_POWER_CYCLES:
                    error = "boot never stabilised: %s" % exc
                    return False
                injector.rearm(bed)
            except NoValidImage as exc:
                bricked = True
                error = str(exc)
                return False

    # -- transfer phase: survive power cuts and injected reboots ----------
    while True:
        transport = lab.make_transport(bed, link=link,
                                       retry=SWEEP_TRANSPORT_RETRY)
        try:
            outcome = transport.run_update()
            if outcome.error is not None:
                abandoned = isinstance(outcome.error, TransferAbandoned)
                error = str(outcome.error)
            break
        except (PowerLossError, DeviceRebooted) as exc:
            power_cycles += 1
            if power_cycles > MAX_POWER_CYCLES:
                error = "gave up after %d power cycles: %s" \
                    % (power_cycles, exc)
                break
            device.agent.power_cycle()
            injector.rearm(bed)
            if not survive_boot():
                break

    # -- storage faults land before the decisive boot ---------------------
    injector.apply_pre_boot(bed)

    # -- install/boot phase -----------------------------------------------
    if not bricked:
        survive_boot()

    # -- the invariant: a fresh bootloader must find a valid image --------
    final_version = 0
    if not bricked:
        fresh = Bootloader(device.profile, device.layout, bed.anchors,
                           device.backend)
        try:
            final_version = fresh.boot().version
        except NoValidImage as exc:
            bricked = True
            error = str(exc)

    status = ("bricked" if bricked
              else "updated" if final_version == lab.target_version
              else "not-updated")
    return PointResult(
        point=point, status=status, final_version=final_version,
        power_cycles=power_cycles,
        interruptions=device.agent.stats.transfers_interrupted,
        abandoned=abandoned, error=error,
        # The black box lives on its own flash device (outside the
        # layout the injector arms), so this read-back survives every
        # injected power loss — exactly like pulling the flight
        # recorder after an incident.
        black_box=device.blackbox.post_mortem(),
    )


# -- the sweep ----------------------------------------------------------------


@dataclass
class ChaosReport:
    """Machine-readable outcome of one chaos sweep."""

    seed: int
    slot_configuration: str
    transport: str
    image_size: int
    calibration: Calibration
    results: List[PointResult] = field(default_factory=list)
    #: Correlated-sweep section (:meth:`CorrelatedReport.to_dict`),
    #: attached by ``upkit chaos --correlated``; None on plain sweeps
    #: (schema v4 keeps the key either way).
    correlated: Optional[Dict[str, object]] = None

    @property
    def bricked(self) -> List[PointResult]:
        return [result for result in self.results if result.bricked]

    @property
    def updated_count(self) -> int:
        return sum(1 for r in self.results if r.status == "updated")

    def kind_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for result in self.results:
            key = result.point.kind.value
            counts[key] = counts.get(key, 0) + 1
        return counts

    def interrupted_phases(self) -> Dict[str, int]:
        """Sweep-wide census of black-box interruptions by lifecycle
        phase (:func:`~repro.obs.blackbox.aggregate_post_mortems` over
        every point's post-mortem)."""
        from ..obs.blackbox import aggregate_post_mortems

        return aggregate_post_mortems(
            [result.black_box for result in self.results
             if result.black_box is not None])

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "slot_configuration": self.slot_configuration,
            "transport": self.transport,
            "image_size": self.image_size,
            "calibration": self.calibration.to_dict(),
            "points": len(self.results),
            "kind_counts": self.kind_counts(),
            "interrupted_phases": self.interrupted_phases(),
            "updated": self.updated_count,
            "not_updated": sum(1 for r in self.results
                               if r.status == "not-updated"),
            "bricked": len(self.bricked),
            "results": [result.to_dict() for result in self.results],
            "correlated": self.correlated,
        }


ProgressFn = Callable[[int, int, PointResult], None]


def run_sweep(points: int = DEFAULT_POINTS, seed: int = 0,
              slot_configuration: str = "b", transport: str = "push",
              image_size: int = DEFAULT_IMAGE_SIZE,
              progress: Optional[ProgressFn] = None) -> ChaosReport:
    """Calibrate, build the grid, run every point, collect the report."""
    lab = ChaosLab(image_size=image_size,
                   slot_configuration=slot_configuration,
                   transport=transport, seed=seed)
    calibration = calibrate(lab)
    grid = build_grid(calibration, seed=seed, points=points,
                      image_size=image_size)
    report = ChaosReport(seed=seed, slot_configuration=slot_configuration,
                         transport=transport, image_size=image_size,
                         calibration=calibration)
    for index, point in enumerate(grid):
        result = run_point(lab, point)
        report.results.append(result)
        if progress is not None:
            progress(index + 1, len(grid), result)
    return report


def write_report(report: ChaosReport,
                 path: str = "CHAOS_report.json") -> str:
    """Write a schema-stamped chaos artifact (see ``tools/report.py``)."""
    from .report import write_report as write_artifact

    write_artifact(report.to_dict(), path, "chaos")
    return os.path.abspath(path)


def format_summary(report: ChaosReport) -> str:
    lines = [
        "chaos sweep: %d fault points (config %s, %s transport, %d B "
        "image, seed %d)"
        % (len(report.results), report.slot_configuration,
           report.transport, report.image_size, report.seed),
    ]
    for kind, count in sorted(report.kind_counts().items()):
        lines.append("  %-18s %4d points" % (kind, count))
    phases = report.interrupted_phases()
    if phases:
        lines.append("  interruptions by phase: %s"
                     % ", ".join("%s=%d" % (phase, count)
                                 for phase, count in phases.items()))
    lines.append("  updated %d / survived-on-old %d / BRICKED %d"
                 % (report.updated_count,
                    sum(1 for r in report.results
                        if r.status == "not-updated"),
                    len(report.bricked)))
    for result in report.bricked:
        lines.append("  BRICKED at %s: %s"
                     % (result.point.label, result.error))
    if not report.bricked:
        lines.append("  invariant holds: every device booted a valid, "
                     "signed image")
    return "\n".join(lines)


# -- correlated sweep ---------------------------------------------------------
#
# The per-device grid above injects one fault into one device.  Real
# fleets fail in *groups*: a regional link storm, a loss front, a
# thundering-herd reboot — and sometimes the update coordinator itself
# dies mid-wave.  The correlated sweep drives a whole hydrated fleet
# (journaled, governed) through a grid of domain-scoped events and
# asserts three properties per point:
#
# 1. the anti-bricking invariant still holds for every fleet member
#    (a fresh bootloader boots a valid, signed image);
# 2. with the retry budget + per-domain breakers attached, backhaul
#    amplification stays bounded (< 2x the clean campaign's request
#    count) while the ungoverned twin amplifies with storm severity;
# 3. a coordinator killed at an armed journal append resumes to a
#    byte-identical report with zero re-flashes and zero double-issued
#    tokens.

DEFAULT_CORRELATED_DEVICES = 12
DEFAULT_CORRELATED_IMAGE_SIZE = 4 * 1024

#: Grid axis "kinds" -> the correlated events scheduled on the plan.
CORRELATED_EVENT_KINDS: Dict[str, Tuple[FaultKind, ...]] = {
    "storm": (FaultKind.LINK_STORM,),
    "front": (FaultKind.LOSS_FRONT,),
    "herd": (FaultKind.HERD_REBOOT,),
    "storm+front": (FaultKind.LINK_STORM, FaultKind.LOSS_FRONT),
}
#: Coordinator-kill axis: no kill, or die early (while planning the
#: canary) or mid-campaign (between device outcomes of the big wave).
KILL_POINTS: Tuple[Optional[str], ...] = (None, "early", "mid")

#: Every correlated event covers the whole campaign window.  Admit
#: times then never gate activation, which is what keeps the sweep
#: comparable across fleet sizes.
_EVENT_DURATION = 3600.0

#: Transport resume budget during correlated runs.  Deliberately
#: tighter than :data:`SWEEP_TRANSPORT_RETRY`: a constrained device
#: gives up after two consecutive link failures, so a storm of
#: severity >= 3 fails the *attempt* and lands on the campaign's retry
#: path — which is the retry storm the governor exists to bound.
CORRELATED_TRANSPORT_RETRY = TransportRetryPolicy(max_attempts=3,
                                                  backoff_initial=0.5)


@dataclass(frozen=True)
class CorrelatedPoint:
    """One cell of the correlated grid."""

    domains: int
    severity: int
    kinds: str
    kill: Optional[str] = None

    def __post_init__(self) -> None:
        if self.domains < 1:
            raise ValueError("domains must be at least 1")
        if self.severity < 1:
            raise ValueError("severity must be at least 1")
        if self.kinds not in CORRELATED_EVENT_KINDS:
            raise ValueError("unknown event kinds %r (have: %s)"
                             % (self.kinds,
                                ", ".join(sorted(CORRELATED_EVENT_KINDS))))
        if self.kill not in KILL_POINTS:
            raise ValueError("kill must be one of %r" % (KILL_POINTS,))

    @property
    def label(self) -> str:
        suffix = "/kill-%s" % self.kill if self.kill else ""
        return "%s/d%d/s%d%s" % (self.kinds, self.domains,
                                 self.severity, suffix)

    def to_dict(self) -> Dict[str, object]:
        return {"domains": self.domains, "severity": self.severity,
                "kinds": self.kinds, "kill": self.kill}


def build_correlated_grid(
        domain_counts: Tuple[int, ...] = (2, 3),
        severities: Tuple[int, ...] = (2, 4, 6),
        kinds: Tuple[str, ...] = ("storm", "front", "herd",
                                  "storm+front"),
        kills: Tuple[Optional[str], ...] = KILL_POINTS,
) -> List[CorrelatedPoint]:
    """The full correlated grid: domains x severity x kinds x kill.

    Defaults give 2 * 3 * 4 * 3 = 72 points (the acceptance floor is
    64), a third of them with a coordinator kill armed.
    """
    grid = [CorrelatedPoint(domains=domains, severity=severity,
                            kinds=kind, kill=kill)
            for domains in domain_counts
            for severity in severities
            for kind in kinds
            for kill in kills]
    if not grid:
        raise ValueError("the correlated grid is empty")
    return grid


class CorrelatedLab:
    """Shared artifacts for correlated fleet sweeps.

    Mirrors :class:`ChaosLab` one level up: firmware, keys and signed
    releases are built once; every run gets a pristine server and a
    fresh hydrated fleet.  The last fleet member is the sweep's
    on-path adversary — a :class:`~repro.net.PayloadBitFlipper` whose
    RNG derives from the sweep seed (``derive_seed(seed, "attacker",
    index)``), so ``--seed`` reaches every attacker stream the same
    way it reaches every domain stream.
    """

    def __init__(self, devices: int = DEFAULT_CORRELATED_DEVICES,
                 image_size: int = DEFAULT_CORRELATED_IMAGE_SIZE,
                 seed: int = 0) -> None:
        if devices < 4:
            raise ValueError("a correlated fleet needs at least 4 "
                             "devices (a canary plus a fleet)")
        self.devices = devices
        self.image_size = image_size
        self.seed = seed
        self.target_version = 2
        generator = FirmwareGenerator(seed=b"chaos-corr-%d" % seed)
        self.base_firmware = generator.firmware(image_size, image_id=1)
        self.new_firmware = generator.os_version_change(
            self.base_firmware, revision=2)
        vendor_id, self.server_identity, self.anchors = \
            make_test_identities()
        self.vendor = VendorServer(vendor_id, app_id=DEFAULT_APP_ID,
                                   link_offset=DEFAULT_LINK_OFFSET)
        self.releases = (self.vendor.release(self.base_firmware, 1),
                         self.vendor.release(self.new_firmware,
                                             self.target_version))

    def build_fleet(self, plan: Optional[DomainPlan] = None,
                    transfer_bytes: int = 0, attacker: bool = False):
        """``(server, fleet, domain_of)`` around the cached artifacts.

        With a ``plan``, every member's link carries its domain's
        correlated fault schedule (identical coordinates across the
        domain — that sameness *is* the correlation); ``domain_of``
        maps device name -> domain name for the governor's breakers.
        """
        server = UpdateServer(self.server_identity)
        server.publish(self.releases[0])
        domain_names: Dict[str, str] = {}
        fleet: List[DeviceRecord] = []
        for index in range(self.devices):
            internal = NRF52840.make_internal_flash()
            layout = MemoryLayout.configuration_a(internal, 64 * 1024)
            profile = DeviceProfile(
                device_id=0x7000 + index, app_id=DEFAULT_APP_ID,
                link_offset=DEFAULT_LINK_OFFSET,
                supports_differential=False)
            device = SimulatedDevice(board=NRF52840, os_profile=ZEPHYR,
                                     layout=layout, profile=profile,
                                     anchors=self.anchors)
            provision_device(server, layout.get("a"), profile.device_id)
            transport = "pull" if index % 2 else "push"
            name = "corr-%03d" % index
            link = None
            if plan is not None:
                domain = plan.domain_of(index, self.devices).name
                domain_names[name] = domain
                link = plan.link_for(
                    plan.position_of(domain), max(1, transfer_bytes),
                    profile=(BLE_GATT if transport == "push"
                             else COAP_6LOWPAN))
            interceptor = None
            if attacker and index == self.devices - 1:
                interceptor = PayloadBitFlipper(
                    seed=derive_seed(self.seed, "attacker", index))
            fleet.append(DeviceRecord(
                name=name, device=device, transport=transport,
                interceptor=interceptor, link=link))
        server.publish(self.releases[1])
        return server, fleet, domain_names.get


def _correlated_policy() -> RolloutPolicy:
    # No failure-rate abort: the sweep wants full-coverage outcomes per
    # point, not an early exit the moment a storm bites the canary.
    return RolloutPolicy(canary_fraction=0.25, abort_failure_rate=1.0,
                         max_attempts=2)


def _correlated_retry() -> RetryPolicy:
    # Four attempts with no jitter: aggressive enough that an
    # ungoverned fleet visibly amplifies a storm, deterministic enough
    # that two same-seed sweeps serialize identically.
    return RetryPolicy(max_attempts=4, backoff_initial=1.0, jitter=0.0,
                       quarantine_after=4,
                       transport_retry=CORRELATED_TRANSPORT_RETRY)


def make_correlated_governor(devices: int) -> RetryGovernor:
    """Deliberately tight knobs: a couple of devices' interruptions trip
    a domain's breaker, and the global budget covers only a handful of
    probes before the rest of the storm is shed."""
    return RetryGovernor(
        budget=RetryBudget(capacity=max(2, devices // 6)),
        breaker_policy=BreakerPolicy(pressure_threshold=3,
                                     open_seconds=30.0))


def _correlated_plan(point: CorrelatedPoint, seed: int) -> DomainPlan:
    domains = [FaultDomain("dom-%02d" % index, kind="gateway")
               for index in range(point.domains)]
    events = [DomainEvent(kind, at=0.0, duration=_EVENT_DURATION,
                          severity=point.severity)
              for kind in CORRELATED_EVENT_KINDS[point.kinds]]
    # The kill axis is excluded from the derivation: the killed run and
    # its uninterrupted twin must replay identical link schedules.
    return DomainPlan(domains, events,
                      seed=derive_seed(seed, "correlated", point.domains,
                                       point.severity, point.kinds))


def _fleet_flash_writes(fleet: List[DeviceRecord]) -> int:
    """Total flash write calls across a fleet (each device counted
    once per distinct flash part) — the passive re-flash detector."""
    total = 0
    seen = set()
    for record in fleet:
        for slot in record.device.layout.slots:
            if id(slot.flash) in seen:
                continue
            seen.add(id(slot.flash))
            total += slot.flash.stats.write_calls
    return total


def _fleet_bricked(fleet: List[DeviceRecord], anchors) -> int:
    """The invariant, fleet-wide: a fresh bootloader per member."""
    bricked = 0
    for record in fleet:
        fresh = Bootloader(record.device.profile, record.device.layout,
                           anchors, record.device.backend)
        try:
            fresh.boot()
        except NoValidImage:
            bricked += 1
    return bricked


@dataclass
class CorrelatedResult:
    """What one correlated grid point did to one (or two) fleets."""

    point: CorrelatedPoint
    plan: Dict[str, object]
    updated: int
    failed: int
    quarantined: int
    requests: int
    #: Backhaul amplification of the governed run relative to the
    #: clean campaign (1.0 = no storm traffic at all).
    amplification: float
    #: Same ratio for the ungoverned twin (kill-free points only).
    unbounded_amplification: Optional[float]
    bricked: int
    governor: Dict[str, object]
    journal: Dict[str, object]
    #: Coordinator-kill verdicts (kill points only).
    kill: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        return {"point": self.point.to_dict(),
                "label": self.point.label, "plan": self.plan,
                "updated": self.updated, "failed": self.failed,
                "quarantined": self.quarantined,
                "requests": self.requests,
                "amplification": round(self.amplification, 6),
                "unbounded_amplification": (
                    round(self.unbounded_amplification, 6)
                    if self.unbounded_amplification is not None
                    else None),
                "bricked": self.bricked, "governor": self.governor,
                "journal": self.journal, "kill": self.kill}


def run_correlated_point(lab: CorrelatedLab, point: CorrelatedPoint,
                         transfer_bytes: int,
                         clean_requests: int) -> CorrelatedResult:
    """Run one correlated grid point.

    Always runs the governed, journaled campaign.  Kill-free points
    additionally run the *ungoverned* twin to measure how much a
    budget-less fleet amplifies the storm; kill points instead re-run
    the same campaign with the journal armed to die at an append
    index, then :meth:`~repro.fleet.Campaign.resume` and compare the
    resumed report, the server's request count (double-issued tokens)
    and the fleet's flash write count (re-flashes) against the
    uninterrupted twin.
    """
    plan = _correlated_plan(point, lab.seed)
    policy = _correlated_policy()
    retry = _correlated_retry()

    server, fleet, domain_of = lab.build_fleet(
        plan, transfer_bytes, attacker=True)
    journal = CampaignJournal()
    campaign = Campaign(server, fleet, policy, retry=retry,
                        journal=journal,
                        governor=make_correlated_governor(lab.devices),
                        domain_of=domain_of)
    report = campaign.run()
    requests = server.stats.requests
    amplification = requests / clean_requests
    bricked = _fleet_bricked(fleet, lab.anchors)
    journal_stats = journal.stats()
    twin_json = json.dumps(report.to_dict(), sort_keys=True)
    twin_writes = _fleet_flash_writes(fleet)

    unbounded: Optional[float] = None
    kill_info: Optional[Dict[str, object]] = None
    if point.kill is None:
        server_u, fleet_u, _ = lab.build_fleet(plan, transfer_bytes,
                                               attacker=True)
        Campaign(server_u, fleet_u, policy, retry=retry).run()
        unbounded = server_u.stats.requests / clean_requests
        bricked += _fleet_bricked(fleet_u, lab.anchors)
    else:
        appends = int(journal_stats["appends"])
        kill_at = 2 if point.kill == "early" else max(3, appends // 2)
        killed_journal = CampaignJournal()
        killed_journal.arm_kill(kill_at)
        server_k, fleet_k, domain_of_k = lab.build_fleet(
            plan, transfer_bytes, attacker=True)
        killed = Campaign(server_k, fleet_k, policy, retry=retry,
                          journal=killed_journal,
                          governor=make_correlated_governor(lab.devices),
                          domain_of=domain_of_k)
        try:
            killed.run()
            raise RuntimeError("armed coordinator crash at append %d "
                               "never fired" % kill_at)
        except CoordinatorKilled:
            pass
        resumed = Campaign.resume(
            server_k, fleet_k, killed_journal, policy=policy,
            retry=retry, governor=make_correlated_governor(lab.devices),
            domain_of=domain_of_k)
        resumed_json = json.dumps(resumed.run().to_dict(),
                                  sort_keys=True)
        bricked += _fleet_bricked(fleet_k, lab.anchors)
        journal_stats = killed_journal.stats()
        kill_info = {
            "append_index": kill_at,
            "twin_appends": appends,
            "resume_identical": resumed_json == twin_json,
            "token_parity": server_k.stats.requests == requests,
            "reflash_free": _fleet_flash_writes(fleet_k) == twin_writes,
            "appends_converged":
                int(journal_stats["appends"]) == appends,
        }
        # Serialize the plan *with* the crash event it actually ran
        # (severity carries the armed append index).
        plan = DomainPlan(
            list(plan.domains),
            list(plan.events) + [DomainEvent(
                FaultKind.COORDINATOR_CRASH, at=0.0,
                duration=_EVENT_DURATION, severity=kill_at)],
            seed=plan.seed, assignment=plan.assignment)

    return CorrelatedResult(
        point=point, plan=plan.to_dict(), updated=len(report.updated),
        failed=len(report.failed), quarantined=len(report.quarantined),
        requests=requests, amplification=amplification,
        unbounded_amplification=unbounded, bricked=bricked,
        governor=campaign.governor.to_dict(), journal=journal_stats,
        kill=kill_info)


@dataclass
class CorrelatedReport:
    """Machine-readable outcome of one correlated sweep."""

    seed: int
    devices: int
    image_size: int
    transfer_bytes: int
    clean_requests: int
    results: List[CorrelatedResult] = field(default_factory=list)

    @property
    def bricked_total(self) -> int:
        return sum(result.bricked for result in self.results)

    @property
    def budgeted_max(self) -> float:
        return max((result.amplification for result in self.results),
                   default=0.0)

    @property
    def unbounded_max(self) -> float:
        return max((result.unbounded_amplification
                    for result in self.results
                    if result.unbounded_amplification is not None),
                   default=0.0)

    @property
    def kill_count(self) -> int:
        return sum(1 for result in self.results
                   if result.kill is not None)

    @property
    def resume_identical_all(self) -> bool:
        return all(result.kill["resume_identical"]
                   for result in self.results
                   if result.kill is not None)

    def journal_totals(self) -> Dict[str, int]:
        return {
            "appends": sum(int(result.journal.get("appends", 0))
                           for result in self.results),
            "torn_skipped": sum(
                int(result.journal.get("torn_skipped", 0))
                for result in self.results),
            "campaigns": len(self.results),
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "devices": self.devices,
            "image_size": self.image_size,
            "transfer_bytes": self.transfer_bytes,
            "clean_requests": self.clean_requests,
            "grid_points": len(self.results),
            "domains": sorted({result.point.domains
                               for result in self.results}),
            "kills": self.kill_count,
            "resume_identical_all": self.resume_identical_all,
            "retry_amplification": {
                "budgeted_max": round(self.budgeted_max, 6),
                "unbounded_max": round(self.unbounded_max, 6),
            },
            "journal": self.journal_totals(),
            "bricked": self.bricked_total,
            "results": [result.to_dict() for result in self.results],
        }


def run_correlated_sweep(devices: int = DEFAULT_CORRELATED_DEVICES,
                         seed: int = 0,
                         image_size: int =
                         DEFAULT_CORRELATED_IMAGE_SIZE,
                         grid: Optional[List[CorrelatedPoint]] = None,
                         progress: Optional[Callable[
                             [int, int, CorrelatedResult], None]] = None
                         ) -> CorrelatedReport:
    """Clean-calibrate the fleet, then run every correlated grid point."""
    lab = CorrelatedLab(devices=devices, image_size=image_size,
                        seed=seed)
    if grid is None:
        grid = build_correlated_grid()
    if not grid:
        raise ValueError("the correlated grid is empty")

    # Clean baseline: same fleet shape (attacker included), no faults.
    # Yields the request-count denominator for amplification and the
    # measured transfer size the domain plans scale coordinates to.
    server, fleet, _ = lab.build_fleet(attacker=True)
    clean = Campaign(server, fleet, _correlated_policy(),
                     retry=_correlated_retry()).run()
    if len(clean.updated) < devices - 1:
        raise RuntimeError("clean correlated baseline failed: %r"
                           % clean.to_dict())
    clean_requests = server.stats.requests
    transfer_bytes = min(record.last_outcome.bytes_over_air
                         for record in fleet
                         if record.last_outcome is not None
                         and record.last_outcome.success)

    report = CorrelatedReport(seed=seed, devices=devices,
                              image_size=image_size,
                              transfer_bytes=transfer_bytes,
                              clean_requests=clean_requests)
    for index, point in enumerate(grid):
        result = run_correlated_point(lab, point, transfer_bytes,
                                      clean_requests)
        report.results.append(result)
        if progress is not None:
            progress(index + 1, len(grid), result)
    return report


def format_correlated_summary(report: CorrelatedReport) -> str:
    sheds = sum(int(result.governor.get("sheds", 0))
                for result in report.results)
    defers = sum(int(result.governor.get("defers", 0))
                 for result in report.results)
    journal = report.journal_totals()
    lines = [
        "correlated sweep: %d grid points x %d devices (%d B image, "
        "seed %d)"
        % (len(report.results), report.devices, report.image_size,
           report.seed),
        "  retry amplification: budgeted max %.2fx / unbounded max "
        "%.2fx (clean = 1.0x)"
        % (report.budgeted_max, report.unbounded_max),
        "  governor: %d retries shed, %d attempts deferred"
        % (sheds, defers),
        "  coordinator kills: %d armed, resumes byte-identical: %s"
        % (report.kill_count,
           "yes" if report.resume_identical_all else "NO"),
        "  journal: %d appends across %d campaigns, %d torn lines "
        "skipped"
        % (journal["appends"], journal["campaigns"],
           journal["torn_skipped"]),
    ]
    if report.bricked_total:
        lines.append("  BRICKED devices: %d" % report.bricked_total)
    else:
        lines.append("  invariant holds: every fleet member booted a "
                     "valid, signed image")
    return "\n".join(lines)
