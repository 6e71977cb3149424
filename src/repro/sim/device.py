"""The simulated constrained IoT device.

Binds together a board profile, an OS profile, flash + slots, the
crypto backend, UpKit's update agent and bootloader — and meters every
modeled cost (radio, flash, crypto, pipeline CPU) onto a virtual clock
and an energy meter, attributed to the paper's four phases.

Phase attribution follows Fig. 8a's breakdown:

* **propagation** — radio time, flash writes through the pipeline, and
  the pipeline's decompression/patching CPU time;
* **verification** — the agent's signature checks and firmware digest;
* **loading** — reboot, the bootloader's re-verification, and the slot
  copy/swap in static mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core import (
    Bootloader,
    BootResult,
    DeviceProfile,
    DeviceToken,
    FeedStatus,
    PayloadKind,
    TrustAnchors,
    UpdateAgent,
)
from ..crypto import CryptoBackend, get_backend
from ..memory import FlashMemory, MemoryLayout
from ..obs import PHASE_OF_EVENT, BlackBox, MetricsRegistry, Tracer, \
    bind_device
from ..platform import BoardProfile, OSProfile
from .clock import VirtualClock
from .energy import EnergyMeter

__all__ = ["PipelineCpuModel", "SimulatedDevice"]


@dataclass(frozen=True)
class PipelineCpuModel:
    """CPU throughput of the pipeline stages on a Cortex-M-class MCU."""

    lzss_bytes_per_second: float = 280_000.0
    bspatch_bytes_per_second: float = 520_000.0
    decrypt_bytes_per_second: float = 350_000.0


class SimulatedDevice:
    """A device under simulation, exposing the agent's data-plane API.

    The transports (:mod:`repro.net.transports`) call
    :meth:`request_token` / :meth:`feed` / :meth:`reboot`; every call
    meters its flash and crypto cost onto the device's clock and energy
    meter.  An *agent factory* hook lets the baselines substitute their
    own (non-verifying) agents while keeping identical accounting.
    """

    def __init__(
        self,
        board: BoardProfile,
        os_profile: OSProfile,
        layout: MemoryLayout,
        profile: DeviceProfile,
        anchors: TrustAnchors,
        crypto_library: str = "tinycrypt",
        backend: Optional[CryptoBackend] = None,
        agent: Optional[UpdateAgent] = None,
        bootloader: Optional[Bootloader] = None,
        cpu_model: Optional[PipelineCpuModel] = None,
        pipeline_buffer_size: Optional[int] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        blackbox: Optional[BlackBox] = None,
    ) -> None:
        self.board = board
        self.os_profile = os_profile
        self.layout = layout
        #: Each flash device behind the layout's slots, once, in slot
        #: order (a layout's slots are fixed at construction).
        self.flash_devices: "list[FlashMemory]" = list(
            {id(slot.flash): slot.flash for slot in layout.slots}.values())
        self.profile = profile
        self.backend = backend or get_backend(crypto_library)
        buffer_size = (pipeline_buffer_size
                       if pipeline_buffer_size is not None
                       else board.internal_page_size)
        self.agent = agent or UpdateAgent(
            profile, layout, anchors, self.backend,
            pipeline_buffer_size=buffer_size,
        )
        self.bootloader = bootloader or Bootloader(
            profile, layout, anchors, self.backend)
        self.cpu = cpu_model or PipelineCpuModel()
        self.clock = VirtualClock()
        #: ``direction -> (meter component, current)`` for radio time.
        self._radio = {"rx": ("radio_rx", board.radio_rx_ma),
                       "tx": ("radio_tx", board.radio_tx_ma)}
        self.meter = EnergyMeter(supply_volts=board.supply_volts)
        self.reboots = 0
        #: During propagation the radio (kB/s) is orders of magnitude
        #: slower than the flash controller (~100 kB/s writes), so flash
        #: work hides behind packet arrivals on real devices: it costs
        #: energy but no wall-clock time.  The bootloader's swap (loading
        #: phase) is serial and always advances the clock.
        self.flash_overlaps_radio = True

        # -- observability seam (repro.obs) ---------------------------------
        # Tracer is disabled unless a consumer (cli trace, tests) flips
        # it; the black box and metrics always run — their cost is a few
        # bytes per lifecycle event on a flash *outside* the layout, so
        # neither chaos fault coordinates nor cost accounting move.
        self.tracer = tracer if tracer is not None else Tracer(
            now_fn=lambda: self.clock.now)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.blackbox = blackbox if blackbox is not None else BlackBox(
            now_fn=lambda: self.clock.now)
        bind_device(self.metrics, self)
        if hasattr(self.agent, "metrics"):
            self.agent.metrics = self.metrics
        if hasattr(self.agent, "tracer"):
            self.agent.tracer = self.tracer
        subscribed = []
        for log in (getattr(self.agent, "events", None),
                    getattr(self.bootloader, "events", None)):
            if log is not None and hasattr(log, "subscribe") \
                    and all(log is not seen for seen in subscribed):
                log.subscribe(self._observe_event)
                subscribed.append(log)

    def _observe_event(self, event) -> None:
        """Fan one lifecycle event out to black box, metrics and tracer."""
        label = event.kind.value
        self.blackbox.record(label,
                             phase=PHASE_OF_EVENT.get(label, "unknown"))
        self.metrics.counter("events.%s" % label).inc()
        if self.tracer.enabled:
            self.tracer.instant(label, category=event.source,
                                args=dict(event.detail))

    # -- metered agent operations --------------------------------------------

    def request_token(self) -> DeviceToken:
        token = self.agent.request_token()
        # Erasing the staging slot happens here (FSM "start update").
        self._drain_flash("propagation")
        self._drain_crypto("verification")
        return token

    def feed(self, chunk: bytes) -> FeedStatus:
        """Deliver one wire chunk to the agent, metering its side effects.

        Costs are drained in a ``finally`` block: a rejected update still
        paid for the flash writes and the failed signature check.  The
        pipeline CPU is charged by the manifest in force after the chunk
        (or before it, when the chunk got the update rejected).
        """
        agent = self.agent
        pending = getattr(agent, "_pending_manifest", None)
        try:
            status = agent.feed(chunk)
        finally:
            for flash in self.flash_devices:
                if flash.stats.busy_seconds > 0:
                    self._drain_flash("propagation")
                    break
            if self.backend.elapsed_seconds() > 0:
                self._drain_crypto("verification")
            manifest = getattr(agent, "_pending_manifest", None) or pending
            if manifest is not None:
                key = (manifest.payload_kind, len(chunk))
                costs = self._cpu_costs.get(key)
                if costs is None:
                    costs = self._cpu_costs[key] = self._pipeline_cpu(*key)
                for seconds in costs:
                    self._spend_cpu(seconds, "propagation")
        return status

    @property
    def cpu(self) -> PipelineCpuModel:
        return self._cpu

    @cpu.setter
    def cpu(self, model: PipelineCpuModel) -> None:
        self._cpu = model
        self._cpu_costs: "dict[tuple[int, int], tuple[float, ...]]" = {}

    def _pipeline_cpu(self, payload_kind: int, nbytes: int
                      ) -> "tuple[float, ...]":
        """The CPU charges, in order, for ``nbytes`` of one payload kind:
        LZSS + bspatch for a delta, then decryption for a ciphertext.
        :meth:`feed` caches them per chunk length, until :attr:`cpu` is
        replaced."""
        cpu = self._cpu
        costs: "tuple[float, ...]" = ()
        if PayloadKind.is_delta(payload_kind):
            costs += (nbytes / cpu.lzss_bytes_per_second
                      + nbytes / cpu.bspatch_bytes_per_second,)
        if PayloadKind.is_encrypted(payload_kind):
            costs += (nbytes / cpu.decrypt_bytes_per_second,)
        return costs

    def reboot(self) -> BootResult:
        """Reboot into the bootloader and load an image (loading phase)."""
        self.reboots += 1
        # Journal the boot attempt before anything can fail: an
        # unexpected entry here (no prior ready_to_reboot) is how the
        # black-box post-mortem spots a power-loss reboot.
        self.blackbox.record("boot_attempt", phase="loading")
        with self.tracer.span("loading", category="lifecycle"):
            if self.agent.ready_to_reboot:
                self.agent.acknowledge_reboot()
            with self.tracer.span("reboot", category="loading",
                                  seconds=self.board.reboot_seconds):
                self.clock.advance(self.board.reboot_seconds, "loading")
                self.meter.add("cpu", self.board.reboot_seconds,
                               self.board.cpu_active_ma)
            with self.tracer.span("bootloader", category="loading"):
                result = self.bootloader.boot()
                # Tell the agent which (fully verified) image is now
                # running — slot headers alone can lie after an
                # interrupted download.
                note_boot = getattr(self.agent, "note_boot", None)
                if note_boot is not None:
                    note_boot(result.slot, result.envelope)
                self._drain_flash("loading")
                self._drain_crypto("loading")
        return result

    # -- radio accounting (driven by the transports) ----------------------------

    def account_radio(self, seconds: float, direction: str,
                      phase: str = "propagation") -> None:
        component, current = self._radio[direction]
        self.clock.advance(seconds, phase)
        self.meter.add(component, seconds, current)

    # -- cost draining -----------------------------------------------------------

    def _drain_flash(self, phase: str) -> None:
        hidden = phase == "propagation" and self.flash_overlaps_radio
        for flash in self.flash_devices:
            busy = flash.stats.busy_seconds
            if busy > 0:
                if not hidden:
                    self.clock.advance(busy, phase)
                self.meter.add("flash", busy, self.board.flash_write_ma)
                flash.stats.busy_seconds = 0.0

    def _drain_crypto(self, phase: str) -> None:
        busy = self.backend.elapsed_seconds()
        if busy > 0:
            self.clock.advance(busy, phase)
            current = (self.backend.profile.verify_current_ma
                       if self.backend.profile.hardware
                       else self.board.cpu_active_ma)
            self.meter.add("crypto", busy, current)
            self.backend.reset_counters()

    def _spend_cpu(self, seconds: float, phase: str) -> None:
        if seconds > 0:
            self.clock.advance(seconds, phase)
            self.meter.add("cpu", seconds, self.board.cpu_active_ma)

    # -- introspection ------------------------------------------------------------

    def phase_breakdown(self) -> "dict[str, float]":
        return self.clock.elapsed_by_label()

    def installed_version(self) -> int:
        return self.agent.installed_version()
