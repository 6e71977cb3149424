"""The update agent: UpKit's device-side FSM (Sect. IV-B, Fig. 4).

The agent is transport-agnostic: push (BLE) and pull (CoAP) front-ends
both deliver bytes to :meth:`UpdateAgent.feed`, and the FSM reacts
according to its state.  States:

``WAITING`` → token requested → ``START_UPDATE`` (erase oldest slot) →
``RECEIVE_MANIFEST`` → ``VERIFY_MANIFEST`` (early verification: double
signature, token binding, version, compatibility) →
``RECEIVE_FIRMWARE`` (through the pipeline) → ``VERIFY_FIRMWARE``
(digest of what was actually written) → ``READY_TO_REBOOT``.
Any failure lands in ``CLEANING``: the slot is invalidated, FSM state
reset, and the error propagated so the transport can report it.

The early checks are the paper's headline: an invalid or replayed
update is rejected before the firmware is downloaded (saving radio-on
time) and an invalid firmware before the reboot (saving downtime).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from ..crypto import CryptoBackend, StreamCipher, hmac_sha256
from ..memory import MemoryLayout, OpenMode, Slot
from ..obs import NULL_TRACER
from .errors import (
    ManifestFormatError,
    SizeExceeded,
    StateError,
    UpdateError,
)
from .events import EventKind, EventLog
from .image import ENVELOPE_SIZE, SignedManifest
from .keys import TrustAnchors
from .manifest import Manifest
from .pipeline import Pipeline, build_pipeline
from .profile import DeviceProfile
from .token import NO_DIFF_SUPPORT, DeviceToken
from .verifier import Verifier

__all__ = [
    "AgentState",
    "FeedStatus",
    "AgentStats",
    "UpdateAgent",
    "inspect_slot",
]


class AgentState(enum.Enum):
    """The FSM states of Fig. 4."""

    WAITING = "waiting"
    START_UPDATE = "start_update"
    RECEIVE_MANIFEST = "receive_manifest"
    VERIFY_MANIFEST = "verify_manifest"
    RECEIVE_FIRMWARE = "receive_firmware"
    VERIFY_FIRMWARE = "verify_firmware"
    READY_TO_REBOOT = "ready_to_reboot"
    CLEANING = "cleaning"


class FeedStatus(enum.Enum):
    """What a ``feed`` call achieved (the transport acts on this)."""

    NEED_MORE = "need_more"
    MANIFEST_VERIFIED = "manifest_verified"
    FIRMWARE_COMPLETE = "firmware_complete"


@dataclass
class AgentStats:
    """Byte and event counters, consumed by the evaluation harness."""

    tokens_issued: int = 0
    manifest_bytes: int = 0
    payload_bytes: int = 0
    updates_completed: int = 0
    updates_rejected: int = 0
    rejected_before_download: int = 0
    rejected_after_download: int = 0
    # Interrupted-transfer observability (bumped by the transports, which
    # own the link, but surfaced here so one counter object tells the
    # whole per-device story).
    transfers_interrupted: int = 0
    transfers_resumed: int = 0
    updates_abandoned: int = 0


def inspect_slot(slot: Slot) -> Optional[SignedManifest]:
    """Parse the envelope at a slot's head; None when unparseable."""
    try:
        return SignedManifest.unpack(slot.read(0, ENVELOPE_SIZE))
    except (UpdateError, ValueError):
        return None


class _NonceSource:
    """Deterministic per-device nonce stream (devices lack good entropy;
    RFC 6979-style derivation keeps runs reproducible)."""

    def __init__(self, profile: DeviceProfile) -> None:
        self._seed = profile.device_id.to_bytes(4, "big")
        self._counter = 0

    def __call__(self) -> int:
        self._counter += 1
        raw = hmac_sha256(b"upkit-nonce" + self._seed,
                          self._counter.to_bytes(8, "big"))
        nonce = int.from_bytes(raw[:4], "big")
        return nonce or 1  # nonce 0 is reserved for factory images


def _default_nonce_source(profile: DeviceProfile) -> Callable[[], int]:
    return _NonceSource(profile)


class UpdateAgent:
    """Device-side update orchestration over a memory layout."""

    def __init__(
        self,
        profile: DeviceProfile,
        layout: MemoryLayout,
        anchors: TrustAnchors,
        backend: CryptoBackend,
        nonce_source: Optional[Callable[[], int]] = None,
        cipher: Optional[StreamCipher] = None,
        pipeline_buffer_size: int = 4096,
        events: Optional[EventLog] = None,
    ) -> None:
        self.profile = profile
        self.layout = layout
        self.verifier = Verifier(anchors, backend)
        self.backend = backend
        self.cipher = cipher
        self.pipeline_buffer_size = pipeline_buffer_size
        self.stats = AgentStats()
        self.events = events if events is not None else EventLog()
        #: Optional :class:`~repro.obs.MetricsRegistry`; the simulated
        #: device points this at its own registry so pipeline stage
        #: volumes surface as ``pipeline.*`` counters.
        self.metrics = None
        #: The device's :class:`~repro.obs.Tracer` (disabled null tracer
        #: by default); the simulated device points this at its own.
        self.tracer = NULL_TRACER
        self.state = AgentState.WAITING
        self._nonce_source = nonce_source or _default_nonce_source(profile)
        self._token: Optional[DeviceToken] = None
        self._target_slot: Optional[Slot] = None
        self._manifest_buf = bytearray()
        self._pending_manifest: Optional[Manifest] = None
        self._pipeline: Optional[Pipeline] = None
        self._slot_file = None
        self._payload_received = 0
        self._booted_slot: Optional[Slot] = None
        self._booted_version = 0

    # -- slot bookkeeping ---------------------------------------------------

    def note_boot(self, slot: Slot, envelope: SignedManifest) -> None:
        """Record the bootloader's *verified* choice of running image.

        Without this the agent can only guess the running slot from slot
        headers — and a half-written download (power loss mid-transfer)
        leaves a parseable envelope with a *newer* version in the other
        slot, making the guess wrong in both directions: the device
        reports a version it never verified (so a pull transport skips
        the re-download forever), and :meth:`target_slot` aims the next
        download at the only valid image.  The bootloader's full
        re-verification is the one trustworthy source; the simulated
        device calls this after every boot.
        """
        self._booted_slot = slot
        self._booted_version = envelope.manifest.version

    def running_slot(self) -> Optional[Slot]:
        """The slot holding the currently executing firmware."""
        if self._booted_slot is not None:
            return self._booted_slot
        best: Optional[Slot] = None
        best_version = -1
        candidates = (self.layout.bootable_slots if self.layout.is_ab
                      else [self.layout.bootable_slots[0]])
        for slot in candidates:
            envelope = inspect_slot(slot)
            if envelope and envelope.manifest.version > best_version:
                best = slot
                best_version = envelope.manifest.version
        return best

    def installed_version(self) -> int:
        if self._booted_slot is not None:
            return self._booted_version
        slot = self.running_slot()
        if slot is None:
            return 0
        envelope = inspect_slot(slot)
        return envelope.manifest.version if envelope else 0

    def target_slot(self) -> Slot:
        """Where the next image is staged: the oldest (or empty) slot."""
        if self.layout.is_ab:
            running = self.running_slot()
            for slot in self.layout.bootable_slots:
                if slot is not running:
                    return slot
            return self.layout.bootable_slots[0]
        staging = self.layout.staging_slot
        if staging is None:
            raise StateError("static layout has no staging slot")
        return staging

    # -- token issuance (Waiting → Start update → Receive manifest) ----------

    def request_token(self) -> DeviceToken:
        """Issue a device token (steps 4–5 of Fig. 2) and arm the FSM."""
        if self.state is not AgentState.WAITING:
            raise StateError(
                "token requested in state %s" % self.state.value)
        current = (self.installed_version()
                   if self.profile.supports_differential
                   else NO_DIFF_SUPPORT)
        token = DeviceToken(
            device_id=self.profile.device_id,
            nonce=self._nonce_source(),
            current_version=current,
        )
        self._token = token
        self.stats.tokens_issued += 1

        self.state = AgentState.START_UPDATE
        self._target_slot = self.target_slot()
        self._slot_file = self._target_slot.open(OpenMode.WRITE_ALL)
        self._manifest_buf.clear()
        self._payload_received = 0
        self.state = AgentState.RECEIVE_MANIFEST
        self.events.emit("agent", EventKind.TOKEN_ISSUED,
                         nonce=token.nonce,
                         current_version=token.current_version)
        return token

    # -- data path -------------------------------------------------------------

    def feed(self, data: bytes) -> FeedStatus:
        """Handle bytes from the push or pull transport."""
        try:
            return self._feed(data)
        except UpdateError as exc:
            self.events.emit("agent", EventKind.UPDATE_REJECTED,
                             reason=type(exc).__name__,
                             after_payload_bytes=self._payload_received)
            self._clean()
            raise

    def _feed(self, data: bytes) -> FeedStatus:
        if self.state is AgentState.RECEIVE_MANIFEST:
            self._manifest_buf.extend(data)
            self.stats.manifest_bytes += len(data)
            if len(self._manifest_buf) < ENVELOPE_SIZE:
                return FeedStatus.NEED_MORE
            envelope_bytes = bytes(self._manifest_buf[:ENVELOPE_SIZE])
            extra = bytes(self._manifest_buf[ENVELOPE_SIZE:])
            self._manifest_buf.clear()
            self._verify_manifest(envelope_bytes)
            if extra:
                return self._feed(extra)
            return FeedStatus.MANIFEST_VERIFIED

        if self.state is AgentState.RECEIVE_FIRMWARE:
            return self._receive_firmware(data)

        raise StateError(
            "received %d bytes in state %s" % (len(data), self.state.value))

    def _verify_manifest(self, envelope_bytes: bytes) -> None:
        """State VERIFY_MANIFEST: the agent-side early verification."""
        self.state = AgentState.VERIFY_MANIFEST
        with self.tracer.span("verify.manifest", category="verification"):
            envelope = SignedManifest.unpack(envelope_bytes)
            assert self._token is not None \
                and self._target_slot is not None
            capacity = self._target_slot.size - ENVELOPE_SIZE
            self.verifier.validate_for_agent(
                envelope,
                profile=self.profile,
                token=self._token,
                installed_version=self.installed_version(),
                slot_capacity=capacity,
            )
        manifest = envelope.manifest

        old_reader = None
        old_size = 0
        if manifest.is_delta:
            running = self.running_slot()
            if running is None:
                raise ManifestFormatError(
                    "differential update but no installed firmware")
            installed = inspect_slot(running)
            assert installed is not None
            old_size = installed.manifest.size

            def old_reader(offset: int, length: int,
                           _slot: Slot = running) -> bytes:
                return _slot.read(ENVELOPE_SIZE + offset, length)

        # Persist the envelope at the slot head, then stream the payload
        # right behind it.
        self._slot_file.seek(0)
        self._slot_file.write(envelope_bytes)
        self._pending_manifest = manifest
        cipher = None
        if self.cipher is not None:
            # Mirror the server's per-request keystream derivation.
            cipher = self.cipher.derive(self._token.pack())
        self._pipeline = build_pipeline(
            manifest,
            sink=self._slot_file.write,
            old_reader=old_reader,
            old_size=old_size,
            cipher=cipher,
            buffer_size=self.pipeline_buffer_size,
        )
        self._pipeline.tracer = self.tracer
        self.state = AgentState.RECEIVE_FIRMWARE
        self.events.emit("agent", EventKind.MANIFEST_VERIFIED,
                         version=manifest.version,
                         delta=manifest.is_delta,
                         payload_size=manifest.payload_size)

    def _receive_firmware(self, data: bytes) -> FeedStatus:
        assert self._pending_manifest is not None and self._pipeline is not None
        manifest = self._pending_manifest
        if self._payload_received + len(data) > manifest.payload_size:
            raise SizeExceeded(
                "payload exceeded declared size of %d bytes"
                % manifest.payload_size)
        self._payload_received += len(data)
        self._pipeline.feed(data)
        if self._payload_received < manifest.payload_size:
            return FeedStatus.NEED_MORE
        with self.tracer.span("pipeline.finish", category="pipeline"):
            self._pipeline.finish()
        self._flush_pipeline_metrics()
        written = self._pipeline.bytes_out
        self.stats.payload_bytes += self._payload_received
        if written != manifest.size:
            raise SizeExceeded(
                "pipeline produced %d bytes, manifest declares %d"
                % (written, manifest.size))
        self._verify_firmware()
        return FeedStatus.FIRMWARE_COMPLETE

    def _verify_firmware(self) -> None:
        """State VERIFY_FIRMWARE: digest what actually landed in flash."""
        self.state = AgentState.VERIFY_FIRMWARE
        manifest = self._pending_manifest
        slot = self._target_slot
        assert manifest is not None and slot is not None
        with self.tracer.span("verify.firmware", category="verification",
                              version=manifest.version,
                              nbytes=manifest.size):
            self.verifier.verify_firmware(
                manifest,
                lambda offset, length: slot.read(ENVELOPE_SIZE + offset,
                                                 length),
            )
        self._slot_file.close()
        self.events.emit("agent", EventKind.FIRMWARE_VERIFIED,
                         version=manifest.version, size=manifest.size)
        self.state = AgentState.READY_TO_REBOOT
        self.events.emit("agent", EventKind.READY_TO_REBOOT,
                         version=manifest.version)
        self.stats.updates_completed += 1

    def _flush_pipeline_metrics(self) -> None:
        """Roll the pipeline's per-stage byte counts into the registry.

        Called once per pipeline (at finish and at clean), not per
        chunk, so the hot feed path takes no registry locks.
        """
        if self.metrics is None or self._pipeline is None \
                or self._pipeline.metrics_flushed:
            return
        self._pipeline.metrics_flushed = True
        for name, (bytes_in, bytes_out) in \
                self._pipeline.stage_bytes.items():
            self.metrics.counter(
                "pipeline.%s.bytes_in" % name).inc(bytes_in)
            self.metrics.counter(
                "pipeline.%s.bytes_out" % name).inc(bytes_out)
        self.metrics.counter("pipeline.bytes_written").inc(
            self._pipeline.bytes_out)

    # -- cleaning / cancellation -------------------------------------------------

    def cancel(self) -> None:
        """Abort an in-flight update (e.g. transport gave up)."""
        if self.state not in (AgentState.WAITING, AgentState.READY_TO_REBOOT):
            self._clean()

    def power_cycle(self) -> None:
        """Model an abrupt reboot: every in-RAM FSM variable is lost.

        Unlike :meth:`cancel` this performs *no* cleaning — a crashed
        device never gets to invalidate its slot.  Whatever half-written
        image sits in flash is left for the bootloader's re-verification
        to reject (the stale-verdict scenario of Sect. IV the second
        signature check exists for).
        """
        if self._slot_file is not None:
            self._slot_file.close()
        self._token = None
        self._target_slot = None
        self._pending_manifest = None
        self._pipeline = None
        self._slot_file = None
        self._manifest_buf.clear()
        self._payload_received = 0
        self.state = AgentState.WAITING

    def _clean(self) -> None:
        """State CLEANING: invalidate the slot, reset all FSM variables."""
        self.state = AgentState.CLEANING
        self._flush_pipeline_metrics()
        self.stats.updates_rejected += 1
        if self._payload_received == 0:
            self.stats.rejected_before_download += 1
        else:
            self.stats.rejected_after_download += 1
        if self._target_slot is not None:
            self._target_slot.invalidate()
            self.events.emit("agent", EventKind.SLOT_CLEANED,
                             slot=self._target_slot.name)
        if self._slot_file is not None:
            self._slot_file.close()
        self._token = None
        self._target_slot = None
        self._pending_manifest = None
        self._pipeline = None
        self._slot_file = None
        self._manifest_buf.clear()
        self._payload_received = 0
        self.state = AgentState.WAITING

    # -- post-update --------------------------------------------------------------

    @property
    def staged_slot(self) -> Optional[Slot]:
        """The slot the in-flight (or just-completed) update is written to."""
        return self._target_slot

    @property
    def ready_to_reboot(self) -> bool:
        return self.state is AgentState.READY_TO_REBOOT

    def acknowledge_reboot(self) -> None:
        """Reset the FSM after the device reboots into the bootloader."""
        if self.state is not AgentState.READY_TO_REBOOT:
            raise StateError("no completed update to reboot into")
        self.state = AgentState.WAITING
        self._token = None
        self._target_slot = None
        self._pending_manifest = None
        self._pipeline = None
        self._slot_file = None
        self._payload_received = 0
