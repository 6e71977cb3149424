"""Push and pull update transports (the propagation phase).

UpKit is agnostic to how images are distributed (Sect. IV-B): the same
agent FSM sits behind a **push** front-end (a smartphone forwards the
image over BLE GATT, Fig. 2) or a **pull** front-end (the device
fetches it over CoAP through a border router).  Both transports here
drive a :class:`repro.sim.SimulatedDevice`, metering radio time onto
its clock, and return a structured outcome with the phase breakdown of
Fig. 8a.

An optional *interceptor* models an on-path adversary or a compromised
proxy: it may rewrite the envelope/payload in transit.  UpKit's claim
is that such a proxy can only cause a (detected) failure, never a
successful installation of tampered or stale software.

**Resumable transfers.**  Real deployments lose links mid-transfer
(ASSURED's "reliability under partial failure").  When the link raises
:class:`~repro.net.link.LinkDownError` and a
:class:`TransportRetryPolicy` is set, the transport backs off
(exponential + deterministic jitter, metered as virtual ``backoff``
time) and **re-requests from the last verified offset** — the agent FSM
is *not* reset, so every byte it already verified stays verified.  Only
when the retry budget is exhausted (or no policy is set) does the
transport abandon: the FSM is cleaned and the attempt reported failed.
Server unavailability windows (:class:`~repro.core.ServerUnavailable`)
retry the same way at attempt granularity.  Every interruption, resume
and abandonment is emitted into the agent's event log and counted in
``AgentStats`` — interrupted-transfer behaviour is observable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..core import (
    EventKind,
    FeedStatus,
    ServerUnavailable,
    TransferAbandoned,
    UpdateError,
    UpdateImage,
    UpdateServer,
)
from ..obs import NULL_SPAN, NULL_TRACER, UPDATE_LATENCY_BUCKETS
from ..sim.device import SimulatedDevice
from .link import BLE_GATT, COAP_6LOWPAN, Link, LinkDownError, LinkProfile

__all__ = ["UpdateOutcome", "Interceptor", "TransportRetryPolicy",
           "PushTransport", "PullTransport"]

#: (envelope_bytes, payload_bytes) -> possibly rewritten pair.
Interceptor = Callable[[bytes, bytes], Tuple[bytes, bytes]]

_REQUEST_PACKETS = 2  # request/response exchange for control messages


@dataclass(frozen=True)
class TransportRetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    ``max_attempts`` bounds the *total* interruptions (link-down events
    plus server-unavailable responses) one :meth:`run_update` call will
    tolerate: the Nth interruption with ``N == max_attempts`` abandons
    the update.  Backoff delays are virtual (metered onto the device
    clock under the ``backoff`` label) and jittered from a
    ``random.Random(seed)`` owned by the transport, so identical runs
    produce identical timelines.
    """

    max_attempts: int = 4
    backoff_initial: float = 1.0
    backoff_factor: float = 2.0
    backoff_max: float = 60.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_initial < 0 or self.backoff_max < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not (0.0 <= self.jitter < 1.0):
            raise ValueError("jitter must be in [0, 1)")

    def delay(self, failure_index: int, rng: random.Random) -> float:
        """Backoff before retry number ``failure_index`` (1-based)."""
        base = min(self.backoff_max,
                   self.backoff_initial
                   * self.backoff_factor ** (failure_index - 1))
        if self.jitter:
            base *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return base


@dataclass
class UpdateOutcome:
    """What one update attempt produced."""

    success: bool
    error: Optional[UpdateError]
    phases: Dict[str, float] = field(default_factory=dict)
    total_seconds: float = 0.0
    energy_mj: Dict[str, float] = field(default_factory=dict)
    bytes_over_air: int = 0
    booted_version: int = 0
    rebooted: bool = False
    #: Link-down / server-outage events survived (resumed) on the way.
    interruptions: int = 0

    @property
    def total_energy_mj(self) -> float:
        return sum(self.energy_mj.values())


class _TransportBase:
    """Common drive logic for both approaches."""

    direction_payload = "rx"  # the device receives the image

    def __init__(self, device: SimulatedDevice, server: UpdateServer,
                 link: Link, interceptor: Optional[Interceptor] = None,
                 reboot_on_success: bool = True,
                 retry: Optional[TransportRetryPolicy] = None) -> None:
        self.device = device
        self.server = server
        self.link = link
        self.interceptor = interceptor
        self.reboot_on_success = reboot_on_success
        self.retry = retry
        self.bytes_over_air = 0
        self._failures = 0
        self._rng = random.Random(retry.seed if retry else 0)
        # Observability: trace into the device's tracer (a disabled
        # null tracer when the device predates the obs wiring) and
        # count into its metrics registry.
        self.tracer = getattr(device, "tracer", None) or NULL_TRACER
        self.metrics = getattr(device, "metrics", None)

    # -- interruption handling ---------------------------------------------------

    def _on_interruption(self, reason: str, exc: Exception) -> None:
        """Count one interruption; back off, or abandon when out of budget.

        Raises :class:`TransferAbandoned` when the retry budget is
        exhausted (or no policy is set) — otherwise returns after the
        backoff delay was metered, and the caller retries from wherever
        it stopped.
        """
        agent = self.device.agent
        self._failures += 1
        agent.stats.transfers_interrupted += 1
        if self.metrics is not None:
            self.metrics.counter("transport.interruptions").inc()
        agent.events.emit("transport", EventKind.TRANSFER_INTERRUPTED,
                          reason=reason, failures=self._failures,
                          at_byte=self.link.total_bytes)
        if self.retry is None or self._failures >= self.retry.max_attempts:
            agent.stats.updates_abandoned += 1
            if self.metrics is not None:
                self.metrics.counter("transport.abandons").inc()
            agent.events.emit("transport", EventKind.UPDATE_ABANDONED,
                              reason=reason, failures=self._failures)
            raise TransferAbandoned(
                "update abandoned after %d interruption(s): %s"
                % (self._failures, exc)) from exc
        delay = self.retry.delay(self._failures, self._rng)
        with self.tracer.span("backoff", category="transport",
                              reason=reason,
                              delay_seconds=round(delay, 6)):
            self.device.clock.advance(delay, "backoff")
        agent.stats.transfers_resumed += 1
        if self.metrics is not None:
            self.metrics.counter("transport.resumes").inc()
        agent.events.emit("transport", EventKind.TRANSFER_RESUMED,
                          reason=reason, backoff_seconds=delay,
                          resume_offset=self.link.total_bytes)

    def _transfer(self, nbytes: int):
        """One link transfer, transparently resumed across outages."""
        while True:
            try:
                return self.link.transfer(nbytes)
            except LinkDownError as exc:
                self._on_interruption("link_down", exc)

    # -- helpers -----------------------------------------------------------------

    def _control_exchange(self, payload_bytes: int) -> None:
        """A small request/response on the device link (token, announce)."""
        report = self._transfer(payload_bytes)
        extra = (_REQUEST_PACKETS - 1) * self.link.profile.packet_interval
        self.device.account_radio(report.seconds / 2 + extra, "tx")
        self.device.account_radio(report.seconds / 2, "rx")
        self.bytes_over_air += payload_bytes

    def _stream_to_device(self, data: bytes,
                          label: str = "payload") -> FeedStatus:
        """Send ``data`` chunk-by-chunk; agent errors propagate.

        A link outage mid-stream is resumed from the last verified
        offset: the failed chunk is simply re-requested after backoff —
        the agent FSM keeps its state, nothing already fed is re-sent.
        """
        status = FeedStatus.NEED_MORE
        mtu = self.link.profile.mtu
        tracer = self.tracer
        traced = tracer.enabled
        device = self.device
        direction = self.direction_payload
        with tracer.span("transfer.%s" % label,
                         category="propagation", nbytes=len(data)):
            for offset in range(0, len(data), mtu):
                chunk = data[offset:offset + mtu]
                nbytes = len(chunk)
                with (tracer.span("block", category="transfer",
                                  offset=offset, nbytes=nbytes)
                      if traced else NULL_SPAN):
                    report = self._transfer(nbytes)
                    device.account_radio(report.seconds, direction)
                    self.bytes_over_air += nbytes
                    status = device.feed(chunk)
        return status

    def _finish(self, start_clock: float, error: Optional[UpdateError],
                completed: bool) -> UpdateOutcome:
        device = self.device
        success = completed and error is None
        rebooted = False
        booted_version = device.installed_version()
        if success and self.reboot_on_success:
            result = device.reboot()
            booted_version = result.version
            rebooted = True
        phases = device.phase_breakdown()
        return UpdateOutcome(
            success=success,
            error=error,
            phases=phases,
            total_seconds=device.clock.now - start_clock,
            energy_mj=device.meter.breakdown_mj(),
            bytes_over_air=self.bytes_over_air,
            booted_version=booted_version,
            rebooted=rebooted,
        )

    def _apply_interceptor(self, image: UpdateImage) -> Tuple[bytes, bytes]:
        envelope = image.envelope.pack()
        payload = image.payload
        if self.interceptor is not None:
            envelope, payload = self.interceptor(envelope, payload)
        return envelope, payload

    def run_update(self) -> UpdateOutcome:
        """Execute the full propagation (+ verification + loading) flow."""
        start = self.device.clock.now
        self.bytes_over_air = 0
        self._failures = 0
        error: Optional[UpdateError] = None
        completed = False
        with self.tracer.span("update", category="lifecycle",
                              transport=type(self).__name__,
                              link=self.link.profile.name):
            while True:
                try:
                    completed = self._propagate()
                except ServerUnavailable as exc:
                    # A server outage invalidates the whole attempt (the
                    # token was consumed): clean the FSM, back off, and
                    # retry with a fresh token — or abandon out of
                    # budget.
                    self.device.agent.cancel()
                    try:
                        self._on_interruption("server_unavailable", exc)
                    except TransferAbandoned as abandoned:
                        error = abandoned
                        break
                    continue
                except UpdateError as exc:
                    error = exc
                    # The failure may have struck between token issuance
                    # and the manifest (e.g. a dropping gateway): reset
                    # the FSM so the next attempt can request a fresh
                    # token.
                    self.device.agent.cancel()
                break
            outcome = self._finish(start, error, completed)
        outcome.interruptions = self._failures
        if self.metrics is not None:
            self.metrics.histogram("update.latency_seconds",
                                   UPDATE_LATENCY_BUCKETS).observe(
                outcome.total_seconds)
            self.metrics.counter("net.bytes_over_air").inc(
                self.bytes_over_air)
            self.metrics.counter(
                "transport.updates_succeeded" if outcome.success
                else "transport.updates_failed").inc()
        return outcome

    def _propagate(self) -> bool:
        """Run the transfer; True only when the agent accepted everything."""
        raise NotImplementedError


class PushTransport(_TransportBase):
    """Smartphone-forwarded update over BLE GATT (Fig. 2's flow).

    The phone is a *passive* component: it fetches the image from the
    update server over the Internet (modeled as free — the phone is not
    the constrained party) and forwards bytes over BLE.
    """

    def __init__(self, device: SimulatedDevice, server: UpdateServer,
                 link: Optional[Link] = None,
                 interceptor: Optional[Interceptor] = None,
                 reboot_on_success: bool = True,
                 link_profile: LinkProfile = BLE_GATT,
                 retry: Optional[TransportRetryPolicy] = None) -> None:
        super().__init__(device, server,
                         link or Link(link_profile),
                         interceptor, reboot_on_success, retry)

    def _propagate(self) -> bool:
        # Steps 4-5: the phone requests the device token over BLE.
        with self.tracer.span("token_exchange", category="propagation"):
            token = self.device.request_token()
            self._control_exchange(len(token.pack()))

        # Step 6: the phone fetches the signed image from the server.
        with self.tracer.span("server.prepare", category="server",
                              nonce=token.nonce):
            image = self.server.prepare_update(token)
        envelope, payload = self._apply_interceptor(image)

        # Steps 8-10: forward the manifest first; early verification.
        status = self._stream_to_device(envelope, label="envelope")
        if status is not FeedStatus.MANIFEST_VERIFIED:
            # Short write (e.g. truncating attacker): the agent is still
            # waiting; cancel so the FSM cleans up.
            self.device.agent.cancel()
            return False

        # Steps 11-14: firmware transfer through the pipeline.
        status = self._stream_to_device(payload, label="payload")
        if status is not FeedStatus.FIRMWARE_COMPLETE:
            self.device.agent.cancel()
            return False
        return True


class PullTransport(_TransportBase):
    """Device-initiated update over CoAP/6LoWPAN through a border router.

    The device polls the server for announcements, generates its token
    locally and requests the image directly — no proxy exists, but the
    interceptor hook still allows modeling a compromised border router.
    """

    def __init__(self, device: SimulatedDevice, server: UpdateServer,
                 link: Optional[Link] = None,
                 interceptor: Optional[Interceptor] = None,
                 reboot_on_success: bool = True,
                 link_profile: LinkProfile = COAP_6LOWPAN,
                 retry: Optional[TransportRetryPolicy] = None) -> None:
        super().__init__(device, server,
                         link or Link(link_profile),
                         interceptor, reboot_on_success, retry)

    def poll_announcement(self) -> int:
        """CoAP GET of the server's announcement resource."""
        announcement = self.server.announce()
        self._control_exchange(16)
        return announcement["latest_version"]

    def _propagate(self) -> bool:
        with self.tracer.span("announce", category="propagation"):
            latest = self.poll_announcement()
        if latest <= self.device.installed_version():
            return False

        with self.tracer.span("token_exchange", category="propagation"):
            token = self.device.request_token()
            # The token rides in the CoAP request to the server.
            self._control_exchange(len(token.pack()))

        with self.tracer.span("server.prepare", category="server",
                              nonce=token.nonce):
            image = self.server.prepare_update(token)
        envelope, payload = self._apply_interceptor(image)

        status = self._stream_to_device(envelope, label="envelope")
        if status is not FeedStatus.MANIFEST_VERIFIED:
            self.device.agent.cancel()
            return False
        status = self._stream_to_device(payload, label="payload")
        if status is not FeedStatus.FIRMWARE_COMPLETE:
            self.device.agent.cancel()
            return False
        return True
