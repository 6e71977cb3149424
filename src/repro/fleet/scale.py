"""Fleet-scale campaigns: event-driven rollout over columnar state.

The hydrated :class:`~repro.fleet.campaign.Campaign` materialises one
:class:`~repro.sim.SimulatedDevice` per fleet member — flash pages,
agent, bootloader and telemetry for every device, tens of GB for a
million of them.  This module runs the *same* rollout (same policies,
same per-attempt driver, same verdict sequence) with three structural
changes:

* **Columnar membership** — the fleet is a
  :class:`~repro.fleet.columnar.ColumnarFleet`: one numpy row per
  device, ~100 bytes.  Devices hydrate only while actively updating.
* **Lazy materialisation by cohort** — devices identical except for
  identity share a cohort; one hydrated *representative* per cohort
  per wave runs the real protocol, and its outcome is replicated
  across the cohort's rows (sound because every modeled cost is a
  deterministic function of configuration + bytes, and the bytes are
  identity-independent: fixed-width manifests, deterministic RFC 6979
  signatures, shared payload).  Unique devices (links, interceptors)
  always hydrate individually.
* **Discrete events** — wave admission, per-attempt retry/backoff
  timers, and wave close-out are events on an
  :class:`~repro.fleet.scheduler.EventScheduler`; SLO and health
  evaluation run over columnar aggregates
  (:meth:`~repro.obs.slo.FleetTelemetry.close_wave_arrays`).

The crypto hot path is batched: the vendor signature over the
release's canonical manifest is verified once per wave admission —
under the fast engine only the first pays the scalar math, the rest
hit the engine's ``(pubkey, r, s, digest)`` signature LRU — and
"which rows now run the target image" is one vectorised slot-digest
comparison instead of a per-device hash-and-compare.

**Parity contract** (enforced by ``tests/test_fleet_columnar.py``):
for any fleet whose devices the hydrated campaign could also run, the
:class:`ScaleReport` converts via :meth:`ScaleReport.to_campaign_report`
into a :class:`~repro.fleet.campaign.CampaignReport` that is
byte-identical to the hydrated path's, and per-device entries match
bit-for-bit.  Float aggregates therefore accumulate exactly as the
hydrated merge does: energy sums serially in wave order (never
``np.sum``, which pairs differently), durations take order-independent
maxima, and integer sums vectorise freely.

The one timeline subtlety: the hydrated campaign's
``wall_clock_seconds`` is the sum of per-wave maxima of the *final*
attempt's duration — backoff waits between attempts happen on each
device's own clock and are not part of the wave duration.  The event
scheduler runs the honest timeline (attempt + backoff + attempt), so a
wave's last retry can finish *after* ``admit + wave_duration``; the
close event is scheduled at ``max(now, admit + wave_duration)`` and
the report's wall clock uses the hydrated formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

try:  # pragma: no cover - exercised by the no-numpy fallback path
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

from ..core import UpdateServer
from ..crypto.ecdsa import Signature
from ..crypto.engine import get_engine
from ..faults.domains import DomainPlan
from ..net.link import BLE_GATT, COAP_6LOWPAN
from ..obs.health import WaveArrays
from ..obs.slo import Action, FleetTelemetry
from .campaign import (
    CampaignReport,
    DeviceRecord,
    DeviceState,
    RetryPolicy,
    RolloutPolicy,
    drive_attempt,
    finalize_failed,
    post_mortem_phases,
)
from .columnar import (
    CODE_STATES,
    ColumnarFleet,
    DeviceSpec,
    PHASE_ACTIVE,
    PHASE_DONE,
    STATE_CODES,
)
from .executor import SerialWaveExecutor, WaveExecutor
from .scheduler import Event, EventScheduler

__all__ = ["ScaleCampaign", "ScaleReport", "Hydrator"]

#: Builds one fully provisioned, baseline-version DeviceRecord from a
#: spec.  Must be deterministic, and must provision against a server
#: state where the *baseline* is the latest release (hydrating after
#: the target is published would factory-install the target).
Hydrator = Callable[[DeviceSpec], DeviceRecord]

_ADMIT = "admit-wave"
_ATTEMPT = "attempt"
_CLOSE = "close-wave"

_FAILED = STATE_CODES[DeviceState.FAILED]
_QUARANTINED = STATE_CODES[DeviceState.QUARANTINED]
_UPDATED = STATE_CODES[DeviceState.UPDATED]


@dataclass
class _CohortTask:
    """One hydrated representative working a wave on behalf of its
    cohort (for a unique device, a cohort of one)."""

    cohort: int
    representative: int            # global row index
    members: "object"              # global row indices, wave order
    record: DeviceRecord
    #: Virtual seconds since wave admission, summed across attempts
    #: and backoffs — the representative's own honest timeline.
    elapsed: float = 0.0
    done: bool = False


@dataclass
class _WaveState:
    index: int
    indices: "object"              # global row indices, wave order
    admit_time: float
    tasks: List[_CohortTask] = field(default_factory=list)
    open_tasks: int = 0


@dataclass
class ScaleReport:
    """Aggregate outcome of one columnar campaign.

    Holds counts, per-wave row-index arrays, and scalars — never
    per-device name lists (a million strings would defeat the columnar
    store).  Per-device detail is materialised on demand:
    :meth:`device_entry` for one row, :meth:`to_campaign_report` for a
    full hydrated-shape report (small fleets / parity tests).
    """

    target_version: int
    fleet: ColumnarFleet
    aborted: bool = False
    paused: bool = False
    #: Global row indices per executed wave, in wave order.
    wave_indices: List["object"] = field(default_factory=list)
    #: Per wave: global row indices the telemetry verdict re-filed
    #: from failed to quarantined, in verdict order.
    wave_requarantined: List[List[int]] = field(default_factory=list)
    slo_breaches: List[Dict[str, object]] = field(default_factory=list)
    retries: int = 0
    link_interruptions: int = 0
    total_bytes_over_air: int = 0
    total_energy_mj: float = 0.0
    wall_clock_seconds: float = 0.0
    #: Rows left pending by a PAUSE / skipped by an abort (fleet order).
    skipped_indices: "object" = None
    pending_indices: "object" = None
    #: How many devices were actually hydrated (the headline: stays at
    #: cohorts-per-wave, not fleet size).
    hydrations: int = 0
    events_processed: int = 0

    # -- counts ---------------------------------------------------------------

    def count(self, state: DeviceState) -> int:
        return self.fleet.count_state(state)

    @property
    def success_rate(self) -> float:
        done = (self.count(DeviceState.UPDATED)
                + self.count(DeviceState.FAILED)
                + self.count(DeviceState.QUARANTINED))
        return self.count(DeviceState.UPDATED) / done if done else 0.0

    # -- per-device materialisation ------------------------------------------

    def device_entry(self, index: int) -> Dict[str, object]:
        """One row's report entry, bit-identical to the hydrated
        path's :meth:`record_entry` for the same device."""
        row = self.fleet.rows[index]
        return {
            "name": self.fleet.name(index),
            "state": CODE_STATES[int(row["state"])].value,
            "attempts": int(row["attempts"]),
            "interruptions": int(row["interruptions"]),
            "installed_version": int(row["version"]),
            "update_seconds": float(row["update_seconds"]),
            "bytes_over_air": int(row["bytes_over_air"]),
            "energy_mj": float(row["energy_mj"]),
        }

    @staticmethod
    def record_entry(record: DeviceRecord) -> Dict[str, object]:
        """The same entry shape, read from a hydrated record (what the
        parity tests compare :meth:`device_entry` against)."""
        outcome = record.last_outcome
        return {
            "name": record.name,
            "state": record.state.value,
            "attempts": record.attempts,
            "interruptions": record.interruptions,
            "installed_version": record.device.installed_version(),
            "update_seconds": (outcome.total_seconds if outcome else 0.0),
            "bytes_over_air": (outcome.bytes_over_air if outcome else 0),
            "energy_mj": (outcome.total_energy_mj if outcome else 0.0),
        }

    def to_campaign_report(self) -> CampaignReport:
        """Materialise the hydrated-shape :class:`CampaignReport`.

        Reconstructs every name list in the exact order the hydrated
        campaign builds them: per-wave merge order for updated /
        failed / quarantined (with verdict re-filings appended after
        the wave's retry-quarantines, as ``_close_wave`` does), fleet
        order for skipped / pending.  Small fleets only — this builds
        one name string per device.
        """
        report = CampaignReport(target_version=self.target_version,
                                aborted=self.aborted, paused=self.paused)
        states = self.fleet.rows["state"]
        for wave_number, indices in enumerate(self.wave_indices):
            requarantined = (self.wave_requarantined[wave_number]
                             if wave_number < len(self.wave_requarantined)
                             else [])
            requar_set = set(requarantined)
            report.waves.append([self.fleet.name(int(i)) for i in indices])
            for i in indices:
                i = int(i)
                code = int(states[i])
                if code == _UPDATED:
                    report.updated.append(self.fleet.name(i))
                elif code == _QUARANTINED and i not in requar_set:
                    report.quarantined.append(self.fleet.name(i))
                elif code == _FAILED:
                    report.failed.append(self.fleet.name(i))
            report.quarantined.extend(self.fleet.name(i)
                                      for i in requarantined)
        if self.skipped_indices is not None:
            report.skipped = [self.fleet.name(int(i))
                              for i in self.skipped_indices]
        if self.pending_indices is not None:
            report.pending = [self.fleet.name(int(i))
                              for i in self.pending_indices]
        report.slo_breaches = list(self.slo_breaches)
        report.retries = self.retries
        report.link_interruptions = self.link_interruptions
        report.total_bytes_over_air = self.total_bytes_over_air
        report.total_energy_mj = self.total_energy_mj
        report.wall_clock_seconds = self.wall_clock_seconds
        return report

    def summary(self) -> Dict[str, object]:
        """JSON-ready scalars (what the bench artifact embeds)."""
        return {
            "devices": self.fleet.count,
            "cohorts": self.fleet.cohort_count,
            "waves": len(self.wave_indices),
            "updated": self.count(DeviceState.UPDATED),
            "failed": self.count(DeviceState.FAILED),
            "skipped": self.count(DeviceState.SKIPPED),
            "quarantined": self.count(DeviceState.QUARANTINED),
            "pending": self.count(DeviceState.PENDING),
            "aborted": self.aborted,
            "paused": self.paused,
            "success_rate": self.success_rate,
            "retries": self.retries,
            "link_interruptions": self.link_interruptions,
            "total_bytes_over_air": self.total_bytes_over_air,
            "total_energy_mj": self.total_energy_mj,
            "wall_clock_seconds": self.wall_clock_seconds,
            "hydrations": self.hydrations,
            "events_processed": self.events_processed,
            "columnar_bytes_per_row": self.fleet.bytes_per_row,
            "columnar_bytes_total": self.fleet.nbytes(),
        }


class ScaleCampaign:
    """Runs one release across a columnar fleet under a rollout policy.

    Same knobs as :class:`~repro.fleet.campaign.Campaign` — rollout
    policy, retry policy, wave executor, metrics, telemetry — plus the
    :data:`Hydrator` that turns a :class:`DeviceSpec` into a live,
    provisioned device when its cohort needs a representative.

    ``anchors`` (optional :class:`~repro.core.keys.TrustAnchors`)
    enables the once-per-wave batched vendor-signature check through
    the fast engine's content cache.
    """

    def __init__(self, server: UpdateServer, fleet: ColumnarFleet,
                 hydrator: Hydrator,
                 policy: Optional[RolloutPolicy] = None,
                 executor: Optional[WaveExecutor] = None,
                 retry: Optional[RetryPolicy] = None,
                 metrics=None,
                 telemetry: Optional[FleetTelemetry] = None,
                 anchors=None,
                 health_scores_in_report: bool = False,
                 domain_plan: Optional[DomainPlan] = None,
                 transfer_bytes: int = 0) -> None:
        if _np is None:
            raise RuntimeError(
                "ScaleCampaign requires numpy; use the hydrated Campaign")
        self.server = server
        self.fleet = fleet
        self.hydrator = hydrator
        self.policy = policy or RolloutPolicy()
        self.retry = retry
        self.executor = executor or SerialWaveExecutor()
        self.metrics = metrics
        self.telemetry = telemetry
        self.anchors = anchors
        self.health_scores_in_report = health_scores_in_report
        #: Optional correlated-fault plan: representatives of cohorts
        #: whose spec carries a ``domain`` get that domain's shared
        #: fault link at hydration (``transfer_bytes`` scales the byte
        #: coordinates; the wave's admit time selects active events).
        #: Domain membership is part of the cohort key, so replicated
        #: members would have met the identical link — correlation and
        #: cohort soundness agree by construction.
        self.domain_plan = domain_plan
        self.transfer_bytes = transfer_bytes
        self.scheduler = EventScheduler()
        self._wave_cap: Optional[int] = None
        self._report: Optional[ScaleReport] = None
        self._planned: List["object"] = []    # remaining wave slices
        self._rest: "object" = None
        self._wave_number = 0
        self._wave: Optional[_WaveState] = None
        self._stopped = False
        self._target = 0
        self._target_digest = b""
        self._vendor_digest = b""
        self._vendor_signature: Optional[Signature] = None

    # -- public entry ---------------------------------------------------------

    def run(self) -> ScaleReport:
        """Execute the rollout for the server's latest version."""
        self._target = self.server.latest_version
        digest, canonical, vendor_sig = \
            self.server.release_content(self._target)
        self._target_digest = digest
        self._vendor_digest = get_engine().sha256(canonical)
        self._vendor_signature = Signature.decode(vendor_sig)
        report = ScaleReport(target_version=self._target, fleet=self.fleet)
        self._report = report

        # Plan once, exactly like Campaign.waves(): canary slice of the
        # initially pending rows, then the rest (re-sliced per wave so
        # a SLOW cap takes effect mid-rollout).
        pending = self.fleet.pending_indices()
        if pending.size == 0:
            raise ValueError("campaign needs at least one pending device")
        canary_count = max(
            1, int(int(pending.size) * self.policy.canary_fraction))
        self._planned = [pending[:canary_count]]
        self._rest = pending[canary_count:]
        self._wave_number = 0
        self._stopped = False
        self._wave_cap = None

        self.scheduler.at(self.scheduler.now, _ADMIT)
        self.scheduler.run(self._handle)
        report.events_processed = self.scheduler.processed

        if report.aborted:
            skipped = self.fleet.pending_indices()
            self.fleet.set_states(skipped, DeviceState.SKIPPED)
            report.skipped_indices = skipped
        elif report.paused:
            report.pending_indices = self.fleet.pending_indices()
        return report

    # -- event handlers -------------------------------------------------------

    def _handle(self, event: Event) -> None:
        if event.kind == _ADMIT:
            self._admit_wave()
        elif event.kind == _ATTEMPT:
            task: _CohortTask = event.payload
            outcome = drive_attempt(self.server, task.record, self._target,
                                    self._transport_retry())
            self._after_attempt(task, outcome)
        elif event.kind == _CLOSE:
            self._close_wave()
        else:  # pragma: no cover - defensive
            raise ValueError("unknown event kind %r" % event.kind)

    def _next_wave_slice(self) -> Optional["object"]:
        if self._planned:
            return self._planned.pop(0)
        if self._rest is None or self._rest.size == 0:
            return None
        size = int(self._rest.size) if self._wave_cap is None \
            else max(1, min(int(self._rest.size), self._wave_cap))
        wave, self._rest = self._rest[:size], self._rest[size:]
        return wave

    def _admit_wave(self) -> None:
        indices = self._next_wave_slice()
        if indices is None or indices.size == 0:
            return
        self._verify_release_batched()
        wave = _WaveState(index=self._wave_number, indices=indices,
                          admit_time=self.scheduler.now)
        self._wave_number += 1
        self._wave = wave
        self.fleet.rows["phase"][indices] = PHASE_ACTIVE
        self.fleet.rows["next_event"][indices] = wave.admit_time
        self._report.wave_indices.append(indices)

        # One task per cohort, in first-appearance (wave) order.
        cohorts = self.fleet.rows["cohort"][indices]
        unique, first = _np.unique(cohorts, return_index=True)
        for position in _np.sort(first):
            cohort = int(cohorts[position])
            members = indices[cohorts == cohort]
            representative = int(members[0])
            spec = self.fleet.spec(representative)
            record = self.hydrator(spec)
            self._report.hydrations += 1
            if self.domain_plan is not None \
                    and getattr(spec, "domain", None) is not None:
                link = self.domain_plan.link_for(
                    self.domain_plan.position_of(spec.domain),
                    max(1, self.transfer_bytes),
                    profile=(BLE_GATT if spec.transport == "push"
                             else COAP_6LOWPAN),
                    at_time=wave.admit_time)
                if link is not None:
                    record.link = link
            wave.tasks.append(_CohortTask(
                cohort=cohort, representative=representative,
                members=members, record=record))
        wave.open_tasks = len(wave.tasks)

        # First attempts fan out through the wave executor.
        server, transport_retry = self.server, self._transport_retry()

        def first_attempt(record: DeviceRecord, target: int):
            return drive_attempt(server, record, target, transport_retry)

        records = [task.record for task in wave.tasks]
        outcomes = self.executor.run_wave(first_attempt, records,
                                          self._target)
        for task, outcome in zip(wave.tasks, outcomes):
            self._after_attempt(task, outcome)

    def _after_attempt(self, task: _CohortTask, outcome) -> None:
        record = task.record
        task.elapsed += outcome.total_seconds
        budget = (self.retry.max_attempts if self.retry is not None
                  else self.policy.max_attempts)
        if record.state is DeviceState.UPDATED:
            self._finish_task(task)
        elif record.attempts < budget:
            if self.retry is not None:
                # Same clock discipline as Campaign._update_device:
                # wait out the backoff on the device's own clock, then
                # try again — here as a scheduled event on the honest
                # timeline rather than an inline loop.
                delay = self.retry.delay(record.attempts, record.name)
                record.device.clock.advance(delay, "backoff")
                task.elapsed += delay
            self.scheduler.at(self._wave.admit_time + task.elapsed,
                              _ATTEMPT, task)
        else:
            finalize_failed(record, self.retry)
            self._finish_task(task)

    def _finish_task(self, task: _CohortTask) -> None:
        task.done = True
        wave = self._wave
        wave.open_tasks -= 1
        if wave.open_tasks:
            return
        # Campaign's wave duration: max over devices of the *final*
        # attempt's duration (retry backoffs live on device clocks, not
        # the wave).  Retries may have pushed `now` past it, so close
        # at whichever is later.
        duration = max(task.record.last_outcome.total_seconds
                       for task in wave.tasks)
        self.scheduler.at(max(self.scheduler.now,
                              wave.admit_time + duration), _CLOSE)

    def _close_wave(self) -> None:
        wave, report = self._wave, self._report
        indices = wave.indices
        rows = self.fleet.rows

        # Fold representatives, replicate their outcome templates
        # across each cohort's rows (vectorised column writes).
        for task in wave.tasks:
            outcome = task.record.last_outcome
            self.fleet.fold(task.representative, task.record, outcome)
            others = task.members[task.members != task.representative]
            if others.size:
                self.fleet.replicate(others, {
                    "state": STATE_CODES[task.record.state],
                    "attempts": task.record.attempts,
                    "interruptions": task.record.interruptions,
                    "phase": PHASE_DONE,
                    "version": task.record.device.installed_version(),
                    "update_seconds": outcome.total_seconds,
                    "bytes_over_air": outcome.bytes_over_air,
                    "energy_mj": outcome.total_energy_mj,
                })
        rows["next_event"][indices] = self.scheduler.now

        # Batched digest path: stamp the target digest on every row
        # that updated, then check the whole fleet in one vectorised
        # comparison — exactly the rows that updated (ever) match.
        updated_rows = indices[rows["state"][indices] == _UPDATED]
        if updated_rows.size:
            self.fleet.stamp_digest(updated_rows, self._target_digest)
            matches = self.fleet.digest_matches(self._target_digest)
            if not bool(matches[updated_rows].all()):  # pragma: no cover
                raise AssertionError(
                    "updated rows missing the target slot digest")

        # Merge aggregates with the hydrated campaign's float
        # semantics: ints vectorise, energy accumulates serially in
        # wave order, duration is an order-independent max.
        wave_states = rows["state"][indices]
        failures = int((wave_states == _FAILED).sum())
        report.total_bytes_over_air += int(
            rows["bytes_over_air"][indices].sum(dtype=_np.uint64))
        for energy in rows["energy_mj"][indices].tolist():
            report.total_energy_mj += energy
        wave_duration = float(rows["update_seconds"][indices].max())
        attempts = rows["attempts"][indices].astype(_np.int64)
        report.retries += int(_np.maximum(0, attempts - 1).sum())
        report.link_interruptions += int(
            rows["interruptions"][indices].sum(dtype=_np.int64))
        report.wall_clock_seconds += wave_duration
        if self.metrics is not None:
            self._observe_wave(indices, failures, wave_duration)

        verdict = None
        if self.telemetry is not None:
            verdict, failures = self._close_wave_telemetry(
                wave, indices, failures)

        if failures / int(indices.size) >= self.policy.abort_failure_rate:
            report.aborted = True
            return
        if verdict is not None:
            if verdict.action is Action.ABORT:
                report.aborted = True
                return
            if verdict.action is Action.PAUSE:
                report.paused = True
                return
            if verdict.action is Action.SLOW:
                remaining = self.fleet.count_state(DeviceState.PENDING)
                halved = max(1, remaining // 2)
                self._wave_cap = halved if self._wave_cap is None \
                    else max(1, min(self._wave_cap, halved))
        self.scheduler.at(self.scheduler.now, _ADMIT)

    # -- telemetry ------------------------------------------------------------

    def _close_wave_telemetry(self, wave: _WaveState, indices,
                              failures: int):
        """Columnar twin of ``Campaign._close_wave``: scrape hydrated
        representatives, evaluate health + SLOs over the wave's
        columns, re-file verdict-quarantined rows, fold scores into
        the health column."""
        rows = self.fleet.rows
        for task in wave.tasks:
            self.telemetry.scrape_record(task.record)
        phase_map: Dict[int, Dict[str, int]] = {}
        position_of = {int(g): p for p, g in enumerate(indices)}
        for task in wave.tasks:
            phases = post_mortem_phases(task.record)
            if not phases:
                continue
            # Replicated members would have produced the identical
            # post-mortem (cohorts share every modeled cost), so the
            # sparse map covers the whole cohort.
            for member in task.members:
                phase_map[position_of[int(member)]] = dict(phases)
        fleet = self.fleet
        arrays = WaveArrays(
            wave=wave.index,
            name_fn=lambda position: fleet.name(int(indices[position])),
            states=rows["state"][indices].copy(),
            update_seconds=rows["update_seconds"][indices],
            bytes_over_air=rows["bytes_over_air"][indices],
            energy_mj=rows["energy_mj"][indices],
            interruptions=rows["interruptions"][indices],
            attempts=rows["attempts"][indices],
            interrupted_phases=phase_map,
        )
        pre_states = arrays.states.copy()
        verdict, columnar = self.telemetry.close_wave_arrays(
            arrays, t=self._report.wall_clock_seconds,
            with_scores=self.health_scores_in_report)
        requarantined = _np.flatnonzero(
            (pre_states == _FAILED) & (arrays.states == _QUARANTINED))
        rows["state"][indices] = arrays.states
        rows["health"][indices] = columnar.scores
        self._report.wave_requarantined.append(
            [int(indices[position]) for position in requarantined])
        self._report.slo_breaches.extend(
            breach.to_dict() for breach in verdict.breaches)
        return verdict, failures - len(verdict.quarantine)

    # -- helpers --------------------------------------------------------------

    def _transport_retry(self):
        return self.retry.transport_retry if self.retry is not None \
            else None

    def _verify_release_batched(self) -> None:
        """Verify the vendor signature once per wave admission.

        Under the fast engine the scalar math runs once per *campaign*:
        every later wave, and each device's own in-pipeline
        verification, hits the engine's signature LRU.  Without anchors
        this is a no-op.
        """
        if self.anchors is None:
            return
        if not self.anchors.vendor.verify_digest(self._vendor_signature,
                                                 self._vendor_digest):
            raise AssertionError(
                "vendor signature failed batched verification for "
                "version %d" % self._target)

    def _observe_wave(self, indices, failures: int,
                      wave_duration: float) -> None:
        from ..obs.metrics import WAVE_SECONDS_BUCKETS

        updated = int((self.fleet.rows["state"][indices]
                       == _UPDATED).sum())
        self.metrics.counter("campaign.waves").inc()
        self.metrics.counter("campaign.devices_updated").inc(updated)
        self.metrics.counter("campaign.devices_failed").inc(failures)
        self.metrics.histogram("campaign.wave_seconds",
                               WAVE_SECONDS_BUCKETS).observe(wave_duration)


#: Backwards-compatible alias; the helper now lives in
#: :mod:`repro.fleet.campaign` so both campaign flavours (and the
#: campaign journal) share one definition.
_post_mortem_phases = post_mortem_phases
