"""Columnar fleet membership: one numpy row per device, not one object.

A hydrated device record carries a full simulator (flash pages,
agent, bootloader, telemetry); a million-device campaign would need
tens of GB before the first wave admits.  This module keeps fleet
membership in a numpy structured array — device id, firmware
version, installed-slot digest, health score, attempt/interruption
counters, lifecycle phase, campaign state, cohort id, next-event time,
and the per-device outcome aggregates the report needs — at :data:`ROW_DTYPE` ``.itemsize`` bytes per row
(~100 B).  A full :class:`~repro.sim.SimulatedDevice` exists only for
the window where a device is actively transferring/verifying (see
:mod:`repro.fleet.scale`), then folds back into its row.

**Cohorts.**  Devices that are identical except for identity (device
id, name, token nonce) form a *cohort*.  Every modeled cost in the
simulator — radio seconds, flash busy time, crypto cost, pipeline CPU —
is a deterministic function of the device's configuration and the bytes
it receives, and the per-request bytes are identity-independent
(fixed-width manifests, deterministic RFC 6979 signatures of fixed
size, shared payload).  One hydrated *representative* per cohort per
wave therefore produces the exact outcome of every member, and the
scale campaign replicates it across the cohort's rows.  Devices with
per-device link schedules, interceptors, or any other distinguishing
state must be declared ``unique`` — they always hydrate individually.

**Batched digest checks.**  Installed-slot digests live as a
``(32,) uint8`` column, so "which rows already run the target image"
is one vectorised comparison (:meth:`ColumnarFleet.digest_matches`)
instead of a million per-device hash-and-compare calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

try:  # pragma: no cover - exercised by the no-numpy fallback test
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

from .campaign import DeviceState

__all__ = [
    "ROW_DTYPE",
    "STATE_CODES",
    "CODE_STATES",
    "PHASE_IDLE",
    "PHASE_ACTIVE",
    "PHASE_DONE",
    "DeviceSpec",
    "ColumnarFleet",
]

#: Campaign state -> row code (stable across PRs: codes are persisted
#: in bench artifacts).
STATE_CODES: Dict[DeviceState, int] = {
    DeviceState.PENDING: 0,
    DeviceState.UPDATED: 1,
    DeviceState.FAILED: 2,
    DeviceState.SKIPPED: 3,
    DeviceState.QUARANTINED: 4,
}
CODE_STATES: Dict[int, DeviceState] = {
    code: state for state, code in STATE_CODES.items()}

#: Lifecycle phase codes for the ``phase`` column.
PHASE_IDLE = 0      # membership only; no device materialised
PHASE_ACTIVE = 1    # admitted to a wave; transferring/verifying
PHASE_DONE = 2      # folded back after its wave closed

#: One device = one row.  Field order groups the hot columns (state,
#: cohort, next_event) away from the wide digest payload.
ROW_DTYPE = None if _np is None else _np.dtype([
    ("device_id", _np.uint32),
    ("version", _np.uint32),          # installed firmware version
    ("slot_digest", _np.uint8, (32,)),  # SHA-256 of the installed image
    ("health", _np.float32),          # last health score (0-100)
    ("attempts", _np.uint16),
    ("interruptions", _np.uint16),
    ("phase", _np.uint8),             # PHASE_* lifecycle code
    ("state", _np.uint8),             # STATE_CODES campaign state
    ("cohort", _np.uint32),
    ("next_event", _np.float64),      # virtual time of next scheduled event
    ("update_seconds", _np.float64),  # final attempt's outcome duration
    ("bytes_over_air", _np.uint64),
    ("energy_mj", _np.float64),
])


@dataclass(frozen=True)
class DeviceSpec:
    """Everything needed to (re)hydrate one fleet member.

    ``unique=True`` forces the device into its own cohort — required
    whenever hydration would attach per-device state (an outage-schedule
    link, a tampering interceptor) that makes its outcome diverge from
    otherwise-identical devices.

    ``domain`` names the device's fault domain
    (:class:`~repro.faults.domains.FaultDomain`).  Domain-*shared*
    fault links stay cohort-safe — every member of a domain replays
    the identical correlated schedule, so the domain simply joins the
    cohort key; only genuinely per-device schedules need ``unique``.
    """

    name: str
    device_id: int
    transport: str = "pull"
    host_rtt_seconds: float = 0.0
    unique: bool = False
    domain: Optional[str] = None

    def cohort_key(self) -> Tuple:
        if self.unique:
            return ("unique", self.name)
        return (self.transport, self.host_rtt_seconds, self.domain)


class ColumnarFleet:
    """Fleet membership as a structured array plus an on-demand spec.

    ``spec_fn(index)`` must be deterministic — names and hydration
    parameters are *recomputed*, never stored, so a million-device
    fleet costs a million rows and nothing else.
    """

    def __init__(self, count: int,
                 spec_fn: Callable[[int], DeviceSpec],
                 baseline_version: int = 1,
                 baseline_digest: bytes = b"") -> None:
        if _np is None:
            raise RuntimeError(
                "ColumnarFleet requires numpy; install it or use the "
                "hydrated Campaign path")
        if count < 1:
            raise ValueError("fleet needs at least one device")
        self.count = count
        self.spec_fn = spec_fn
        self.rows = _np.zeros(count, dtype=ROW_DTYPE)
        self._cohort_ids: Dict[Tuple, int] = {}
        #: Representative index per cohort (first member in row order).
        self.cohort_representative: Dict[int, int] = {}
        digest_row = (_np.frombuffer(baseline_digest, dtype=_np.uint8)
                      if baseline_digest else None)
        if digest_row is not None and digest_row.size != 32:
            raise ValueError("baseline_digest must be 32 bytes")

        device_ids = _np.empty(count, dtype=_np.uint32)
        cohorts = _np.empty(count, dtype=_np.uint32)
        for index in range(count):
            spec = spec_fn(index)
            device_ids[index] = spec.device_id
            key = spec.cohort_key()
            cohort = self._cohort_ids.get(key)
            if cohort is None:
                cohort = len(self._cohort_ids)
                self._cohort_ids[key] = cohort
                self.cohort_representative[cohort] = index
            cohorts[index] = cohort
        self.rows["device_id"] = device_ids
        self.rows["cohort"] = cohorts
        self.rows["version"] = baseline_version
        if digest_row is not None:
            self.rows["slot_digest"] = digest_row

    # -- construction helpers -------------------------------------------------

    @classmethod
    def uniform(cls, count: int, device_id_base: int,
                name_format: str = "dev-%06d",
                transports: Tuple[str, ...] = ("push", "pull"),
                baseline_version: int = 1,
                baseline_digest: bytes = b"") -> "ColumnarFleet":
        """A homogeneous fleet: ids from a base, transports cycled.

        This is the bench/CLI shape (``bench-%03d`` devices alternating
        push/pull); cohort count equals ``len(transports)`` no matter
        the fleet size, which is what makes a million-device campaign
        hydrate a handful of devices.
        """

        def spec(index: int) -> DeviceSpec:
            return DeviceSpec(
                name=name_format % index,
                device_id=device_id_base + index,
                transport=transports[index % len(transports)],
            )

        fleet = cls(count, spec, baseline_version=baseline_version,
                    baseline_digest=baseline_digest)
        return fleet

    # -- plain reads ----------------------------------------------------------

    @property
    def bytes_per_row(self) -> int:
        return int(self.rows.dtype.itemsize)

    @property
    def cohort_count(self) -> int:
        return len(self._cohort_ids)

    def spec(self, index: int) -> DeviceSpec:
        return self.spec_fn(index)

    def name(self, index: int) -> str:
        return self.spec_fn(index).name

    def state_of(self, index: int) -> DeviceState:
        return CODE_STATES[int(self.rows["state"][index])]

    def pending_indices(self) -> "_np.ndarray":
        """Row indices still PENDING, in row order (the wave plan base)."""
        return _np.flatnonzero(
            self.rows["state"] == STATE_CODES[DeviceState.PENDING])

    def indices_in_state(self, state: DeviceState) -> "_np.ndarray":
        return _np.flatnonzero(self.rows["state"] == STATE_CODES[state])

    def count_state(self, state: DeviceState) -> int:
        return int((self.rows["state"] == STATE_CODES[state]).sum())

    # -- batched digest path --------------------------------------------------

    def digest_matches(self, digest: bytes) -> "_np.ndarray":
        """Boolean mask of rows whose installed digest equals ``digest``.

        One vectorised 32-byte compare across the whole fleet — the
        columnar replacement for per-device hash-and-compare.
        """
        if len(digest) != 32:
            raise ValueError("digest must be 32 bytes")
        target = _np.frombuffer(digest, dtype=_np.uint8)
        return (self.rows["slot_digest"] == target).all(axis=1)

    def stamp_digest(self, indices: "_np.ndarray", digest: bytes) -> None:
        target = _np.frombuffer(digest, dtype=_np.uint8)
        self.rows["slot_digest"][indices] = target

    # -- hydration fold-back --------------------------------------------------

    def fold(self, index: int, record, outcome) -> None:
        """Fold a hydrated record (and its final outcome) into its row."""
        row = self.rows[index]
        row["state"] = STATE_CODES[record.state]
        row["attempts"] = record.attempts
        row["interruptions"] = record.interruptions
        row["phase"] = PHASE_DONE
        row["version"] = record.device.installed_version()
        if outcome is not None:
            row["update_seconds"] = outcome.total_seconds
            row["bytes_over_air"] = outcome.bytes_over_air
            row["energy_mj"] = outcome.total_energy_mj

    def replicate(self, indices: "_np.ndarray", template: dict) -> None:
        """Vectorised template write: one representative's outcome onto
        every row of its cohort slice."""
        for column, value in template.items():
            self.rows[column][indices] = value

    def set_states(self, indices: "_np.ndarray",
                   state: DeviceState) -> None:
        self.rows["state"][indices] = STATE_CODES[state]

    def nbytes(self) -> int:
        return int(self.rows.nbytes)
