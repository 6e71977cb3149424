"""On-device black box: a flash-backed ring of lifecycle events.

When a chaos-sweep point kills a device mid-update, the question is
*where it was* when the lights went out.  RAM state (the agent FSM, the
event log) is gone after a power cycle; the black box persists a
bounded ring of fixed-size records on a small dedicated flash device —
the on-device equivalent of an aircraft flight recorder — and offers a
:meth:`BlackBox.post_mortem` that reconstructs the story afterwards.

Record format (32 bytes, big-endian)::

    u32   seq        monotonically increasing sequence number (from 1)
    f64   t          virtual-clock timestamp of the event
    u8    phase      lifecycle phase code (see PHASE_CODES)
    17s   label      event label, NUL-padded (truncated to 17 bytes)
    u16   crc        CRC-16/CCITT-FALSE over the first 30 bytes

Ring discipline follows NOR rules: records append at 32-byte offsets;
crossing into a page erases it first (reclaiming the oldest records,
one page at a time).  A record torn by power loss fails its CRC and is
skipped on read — the journal degrades, it never lies.

The backing flash is deliberately **not** part of the device's memory
layout: fault injection, chaos calibration and flash-cost accounting
all iterate layout slots, so the black box can never perturb the very
experiments it narrates.
"""

from __future__ import annotations

import math
import struct
from typing import Any, Callable, Dict, List, Optional

from ..memory import FlashMemory

__all__ = ["BlackBoxRecord", "BlackBox", "PHASE_CODES", "PHASE_OF_EVENT",
           "aggregate_post_mortems"]

RECORD_SIZE = 32
_RECORD = struct.Struct(">IdB17sH")
_LABEL_BYTES = 17
_ERASED_RECORD = b"\xFF" * RECORD_SIZE

#: Lifecycle phases and their on-flash codes.
PHASE_CODES = {
    "unknown": 0,
    "propagation": 1,
    "verification": 2,
    "loading": 3,
    "running": 4,
}
_PHASE_NAMES = {code: name for name, code in PHASE_CODES.items()}

#: Phase the device is in *after* each lifecycle event fires.  Keyed by
#: :class:`~repro.core.events.EventKind` value (plus the synthetic
#: ``boot_attempt`` the simulated device records when entering the
#: bootloader).
PHASE_OF_EVENT = {
    "token_issued": "propagation",
    "manifest_verified": "propagation",
    "transfer_interrupted": "propagation",
    "transfer_resumed": "propagation",
    "firmware_verified": "verification",
    "ready_to_reboot": "loading",
    "boot_attempt": "loading",
    "swap_started": "loading",
    "swap_resumed": "loading",
    "rolled_back": "loading",
    "recovery_used": "loading",
    "boot_selected": "running",
    "update_rejected": "running",
    "update_abandoned": "running",
    "slot_cleaned": "running",
}

#: Labels after which a reboot is *expected*, not a power-loss symptom.
_EXPECTED_BEFORE_BOOT = ("ready_to_reboot", "boot_selected",
                         "update_abandoned", "update_rejected",
                         "slot_cleaned")


def _crc16(data: bytes) -> int:
    """CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF)."""
    crc = 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x1021 if crc & 0x8000 else crc << 1) \
                & 0xFFFF
    return crc


class BlackBoxRecord:
    """One decoded ring entry."""

    __slots__ = ("seq", "t", "phase", "label")

    def __init__(self, seq: int, t: float, phase: str, label: str) -> None:
        self.seq = seq
        self.t = t
        self.phase = phase
        self.label = label

    def to_dict(self) -> Dict[str, Any]:
        return {"seq": self.seq, "t": round(self.t, 6),
                "phase": self.phase, "label": self.label}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "BlackBoxRecord(#%d %.3fs %s/%s)" % (
            self.seq, self.t, self.phase, self.label)


class BlackBox:
    """Bounded, power-loss-safe event journal on a dedicated flash.

    ``flash`` defaults to a small two-page device (256 records).  The
    same flash can be re-attached after a simulated power cycle — the
    constructor scans for the highest valid sequence number and resumes
    appending behind it, exactly like firmware mounting its journal at
    boot.
    """

    def __init__(self, flash: Optional[FlashMemory] = None,
                 now_fn: Optional[Callable[[], float]] = None) -> None:
        self.flash = flash if flash is not None else FlashMemory(
            2 * 4096, page_size=4096, name="blackbox")
        if self.flash.page_size % RECORD_SIZE:
            raise ValueError("page size must be a multiple of %d"
                             % RECORD_SIZE)
        self.now_fn = now_fn or (lambda: 0.0)
        self.capacity = self.flash.size // RECORD_SIZE
        self._next_seq, self._next_index = self._scan()

    def __getstate__(self) -> dict:
        # Same contract as Tracer: the owner rebinds now_fn on restore.
        state = self.__dict__.copy()
        state["now_fn"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self.now_fn is None:
            self.now_fn = lambda: 0.0

    # -- mounting ------------------------------------------------------------

    def _decode(self, raw: bytes) -> Optional[BlackBoxRecord]:
        if len(raw) != RECORD_SIZE or raw == _ERASED_RECORD:
            return None
        try:
            seq, t, phase_code, label_bytes, crc = _RECORD.unpack(raw)
        except struct.error:
            return None  # truncated slice (ring cut mid-record)
        if crc != _crc16(raw[:RECORD_SIZE - 2]) or seq == 0:
            return None  # torn or rotted record: skip, never guess
        if not math.isfinite(t) or t < 0.0:
            # A half-programmed float can survive an (unlucky) CRC
            # collision; a NaN/inf timestamp would poison every sort
            # and JSON dump downstream.  Skip, never guess.
            return None
        label = label_bytes.rstrip(b"\x00").decode("ascii", "replace")
        return BlackBoxRecord(seq, t,
                              _PHASE_NAMES.get(phase_code, "unknown"),
                              label)

    def _scan(self) -> "tuple[int, int]":
        """Find the resume point: one past the highest valid sequence."""
        best_seq = 0
        best_index = -1
        snapshot = self.flash.snapshot()
        for index in range(self.capacity):
            record = self._decode(snapshot[index * RECORD_SIZE:
                                           (index + 1) * RECORD_SIZE])
            if record is not None and record.seq > best_seq:
                best_seq = record.seq
                best_index = index
        if best_index < 0:
            return 1, 0
        return best_seq + 1, (best_index + 1) % self.capacity

    # -- writing -------------------------------------------------------------

    def record(self, label: str, phase: str = "unknown",
               t: Optional[float] = None) -> BlackBoxRecord:
        """Append one event record (erasing the next page on wrap)."""
        timestamp = self.now_fn() if t is None else t
        phase_code = PHASE_CODES.get(phase, 0)
        label_bytes = label.encode("ascii", "replace")[:_LABEL_BYTES]
        body = _RECORD.pack(self._next_seq, timestamp, phase_code,
                            label_bytes, 0)[:RECORD_SIZE - 2]
        raw = body + struct.pack(">H", _crc16(body))
        offset = self._next_index * RECORD_SIZE
        if offset % self.flash.page_size == 0 \
                and not self.flash.is_erased(offset, self.flash.page_size):
            self.flash.erase_page(offset // self.flash.page_size)
        self.flash.write(offset, raw)
        record = BlackBoxRecord(self._next_seq, timestamp,
                                _PHASE_NAMES.get(phase_code, "unknown"),
                                label_bytes.decode("ascii", "replace"))
        self._next_seq += 1
        self._next_index = (self._next_index + 1) % self.capacity
        return record

    # -- reading -------------------------------------------------------------

    def records(self) -> List[BlackBoxRecord]:
        """Every valid record, oldest first (by sequence number)."""
        snapshot = self.flash.snapshot()
        found = []
        for index in range(self.capacity):
            record = self._decode(snapshot[index * RECORD_SIZE:
                                           (index + 1) * RECORD_SIZE])
            if record is not None:
                found.append(record)
        found.sort(key=lambda record: record.seq)
        return found

    def __len__(self) -> int:
        return len(self.records())

    # -- post-mortem ---------------------------------------------------------

    def post_mortem(self, tail: int = 12) -> Dict[str, Any]:
        """Reconstruct the update story from the persisted ring.

        An **interruption** is a ``boot_attempt`` whose predecessor is
        not a clean hand-off point (``ready_to_reboot`` for an ordinary
        install, another boot, or a deliberate abandon/reject) — i.e.
        the device hit the bootloader while something was still in
        flight.  The predecessor's phase names what was interrupted.
        """
        records = self.records()
        interruptions: List[Dict[str, Any]] = []
        previous: Optional[BlackBoxRecord] = None
        for record in records:
            if record.label == "boot_attempt" and previous is not None \
                    and previous.label not in _EXPECTED_BEFORE_BOOT \
                    and previous.label != "boot_attempt":
                interruptions.append({
                    "t": round(record.t, 6),
                    "phase": previous.phase,
                    "after": previous.label,
                })
            previous = record
        return {
            "record_count": len(records),
            "first_seq": records[0].seq if records else 0,
            "last_seq": records[-1].seq if records else 0,
            "last_label": records[-1].label if records else None,
            "last_phase": records[-1].phase if records else None,
            "interruptions": interruptions,
            "interrupted_phase": (interruptions[-1]["phase"]
                                  if interruptions else None),
            "events": [record.to_dict() for record in records[-tail:]],
        }


def aggregate_post_mortems(post_mortems: "List[Dict[str, Any]]") \
        -> Dict[str, int]:
    """Fleet-wide interruption census: lifecycle phase -> count.

    Takes :meth:`BlackBox.post_mortem` dicts (one per device or chaos
    point) and tallies every recorded interruption by the phase it cut
    short — the one-line answer to "*where* does this fleet keep
    dying?".  Keys are sorted for deterministic reports.
    """
    totals: Dict[str, int] = {}
    for post_mortem in post_mortems:
        for interruption in post_mortem.get("interruptions", []):
            phase = interruption.get("phase", "unknown")
            totals[phase] = totals.get(phase, 0) + 1
    return {phase: totals[phase] for phase in sorted(totals)}
