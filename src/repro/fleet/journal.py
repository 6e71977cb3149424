"""Crash-safe campaign durability: a CRC'd write-ahead journal.

The update *coordinator* is itself a failure domain: if the process
driving a rollout dies mid-wave, the campaign must
resume without re-flashing devices that already updated or issuing a
second token to anyone.  :class:`CampaignJournal` is the substrate —
an append-only, CRC-32-framed record log of everything the campaign
decides (wave plans, per-device outcomes, SLO verdicts), written
*ahead* of any action that depends on it:

* ``campaign-start`` — target version, fleet size;
* ``wave-plan``     — the wave's member names, in order, before any
  member is driven;
* ``device-outcome`` — one device's terminal result (state, attempts,
  scalars, black-box phases, governor snapshot), appended the moment
  the device finishes — before the next device starts;
* ``wave-close``    — duration, verdict action, quarantine re-filings,
  breaches, the wave cap, abort/pause flags;
* ``campaign-end``  — the final report's SHA-256 (an integrity seal a
  resume can check itself against).

Line format: ``crc32:<8 hex> <canonical JSON>\\n``.  A torn tail
(power cut mid-append) or a rotted line fails its CRC and is *skipped*
on replay — the journal degrades, it never lies, exactly like the
on-device black box (:mod:`repro.obs.blackbox`).

**Crash model.**  :exc:`CoordinatorKilled` simulates the coordinator
dying *after* a durable append (``arm_kill``).  Because every outcome
is journaled synchronously before the campaign takes any further
action, the set of driven devices always equals the set of journaled
devices at a kill point — which is what makes
``Campaign.resume(journal)`` exact: zero re-flashes, zero double
tokens, byte-identical final report.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from typing import Dict, List, Optional

__all__ = ["CampaignJournal", "CoordinatorKilled", "JOURNAL_KINDS"]

#: Record kinds, in lifecycle order.
JOURNAL_KINDS = ("campaign-start", "wave-plan", "device-outcome",
                 "wave-close", "campaign-end")

_PREFIX = "crc32:"


class CoordinatorKilled(RuntimeError):
    """Injected fault: the campaign coordinator died.

    Raised by the journal immediately *after* the armed append was
    durably written — the record survives, the coordinator's RAM does
    not.  The campaign propagates it; ``Campaign.resume`` picks up
    from the journal.
    """

    def __init__(self, append_index: int) -> None:
        super().__init__("coordinator killed after journal append %d"
                         % append_index)
        self.append_index = append_index


def _encode(entry: Dict[str, object]) -> str:
    payload = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return "%s%08x %s\n" % (_PREFIX, crc, payload)


def _decode(line: str) -> Optional[Dict[str, object]]:
    """One journal line -> entry dict, or None for torn/rotted lines."""
    if not line.endswith("\n") or not line.startswith(_PREFIX):
        return None  # torn tail: the append never completed
    body = line[len(_PREFIX):-1]
    if len(body) < 10 or body[8] != " ":
        return None
    try:
        crc = int(body[:8], 16)
    except ValueError:
        return None
    payload = body[9:]
    if zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF != crc:
        return None
    try:
        entry = json.loads(payload)
    except json.JSONDecodeError:  # pragma: no cover - CRC catches first
        return None
    return entry if isinstance(entry, dict) else None


class CampaignJournal:
    """Append-only campaign WAL, file-backed or in-memory.

    ``path=None`` keeps the journal in memory (tests, simulated
    kills); with a path every append is written and flushed before
    :meth:`append` returns — write-ahead, durably.  Re-opening an
    existing path resumes appending after its valid prefix.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self._lines: List[str] = []
        self._torn = 0
        self._kill_at: Optional[int] = None
        # A served campaign appends on its own thread while the
        # ``run_in_executor`` campaign routes read the journal's stats.
        self._lock = threading.Lock()
        if path is not None and os.path.exists(path):
            with open(path, "r", encoding="utf-8", newline="") as fh:
                raw = fh.read()
            self._lines = raw.splitlines(keepends=True)
        self._fh = (open(path, "a", encoding="utf-8", newline="")
                    if path is not None else None)

    # -- writing --------------------------------------------------------------

    def arm_kill(self, append_index: int) -> None:
        """Die (raise :exc:`CoordinatorKilled`) right after the
        ``append_index``-th append of this session (1-based) lands."""
        if append_index < 1:
            raise ValueError("append_index is 1-based")
        self._kill_at = append_index
        self._appends_armed = len(self._lines)

    def append(self, kind: str, **fields: object) -> Dict[str, object]:
        """Durably append one record; returns the entry written."""
        if kind not in JOURNAL_KINDS:
            raise ValueError("unknown journal record kind %r" % kind)
        entry: Dict[str, object] = {"kind": kind}
        entry.update(fields)
        line = _encode(entry)
        with self._lock:
            self._lines.append(line)
            if self._fh is not None:
                self._fh.write(line)
                self._fh.flush()
                os.fsync(self._fh.fileno())
            if self._kill_at is not None:
                since_armed = len(self._lines) - self._appends_armed
                if since_armed >= self._kill_at:
                    self._kill_at = None
                    self.close()
                    raise CoordinatorKilled(since_armed)
        return entry

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- replay ---------------------------------------------------------------

    def entries(self) -> List[Dict[str, object]]:
        """Every valid record, in append order; torn lines skipped
        (and tallied in :meth:`stats`)."""
        found: List[Dict[str, object]] = []
        torn = 0
        for line in self._lines:
            entry = _decode(line)
            if entry is None:
                torn += 1
                continue
            found.append(entry)
        self._torn = torn
        return found

    def stats(self) -> Dict[str, object]:
        """Journal health for reports: appends, torn lines, bytes."""
        entries = self.entries()
        kinds: Dict[str, int] = {}
        for entry in entries:
            kind = str(entry.get("kind", "?"))
            kinds[kind] = kinds.get(kind, 0) + 1
        return {
            "appends": len(self._lines),
            "valid": len(entries),
            "torn_skipped": self._torn,
            "bytes": sum(len(line.encode("utf-8"))
                         for line in self._lines),
            "kinds": {kind: kinds[kind] for kind in sorted(kinds)},
        }

    # -- test/fuzz hooks ------------------------------------------------------

    def corrupt_line(self, index: int, mutation: str = "truncate") -> None:
        """Damage one stored line (fuzz tests): ``truncate`` cuts it
        mid-record, ``flip`` XORs a payload byte, ``drop`` removes it."""
        line = self._lines[index]
        if mutation == "truncate":
            self._lines[index] = line[:max(1, len(line) // 2)]
        elif mutation == "flip":
            middle = len(line) // 2
            self._lines[index] = (line[:middle]
                                  + chr(ord(line[middle]) ^ 0x01)
                                  + line[middle + 1:])
        elif mutation == "drop":
            del self._lines[index]
        else:
            raise ValueError("unknown mutation %r" % mutation)

    @property
    def line_count(self) -> int:
        return len(self._lines)
