"""Simulated NOR flash with page-erase semantics and cost accounting.

UpKit's memory interface hides flash details from the upper layers
(Fig. 3), but its *behaviour* — erase-before-write, sector granularity,
slow erases — shapes the whole design: the pipeline's buffer stage
exists precisely because "matching the buffer size with the flash
sector size results in faster writes and fewer flash erasures"
(Sect. IV-C).

The model enforces real NOR rules:

* an erase sets a whole page to ``0xFF``;
* a write can only clear bits (1 → 0); writing over non-erased bytes
  with conflicting bits raises unless the caller erased first;
* per-page erase counters model wear;
* every operation accrues modeled time from the device's timing profile
  (consumed by :mod:`repro.sim`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterator, List, Tuple

__all__ = ["FlashTiming", "FlashStats", "FlashMemory", "FlashError",
           "PowerLossError"]

ERASED = 0xFF


@lru_cache(maxsize=None)
def _erased_page(page_size: int) -> bytes:
    return bytes([ERASED]) * page_size


class FlashError(Exception):
    """Raised on illegal flash operations (bounds, write-before-erase)."""


class PowerLossError(Exception):
    """Injected fault: power failed during a flash operation.

    Raised by :meth:`FlashMemory.inject_power_loss` countdowns.  A write
    interrupted mid-operation leaves a *partial* write behind (the first
    half of the data); an interrupted erase leaves a *half-erased* page
    (the tail half reads back ``0xFF``, the head keeps its old — now
    untrustworthy — bytes), modeling a real brown-out during
    programming or during the much slower page erase.
    """


@dataclass(frozen=True)
class FlashTiming:
    """Timing profile of one flash device.

    Defaults approximate the nRF52840's internal flash: 85 ms per 4 KiB
    page erase and ~41 µs per 4-byte word write.
    """

    erase_page_seconds: float = 0.085
    write_bytes_per_second: float = 97_000.0
    read_bytes_per_second: float = 8_000_000.0
    #: Fixed setup cost per program operation (driver call, HW enable).
    #: This is what the pipeline's buffer stage amortises: "matching the
    #: buffer size with the flash sector size results in faster writes".
    write_call_overhead_seconds: float = 0.00025


@dataclass
class FlashStats:
    """Cumulative operation counters for one flash device."""

    bytes_read: int = 0
    bytes_written: int = 0
    pages_erased: int = 0
    write_calls: int = 0
    busy_seconds: float = 0.0
    erase_counts: List[int] = field(default_factory=list)

    @property
    def max_wear(self) -> int:
        return max(self.erase_counts) if self.erase_counts else 0


class FlashMemory:
    """One flash device: a byte array with page-erase discipline.

    The contents are stored page-sparse: ``_pages`` maps a page number
    to its bytes for *materialised* pages only, and a missing page
    reads back ``0xFF``.  An erase drops the page; a write, a corrupt
    or a half-erase materialises it.  A provisioned device is mostly
    erased flash, so a 1 MiB nRF52840 costs only the pages its images
    occupy, and pickles just as sparsely.
    """

    def __init__(
        self,
        size: int,
        page_size: int = 4096,
        timing: "FlashTiming | None" = None,
        name: str = "flash",
        strict: bool = True,
    ) -> None:
        if size <= 0 or page_size <= 0:
            raise ValueError("size and page_size must be positive")
        if size % page_size:
            raise ValueError("flash size must be a multiple of the page size")
        self.size = size
        self.page_size = page_size
        self.name = name
        self.timing = timing if timing is not None else FlashTiming()
        self.strict = strict
        self._pages: Dict[int, bytearray] = {}
        self.stats = FlashStats(erase_counts=[0] * (size // page_size))
        self._fault_countdown: "int | None" = None
        self._fault_during = "any"

    @property
    def page_count(self) -> int:
        return self.size // self.page_size

    def page_of(self, offset: int) -> int:
        self._check_range(offset, 1)
        return offset // self.page_size

    # -- operations -------------------------------------------------------

    def read(self, offset: int, length: int) -> bytes:
        # The range test is inlined: bspatch reads the old image here
        # once per add region, and a call per read is measurable.
        if offset < 0 or length < 0 or offset + length > self.size:
            self._check_range(offset, length)
        self.stats.bytes_read += length
        self.stats.busy_seconds += length / self.timing.read_bytes_per_second
        page, start = divmod(offset, self.page_size)
        if start + length <= self.page_size:    # the common, one-page case
            current = self._pages.get(page)
            if current is None:
                return b"\xFF" * length
            return bytes(current[start:start + length])
        pages = self._pages
        erased = _erased_page(self.page_size)
        return b"".join(pages.get(page, erased)[start:stop]
                        for page, start, stop in self._walk(offset, length))

    # -- fault injection ----------------------------------------------------

    def inject_power_loss(self, after_operations: int,
                          during: str = "any") -> None:
        """Arm a power-loss fault ``after_operations`` erases/writes.

        The Nth modifying operation fails: an erase leaves a half-erased
        page behind; a write lands only its first half — then
        :class:`PowerLossError` is raised.  ``during`` restricts both the
        countdown and the trip to one operation kind (``"write"`` or
        ``"erase"``), so a fault plan can say "power loss at the k-th
        page erase" regardless of interleaved writes; the default
        ``"any"`` counts every modifying operation.  Used by the
        power-loss-safety tests and the chaos sweep
        (:mod:`repro.tools.chaos`).
        """
        if after_operations < 0:
            raise ValueError("after_operations must be non-negative")
        if during not in ("any", "write", "erase"):
            raise ValueError("during must be 'any', 'write' or 'erase'")
        self._fault_countdown = after_operations
        self._fault_during = during

    def clear_fault(self) -> None:
        self._fault_countdown = None
        self._fault_during = "any"

    @property
    def fault_armed(self) -> bool:
        """True while an injected power-loss fault has not fired yet."""
        return self._fault_countdown is not None

    def _tick_fault(self, kind: str) -> bool:
        """Returns True when the armed fault fires on this operation."""
        if self._fault_countdown is None:
            return False
        if self._fault_during not in ("any", kind):
            return False
        if self._fault_countdown == 0:
            self._fault_countdown = None
            return True
        self._fault_countdown -= 1
        return False

    def write(self, offset: int, data: bytes) -> None:
        """Write ``data``; bits may only transition 1 → 0."""
        data = bytes(data)
        self._check_range(offset, len(data))
        if self._tick_fault("write"):
            half = data[: len(data) // 2]
            if half:
                self.write(offset, half)
            raise PowerLossError(
                "%s: power lost writing at 0x%X" % (self.name, offset))
        pieces = list(self._walk(offset, len(data)))
        pages = self._pages
        if self.strict:
            # Whole-range 1 -> 0 check before any byte changes: a piece
            # is legal when the new bits are a subset of the current
            # ones (a missing page is all ones).  Then current & new is
            # new itself, so the write below is a plain slice store.
            cursor = 0
            for page, start, stop in pieces:
                current = pages.get(page)
                if current is not None:
                    new = data[cursor:cursor + stop - start]
                    clash = (int.from_bytes(new, "big")
                             & ~int.from_bytes(current[start:stop], "big"))
                    if clash:
                        first = (offset + cursor + len(new) - 1
                                 - (clash.bit_length() - 1) // 8)
                        raise FlashError(
                            "%s: write at 0x%X would set bits 0→1 "
                            "(erase the page first)" % (self.name, first)
                        )
                cursor += stop - start
        self._store(data, pieces)
        self.stats.bytes_written += len(data)
        self.stats.write_calls += 1
        self.stats.busy_seconds += (
            len(data) / self.timing.write_bytes_per_second
            + self.timing.write_call_overhead_seconds
        )

    def erase_page(self, page: int) -> None:
        if not (0 <= page < self.page_count):
            raise FlashError("%s: page %d out of range" % (self.name, page))
        if self._tick_fault("erase"):
            # Brown-out mid-erase: the page is *half*-erased — the tail
            # half reads back 0xFF, the head keeps its stale (now
            # untrustworthy) bytes.  Wear still happened, and roughly
            # half the erase time was spent before the supply collapsed.
            current = self._pages.get(page)
            if current is not None:
                half = self.page_size // 2
                current[half:] = _erased_page(self.page_size)[half:]
            self.stats.erase_counts[page] += 1
            self.stats.busy_seconds += self.timing.erase_page_seconds / 2
            raise PowerLossError(
                "%s: power lost erasing page %d" % (self.name, page))
        self._pages.pop(page, None)
        self.stats.pages_erased += 1
        self.stats.erase_counts[page] += 1
        self.stats.busy_seconds += self.timing.erase_page_seconds

    def erase_range(self, offset: int, length: int) -> None:
        """Erase every page overlapping [offset, offset+length)."""
        if length <= 0:
            return
        self._check_range(offset, length)
        first = offset // self.page_size
        last = (offset + length - 1) // self.page_size
        for page in range(first, last + 1):
            self.erase_page(page)

    def is_erased(self, offset: int, length: int) -> bool:
        self._check_range(offset, length)
        pages = self._pages
        return all(page not in pages
                   or pages[page].count(ERASED, start, stop) == stop - start
                   for page, start, stop in self._walk(offset, length))

    def snapshot(self) -> bytes:
        """Raw contents (test/debug aid; bypasses cost accounting)."""
        erased = _erased_page(self.page_size)
        return b"".join(self._pages.get(page, erased)
                        for page in range(self.page_count))

    def corrupt(self, offset: int, data: bytes) -> None:
        """Overwrite raw bytes bypassing NOR rules — fault injection only."""
        data = bytes(data)
        self._check_range(offset, len(data))
        self._store(data, self._walk(offset, len(data)))

    def reset_stats(self) -> None:
        self.stats = FlashStats(erase_counts=[0] * self.page_count)

    # -- helpers ----------------------------------------------------------

    def _walk(self, offset: int, length: int
              ) -> Iterator[Tuple[int, int, int]]:
        """``(page, start, stop)`` for each page piece of the range."""
        end = offset + length
        while offset < end:
            page, start = divmod(offset, self.page_size)
            stop = min(self.page_size, start + end - offset)
            yield page, start, stop
            offset += stop - start

    def _store(self, data: bytes, pieces) -> None:
        """Place ``data`` over ``pieces``, materialising missing pages."""
        pages = self._pages
        erased = _erased_page(self.page_size)
        cursor = 0
        for page, start, stop in pieces:
            current = pages.get(page)
            if current is None:
                current = pages[page] = bytearray(erased)
            current[start:stop] = data[cursor:cursor + stop - start]
            cursor += stop - start

    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.size:
            raise FlashError(
                "%s: access [0x%X, +%d) outside device of %d bytes"
                % (self.name, offset, length, self.size)
            )
