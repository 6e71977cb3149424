"""Streaming bspatch: applies interleaved bsdiff records on-the-fly.

This is the device-side half of UpKit's differential updates.  The
patcher consumes the (already LZSS-decompressed) patch stream chunk by
chunk and emits new-firmware bytes immediately, reading the old
firmware through a random-access callable — in production a memory-slot
reader, in tests a ``bytes`` object.  No patch buffering means no extra
flash slot, which is the point of the pipeline design (Sect. IV-C).
"""

from __future__ import annotations

import struct
from typing import Callable, Union

try:  # numpy vectorises the add-region arithmetic; optional
    import numpy as _np
except ImportError:  # pragma: no cover - environment-dependent
    _np = None

from .bsdiff import MAGIC, PatchFormatError

__all__ = ["StreamingPatcher"]

#: Add regions shorter than this use the integer add even with numpy
#: available: below it, array setup costs more than the add itself
#: (about 1.8 µs either way at 256 bytes on a 2-vCPU x86-64 host).
_VECTOR_MIN = 256

_HEADER = struct.Struct(">4sI")
_CONTROL = struct.Struct(">IIq")

OldReader = Callable[[int, int], bytes]


def _add_bytes(a: bytes, b: bytes) -> bytes:
    """Byte-wise ``(a[i] + b[i]) & 0xFF`` as one big-integer add.

    Adding only the low seven bits of every byte cannot carry into the
    next byte; XOR-ing in the sum of the top bits (carry dropped) then
    completes each byte modulo 256.
    """
    low = int.from_bytes(b"\x7F" * len(a), "big")
    x = int.from_bytes(a, "big")
    y = int.from_bytes(b, "big")
    return (((x & low) + (y & low)) ^ ((x ^ y) & ~low)).to_bytes(len(a),
                                                                   "big")


class StreamingPatcher:
    """Incremental bsdiff patch application.

    Parameters
    ----------
    old:
        Either the old firmware as bytes, or a callable
        ``read(offset, length) -> bytes`` backed by the current slot.
    old_size:
        Required when ``old`` is a callable.
    """

    def __init__(self, old: Union[bytes, OldReader],
                 old_size: "int | None" = None) -> None:
        if callable(old):
            if old_size is None:
                raise ValueError("old_size is required with a reader callable")
            self._read_old: OldReader = old
            self._old_size = old_size
        else:
            data = bytes(old)
            self._read_old = lambda off, ln: data[off:off + ln]
            self._old_size = len(data)

        self._buf = bytearray()
        self._state = "header"
        self._new_size = 0
        self._emitted = 0
        self._old_pos = 0
        self._add_len = 0
        self._copy_len = 0
        self._seek = 0

    @property
    def new_size(self) -> int:
        """Declared output size; 0 until the header has been parsed."""
        return self._new_size

    @property
    def emitted(self) -> int:
        return self._emitted

    def feed(self, chunk: bytes) -> bytes:
        """Consume a patch chunk and return the new-firmware bytes it yields."""
        self._buf.extend(chunk)
        out = bytearray()
        progress = True
        while progress:
            progress = False
            if self._state == "header":
                if len(self._buf) >= _HEADER.size:
                    magic, new_size = _HEADER.unpack_from(self._buf, 0)
                    if magic != MAGIC:
                        raise PatchFormatError("bad patch magic %r" % magic)
                    del self._buf[:_HEADER.size]
                    self._new_size = new_size
                    self._state = "control"
                    progress = True
            elif self._state == "control":
                if len(self._buf) >= _CONTROL.size:
                    self._add_len, self._copy_len, self._seek = (
                        _CONTROL.unpack_from(self._buf, 0)
                    )
                    del self._buf[:_CONTROL.size]
                    if self._old_pos + self._add_len > self._old_size:
                        raise PatchFormatError(
                            "diff region exceeds old firmware "
                            "(pos %d + %d > %d)"
                            % (self._old_pos, self._add_len, self._old_size)
                        )
                    self._state = "add"
                    progress = True
            elif self._state == "add":
                take = min(self._add_len, len(self._buf))
                if take or self._add_len == 0:
                    if take:
                        old_bytes = self._read_old(self._old_pos, take)
                        if _np is not None and take >= _VECTOR_MIN:
                            # uint8 addition wraps mod 256, matching
                            # the (a + b) & 0xFF byte loop exactly.
                            # The memoryview reads the staging buffer
                            # in place; all views die with the
                            # expression, before the del below.
                            with memoryview(self._buf) as staged:
                                piece = (
                                    _np.frombuffer(staged[:take],
                                                   dtype=_np.uint8)
                                    + _np.frombuffer(old_bytes,
                                                     dtype=_np.uint8)
                                ).tobytes()
                        else:
                            piece = _add_bytes(self._buf[:take], old_bytes)
                        out.extend(piece)
                        del self._buf[:take]
                        self._old_pos += take
                        self._add_len -= take
                        self._emitted += len(piece)
                    if self._add_len == 0:
                        self._state = "copy"
                    progress = take > 0 or self._state == "copy"
            elif self._state == "copy":
                take = min(self._copy_len, len(self._buf))
                if take or self._copy_len == 0:
                    if take:
                        out.extend(self._buf[:take])
                        del self._buf[:take]
                        self._copy_len -= take
                        self._emitted += take
                    if self._copy_len == 0:
                        self._old_pos += self._seek
                        if not (0 <= self._old_pos <= self._old_size):
                            raise PatchFormatError(
                                "seek moved old cursor to %d (size %d)"
                                % (self._old_pos, self._old_size)
                            )
                        self._state = "control"
                    progress = take > 0 or self._state == "control"
            if self._emitted > self._new_size:
                raise PatchFormatError(
                    "patch emitted %d bytes, more than declared %d"
                    % (self._emitted, self._new_size)
                )
        return bytes(out)

    def finish(self) -> None:
        """Assert the stream is complete and consistent."""
        if self._state == "header":
            raise PatchFormatError("patch ended before the header")
        if self._buf:
            raise PatchFormatError("%d trailing patch bytes" % len(self._buf))
        if self._state != "control" or self._add_len or self._copy_len:
            raise PatchFormatError("patch ended mid-record")
        if self._emitted != self._new_size:
            raise PatchFormatError(
                "patch produced %d bytes, expected %d"
                % (self._emitted, self._new_size)
            )
