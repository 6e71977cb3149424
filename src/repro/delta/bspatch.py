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

#: ``0x7F7F...`` masks by length, for the short add regions.
_LOW_BITS: "dict[int, int]" = {}

_HEADER = struct.Struct(">4sI")
_CONTROL = struct.Struct(">IIq")

OldReader = Callable[[int, int], bytes]

#: Parser states: where the next patch byte belongs.
_AT_HEADER, _AT_CONTROL, _IN_ADD, _IN_COPY = range(4)


def _add_bytes(a: bytes, b: bytes) -> bytes:
    """Byte-wise ``(a[i] + b[i]) & 0xFF`` as one big-integer add.

    Adding only the low seven bits of every byte cannot carry into the
    next byte; XOR-ing in the sum of the top bits (carry dropped) then
    completes each byte modulo 256.
    """
    size = len(a)
    low = _LOW_BITS.get(size)
    if low is None:
        low = int.from_bytes(b"\x7F" * size, "big")
        if size < _VECTOR_MIN:
            _LOW_BITS[size] = low
    x = int.from_bytes(a, "big")
    y = int.from_bytes(b, "big")
    return (((x & low) + (y & low)) ^ ((x ^ y) & ~low)).to_bytes(size,
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
        self._state = _AT_HEADER
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
        """Consume a patch chunk and return the new-firmware bytes it yields.

        The chunk is parsed in place behind a cursor; only an unparsed
        tail (a split header or control record) is kept for the next
        call.  Each step checks the emitted total right after it, so a
        malformed patch fails on the same step, with the same message,
        however it is chunked.
        """
        buf = self._buf
        if buf:
            buf += chunk
            data = buf
        else:
            data = chunk
        end = len(data)
        pos = 0
        pieces = []
        state = self._state
        while True:
            if state == _IN_ADD:
                add_len = self._add_len
                take = end - pos
                if take > add_len:
                    take = add_len
                if take:
                    old_bytes = self._read_old(self._old_pos, take)
                    if _np is not None and take >= _VECTOR_MIN:
                        # uint8 addition wraps mod 256, matching the
                        # (a + b) & 0xFF byte loop exactly.  The
                        # memoryview reads the patch bytes in place;
                        # all views die with the expression, before
                        # the buffer is trimmed below.
                        with memoryview(data) as staged:
                            pieces.append((
                                _np.frombuffer(staged[pos:pos + take],
                                               dtype=_np.uint8)
                                + _np.frombuffer(old_bytes,
                                                 dtype=_np.uint8)
                            ).tobytes())
                    else:
                        pieces.append(_add_bytes(data[pos:pos + take],
                                                 old_bytes))
                    pos += take
                    self._old_pos += take
                    add_len -= take
                    self._add_len = add_len
                    self._emitted += take
                    if self._emitted > self._new_size:
                        self._overrun()
                if add_len:
                    break
                state = _IN_COPY
            elif state == _IN_COPY:
                copy_len = self._copy_len
                take = end - pos
                if take > copy_len:
                    take = copy_len
                if take:
                    pieces.append(data[pos:pos + take])
                    pos += take
                    copy_len -= take
                    self._copy_len = copy_len
                    self._emitted += take
                if copy_len:
                    if self._emitted > self._new_size:
                        self._overrun()
                    break
                self._old_pos += self._seek
                if not (0 <= self._old_pos <= self._old_size):
                    raise PatchFormatError(
                        "seek moved old cursor to %d (size %d)"
                        % (self._old_pos, self._old_size)
                    )
                if self._emitted > self._new_size:
                    self._overrun()
                state = _AT_CONTROL
            elif state == _AT_CONTROL:
                if end - pos < _CONTROL.size:
                    break
                self._add_len, self._copy_len, self._seek = (
                    _CONTROL.unpack_from(data, pos)
                )
                pos += _CONTROL.size
                if self._old_pos + self._add_len > self._old_size:
                    raise PatchFormatError(
                        "diff region exceeds old firmware "
                        "(pos %d + %d > %d)"
                        % (self._old_pos, self._add_len, self._old_size)
                    )
                state = _IN_ADD
            else:
                if end - pos < _HEADER.size:
                    break
                magic, new_size = _HEADER.unpack_from(data, pos)
                if magic != MAGIC:
                    raise PatchFormatError("bad patch magic %r" % magic)
                pos += _HEADER.size
                self._new_size = new_size
                state = _AT_CONTROL
        self._state = state
        if data is buf:
            del buf[:pos]
        elif pos < end:
            buf += data[pos:]
        return b"".join(pieces)

    def _overrun(self) -> None:
        raise PatchFormatError(
            "patch emitted %d bytes, more than declared %d"
            % (self._emitted, self._new_size)
        )

    def finish(self) -> None:
        """Assert the stream is complete and consistent."""
        if self._state == _AT_HEADER:
            raise PatchFormatError("patch ended before the header")
        if self._buf:
            raise PatchFormatError("%d trailing patch bytes" % len(self._buf))
        if self._state != _AT_CONTROL or self._add_len or self._copy_len:
            raise PatchFormatError("patch ended mid-record")
        if self._emitted != self._new_size:
            raise PatchFormatError(
                "patch produced %d bytes, expected %d"
                % (self._emitted, self._new_size)
            )
