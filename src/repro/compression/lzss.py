"""LZSS compression, as used by UpKit's differential-update pipeline.

The paper (following Stolikj et al. [19]) picks lzss — an LZ77 variant —
for delta decompression on the device because it needs only a small
sliding window of RAM and a compact decoder.  The update server
compresses the bsdiff patch with LZSS; the device decompresses it
on-the-fly in the first pipeline stage.

Wire format (classic flag-byte framing):

* a *flag byte* announces the kinds of the next 8 items, LSB first:
  bit set → literal byte; bit clear → a back-reference into the
  sliding window;
* back-references pack a 12-bit offset (1-based distance) and a 4-bit
  length code into 2 bytes.  Length codes 0–14 encode matches of
  ``MIN_MATCH .. MIN_MATCH+14`` bytes; code 15 is an escape — one more
  byte follows and the match length is ``MIN_MATCH + 15 + ext``
  (up to 273 bytes).  The escape matters for bsdiff payloads, whose
  diff blocks are dominated by long zero runs.

:class:`LzssDecoder` is incremental because firmware chunks arrive from
the radio in pieces of arbitrary size.
"""

from __future__ import annotations

from typing import Dict, List

try:  # numpy accelerates the hash precompute; optional
    import numpy as _np
except ImportError:  # pragma: no cover - environment-dependent
    _np = None

__all__ = [
    "compress",
    "decompress",
    "LzssDecoder",
    "LzssError",
    "WINDOW_SIZE",
    "MIN_MATCH",
    "MAX_MATCH",
]

WINDOW_SIZE = 4096
MIN_MATCH = 3
_BASE_MAX = MIN_MATCH + 14        # largest length in the short form
MAX_MATCH = _BASE_MAX + 1 + 255   # escape form: 273 bytes


class LzssError(ValueError):
    """Raised on malformed LZSS streams."""


def compress(data: bytes) -> bytes:
    """Compress ``data``; greedy longest-match within the sliding window.

    A hash chain over 3-byte prefixes keeps compression roughly linear,
    which matters because the benchmarks compress 100 kB firmware images
    many times.
    """
    data = bytes(data)
    n = len(data)
    out = bytearray()
    # head[h] -> most recent position with prefix-hash h; prev -> chain
    head: Dict[int, int] = {}
    prev: List[int] = [-1] * n
    hashes = _hash3_all(data)

    pos = 0
    pending_flags = 0
    pending_count = 0
    pending_items = bytearray()

    def flush() -> None:
        nonlocal pending_flags, pending_count, pending_items
        if pending_count:
            out.append(pending_flags)
            out.extend(pending_items)
            pending_flags = 0
            pending_count = 0
            pending_items = bytearray()

    def insert(p: int) -> None:
        if p + MIN_MATCH <= n:
            h = hashes[p]
            prev[p] = head.get(h, -1)
            head[h] = p

    while pos < n:
        best_len = 0
        best_dist = 0
        if pos + MIN_MATCH <= n:
            limit = max(0, pos - WINDOW_SIZE)
            candidate = head.get(hashes[pos], -1)
            max_here = min(MAX_MATCH, n - pos)
            tries = 64  # bounded chain walk keeps worst case linear-ish
            while candidate >= limit and tries:
                # Quick reject: a candidate can only *beat* best_len if
                # its first best_len+1 bytes all match, so a mismatch at
                # offset best_len rules it out without a full compare.
                # (Ties keep the earlier — nearer — candidate, exactly
                # as the plain walk does, so output bytes are unchanged.)
                if best_len == 0 or \
                        data[candidate + best_len] == data[pos + best_len]:
                    length = _match_length(data, candidate, pos, n)
                    if length > best_len:
                        best_len = length
                        best_dist = pos - candidate
                        if length >= max_here:
                            break
                candidate = prev[candidate]
                tries -= 1

        if best_len >= MIN_MATCH:
            if best_len <= _BASE_MAX:
                token = ((best_dist - 1) << 4) | (best_len - MIN_MATCH)
                pending_items.extend((token >> 8, token & 0xFF))
            else:
                token = ((best_dist - 1) << 4) | 0x0F
                pending_items.extend((token >> 8, token & 0xFF,
                                      best_len - _BASE_MAX - 1))
            # Only the match head enters the hash chain: inserting every
            # covered position would make long zero runs quadratic.
            insert(pos)
            step = max(1, best_len // 8)
            for covered in range(pos + step, pos + best_len, step):
                insert(covered)
            pos += best_len
        else:
            pending_flags |= 1 << pending_count
            pending_items.append(data[pos])
            insert(pos)
            pos += 1

        pending_count += 1
        if pending_count == 8:
            flush()

    flush()
    return bytes(out)


def decompress(data: bytes) -> bytes:
    """One-shot decompression; see :class:`LzssDecoder` for streaming."""
    decoder = LzssDecoder()
    out = decoder.feed(data)
    decoder.finish()
    return out


class LzssDecoder:
    """Incremental LZSS decoder with a bounded sliding window.

    RAM usage is dominated by the window (4 KiB), matching the paper's
    observation that the pipeline's lzss buffer is the module's main RAM
    cost (2137 bytes of RAM for their smaller window configuration).
    """

    def __init__(self) -> None:
        self._window = bytearray()
        self._flags = 0
        self._remaining_in_group = 0
        self._partial = b""  # prefix bytes of a split back-reference
        self._finished = False

    def feed(self, chunk: bytes) -> bytes:
        """Decode ``chunk``, returning whatever output it completes.

        Output is decoded straight into the window; what this call
        returns is the window past its length on entry, and the window
        is trimmed back once, at the end.
        """
        if self._finished:
            raise LzssError("decoder already finished")
        buf = self._partial + bytes(chunk)
        self._partial = b""
        window = self._window
        # ``size`` tracks len(window) through the loop.
        base = size = len(window)
        flags = self._flags
        remaining = self._remaining_in_group
        n = len(buf)
        i = 0
        while i < n:
            if remaining == 0:
                flags = buf[i]
                remaining = 8
                i += 1
            elif flags & 1:
                # A run of set flag bits is a run of literals: one copy.
                run = (flags ^ (flags + 1)).bit_length() - 1
                if run > n - i:
                    run = n - i
                window += buf[i:i + run]
                size += run
                i += run
                flags >>= run
                remaining -= run
            else:
                if i + 2 > n:
                    self._partial = buf[i:]
                    break
                token = (buf[i] << 8) | buf[i + 1]
                code = token & 0x0F
                if code == 0x0F:
                    if i + 3 > n:
                        self._partial = buf[i:]
                        break
                    length = _BASE_MAX + 1 + buf[i + 2]
                    i += 3
                else:
                    length = code + MIN_MATCH
                    i += 2
                dist = (token >> 4) + 1
                if dist > size:
                    raise LzssError(
                        "back-reference distance %d exceeds window %d"
                        % (dist, size)
                    )
                start = size - dist
                if dist >= length:
                    window += window[start:start + length]
                else:
                    # Overlapping copy: the byte-wise original reads
                    # bytes it just wrote, so the output repeats the
                    # last `dist` bytes periodically.
                    seg = window[start:]
                    window += (seg * (length // dist + 1))[:length]
                size += length
                flags >>= 1
                remaining -= 1
        self._flags = flags
        self._remaining_in_group = remaining
        out = bytes(window[base:])
        if size > 2 * WINDOW_SIZE:
            del window[:size - WINDOW_SIZE]
        return out

    def finish(self) -> None:
        """Assert the stream ended on an item boundary."""
        if self._partial:
            raise LzssError("truncated LZSS stream (split back-reference)")
        self._finished = True


def _hash3(data: bytes, pos: int) -> int:
    return (data[pos] << 16) | (data[pos + 1] << 8) | data[pos + 2]


def _hash3_all(data: bytes) -> "List[int]":
    """All 3-byte prefix hashes of ``data`` at once.

    The encoder hashes every insertion point and every match probe —
    tens of thousands of positions per patch — so one vectorised pass
    beats per-position arithmetic.  Falls back to the scalar hash when
    numpy is unavailable; values are identical either way.
    """
    n = len(data)
    if n < MIN_MATCH:
        return []
    if _np is not None and n > 64:
        d = _np.frombuffer(data, dtype=_np.uint8).astype(_np.int64)
        return ((d[:n - 2] << 16) | (d[1:n - 1] << 8) | d[2:]).tolist()
    return [_hash3(data, p) for p in range(n - 2)]


def _match_length(data: bytes, candidate: int, pos: int, n: int) -> int:
    """Length of the common prefix of data[candidate:] and data[pos:].

    One C-level slice comparison settles the dominant case (bsdiff
    payloads are full of long zero runs where matches hit MAX_MATCH);
    otherwise the XOR of the two windows as big-endian integers
    pinpoints the first differing byte via ``bit_length``.  Overlapping
    slices are fine: both sides read the *input* buffer, same as the
    byte-wise original, so the result — and therefore the encoder
    output — is identical.
    """
    limit = min(MAX_MATCH, n - pos)
    a = data[candidate:candidate + limit]
    b = data[pos:pos + limit]
    if a == b:
        return limit
    x = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    return limit - 1 - (x.bit_length() - 1) // 8
