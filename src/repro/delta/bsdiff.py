"""bsdiff: binary delta generation (server side).

UpKit's update server derives a patch between the device's current
firmware and the new image (Sect. IV-C), using bsdiff because Stolikj
et al. [19] found it the best size/footprint trade-off for constrained
devices.

This is Colin Percival's algorithm: suffix-array match search over the
old file, with fuzzy match extension so that *approximately* matching
regions become small byte-wise differences (firmware recompiles shift
addresses by small deltas, so old and new bytes differ by a few bits in
otherwise-aligned regions).

**Wire format.**  The classic bsdiff4 container stores three separately
compressed blocks (control / diff / extra), which cannot be applied
until the whole patch is present.  UpKit applies patches *on-the-fly*
in a pipeline without buffering the patch, so we serialise records
interleaved instead::

    MAGIC "UPD1" | new_size (u32 BE) | record*
    record = add_len (u32) | copy_len (u32) | seek (i64) |
             add_len diff bytes | copy_len extra bytes

Each record is self-contained: ``add_len`` diff bytes are added
byte-wise to the old file at the current old-cursor, ``copy_len`` extra
bytes are emitted verbatim, then the old-cursor moves by ``seek``.
The stream is LZSS-compressed as a whole by the caller.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, List

try:  # numpy accelerates the match-extension kernels; optional
    import numpy as _np
except ImportError:  # pragma: no cover - environment-dependent
    _np = None

from .suffix import SuffixIndex

__all__ = ["diff", "Control", "parse_patch", "PatchFormatError", "MAGIC"]

MAGIC = b"UPD1"
_HEADER = struct.Struct(">4sI")
_CONTROL = struct.Struct(">IIq")


class PatchFormatError(ValueError):
    """Raised when a patch stream is structurally invalid."""


@dataclass(frozen=True)
class Control:
    """One bsdiff control record."""

    add_len: int
    copy_len: int
    seek: int


#: Ranges shorter than this are scored/extended with the plain byte
#: loop even when numpy is available: array setup costs more than the
#: loop for a handful of bytes.
_VECTOR_MIN = 64


def _extend_forward(old, new, old_np, new_np, last_pos, last_scan,
                    limit: int) -> int:
    """The forward match extension: longest i maximising 2*matches - i.

    Ties keep the *first* i achieving the maximum (the scalar loop only
    updates on strict improvement), which is exactly what ``argmax``
    returns — so the two paths pick identical lengths.
    """
    if old_np is not None and limit >= _VECTOR_MIN:
        eq = old_np[last_pos:last_pos + limit] \
            == new_np[last_scan:last_scan + limit]
        metric = 2 * _np.cumsum(eq) - _np.arange(1, limit + 1)
        best = int(_np.argmax(metric))
        return best + 1 if int(metric[best]) > 0 else 0
    length_f = 0
    s = 0
    sf = 0
    for i in range(limit):
        if old[last_pos + i] == new[last_scan + i]:
            s += 1
        if s * 2 - (i + 1) > sf * 2 - length_f:
            sf = s
            length_f = i + 1
    return length_f


def _extend_backward(old, new, old_np, new_np, pos, scan,
                     limit: int) -> int:
    """The backward match extension (same tie-breaking as forward)."""
    if old_np is not None and limit >= _VECTOR_MIN:
        eq = old_np[pos - limit:pos][::-1] == new_np[scan - limit:scan][::-1]
        metric = 2 * _np.cumsum(eq) - _np.arange(1, limit + 1)
        best = int(_np.argmax(metric))
        return best + 1 if int(metric[best]) > 0 else 0
    length_b = 0
    s = 0
    sb = 0
    for i in range(1, limit + 1):
        if old[pos - i] == new[scan - i]:
            s += 1
        if s * 2 - i > sb * 2 - length_b:
            sb = s
            length_b = i
    return length_b


def _resolve_overlap(old, new, old_np, new_np, last_pos, last_scan,
                     pos, scan, length_f, length_b, overlap: int) -> int:
    """Split point when forward and backward extensions overlap."""
    f_new = last_scan + length_f - overlap
    f_old = last_pos + length_f - overlap
    b_new = scan - length_b
    b_old = pos - length_b
    if old_np is not None and overlap >= _VECTOR_MIN:
        gain = (new_np[f_new:f_new + overlap]
                == old_np[f_old:f_old + overlap]).astype(_np.int64)
        loss = (new_np[b_new:b_new + overlap]
                == old_np[b_old:b_old + overlap]).astype(_np.int64)
        running = _np.cumsum(gain - loss)
        best = int(_np.argmax(running))
        return best + 1 if int(running[best]) > 0 else 0
    s = 0
    best_s = 0
    best_i = 0
    for i in range(overlap):
        if new[f_new + i] == old[f_old + i]:
            s += 1
        if new[b_new + i] == old[b_old + i]:
            s -= 1
        if s > best_s:
            best_s = s
            best_i = i + 1
    return best_i


def _diff_bytes(old, new, old_np, new_np, last_pos, last_scan,
                add_len: int) -> bytes:
    """``(new - old) mod 256`` over the add region (uint8 wraps match)."""
    if old_np is not None and add_len >= _VECTOR_MIN:
        return (new_np[last_scan:last_scan + add_len]
                - old_np[last_pos:last_pos + add_len]).tobytes()
    return bytes(
        (new[last_scan + i] - old[last_pos + i]) & 0xFF
        for i in range(add_len)
    )


def diff(old: bytes, new: bytes) -> bytes:
    """Produce an uncompressed interleaved patch turning ``old`` into ``new``.

    The control flow is Percival's scan loop unchanged; the per-byte
    kernels inside it (match-region scoring, forward/backward extension,
    overlap resolution, diff-byte subtraction) run vectorised through
    numpy when it is importable and fall back to the original byte
    loops otherwise.  Both paths emit bit-identical patches — the
    tier-1 parity suite diffs them directly.
    """
    old = bytes(old)
    new = bytes(new)
    search = SuffixIndex(old).searcher(new, 4096)
    out = bytearray(_HEADER.pack(MAGIC, len(new)))

    if _np is not None:
        old_np = _np.frombuffer(old, dtype=_np.uint8)
        new_np = _np.frombuffer(new, dtype=_np.uint8)
    else:
        old_np = new_np = None

    scan = 0          # cursor in new
    last_scan = 0     # start of the region covered by the next record
    last_pos = 0      # matching position in old for last_scan
    pos = 0           # position in old of the current exact match
    match_len = 0

    n_new, n_old = len(new), len(old)

    while scan < n_new:
        old_score = 0
        scan += match_len
        scsc = scan
        while scan < n_new:
            # The match target is capped (see `searcher` above): very
            # long identical regions are simply split across successive
            # records (24 B overhead each), which keeps every
            # suffix-array comparison cheap.
            pos, match_len = search(scan)
            stop = scan + match_len
            if old_np is not None and stop - scsc >= _VECTOR_MIN:
                # scsc + delta == scsc + last_pos - last_scan >= last_pos,
                # so only the upper bound needs clamping.
                delta = last_pos - last_scan
                b = min(stop, n_old - delta)
                if b > scsc:
                    old_score += int(_np.count_nonzero(
                        old_np[scsc + delta:b + delta] == new_np[scsc:b]))
                scsc = stop
            else:
                while scsc < stop:
                    if (scsc + last_pos - last_scan < n_old
                            and old[scsc + last_pos - last_scan] == new[scsc]):
                        old_score += 1
                    scsc += 1
            if (match_len == old_score and match_len != 0) or match_len > old_score + 8:
                break
            if (scan + last_pos - last_scan < n_old
                    and old[scan + last_pos - last_scan] == new[scan]):
                old_score -= 1
            scan += 1

        if match_len != old_score or scan == n_new:
            # Extend the previous region forward while it still pays off.
            length_f = _extend_forward(
                old, new, old_np, new_np, last_pos, last_scan,
                min(scan - last_scan, n_old - last_pos))

            # Extend the new match backwards.
            length_b = 0
            if scan < n_new:
                length_b = _extend_backward(
                    old, new, old_np, new_np, pos, scan,
                    min(scan - last_scan, pos))

            # Resolve overlap between forward and backward extensions.
            if last_scan + length_f > scan - length_b:
                overlap = (last_scan + length_f) - (scan - length_b)
                best_i = _resolve_overlap(
                    old, new, old_np, new_np, last_pos, last_scan,
                    pos, scan, length_f, length_b, overlap)
                length_f += best_i - overlap
                length_b -= best_i

            add_len = length_f
            copy_len = (scan - length_b) - (last_scan + length_f)
            seek = (pos - length_b) - (last_pos + length_f)

            diff_bytes = _diff_bytes(old, new, old_np, new_np,
                                     last_pos, last_scan, add_len)
            extra = new[last_scan + add_len: last_scan + add_len + copy_len]

            out.extend(_CONTROL.pack(add_len, copy_len, seek))
            out.extend(diff_bytes)
            out.extend(extra)

            # After applying the record the patcher's old-cursor sits at
            # (previous last_pos + add_len + seek) == pos - length_b.
            last_scan = scan - length_b
            last_pos = pos - length_b

    return bytes(out)


def parse_patch(patch: bytes) -> "tuple[int, List[tuple[Control, bytes, bytes]]]":
    """Parse a full patch into ``(new_size, [(control, diff, extra), ...])``.

    The streaming patcher (:mod:`repro.delta.bspatch`) never calls this;
    it is used by tests and by the server's self-check after generating
    a patch.
    """
    if len(patch) < _HEADER.size:
        raise PatchFormatError("patch shorter than header")
    magic, new_size = _HEADER.unpack_from(patch, 0)
    if magic != MAGIC:
        raise PatchFormatError("bad patch magic %r" % magic)
    records = []
    offset = _HEADER.size
    while offset < len(patch):
        if offset + _CONTROL.size > len(patch):
            raise PatchFormatError("truncated control record")
        add_len, copy_len, seek = _CONTROL.unpack_from(patch, offset)
        offset += _CONTROL.size
        if offset + add_len + copy_len > len(patch):
            raise PatchFormatError("truncated record body")
        diff_bytes = patch[offset:offset + add_len]
        offset += add_len
        extra = patch[offset:offset + copy_len]
        offset += copy_len
        records.append((Control(add_len, copy_len, seek), diff_bytes, extra))
    return new_size, records


def iter_records(patch: bytes) -> Iterator["tuple[Control, bytes, bytes]"]:
    """Iterate records of a parsed patch (convenience for tooling)."""
    _, records = parse_patch(patch)
    return iter(records)
