"""LZSS compression tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    LzssDecoder,
    LzssError,
    MAX_MATCH,
    MIN_MATCH,
    WINDOW_SIZE,
    compress,
    decompress,
)


@pytest.mark.parametrize("data", [
    b"",
    b"a",
    b"ab",
    b"abc",
    b"aaaa",
    b"abcabcabcabcabcabc",
    b"the quick brown fox jumps over the lazy dog " * 40,
    bytes(range(256)),
    b"\x00" * 10_000,
    b"\xff" * 5_000,
], ids=["empty", "one", "two", "three", "run4", "repeat", "text",
        "alphabet", "zeros", "ones"])
def test_roundtrip(data):
    assert decompress(compress(data)) == data


def test_compresses_repetitive_data():
    data = b"ABCD" * 2048
    assert len(compress(data)) < len(data) // 4


def test_random_data_expands_bounded():
    import random
    rng = random.Random(11)
    data = bytes(rng.randrange(256) for _ in range(4096))
    compressed = compress(data)
    # Worst case: one flag byte per 8 literals → 12.5% expansion.
    assert len(compressed) <= len(data) * 9 // 8 + 2
    assert decompress(compressed) == data


def test_long_range_matches_beyond_window_are_not_used():
    # Two identical blocks separated by more than the window: the second
    # must still decompress correctly (matches found only within window).
    block = bytes(range(200)) * 2
    data = block + b"\x01" * (WINDOW_SIZE + 100) + block
    assert decompress(compress(data)) == data


def test_streaming_decoder_chunks():
    data = b"streaming test payload " * 300
    compressed = compress(data)
    for chunk_size in (1, 2, 3, 7, 64, 1000):
        decoder = LzssDecoder()
        out = b"".join(decoder.feed(compressed[i:i + chunk_size])
                       for i in range(0, len(compressed), chunk_size))
        decoder.finish()
        assert out == data


def test_decoder_finish_on_truncated_backreference():
    data = b"abcabcabcabcabc" * 10
    compressed = compress(data)
    decoder = LzssDecoder()
    decoder.feed(compressed[:-1])
    with pytest.raises(LzssError):
        decoder.finish()


def test_decoder_rejects_feed_after_finish():
    decoder = LzssDecoder()
    decoder.feed(compress(b"xy"))
    decoder.finish()
    with pytest.raises(LzssError):
        decoder.feed(b"\x00")


def test_decoder_rejects_bad_distance():
    # Flag byte 0 (back-reference first), token pointing 100 bytes back
    # into an empty window.
    token = ((100 - 1) << 4) | 0
    stream = bytes([0x00, token >> 8, token & 0xFF])
    decoder = LzssDecoder()
    with pytest.raises(LzssError):
        decoder.feed(stream)


def test_match_length_constants():
    assert MIN_MATCH == 3
    assert MAX_MATCH == 273  # escape form for long (e.g. zero-run) matches
    assert WINDOW_SIZE == 4096


def test_zero_runs_compress_strongly():
    """bsdiff diff blocks are long zero runs; the escape form must give
    far better than the 8:1 the 4-bit length field alone allows."""
    data = b"\x00" * 65536
    compressed = compress(data)
    assert len(compressed) < len(data) // 60
    assert decompress(compressed) == data


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=3000))
def test_roundtrip_property(data):
    assert decompress(compress(data)) == data


@settings(max_examples=25, deadline=None)
@given(st.binary(max_size=1500), st.integers(min_value=1, max_value=97))
def test_streaming_equals_one_shot_property(data, chunk_size):
    compressed = compress(data)
    decoder = LzssDecoder()
    out = b"".join(decoder.feed(compressed[i:i + chunk_size])
                   for i in range(0, len(compressed), chunk_size))
    decoder.finish()
    assert out == data


@settings(max_examples=25, deadline=None)
@given(st.text(alphabet="ab", max_size=2000))
def test_low_entropy_compresses(text):
    data = text.encode("ascii")
    if len(data) > 100:
        assert len(compress(data)) < len(data)
    assert decompress(compress(data)) == data


# -- match-finder parity ----------------------------------------------------
#
# The encoder's match search was accelerated (mismatch quick-reject plus
# slice-based match extension) with the hard requirement that the output
# stream stays *byte-identical*.  ``_reference_compress`` is the plain
# encoder — same hash chain, same greedy strictly-greater selection, same
# 64-candidate bound, but byte-at-a-time matching and no short-circuits —
# so any behavioural drift in the fast path shows up as a byte diff here.


def _reference_compress(data: bytes) -> bytes:
    from repro.compression.lzss import _BASE_MAX, _hash3

    data = bytes(data)
    n = len(data)
    out = bytearray()
    head = {}
    prev = [-1] * n

    pos = 0
    pending_flags = 0
    pending_count = 0
    pending_items = bytearray()

    def flush():
        nonlocal pending_flags, pending_count, pending_items
        if pending_count:
            out.append(pending_flags)
            out.extend(pending_items)
            pending_flags = 0
            pending_count = 0
            pending_items = bytearray()

    def insert(p):
        if p + MIN_MATCH <= n:
            h = _hash3(data, p)
            prev[p] = head.get(h, -1)
            head[h] = p

    def match_length(candidate, pos):
        limit = min(MAX_MATCH, n - pos)
        length = 0
        while (length < limit
               and data[candidate + length] == data[pos + length]):
            length += 1
        return length

    while pos < n:
        best_len = 0
        best_dist = 0
        if pos + MIN_MATCH <= n:
            limit = max(0, pos - WINDOW_SIZE)
            candidate = head.get(_hash3(data, pos), -1)
            tries = 64
            while candidate >= limit and tries:
                length = match_length(candidate, pos)
                if length > best_len:
                    best_len = length
                    best_dist = pos - candidate
                    if length >= MAX_MATCH:
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


@pytest.mark.parametrize("data", [
    b"",
    b"a",
    b"abcabcabcabc" * 64,
    b"\x00" * 6000,
    bytes(range(256)) * 16,
    b"ABAB" * 3 + b"\x00" * 400 + b"ABAB" * 3,
], ids=["empty", "one", "repeat", "zeros", "cycle", "mixed"])
def test_fast_match_finder_is_byte_identical(data):
    assert compress(data) == _reference_compress(data)


def test_fast_match_finder_identical_on_random_and_patch_data():
    import random

    from repro.delta import diff
    from repro.workload import FirmwareGenerator

    rng = random.Random(0x5A55)
    for _ in range(12):
        n = rng.randrange(0, 4000)
        base = bytes(rng.getrandbits(8) for _ in range(max(1, n // 6)))
        data = (base * 8)[:n]
        assert compress(data) == _reference_compress(data)

    gen = FirmwareGenerator(seed=b"lzss-parity")
    fw1 = gen.firmware(16 * 1024, image_id=1)
    fw2 = gen.os_version_change(fw1, revision=2)
    patch = diff(fw1, fw2)
    fast = compress(patch)
    assert fast == _reference_compress(patch)
    assert decompress(fast) == patch


# -- the streaming decoder against a byte-wise reference ------------------------


class ByteWiseDecoder:
    """The decoder as a device would run it: one byte at a time, every
    back-reference copied byte by byte out of the full history."""

    def __init__(self):
        self.history = bytearray()
        self.flags = 0
        self.remaining = 0
        self.pending = bytearray()   # bytes of an unfinished back-reference

    def feed(self, chunk):
        out = bytearray()
        for byte in chunk:
            if self.remaining == 0:
                self.flags, self.remaining = byte, 8
                continue
            if self.flags & 1:
                out.append(byte)
                self.history.append(byte)
            else:
                self.pending.append(byte)
                if len(self.pending) < 2:
                    continue
                token = (self.pending[0] << 8) | self.pending[1]
                if token & 0x0F == 0x0F:
                    if len(self.pending) < 3:
                        continue
                    length = MIN_MATCH + 15 + self.pending[2]
                else:
                    length = MIN_MATCH + (token & 0x0F)
                dist = (token >> 4) + 1
                if dist > len(self.history):
                    raise LzssError(
                        "back-reference distance %d exceeds window %d"
                        % (dist, len(self.history)))
                for _ in range(length):
                    out.append(self.history[-dist])
                    self.history.append(self.history[-dist])
                self.pending.clear()
            self.flags >>= 1
            self.remaining -= 1
        return bytes(out)

    def finish(self):
        if self.pending:
            raise LzssError("truncated LZSS stream (split back-reference)")


def _decode_in_pieces(decoder, stream, cuts):
    """Per-piece outputs, then the first error's message (or None)."""
    outputs = []
    bounds = [0] + sorted(cuts) + [len(stream)]
    try:
        for start, stop in zip(bounds, bounds[1:]):
            outputs.append(decoder.feed(stream[start:stop]))
        decoder.finish()
    except LzssError as exc:
        return outputs, str(exc)
    return outputs, None


# Low-entropy data, so the stream mixes literals with short, long,
# overlapping and escape-form back-references.
firmware_like = st.lists(
    st.one_of(st.binary(min_size=1, max_size=40),
              st.tuples(st.sampled_from([b"\x00", b"ab", b"xyz"]),
                        st.integers(min_value=1, max_value=200))
              .map(lambda run: run[0] * run[1])),
    max_size=30,
).map(b"".join)


@st.composite
def streams_with_cuts(draw):
    data = draw(firmware_like)
    stream = compress(data)
    mutation = draw(st.sampled_from(["none", "truncate", "flip", "random"]))
    if mutation == "truncate" and stream:
        stream = stream[:draw(st.integers(0, len(stream) - 1))]
    elif mutation == "flip" and stream:
        at = draw(st.integers(0, len(stream) - 1))
        flip = draw(st.integers(1, 255))
        stream = stream[:at] + bytes([stream[at] ^ flip]) + stream[at + 1:]
    elif mutation == "random":
        stream = draw(st.binary(max_size=300))
    cuts = draw(st.lists(st.integers(0, len(stream)), max_size=12))
    return data, mutation, stream, cuts


@settings(max_examples=300, deadline=None)
@given(streams_with_cuts())
def test_decoder_matches_byte_wise_reference_at_any_split(case):
    data, mutation, stream, cuts = case
    got = _decode_in_pieces(LzssDecoder(), stream, cuts)
    assert got == _decode_in_pieces(ByteWiseDecoder(), stream, cuts)
    if mutation == "none":
        assert got == (got[0], None) and b"".join(got[0]) == data


def test_decoder_errors_name_distance_and_truncation():
    token = ((100 - 1) << 4) | 0
    for decoder in (LzssDecoder(), ByteWiseDecoder()):
        # Three literals, then a reference 100 bytes back.
        with pytest.raises(LzssError,
                           match="^back-reference distance 100 exceeds "
                                 "window 3$"):
            decoder.feed(bytes([0x07]) + b"abc" + bytes([token >> 8]) +
                         bytes([token & 0xFF]))
    # At the boundary: a reference exactly as far back as the output.
    for dist, error in ((3, None),
                        (4, "back-reference distance 4 exceeds window 3")):
        token = (dist - 1) << 4
        stream = bytes([0x07]) + b"abc" + bytes([token >> 8, token & 0xFF])
        for decoder in (LzssDecoder(), ByteWiseDecoder()):
            assert _decode_in_pieces(decoder, stream, [2]) == (
                ([b"a", b"bcabc"], None) if error is None else ([b"a"],
                                                                error))
    for decoder in (LzssDecoder(), ByteWiseDecoder()):
        decoder.feed(bytes([0x01]) + b"a" + bytes([0x00]))
        with pytest.raises(LzssError, match="^truncated LZSS stream"):
            decoder.finish()


@pytest.mark.parametrize("piece", [1, 3, 255, 4096, 9000])
@pytest.mark.parametrize("shape", ["runs", "period"])
def test_decoder_matches_reference_past_window_trims(piece, shape):
    import random
    rng = random.Random(piece)
    if shape == "runs":
        data = b"".join(
            bytes(rng.randrange(256) for _ in range(rng.randrange(1, 30)))
            + b"\x00" * rng.randrange(0, 400)
            for _ in range(300))
    else:
        # Every match reaches back exactly the whole window.
        data = bytes(rng.randrange(256) for _ in range(WINDOW_SIZE)) * 5
    assert len(data) > 4 * WINDOW_SIZE
    stream = compress(data)
    cuts = list(range(piece, len(stream), piece))
    got = _decode_in_pieces(LzssDecoder(), stream, cuts)
    assert got == _decode_in_pieces(ByteWiseDecoder(), stream, cuts)
    assert b"".join(got[0]) == data
