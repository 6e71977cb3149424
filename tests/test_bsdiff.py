"""bsdiff / streaming bspatch tests."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import compress, decompress
from repro.delta import bsdiff, suffix
from repro.delta import (
    MAGIC,
    PatchFormatError,
    StreamingPatcher,
    diff,
    parse_patch,
    patch,
)


@pytest.mark.parametrize("size", [8 * 1024, 24 * 1024])
@pytest.mark.parametrize("change", ["identical", "app_functionality_change",
                                    "os_version_change"])
def test_numpy_diff_matches_the_pure_python_reference(size, change):
    from repro.workload import FirmwareGenerator

    generator = FirmwareGenerator(seed=b"bsdiff-parity")
    old = generator.firmware(size, image_id=1)
    new = (old if change == "identical"
           else getattr(generator, change)(old, revision=2))
    fast = diff(old, new)
    saved = suffix._np, bsdiff._np
    suffix._np = bsdiff._np = None
    try:
        reference = diff(old, new)
    finally:
        suffix._np, bsdiff._np = saved
    assert fast == reference
    assert patch(old, fast) == new


def mutate(data: bytes, count: int, seed: int = 0) -> bytes:
    rng = random.Random(seed)
    out = bytearray(data)
    for _ in range(count):
        out[rng.randrange(len(out))] = rng.randrange(256)
    return bytes(out)


@pytest.fixture()
def old_firmware(rng):
    return bytes(rng.randrange(256) for _ in range(8000))


def test_roundtrip_small_change(old_firmware):
    new = mutate(old_firmware, 20)
    assert patch(old_firmware, diff(old_firmware, new)) == new


def test_roundtrip_identical(old_firmware):
    assert patch(old_firmware, diff(old_firmware, old_firmware)) \
        == old_firmware


def test_roundtrip_append(old_firmware):
    new = old_firmware + b"new feature code" * 32
    assert patch(old_firmware, diff(old_firmware, new)) == new


def test_roundtrip_prepend(old_firmware):
    new = b"bootstrap" * 10 + old_firmware
    assert patch(old_firmware, diff(old_firmware, new)) == new


def test_roundtrip_truncation(old_firmware):
    new = old_firmware[:3000]
    assert patch(old_firmware, diff(old_firmware, new)) == new


def test_roundtrip_disjoint_content(old_firmware):
    new = bytes((b ^ 0xFF) for b in old_firmware[:4000])
    assert patch(old_firmware, diff(old_firmware, new)) == new


def test_roundtrip_empty_old():
    new = b"built from nothing" * 10
    assert patch(b"", diff(b"", new)) == new


def test_roundtrip_empty_new(old_firmware):
    assert patch(old_firmware, diff(old_firmware, b"")) == b""


def test_patch_smaller_than_full_image_for_similar_files(old_firmware):
    new = mutate(old_firmware, 10)
    compressed_patch = compress(diff(old_firmware, new))
    assert len(compressed_patch) < len(new) // 4


def test_patch_header_magic(old_firmware):
    stream = diff(old_firmware, old_firmware)
    assert stream[:4] == MAGIC


def test_parse_patch_structure(old_firmware):
    new = mutate(old_firmware, 5)
    new_size, records = parse_patch(diff(old_firmware, new))
    assert new_size == len(new)
    total = sum(c.add_len + c.copy_len for c, _, _ in records)
    assert total == len(new)


def test_parse_patch_rejects_bad_magic():
    with pytest.raises(PatchFormatError):
        parse_patch(b"XXXX" + b"\x00" * 16)


def test_parse_patch_rejects_truncated_header():
    with pytest.raises(PatchFormatError):
        parse_patch(b"UP")


def test_streaming_patcher_chunked(old_firmware):
    new = mutate(old_firmware, 30)
    stream = diff(old_firmware, new)
    for chunk_size in (1, 7, 64, 999):
        patcher = StreamingPatcher(old_firmware)
        out = b"".join(patcher.feed(stream[i:i + chunk_size])
                       for i in range(0, len(stream), chunk_size))
        patcher.finish()
        assert out == new
        assert patcher.emitted == len(new)


def test_streaming_patcher_with_reader_callable(old_firmware):
    new = mutate(old_firmware, 10)
    stream = diff(old_firmware, new)
    reads = []

    def reader(offset: int, length: int) -> bytes:
        reads.append((offset, length))
        return old_firmware[offset:offset + length]

    patcher = StreamingPatcher(reader, old_size=len(old_firmware))
    out = patcher.feed(stream)
    patcher.finish()
    assert out == new
    assert reads  # the reader was actually exercised


def test_streaming_patcher_reader_requires_size():
    with pytest.raises(ValueError):
        StreamingPatcher(lambda off, ln: b"", old_size=None)


def test_streaming_patcher_rejects_bad_magic(old_firmware):
    patcher = StreamingPatcher(old_firmware)
    with pytest.raises(PatchFormatError):
        patcher.feed(b"BAD!" + b"\x00" * 32)


def test_streaming_patcher_rejects_trailing_garbage(old_firmware):
    stream = diff(old_firmware, old_firmware) + b"\x01"
    patcher = StreamingPatcher(old_firmware)
    with pytest.raises(PatchFormatError):
        patcher.feed(stream)
        patcher.finish()


def test_streaming_patcher_rejects_truncated_stream(old_firmware):
    new = mutate(old_firmware, 5)
    stream = diff(old_firmware, new)
    patcher = StreamingPatcher(old_firmware)
    patcher.feed(stream[:len(stream) // 2])
    with pytest.raises(PatchFormatError):
        patcher.finish()


def test_streaming_patcher_rejects_oob_diff_region():
    # Control record claiming 100 add bytes against a 10-byte old file.
    import struct
    header = struct.pack(">4sI", MAGIC, 100)
    control = struct.pack(">IIq", 100, 0, 0)
    patcher = StreamingPatcher(b"0123456789")
    with pytest.raises(PatchFormatError):
        patcher.feed(header + control + b"\x00" * 100)


def test_composes_with_lzss(old_firmware):
    new = mutate(old_firmware, 40, seed=5)
    wire = compress(diff(old_firmware, new))
    assert patch(old_firmware, decompress(wire)) == new


@settings(max_examples=25, deadline=None)
@given(st.binary(max_size=600), st.binary(max_size=600))
def test_roundtrip_property(old, new):
    assert patch(old, diff(old, new)) == new


@settings(max_examples=15, deadline=None)
@given(st.binary(min_size=50, max_size=400), st.data())
def test_mutation_roundtrip_property(old, data):
    positions = data.draw(st.lists(
        st.integers(min_value=0, max_value=len(old) - 1), max_size=10))
    new = bytearray(old)
    for pos in positions:
        new[pos] ^= 0x55
    assert patch(old, diff(old, bytes(new))) == bytes(new)
