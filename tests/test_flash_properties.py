"""Property-based NOR-flash invariants.

The memory substrate underpins every power-loss argument, so its
semantics get their own hypothesis battery: arbitrary interleavings of
erases and writes must preserve the NOR model (a byte is the AND of
everything written since its last erase; erased bytes read 0xFF).
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import FlashError, FlashMemory, PowerLossError

PAGES = 4
PAGE = 256
SIZE = PAGES * PAGE


operations = st.lists(
    st.one_of(
        st.tuples(st.just("erase"),
                  st.integers(min_value=0, max_value=PAGES - 1)),
        st.tuples(st.just("write"),
                  st.tuples(st.integers(min_value=0, max_value=SIZE - 8),
                            st.binary(min_size=1, max_size=8))),
    ),
    max_size=30,
)


def reference_apply(ops):
    """A trivially-correct NOR model to compare against."""
    data = bytearray(b"\xFF" * SIZE)
    results = []
    for op, arg in ops:
        if op == "erase":
            start = arg * PAGE
            data[start:start + PAGE] = b"\xFF" * PAGE
            results.append(True)
        else:
            offset, payload = arg
            legal = all(
                (payload[i] & ~data[offset + i] & 0xFF) == 0
                for i in range(len(payload))
            )
            results.append(legal)
            if legal:
                for i, byte in enumerate(payload):
                    data[offset + i] &= byte
    return bytes(data), results


@settings(max_examples=60, deadline=None)
@given(operations)
def test_nor_semantics_match_reference(ops):
    flash = FlashMemory(SIZE, page_size=PAGE)
    expected_data, expected_legal = reference_apply(ops)
    for (op, arg), legal in zip(ops, expected_legal):
        if op == "erase":
            flash.erase_page(arg)
        else:
            offset, payload = arg
            if legal:
                flash.write(offset, payload)
            else:
                try:
                    flash.write(offset, payload)
                    raise AssertionError("illegal write accepted")
                except FlashError:
                    pass
    assert flash.snapshot() == expected_data


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=PAGES - 1),
       st.binary(min_size=1, max_size=PAGE))
def test_erase_write_read_roundtrip(page, payload):
    flash = FlashMemory(SIZE, page_size=PAGE)
    offset = page * PAGE
    flash.write(offset, b"\x00" * len(payload))  # dirty it
    flash.erase_page(page)
    flash.write(offset, payload)
    assert flash.read(offset, len(payload)) == payload


@settings(max_examples=40, deadline=None)
@given(operations)
def test_stats_are_consistent(ops):
    flash = FlashMemory(SIZE, page_size=PAGE)
    erases = 0
    writes = 0
    for op, arg in ops:
        if op == "erase":
            flash.erase_page(arg)
            erases += 1
        else:
            offset, payload = arg
            try:
                flash.write(offset, payload)
                writes += 1
            except FlashError:
                pass
    assert flash.stats.pages_erased == erases
    assert flash.stats.write_calls == writes
    assert sum(flash.stats.erase_counts) == erases
    assert flash.stats.busy_seconds > 0 or (erases == 0 and writes == 0)


# -- page-crossing operations against a byte-array model ----------------------

WIDE = 2 * PAGE   # payloads up to two pages, so ranges span three pages


class NorModel:
    """A flat byte-array NOR device with the same cost accounting."""

    def __init__(self, timing):
        self.data = bytearray(b"\xFF" * SIZE)
        self.timing = timing
        self.bytes_read = 0
        self.bytes_written = 0
        self.write_calls = 0
        self.pages_erased = 0
        self.erase_counts = [0] * PAGES
        self.busy_seconds = 0.0

    def first_conflict(self, offset, payload):
        for i, byte in enumerate(payload):
            if byte & ~self.data[offset + i] & 0xFF:
                return offset + i
        return None

    def read(self, offset, length):
        self.bytes_read += length
        self.busy_seconds += length / self.timing.read_bytes_per_second
        return bytes(self.data[offset:offset + length])

    def write(self, offset, payload):
        for i, byte in enumerate(payload):
            self.data[offset + i] &= byte
        self.bytes_written += len(payload)
        self.write_calls += 1
        self.busy_seconds += (
            len(payload) / self.timing.write_bytes_per_second
            + self.timing.write_call_overhead_seconds)

    def erase_page(self, page):
        self.data[page * PAGE:(page + 1) * PAGE] = b"\xFF" * PAGE
        self.pages_erased += 1
        self.erase_counts[page] += 1
        self.busy_seconds += self.timing.erase_page_seconds

    def half_erase_page(self, page):
        start = page * PAGE + PAGE // 2
        self.data[start:(page + 1) * PAGE] = b"\xFF" * (PAGE // 2)
        self.erase_counts[page] += 1
        self.busy_seconds += self.timing.erase_page_seconds / 2

    def assert_matches(self, flash):
        assert flash.snapshot() == bytes(self.data)
        stats = flash.stats
        assert (stats.bytes_read, stats.bytes_written, stats.write_calls,
                stats.pages_erased, stats.erase_counts) == (
            self.bytes_read, self.bytes_written, self.write_calls,
            self.pages_erased, self.erase_counts)
        assert stats.busy_seconds == self.busy_seconds


@st.composite
def spans(draw, min_length=0):
    offset = draw(st.integers(min_value=0, max_value=SIZE - min_length))
    length = draw(st.integers(min_value=min_length,
                              max_value=min(WIDE, SIZE - offset)))
    return offset, length


@st.composite
def payload_ops(draw, kind):
    offset, length = draw(spans())
    fill = st.sampled_from([0x00, 0x0F, 0xF0, 0x5A, 0xFF])
    payload = draw(st.one_of(st.binary(min_size=length, max_size=length),
                             fill.map(lambda byte: bytes([byte]) * length)))
    return kind, (offset, payload)


wide_operations = st.lists(
    st.one_of(
        st.tuples(st.just("erase"),
                  st.integers(min_value=0, max_value=PAGES - 1)),
        st.tuples(st.just("erase_range"), spans()),
        st.tuples(st.just("read"), spans()),
        st.tuples(st.just("is_erased"), spans()),
        st.tuples(st.just("pickle"), st.none()),
        payload_ops("write"),
        # Clear bits only (legal over whatever is there): the payload is
        # the current contents ANDed with this mask.
        payload_ops("write_and"),
        payload_ops("corrupt"),
    ),
    max_size=25,
)


def apply(flash, model, op, arg):
    if op == "erase":
        flash.erase_page(arg)
        model.erase_page(arg)
    elif op == "erase_range":
        offset, length = arg
        flash.erase_range(offset, length)
        if length:
            for page in range(offset // PAGE,
                              (offset + length - 1) // PAGE + 1):
                model.erase_page(page)
    elif op == "read":
        assert flash.read(*arg) == model.read(*arg)
    elif op == "is_erased":
        offset, length = arg
        assert flash.is_erased(offset, length) == all(
            byte == 0xFF for byte in model.data[offset:offset + length])
    elif op == "pickle":
        flash = pickle.loads(pickle.dumps(flash))
    elif op == "corrupt":
        offset, payload = arg
        flash.corrupt(offset, payload)
        model.data[offset:offset + len(payload)] = payload
    else:
        offset, payload = arg
        if op == "write_and":
            current = model.data[offset:offset + len(payload)]
            payload = bytes(a & b for a, b in zip(current, payload))
        conflict = model.first_conflict(offset, payload)
        if conflict is None:
            flash.write(offset, payload)
            model.write(offset, payload)
        else:
            before = flash.snapshot()
            with pytest.raises(FlashError) as excinfo:
                flash.write(offset, payload)
            assert "write at 0x%X would set bits" % conflict \
                in str(excinfo.value)
            assert flash.snapshot() == before   # nothing landed
    return flash


@settings(max_examples=150, deadline=None)
@given(wide_operations)
def test_page_crossing_ops_match_byte_array_model(ops):
    flash = FlashMemory(SIZE, page_size=PAGE)
    model = NorModel(flash.timing)
    for op, arg in ops:
        flash = apply(flash, model, op, arg)
        model.assert_matches(flash)


@settings(max_examples=60, deadline=None)
@given(wide_operations, payload_ops("write_and"),
       st.integers(min_value=0, max_value=PAGES - 1))
def test_power_loss_mid_write_and_mid_erase_match_model(ops, write, page):
    flash = FlashMemory(SIZE, page_size=PAGE)
    model = NorModel(flash.timing)
    for op, arg in ops:
        flash = apply(flash, model, op, arg)

    # A write cut by power loss lands exactly its first half.
    _, (offset, mask) = write
    current = model.data[offset:offset + len(mask)]
    payload = bytes(a & b for a, b in zip(current, mask))
    flash.inject_power_loss(0, during="write")
    with pytest.raises(PowerLossError):
        flash.write(offset, payload)
    half = payload[:len(payload) // 2]
    if half:
        model.write(offset, half)
    model.assert_matches(flash)

    # An erase cut by power loss leaves the head stale, the tail erased.
    flash.inject_power_loss(0, during="erase")
    with pytest.raises(PowerLossError):
        flash.erase_page(page)
    model.half_erase_page(page)
    model.assert_matches(flash)


def test_rejected_write_names_first_offending_offset_across_pages():
    flash = FlashMemory(SIZE, page_size=PAGE)
    flash.write(PAGE + 3, b"\x00")          # programs byte 0x103 only
    payload = b"\xFF" * (PAGE + 8)          # spans pages 0, 1 and 2
    with pytest.raises(FlashError, match="write at 0x103 would set"):
        flash.write(PAGE // 2, payload)
    assert flash.snapshot() == (b"\xFF" * (PAGE + 3) + b"\x00"
                                + b"\xFF" * (SIZE - PAGE - 4))
    assert flash.stats.write_calls == 1


def test_erased_pages_stay_unmaterialised_and_pickle_sparsely():
    big = FlashMemory(1024 * 1024, page_size=4096)
    empty_pickle = len(pickle.dumps(big))
    big.write(5 * 4096 + 10, b"\x00" * 4096)   # touches pages 5 and 6
    assert len(pickle.dumps(big)) < empty_pickle + 3 * 4096
    big.erase_range(5 * 4096, 2 * 4096)
    big.reset_stats()
    assert len(pickle.dumps(big)) == empty_pickle
    assert big.is_erased(0, big.size)
