"""Black-box journal tests: persistence, ring discipline, post-mortems."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultKind, FaultPoint
from repro.memory import FlashMemory
from repro.obs.blackbox import RECORD_SIZE, BlackBox, _crc16
from repro.tools import chaos


def bitwise_crc16(data: bytes) -> int:
    """CRC-16/CCITT-FALSE one bit at a time: poly 0x1021, init 0xFFFF."""
    crc = 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x1021 if crc & 0x8000 else crc << 1) \
                & 0xFFFF
    return crc


def test_crc16_check_value():
    assert _crc16(b"123456789") == 0x29B1
    assert bitwise_crc16(b"123456789") == 0x29B1


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=64))
def test_crc16_matches_the_bitwise_reference(data):
    assert _crc16(data) == bitwise_crc16(data)


def small_flash(pages=2, page_size=4 * RECORD_SIZE):
    return FlashMemory(pages * page_size, page_size=page_size,
                       name="bb-test")


def test_record_roundtrip():
    box = BlackBox(flash=small_flash())
    box.record("token_issued", phase="propagation", t=1.5)
    box.record("manifest_verified", phase="propagation", t=2.0)
    records = box.records()
    assert [r.label for r in records] == ["token_issued",
                                         "manifest_verified"]
    assert [r.seq for r in records] == [1, 2]
    assert records[0].phase == "propagation"
    assert records[0].t == 1.5


def test_long_labels_are_truncated_not_rejected():
    box = BlackBox(flash=small_flash())
    record = box.record("transfer_interrupted")  # 19 chars > 17
    assert record.label == "transfer_interrup"
    assert box.records()[0].label == "transfer_interrup"


def test_ring_wrap_reclaims_oldest_page():
    box = BlackBox(flash=small_flash())  # capacity: 8 records, 2 pages
    for index in range(11):
        box.record("event_%d" % index)
    records = box.records()
    assert len(records) <= 8
    seqs = [r.seq for r in records]
    assert seqs == sorted(seqs)
    assert records[-1].seq == 11          # newest always survives
    assert records[-1].label == "event_10"


def test_remount_resumes_sequence():
    flash = small_flash()
    first = BlackBox(flash=flash)
    first.record("boot_attempt", phase="loading")
    first.record("boot_selected", phase="running")
    # A power cycle loses the BlackBox object; a fresh mount on the same
    # flash must resume appending after the highest valid sequence.
    second = BlackBox(flash=flash)
    record = second.record("token_issued")
    assert record.seq == 3
    assert [r.seq for r in second.records()] == [1, 2, 3]


def test_torn_record_is_skipped_not_misread():
    flash = small_flash()
    box = BlackBox(flash=flash)
    box.record("good_one")
    box.record("torn_one")
    # Clear bits inside the second record's label: CRC now fails, the
    # way a write interrupted by power loss leaves a half-programmed
    # line.
    flash.write(RECORD_SIZE + 14, b"\x00\x00")
    records = BlackBox(flash=flash).records()
    assert [r.label for r in records] == ["good_one"]


def test_post_mortem_survives_fuzzed_flash():
    """Satellite (PR 7): post_mortem() must *skip* torn/CRC-corrupt
    ring records, never raise — fuzz random corruption and truncation
    over a populated journal."""
    import random

    rng = random.Random(0x7E57)
    for trial in range(40):
        flash = small_flash(pages=2)
        box = BlackBox(flash=flash)
        for index in range(rng.randrange(1, 12)):
            box.record("event_%d" % index,
                       phase=rng.choice(["propagation", "loading"]),
                       t=float(index))
        # Corrupt 1-4 random windows: zeroed bytes model a torn write,
        # random bytes model bit rot; occasionally clobber a whole
        # record-sized slice (the mid-record power-cut shape).
        for _ in range(rng.randrange(1, 5)):
            offset = rng.randrange(0, flash.size - 4)
            width = rng.choice([1, 2, 4, RECORD_SIZE])
            width = min(width, flash.size - offset)
            if rng.random() < 0.5:
                # A torn write clears bits it never meant to (legal
                # NOR write: 1 -> 0 only).
                flash.write(offset, b"\x00" * width)
            else:
                # Bit rot flips bits regardless of NOR discipline.
                flash.corrupt(offset, bytes(rng.randrange(256)
                                            for _ in range(width)))
        remounted = BlackBox(flash=flash)
        report = remounted.post_mortem()       # must never raise
        assert report["record_count"] == len(remounted.records())
        for record in remounted.records():     # survivors decode sanely
            assert record.seq >= 1
            assert record.t >= 0.0


def test_post_mortem_flags_unexpected_boot():
    box = BlackBox(flash=small_flash())
    box.record("token_issued", phase="propagation", t=1.0)
    box.record("manifest_verified", phase="propagation", t=2.0)
    box.record("boot_attempt", phase="loading", t=3.0)   # power loss!
    report = box.post_mortem()
    assert report["interrupted_phase"] == "propagation"
    assert report["interruptions"] == [
        {"t": 3.0, "phase": "propagation", "after": "manifest_verified"}]
    assert report["record_count"] == 3


def test_post_mortem_accepts_clean_reboot():
    box = BlackBox(flash=small_flash())
    box.record("firmware_verified", phase="verification", t=1.0)
    box.record("ready_to_reboot", phase="loading", t=2.0)
    box.record("boot_attempt", phase="loading", t=3.0)
    box.record("boot_selected", phase="running", t=4.0)
    report = box.post_mortem()
    assert report["interruptions"] == []
    assert report["interrupted_phase"] is None
    assert report["last_label"] == "boot_selected"


def test_device_updates_journal_to_blackbox():
    from repro.sim import Testbed

    bed = Testbed.create()
    bed.release(b"\xCD" * 2048, 2)
    assert bed.push_update().success
    labels = [r.label for r in bed.device.blackbox.records()]
    assert "token_issued" in labels
    assert "firmware_verified" in labels
    assert "boot_attempt" in labels
    assert labels[-1] == "boot_selected"
    assert bed.device.blackbox.post_mortem()["interruptions"] == []


def test_chaos_power_loss_leaves_readable_post_mortem():
    """Acceptance: an injected power loss yields a black-box
    post-mortem identifying the interrupted phase."""
    lab = chaos.ChaosLab(image_size=8192)
    result = chaos.run_point(
        lab, FaultPoint(FaultKind.POWER_LOSS_WRITE, 3))
    assert result.status == "updated"       # anti-bricking holds
    box = result.black_box
    assert box is not None
    assert result.power_cycles >= 1
    assert len(box["interruptions"]) >= 1
    assert box["interrupted_phase"] == "propagation"
    assert box["last_label"] == "boot_selected"
    assert box["record_count"] > 0


@pytest.mark.trace
def test_chaos_power_loss_during_swap_attributes_loading():
    """Heavier variant: a power cut late in the flash-op axis lands in
    the install/boot window and must be attributed to ``loading``."""
    lab = chaos.ChaosLab(image_size=8192)
    calibration = chaos.calibrate(lab)
    late = FaultPoint(FaultKind.POWER_LOSS_ANY,
                      calibration.ops_any - 1)
    result = chaos.run_point(lab, late)
    assert result.status != "bricked"
    box = result.black_box
    assert box is not None
    if box["interruptions"]:
        assert box["interrupted_phase"] in ("loading", "verification",
                                            "propagation")
