"""Content-addressed artifact cache: correctness under the server LRU.

Satellite coverage from the performance issue: same-key hits must be
bit-identical, the memory bound must actually evict, and a campaign run
with the cache disabled must produce byte-identical reports — the cache
may only ever change *when* work happens, never *what* is produced.
"""

from __future__ import annotations

import pytest

from repro.compression import compress as lzss_compress
from repro.core import (
    DeviceProfile,
    UpdateServer,
    VendorServer,
    make_test_identities,
    provision_device,
)
from repro.crypto import use_engine
from repro.delta import (
    ArtifactCache,
    artifact_key,
    diff as bsdiff_diff,
    shared_cache,
)
from repro.fleet import Campaign, DeviceRecord, RolloutPolicy
from repro.memory import MemoryLayout
from repro.platform import NRF52840, ZEPHYR
from repro.sim import SimulatedDevice
from repro.workload import FirmwareGenerator
from tests.conftest import APP_ID, LINK_OFFSET


def make_firmware(size=4096):
    generator = FirmwareGenerator(seed=b"artifacts")
    old = generator.firmware(size, image_id=1)
    new = generator.app_functionality_change(old, revision=2)
    return old, new


# -- keying -------------------------------------------------------------------


def test_key_is_sha256_pair_plus_params():
    import hashlib
    key = artifact_key(b"old", b"new", b"bsdiff+lzss")
    assert key == (hashlib.sha256(b"old").digest()
                   + hashlib.sha256(b"new").digest()
                   + b"bsdiff+lzss")


def test_params_separate_key_domains():
    cache = ArtifactCache()
    cache.get_or_create(b"o", b"n", b"kind-a", lambda: b"A")
    assert cache.get_or_create(b"o", b"n", b"kind-b", lambda: b"B") == b"B"


# -- hit behaviour ------------------------------------------------------------


def test_same_key_hit_returns_bit_identical_artifact():
    old, new = make_firmware()
    cache = ArtifactCache()
    produced = cache.get_or_create(
        old, new, b"bsdiff+lzss",
        lambda: lzss_compress(bsdiff_diff(old, new)))

    def exploding_producer():
        raise AssertionError("hit must not re-run the producer")

    hit = cache.get_or_create(old, new, b"bsdiff+lzss", exploding_producer)
    assert hit == produced
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1


def test_server_reuses_content_across_instances():
    """Two servers over the same releases share one delta computation."""
    old, new = make_firmware()
    vendor_id, server_id, _ = make_test_identities()
    cache = ArtifactCache()
    deltas = []
    for _ in range(2):
        vendor = VendorServer(vendor_id, app_id=0x41505021,
                              link_offset=0x100)
        server = UpdateServer(server_id, artifacts=cache)
        server.publish(vendor.release(old, 1))
        server.publish(vendor.release(new, 2))
        deltas.append(server._delta_for(1, server._releases[2]))
    assert deltas[0] == deltas[1]
    assert cache.stats.hits >= 1  # second server hit the first's product


# -- memory bound -------------------------------------------------------------


def test_eviction_under_memory_bound():
    cache = ArtifactCache(max_bytes=100)
    for index in range(5):
        cache.put(b"key-%d" % index, bytes(40))
    assert cache.stats.stored_bytes <= 100
    assert cache.stats.evictions == 3
    assert len(cache) == 2
    # Oldest entries went first.
    assert cache.get(b"key-0") is None
    assert cache.get(b"key-4") == bytes(40)


def test_hit_refreshes_lru_position():
    cache = ArtifactCache(max_bytes=100)
    cache.put(b"a", bytes(40))
    cache.put(b"b", bytes(40))
    assert cache.get(b"a") is not None  # refresh a
    cache.put(b"c", bytes(40))          # evicts b, not a
    assert cache.get(b"a") is not None
    assert cache.get(b"b") is None


def test_oversized_artifact_is_passed_through_not_stored():
    cache = ArtifactCache(max_bytes=10)
    assert cache.put(b"k", bytes(100)) == bytes(100)
    assert len(cache) == 0


def test_disabled_cache_always_misses():
    cache = ArtifactCache(max_bytes=0)
    assert not cache.enabled
    runs = []
    for _ in range(3):
        cache.get_or_create(b"o", b"n", b"p",
                            lambda: runs.append(1) or b"x")
    assert len(runs) == 3
    assert len(cache) == 0


def test_cache_rejects_negative_bound():
    with pytest.raises(ValueError):
        ArtifactCache(max_bytes=-1)


# -- campaign equivalence -----------------------------------------------------


def build_campaign(count: int = 8) -> Campaign:
    """A deterministic fleet at v1 with v2 published."""
    generator = FirmwareGenerator(seed=b"artifacts-campaign")
    fw_v1 = generator.firmware(8 * 1024, image_id=1)
    fw_v2 = generator.app_functionality_change(fw_v1, revision=2)
    vendor_id, server_id, anchors = make_test_identities()
    vendor = VendorServer(vendor_id, app_id=APP_ID,
                          link_offset=LINK_OFFSET)
    server = UpdateServer(server_id)
    server.publish(vendor.release(fw_v1, 1))

    fleet = []
    for index in range(count):
        internal = NRF52840.make_internal_flash()
        layout = MemoryLayout.configuration_a(internal, 128 * 1024)
        profile = DeviceProfile(device_id=0x3000 + index, app_id=APP_ID,
                                link_offset=LINK_OFFSET)
        device = SimulatedDevice(
            board=NRF52840, os_profile=ZEPHYR, layout=layout,
            profile=profile, anchors=anchors,
        )
        provision_device(server, layout.get("a"), profile.device_id)
        fleet.append(DeviceRecord(
            name="dev-%02d" % index,
            device=device,
            transport="pull" if index % 2 else "push",
        ))

    server.publish(vendor.release(fw_v2, 2))
    return Campaign(server, fleet, RolloutPolicy(canary_fraction=0.25))


def run_and_snapshot(campaign: Campaign):
    with use_engine("fast"):
        report = campaign.run()
    return (
        report.to_dict(),
        {record.name: record.state for record in campaign.fleet},
        {record.name: record.attempts for record in campaign.fleet},
        {record.name: record.device.installed_version()
         for record in campaign.fleet},
    )


def test_disabled_cache_gives_byte_identical_campaign_reports():
    """The cache is an optimisation only: reports must not change."""
    def campaign_with(cache):
        campaign = build_campaign()
        campaign.server.artifacts = cache
        return run_and_snapshot(campaign)

    enabled = campaign_with(ArtifactCache())
    disabled = campaign_with(ArtifactCache(max_bytes=0))
    assert enabled == disabled


def test_shared_cache_is_a_singleton():
    assert shared_cache() is shared_cache()
