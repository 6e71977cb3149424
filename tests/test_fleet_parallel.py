"""Parallel wave executor tests: same campaign, same report, any executor.

The parallel executor exists to make real wall-clock approach the
within-wave-parallel model the report already claims — it must never
change *what* the campaign computes.  These tests run bit-identical
seeded fleets under the serial and the parallel executor and require
identical ``CampaignReport`` contents, device states, and installed
versions, in success, failure, and abort scenarios.
"""

from __future__ import annotations

from typing import List, Optional, Set

import pytest

from repro.core import (
    DeviceProfile,
    UpdateServer,
    VendorServer,
    make_test_identities,
    provision_device,
)
from repro.crypto import use_engine
from repro.fleet import (
    Campaign,
    DeviceRecord,
    ParallelWaveExecutor,
    RolloutPolicy,
    SerialWaveExecutor,
)
from repro.memory import MemoryLayout
from repro.net import ManifestTamperer
from repro.platform import NRF52840, ZEPHYR
from repro.sim import SimulatedDevice
from repro.workload import FirmwareGenerator
from tests.conftest import APP_ID, LINK_OFFSET

IMAGE_SIZE = 8 * 1024


def build_campaign(executor, count: int = 8,
                   flaky: Optional[Set[int]] = None,
                   policy: Optional[RolloutPolicy] = None) -> Campaign:
    """A deterministic fleet at v1 with v2 published."""
    flaky = flaky or set()
    generator = FirmwareGenerator(seed=b"fleet-parallel")
    fw_v1 = generator.firmware(IMAGE_SIZE, image_id=1)
    fw_v2 = generator.app_functionality_change(fw_v1, revision=2)
    vendor_id, server_id, anchors = make_test_identities()
    vendor = VendorServer(vendor_id, app_id=APP_ID,
                          link_offset=LINK_OFFSET)
    server = UpdateServer(server_id)
    server.publish(vendor.release(fw_v1, 1))

    fleet: List[DeviceRecord] = []
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
            interceptor=ManifestTamperer() if index in flaky else None,
        ))

    server.publish(vendor.release(fw_v2, 2))
    return Campaign(server, fleet,
                    policy or RolloutPolicy(canary_fraction=0.25),
                    executor=executor)


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


#: Pooled executor factories the parity suite runs against serial.
#: Fresh instances per test — each pool is closed after use.
POOLED = [
    pytest.param(lambda: ParallelWaveExecutor(max_workers=4),
                 id="threads"),
]


def run_pooled(make_executor, **kwargs):
    """Build + run a campaign on a pooled executor, then reap its pool."""
    executor = make_executor()
    try:
        return run_and_snapshot(build_campaign(executor, **kwargs))
    finally:
        executor.close()


@pytest.mark.parametrize("workers", [1, 4])
def test_parallel_report_identical_on_success(workers):
    serial = run_and_snapshot(build_campaign(SerialWaveExecutor()))
    parallel = run_and_snapshot(
        build_campaign(ParallelWaveExecutor(max_workers=workers)))
    assert serial == parallel
    report = parallel[0]
    assert not report["aborted"]
    assert len(report["updated"]) == 8


@pytest.mark.parametrize("make_executor", POOLED)
def test_pooled_report_identical_with_failures(make_executor):
    """A flaky non-canary device: retries and the failure list match."""
    policy = RolloutPolicy(canary_fraction=0.25, abort_failure_rate=0.5,
                           max_attempts=2)
    serial = run_and_snapshot(
        build_campaign(SerialWaveExecutor(), flaky={5}, policy=policy))
    pooled = run_pooled(make_executor, flaky={5}, policy=policy)
    assert serial == pooled
    assert serial[0]["failed"] == ["dev-05"]


@pytest.mark.parametrize("make_executor", POOLED)
def test_pooled_report_identical_on_abort(make_executor):
    """All canaries fail: both executors abort and skip the rest."""
    policy = RolloutPolicy(canary_fraction=0.25, abort_failure_rate=0.5,
                           max_attempts=1)
    serial = run_and_snapshot(
        build_campaign(SerialWaveExecutor(), flaky={0, 1},
                       policy=policy))
    pooled = run_pooled(make_executor, flaky={0, 1}, policy=policy)
    assert serial == pooled
    assert serial[0]["aborted"]
    assert len(serial[0]["skipped"]) == 6


def test_parallel_identical_under_both_engines():
    """Executor parity holds on the reference engine too (small fleet)."""
    with use_engine("reference"):
        serial = build_campaign(SerialWaveExecutor(), count=3).run()
        parallel = build_campaign(ParallelWaveExecutor(max_workers=3),
                                  count=3).run()
    assert serial.to_dict() == parallel.to_dict()


def test_chunked_dispatch_covers_every_device():
    """chunk_size smaller than the wave still updates everyone once."""
    executor = ParallelWaveExecutor(max_workers=2, chunk_size=3)
    snapshot = run_and_snapshot(build_campaign(executor, count=10))
    report, _, attempts, versions = snapshot
    assert len(report["updated"]) == 10
    assert all(count == 1 for count in attempts.values())
    assert all(version == 2 for version in versions.values())


def test_executor_validation():
    with pytest.raises(ValueError):
        ParallelWaveExecutor(max_workers=0)
    with pytest.raises(ValueError):
        ParallelWaveExecutor(chunk_size=0)


def test_default_executor_is_serial():
    campaign = build_campaign(None)
    assert isinstance(campaign.executor, SerialWaveExecutor)


def test_parallel_executor_defaults():
    executor = ParallelWaveExecutor()
    assert 1 <= executor.max_workers <= 16
    assert executor.chunk_size == 4 * executor.max_workers


def test_thread_pool_persists_across_waves():
    """The regression fix: one pool serves every wave, then close()."""
    executor = ParallelWaveExecutor(max_workers=2)
    campaign = build_campaign(executor, count=8)
    with use_engine("fast"):
        campaign.run()
    assert executor._pool is not None  # survived past the first wave
    first_pool = executor._pool
    with use_engine("fast"):
        executor.run_wave(lambda record, target: None,
                          campaign.fleet[:4], 2)
    assert executor._pool is first_pool
    executor.close()
    assert executor._pool is None

