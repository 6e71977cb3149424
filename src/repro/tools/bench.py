"""Fleet-scale performance benchmark harness.

Measures the hot path the ROADMAP's "millions of devices" north star
depends on, under both crypto engines and both wave executors:

* SHA-256 throughput (MB/s) — reference (from-scratch) vs. fast
  (hashlib) engine;
* ECDSA verify throughput (verifies/s) — plain Shamir-trick verify vs.
  fixed-window precomputed tables (distinct digests, so the
  verification cache is *not* what is being measured);
* delta generation time — bsdiff + LZSS over a firmware pair (engine
  independent, but it gates campaign start-up);
* end-to-end campaign throughput (devices/s) on a seeded fleet, for
  the seed path (reference engine, serial executor), the fast engine
  alone, and the fast engine + thread-pool executor — asserting along
  the way that every configuration produces the *identical*
  :class:`~repro.fleet.campaign.CampaignReport`.

The campaign runs under two **profiles**:

* ``campaign`` (CPU profile) — pure simulation, no host-paced waits.
  This is where the GIL finding shows up: the thread pool *loses* to
  serial because threads serialise on the GIL.
  :func:`find_inversions` names these inversions; ``cli bench
  --strict`` turns them into a nonzero exit.
* ``campaign_io`` (I/O profile) — each request round-trip sleeps a
  host RTT (:class:`~repro.net.transports` ``host_rtt_seconds``),
  modeling a live network between campaign runner and update server.
  Sleeps release the GIL and never touch the virtual clock, so the
  thread pool overlaps them and wins while reports stay
  byte-identical.

Results are written to ``BENCH_fleet.json`` (repo root by convention)
so subsequent PRs can track the trajectory::

    python -m repro.tools.cli bench --devices 50 --out BENCH_fleet.json

:func:`run_delta` measures the vectorised delta-generation fast path
(bsdiff + LZSS) against the preserved pure-Python reference path on
the same firmware pair — byte-identical outputs are asserted, the
speedup is the headline — and writes ``BENCH_delta.json``::

    python -m repro.tools.cli bench --delta-out BENCH_delta.json

``benchmarks/test_perf_fleet.py`` / ``test_perf_delta.py`` run the
same harnesses under the ``perf`` pytest marker (excluded from the
tier-1 suite); ``tests/test_perf_smoke.py`` runs a bounded smoke
subset inside tier-1.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..core import (
    DeviceProfile,
    UpdateServer,
    VendorServer,
    make_test_identities,
    provision_device,
)
from ..crypto import generate_keypair, use_engine
from ..crypto.engine import FastEngine, get_engine
from ..delta import diff as bsdiff_diff, patch as bspatch_apply
from ..delta import bsdiff as _bsdiff_mod
from ..delta import suffix as _suffix_mod
from ..compression import compress as lzss_compress, decompress as lzss_decompress
from ..compression import lzss as _lzss_mod
from ..fleet import (
    Campaign,
    ColumnarFleet,
    DeviceRecord,
    DeviceSpec,
    ParallelWaveExecutor,
    RolloutPolicy,
    ScaleCampaign,
    SerialWaveExecutor,
)
from ..memory import MemoryLayout
from ..obs import MetricsRegistry, bind_engine, bind_server
from ..platform import NRF52840, ZEPHYR
from ..sim import SimulatedDevice
from ..workload import FirmwareGenerator
from .report import host_info, write_report

__all__ = [
    "bench_sha256",
    "bench_verify",
    "bench_delta",
    "bench_delta_fastpath",
    "bench_campaign",
    "bench_fleet_scale",
    "find_inversions",
    "run_all",
    "run_delta",
    "write_results",
    "write_delta_results",
    "compare_to_baseline",
    "GATE_METRICS",
    "IO_GATE_METRICS",
    "DELTA_GATE_METRICS",
    "FLEET_SCALE_HIGHER_IS_BETTER",
    "FLEET_SCALE_LOWER_IS_BETTER",
    "SERVER_GATE_HIGHER_IS_BETTER",
    "SERVER_GATE_LOWER_IS_BETTER",
    "SERVER_WORKLOAD_KEYS",
    "DEFAULT_TOLERANCE",
]

APP_ID = 0x55504B49
LINK_OFFSET = 0x8000


def _mb_per_s(nbytes: int, seconds: float) -> float:
    return nbytes / (1024.0 * 1024.0) / seconds if seconds > 0 else 0.0


# -- primitives -------------------------------------------------------------


def bench_sha256(reference_bytes: int = 128 * 1024,
                 fast_bytes: int = 16 * 1024 * 1024) -> Dict[str, float]:
    """SHA-256 MB/s per engine (sized so each run takes well under 1 s)."""
    results: Dict[str, float] = {}
    for name, nbytes in (("reference", reference_bytes),
                         ("fast", fast_bytes)):
        data = b"\xA5" * nbytes
        with use_engine(name) as engine:
            engine.sha256(b"warmup")
            start = time.perf_counter()
            engine.sha256(data)
            elapsed = time.perf_counter() - start
        results["%s_mb_per_s" % name] = round(_mb_per_s(nbytes, elapsed), 2)
    results["speedup"] = round(
        results["fast_mb_per_s"] / results["reference_mb_per_s"], 1)
    return results


def bench_verify(reference_iterations: int = 20,
                 fast_iterations: int = 60) -> Dict[str, float]:
    """ECDSA verifies/s per engine, over *distinct* digests.

    Distinct digests keep the fast engine's verification cache out of
    the measurement: what is timed is the table-accelerated scalar
    math, i.e. the cost of verifying signatures never seen before.
    """
    key = generate_keypair(b"bench-verify")
    public = key.public_key()
    count = max(reference_iterations, fast_iterations)
    messages = [b"bench message %06d" % i for i in range(count)]
    with use_engine("fast"):
        signatures = [key.sign(message) for message in messages]

    results: Dict[str, float] = {}
    for name, iterations in (("reference", reference_iterations),
                             ("fast", fast_iterations)):
        with use_engine(name) as engine:
            if isinstance(engine, FastEngine):
                engine.clear_caches()
                # Warm past table_threshold so steady-state table math
                # is measured, not the one-time table build.
                for i in range(engine.table_threshold + 1):
                    public.verify(signatures[i], messages[i])
            start = time.perf_counter()
            for i in range(iterations):
                ok = public.verify(signatures[i], messages[i])
                assert ok
            elapsed = time.perf_counter() - start
        results["%s_verifies_per_s" % name] = round(iterations / elapsed, 1)
    results["speedup"] = round(
        results["fast_verifies_per_s"] / results["reference_verifies_per_s"],
        1)
    return results


def bench_delta(image_size: int = 48 * 1024) -> Dict[str, float]:
    """bsdiff + LZSS generation time for one firmware pair."""
    generator = FirmwareGenerator(seed=b"bench-delta")
    old = generator.firmware(image_size, image_id=1)
    new = generator.os_version_change(old, revision=2)
    start = time.perf_counter()
    patch = bsdiff_diff(old, new)
    diff_seconds = time.perf_counter() - start
    start = time.perf_counter()
    delta = lzss_compress(patch)
    compress_seconds = time.perf_counter() - start
    return {
        "firmware_bytes": image_size,
        "patch_bytes": len(patch),
        "delta_bytes": len(delta),
        "bsdiff_seconds": round(diff_seconds, 4),
        "lzss_seconds": round(compress_seconds, 4),
        "total_seconds": round(diff_seconds + compress_seconds, 4),
    }


def bench_delta_fastpath(image_size: int = 96 * 1024) -> Dict[str, object]:
    """Vectorised vs. pure-Python delta generation on one firmware pair.

    The numpy fast path (suffix-array construction, bucket-boundary
    match search, hash-chain LZSS) and the preserved pure-Python
    reference path are run over the *same* pair; the patch and the
    compressed delta must come out byte-identical, and both are
    round-tripped (LZSS decode, bspatch apply) before any timing is
    reported.  The reference path is selected by nulling the modules'
    ``_np`` handles — exactly the no-numpy import fallback.

    The fast path is warmed once and reported as best-of-3 (suffix
    array construction is included each run; only allocator/cache
    warm-up is excluded).  The reference path runs once — it is the
    slow side, and noise on the slow side only *understates* the
    speedup.
    """
    generator = FirmwareGenerator(seed=b"bench-delta")
    old = generator.firmware(image_size, image_id=1)
    new = generator.os_version_change(old, revision=2)

    def run_pair() -> "tuple[bytes, bytes, float, float]":
        start = time.perf_counter()
        patch_bytes = bsdiff_diff(old, new)
        diff_seconds = time.perf_counter() - start
        start = time.perf_counter()
        delta = lzss_compress(patch_bytes)
        compress_seconds = time.perf_counter() - start
        return patch_bytes, delta, diff_seconds, compress_seconds

    saved = (_suffix_mod._np, _bsdiff_mod._np, _lzss_mod._np)
    try:
        _suffix_mod._np = None
        _bsdiff_mod._np = None
        _lzss_mod._np = None
        ref_patch, ref_delta, ref_diff_s, ref_comp_s = run_pair()
    finally:
        _suffix_mod._np, _bsdiff_mod._np, _lzss_mod._np = saved

    run_pair()  # warm-up
    fast_patch = fast_delta = b""
    fast_diff_s = fast_comp_s = float("inf")
    for _ in range(3):
        patch_bytes, delta, diff_s, comp_s = run_pair()
        if diff_s + comp_s < fast_diff_s + fast_comp_s:
            fast_patch, fast_delta = patch_bytes, delta
            fast_diff_s, fast_comp_s = diff_s, comp_s

    identical = (fast_patch == ref_patch) and (fast_delta == ref_delta)
    if not identical:
        raise AssertionError(
            "delta fast path diverged from the pure-Python reference")
    if lzss_decompress(fast_delta) != fast_patch:
        raise AssertionError("LZSS round-trip failed on the benched delta")
    if bspatch_apply(old, fast_patch) != new:
        raise AssertionError("bspatch round-trip failed on the benched patch")

    fast_total = fast_diff_s + fast_comp_s
    ref_total = ref_diff_s + ref_comp_s
    return {
        "firmware_bytes": image_size,
        "patch_bytes": len(fast_patch),
        "delta_bytes": len(fast_delta),
        "fast": {
            "bsdiff_seconds": round(fast_diff_s, 4),
            "lzss_seconds": round(fast_comp_s, 4),
            "total_seconds": round(fast_total, 4),
        },
        "reference": {
            "bsdiff_seconds": round(ref_diff_s, 4),
            "lzss_seconds": round(ref_comp_s, 4),
            "total_seconds": round(ref_total, 4),
        },
        "speedup": round(ref_total / fast_total, 2) if fast_total > 0 else 0.0,
        "byte_identical": True,
    }


# -- campaign ---------------------------------------------------------------


def _build_campaign(device_count: int, image_size: int,
                    executor, metrics=None,
                    host_rtt_seconds: float = 0.0) -> Campaign:
    """A seeded fleet at v1 with v2 published, ready to run.

    Construction is fully deterministic, so every configuration under
    test drives a bit-identical fleet against a bit-identical release.
    ``host_rtt_seconds`` > 0 selects the I/O profile: every control
    exchange sleeps that long on the host clock (the virtual clock is
    untouched, so reports stay identical across executors).
    """
    generator = FirmwareGenerator(seed=b"bench-campaign")
    fw_v1 = generator.firmware(image_size, image_id=1)
    fw_v2 = generator.os_version_change(fw_v1, revision=2)
    vendor_id, server_id, anchors = make_test_identities()
    vendor = VendorServer(vendor_id, app_id=APP_ID,
                          link_offset=LINK_OFFSET)
    server = UpdateServer(server_id)
    server.publish(vendor.release(fw_v1, 1))

    fleet: List[DeviceRecord] = []
    for index in range(device_count):
        internal = NRF52840.make_internal_flash()
        layout = MemoryLayout.configuration_a(internal, 128 * 1024)
        profile = DeviceProfile(device_id=0x4000 + index, app_id=APP_ID,
                                link_offset=LINK_OFFSET)
        device = SimulatedDevice(
            board=NRF52840, os_profile=ZEPHYR, layout=layout,
            profile=profile, anchors=anchors,
        )
        provision_device(server, layout.get("a"), profile.device_id)
        fleet.append(DeviceRecord(
            name="bench-%03d" % index,
            device=device,
            transport="pull" if index % 2 else "push",
            host_rtt_seconds=host_rtt_seconds,
        ))

    server.publish(vendor.release(fw_v2, 2))
    return Campaign(server, fleet, RolloutPolicy(canary_fraction=0.1),
                    executor=executor, metrics=metrics)


def _build_scale_campaign(device_count: int,
                          image_size: int) -> ScaleCampaign:
    """The same seeded workload as :func:`_build_campaign`, columnar.

    Fleet membership is a :class:`~repro.fleet.ColumnarFleet` (one row
    per device); the hydrator provisions lazily against a server view
    where v1 is still the latest release, so a device materialised
    after v2 ships factory-installs the identical v1 image the
    hydrated path provisioned up front (envelope signatures are
    deterministic and content-addressed).
    """
    generator = FirmwareGenerator(seed=b"bench-campaign")
    fw_v1 = generator.firmware(image_size, image_id=1)
    fw_v2 = generator.os_version_change(fw_v1, revision=2)
    vendor_id, server_id, anchors = make_test_identities()
    vendor = VendorServer(vendor_id, app_id=APP_ID,
                          link_offset=LINK_OFFSET)
    release_v1 = vendor.release(fw_v1, 1)
    server = UpdateServer(server_id)
    server.publish(release_v1)
    provisioning = UpdateServer(server_id)
    provisioning.publish(release_v1)
    server.publish(vendor.release(fw_v2, 2))

    def spec_fn(index: int) -> DeviceSpec:
        return DeviceSpec(name="bench-%03d" % index,
                          device_id=0x4000 + index,
                          transport="pull" if index % 2 else "push")

    def hydrator(spec: DeviceSpec) -> DeviceRecord:
        internal = NRF52840.make_internal_flash()
        layout = MemoryLayout.configuration_a(internal, 128 * 1024)
        profile = DeviceProfile(device_id=spec.device_id, app_id=APP_ID,
                                link_offset=LINK_OFFSET)
        device = SimulatedDevice(
            board=NRF52840, os_profile=ZEPHYR, layout=layout,
            profile=profile, anchors=anchors,
        )
        provision_device(provisioning, layout.get("a"), spec.device_id)
        return DeviceRecord(name=spec.name, device=device,
                            transport=spec.transport,
                            host_rtt_seconds=spec.host_rtt_seconds)

    fleet = ColumnarFleet(device_count, spec_fn, baseline_version=1)
    return ScaleCampaign(server, fleet, hydrator,
                         RolloutPolicy(canary_fraction=0.1),
                         anchors=anchors)


def _sampled_parity(sample_devices: int, image_size: int) -> bool:
    """Hydrated vs. columnar cross-check on a small sampled fleet.

    Runs the same seeded workload through both campaign flavours and
    requires the materialised :class:`CampaignReport` *and* every
    per-device entry to be byte-identical.  Raises on divergence —
    a fleet-scale artifact must never ship numbers from a path that
    disagrees with the reference implementation.
    """
    from ..fleet import ScaleReport

    with use_engine("fast") as engine:
        engine.clear_caches()
        hydrated = _build_campaign(sample_devices, image_size,
                                   SerialWaveExecutor())
        hydrated_report = hydrated.run()
        engine.clear_caches()
        scale = _build_scale_campaign(sample_devices, image_size)
        scale_report = scale.run()
    if (scale_report.to_campaign_report().to_dict()
            != hydrated_report.to_dict()):
        raise AssertionError(
            "columnar campaign report diverged from the hydrated path")
    for index, record in enumerate(hydrated.fleet):
        if (scale_report.device_entry(index)
                != ScaleReport.record_entry(record)):
            raise AssertionError(
                "columnar device entry %d diverged from the hydrated "
                "record" % index)
    return True


def bench_fleet_scale(device_count: int = 10_000,
                      image_size: int = 24 * 1024,
                      sample_devices: int = 20) -> Dict[str, object]:
    """Columnar campaign throughput and memory-per-device tracking.

    Runs a :class:`~repro.fleet.ScaleCampaign` over ``device_count``
    columnar rows (hydrating only cohort representatives), recording
    devices/s, peak RSS (``resource.getrusage``) and columnar
    bytes/row.  A ``sample_devices``-sized hydrated-vs-columnar parity
    cross-check runs first and the artifact records its verdict.
    """
    import resource

    parity = _sampled_parity(sample_devices, image_size)
    campaign = _build_scale_campaign(device_count, image_size)
    with use_engine("fast") as engine:
        engine.clear_caches()
        start = time.perf_counter()
        report = campaign.run()
        elapsed = time.perf_counter() - start
    peak_rss_kb = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    summary = report.summary()
    if summary["updated"] != device_count or summary["aborted"]:
        raise AssertionError(
            "fleet-scale campaign did not fully succeed: %r" % summary)
    summary.update({
        "image_bytes": image_size,
        "scale_seconds": round(elapsed, 3),
        "devices_per_s": round(device_count / elapsed, 1),
        "peak_rss_kb": peak_rss_kb,
        "sampled_parity": parity,
        "sample_devices": sample_devices,
    })
    return summary


def bench_campaign(device_count: int = 50,
                   image_size: int = 24 * 1024,
                   max_workers: Optional[int] = None,
                   host_rtt_seconds: float = 0.0,
                   include_reference: bool = True
                   ) -> Dict[str, object]:
    """End-to-end campaign throughput per engine/executor configuration.

    Three configurations by default — reference engine + serial
    executor (the seed path), fast engine + serial, fast engine +
    thread pool.  ``include_reference=False`` drops the
    slow seed path (used for the I/O profile, where only the executor
    comparison is interesting).  Every configuration must produce the
    identical :class:`CampaignReport` or the bench raises.
    """
    configurations = []
    if include_reference:
        configurations.append(
            ("reference_serial", "reference", SerialWaveExecutor()))
    configurations.append(("fast_serial", "fast", SerialWaveExecutor()))
    configurations.append(
        ("fast_parallel", "fast", ParallelWaveExecutor(max_workers=max_workers)))
    results: Dict[str, object] = {
        "devices": device_count,
        "image_bytes": image_size,
    }
    if host_rtt_seconds > 0.0:
        results["host_rtt_seconds"] = host_rtt_seconds
    reports = {}
    crypto_stats: Dict[str, object] = {}
    server_stats: Dict[str, object] = {}
    metrics_out: Dict[str, object] = {}
    for label, engine_name, executor in configurations:
        # One registry per configuration: campaign wave counters and the
        # engine/server stats mirrors land side by side.  Observation is
        # purely additive — the CampaignReport equality assertion below
        # is what proves it.
        registry = MetricsRegistry()
        executor.metrics = registry
        campaign = _build_campaign(device_count, image_size, executor,
                                   metrics=registry,
                                   host_rtt_seconds=host_rtt_seconds)
        bind_server(registry, campaign.server)
        try:
            with use_engine(engine_name) as engine:
                if isinstance(engine, FastEngine):
                    engine.clear_caches()   # cold start: tables count too
                    bind_engine(registry, engine)
                start = time.perf_counter()
                report = campaign.run()
                elapsed = time.perf_counter() - start
                crypto_stats[label] = (engine.stats.to_dict()
                                       if isinstance(engine, FastEngine)
                                       else None)
        finally:
            executor.close()
        server_stats[label] = campaign.server.stats.to_dict()
        metrics_out[label] = registry.snapshot()
        if report.aborted or len(report.updated) != device_count:
            raise AssertionError(
                "benchmark campaign %s did not fully succeed: %r"
                % (label, report.to_dict()))
        reports[label] = report.to_dict()
        results["%s_seconds" % label] = round(elapsed, 3)
        results["%s_devices_per_s" % label] = round(
            device_count / elapsed, 2)
    baseline_report = reports["fast_serial"]
    for label, report_dict in reports.items():
        if report_dict != baseline_report:
            raise AssertionError(
                "campaign report for %s diverged from fast_serial" % label)
    results["reports_identical"] = True
    if include_reference:
        results["speedup"] = round(
            results["reference_serial_seconds"]
            / results["fast_parallel_seconds"], 2)
    results["thread_speedup"] = round(
        results["fast_serial_seconds"] / results["fast_parallel_seconds"], 2)
    if isinstance(max_workers, int):
        results["max_workers"] = max_workers
    results["crypto_stats"] = crypto_stats
    results["server_stats"] = server_stats
    results["metrics"] = metrics_out
    return results


def find_inversions(results: Dict[str, object]) -> List[str]:
    """Name every executor inversion in a bench result document.

    An *inversion* is the thread-pool executor running *slower* than
    the serial executor under the same engine — the empirical GIL
    finding on CPU-bound waves.  Returns human-readable descriptions;
    ``cli bench`` prints them as warnings and ``--strict``
    turns a non-empty list into a nonzero exit.  Tolerates partial or
    synthetic documents: sections and metrics that are absent are
    simply skipped.
    """
    inversions: List[str] = []
    for section in ("campaign", "campaign_io"):
        data = results.get(section)
        if not isinstance(data, dict):
            continue
        serial = data.get("fast_serial_seconds")
        if not isinstance(serial, (int, float)) or serial <= 0:
            continue
        value = data.get("fast_parallel_seconds")
        if isinstance(value, (int, float)) and value > serial:
            inversions.append(
                "%s: fast_parallel (%.3f s) is slower than fast_serial "
                "(%.3f s) — pooled execution loses on this host/profile"
                % (section, value, serial))
    return inversions


# -- harness ----------------------------------------------------------------


def run_all(device_count: int = 50, image_size: int = 24 * 1024,
            max_workers: Optional[int] = None,
            io_rtt_seconds: float = 0.05,
            scale_devices: Optional[int] = None) -> Dict[str, object]:
    """Run every benchmark; returns the JSON-ready result document.

    ``scale_devices`` sizes the columnar ``fleet_scale`` section; the
    hydrated executor-comparison campaigns stay capped at
    ``device_count`` (hydrating a million full simulators is exactly
    what the columnar path exists to avoid).
    """
    previous = get_engine().name
    campaign = bench_campaign(device_count, image_size, max_workers)
    # I/O profile: no reference engine (only the executor comparison is
    # interesting), pool sized for overlapping waits rather than cores.
    io_workers = max_workers or 8
    campaign_io = bench_campaign(
        device_count, image_size, max_workers=io_workers,
        host_rtt_seconds=io_rtt_seconds, include_reference=False)
    for key in ("crypto_stats", "server_stats", "metrics"):
        campaign_io.pop(key, None)
    results = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": host_info(),
        "sha256": bench_sha256(),
        "ecdsa_verify": bench_verify(),
        "delta_generation": bench_delta(),
        # Engine/server telemetry lives top-level so the schema
        # validator can insist on it without digging into the campaign.
        "crypto_stats": campaign.pop("crypto_stats"),
        "server_stats": campaign.pop("server_stats"),
        "metrics": campaign.pop("metrics"),
        "campaign": campaign,
        "campaign_io": campaign_io,
        "fleet_scale": bench_fleet_scale(
            scale_devices or max(device_count, 10_000), image_size),
    }
    assert get_engine().name == previous, "bench must not leak engine state"
    return results


def run_delta(image_size: int = 96 * 1024) -> Dict[str, object]:
    """Run the delta fast-path benchmark; returns the JSON document."""
    return {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": host_info(),
        "delta_fastpath": bench_delta_fastpath(image_size),
    }


def write_results(results: Dict[str, object], path: str) -> str:
    """Write a schema-stamped bench artifact (see ``tools/report.py``)."""
    return write_report(results, path, "bench")


def write_delta_results(results: Dict[str, object], path: str) -> str:
    """Write a schema-stamped delta-bench artifact."""
    return write_report(results, path, "delta")


#: Campaign wall-clock metrics the ``--baseline`` gate compares — one
#: per engine/executor configuration, so a regression in any one of
#: the three paths (reference, fast, fast+parallel) trips the gate.
GATE_METRICS = ("reference_serial_seconds", "fast_serial_seconds",
                "fast_parallel_seconds")

#: I/O-profile wall-clock metrics, gated only when both artifacts carry
#: a ``campaign_io`` section.
IO_GATE_METRICS = ("fast_serial_seconds", "fast_parallel_seconds")

#: Delta-generation wall-clock metrics, gated only when both artifacts
#: carry a ``delta_generation`` section.
DELTA_GATE_METRICS = ("bsdiff_seconds", "lzss_seconds", "total_seconds")

#: Fleet-scale gate: throughput must not *drop* more than the
#: tolerance (higher is better, so the comparison is inverted), and
#: peak RSS must not *grow* more than it.  Gated only when both
#: artifacts carry a ``fleet_scale`` section (schema v3 baselines
#: predate it).
FLEET_SCALE_HIGHER_IS_BETTER = ("devices_per_s",)
FLEET_SCALE_LOWER_IS_BETTER = ("peak_rss_kb",)

#: Swarm-bench (``server`` section, bench schema v5) gate: session
#: p99 and peak RSS must not grow past tolerance, and request
#: throughput must not drop past it — regressions fail in both
#: comparison directions.  Workload-match guards first: a baseline
#: from a different session count, image/chunk size or endpoint mix
#: is not comparable.
SERVER_GATE_LOWER_IS_BETTER = ("p99_session_ms", "peak_rss_kb")
SERVER_GATE_HIGHER_IS_BETTER = ("req_per_s",)
SERVER_WORKLOAD_KEYS = ("sessions", "image_bytes", "chunk_bytes",
                        "endpoint_mix")

#: Per-endpoint latency gate (bench schema v6): every endpoint class
#: present in *both* artifacts has its p50/p99 held to tolerance, so a
#: regression that hides inside the aggregate (e.g. manifest latency
#: convoying behind signing while cheap chunk requests keep req/s up)
#: still trips the gate.
SERVER_ENDPOINT_GATE_METRICS = ("p50_ms", "p99_ms")

#: Allowed slowdown before the gate trips (0.20 = +20 %); generous
#: because wall-clock benches on shared CI hosts are noisy.
DEFAULT_TOLERANCE = 0.20


def compare_to_baseline(results: Dict[str, object],
                        baseline: Dict[str, object],
                        tolerance: float = DEFAULT_TOLERANCE
                        ) -> List[str]:
    """Regression-gate a fresh bench run against a baseline artifact.

    Returns human-readable problems (empty = no regression): any
    :data:`GATE_METRICS` entry more than ``tolerance`` slower than the
    baseline, a baseline from a different host (core count) or workload
    (device count or image size), or a baseline missing the gated
    metrics entirely.  Getting *faster* never trips the gate.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    cur_host = results.get("host")
    base_host = baseline.get("host")
    if isinstance(cur_host, dict) and isinstance(base_host, dict) \
            and cur_host.get("cpu_count") != base_host.get("cpu_count"):
        return ["baseline ran on host cpu_count=%r but this run used %r "
                "— regenerate the baseline on this host"
                % (base_host.get("cpu_count"), cur_host.get("cpu_count"))]
    problems: List[str] = []
    current = results.get("campaign")
    base = baseline.get("campaign")
    if not isinstance(current, dict) or not isinstance(base, dict):
        # Server-only artifacts (the swarm bench) carry no campaign
        # section at all — gate their `server` sections against each
        # other instead.
        cur_server = results.get("server")
        base_server = baseline.get("server")
        if isinstance(cur_server, dict) and isinstance(base_server,
                                                       dict):
            _gate_server(problems, cur_server, base_server, tolerance)
            return problems
        return ["baseline or current results carry no campaign section"]
    for key in ("devices", "image_bytes"):
        if current.get(key) != base.get(key):
            return ["baseline ran %s=%r but this run used %r — "
                    "regenerate the baseline for this workload"
                    % (key, base.get(key), current.get(key))]
    _gate_section(problems, current, base, GATE_METRICS, tolerance)
    # Optional sections — gated only when both artifacts carry them.
    cur_io = results.get("campaign_io")
    base_io = baseline.get("campaign_io")
    if isinstance(cur_io, dict) and isinstance(base_io, dict):
        for key in ("devices", "image_bytes", "host_rtt_seconds"):
            if cur_io.get(key) != base_io.get(key):
                problems.append(
                    "campaign_io baseline ran %s=%r but this run used %r — "
                    "regenerate the baseline for this workload"
                    % (key, base_io.get(key), cur_io.get(key)))
                break
        else:
            _gate_section(problems, cur_io, base_io, IO_GATE_METRICS,
                          tolerance, prefix="campaign_io ")
    cur_delta = results.get("delta_generation")
    base_delta = baseline.get("delta_generation")
    if isinstance(cur_delta, dict) and isinstance(base_delta, dict):
        if cur_delta.get("firmware_bytes") != base_delta.get("firmware_bytes"):
            problems.append(
                "delta_generation baseline ran firmware_bytes=%r but this "
                "run used %r — regenerate the baseline for this workload"
                % (base_delta.get("firmware_bytes"),
                   cur_delta.get("firmware_bytes")))
        else:
            _gate_section(problems, cur_delta, base_delta,
                          DELTA_GATE_METRICS, tolerance,
                          prefix="delta_generation ")
    cur_scale = results.get("fleet_scale")
    base_scale = baseline.get("fleet_scale")
    if isinstance(cur_scale, dict) and isinstance(base_scale, dict):
        for key in ("devices", "image_bytes"):
            if cur_scale.get(key) != base_scale.get(key):
                problems.append(
                    "fleet_scale baseline ran %s=%r but this run used %r — "
                    "regenerate the baseline for this workload"
                    % (key, base_scale.get(key), cur_scale.get(key)))
                break
        else:
            _gate_section(problems, cur_scale, base_scale,
                          FLEET_SCALE_LOWER_IS_BETTER, tolerance,
                          prefix="fleet_scale ")
            for metric in FLEET_SCALE_HIGHER_IS_BETTER:
                old = base_scale.get(metric)
                new = cur_scale.get(metric)
                if not isinstance(old, (int, float)) or old <= 0:
                    problems.append(
                        "baseline has no usable fleet_scale %r" % metric)
                    continue
                if not isinstance(new, (int, float)):
                    problems.append(
                        "this run produced no fleet_scale %r" % metric)
                    continue
                if new < old * (1.0 - tolerance):
                    problems.append(
                        "fleet_scale %s regressed: %.1f vs baseline %.1f "
                        "(-%.0f%%, tolerance %.0f%%)"
                        % (metric, new, old, 100.0 * (old - new) / old,
                           100.0 * tolerance))
    cur_server = results.get("server")
    base_server = baseline.get("server")
    if isinstance(cur_server, dict) and isinstance(base_server, dict):
        _gate_server(problems, cur_server, base_server, tolerance)
    return problems


def _gate_server(problems: List[str], current: Dict[str, object],
                 base: Dict[str, object], tolerance: float) -> None:
    """Gate the swarm bench's ``server`` section (schema v5/v6)."""
    for key in SERVER_WORKLOAD_KEYS:
        if current.get(key) != base.get(key):
            problems.append(
                "server baseline ran %s=%r but this run used %r — "
                "regenerate the baseline for this workload"
                % (key, base.get(key), current.get(key)))
            return
    _gate_section(problems, current, base,
                  SERVER_GATE_LOWER_IS_BETTER, tolerance,
                  prefix="server ")
    _gate_server_endpoints(problems, current, base, tolerance)
    for metric in SERVER_GATE_HIGHER_IS_BETTER:
        old = base.get(metric)
        new = current.get(metric)
        if not isinstance(old, (int, float)) or old <= 0:
            problems.append("baseline has no usable server %r"
                            % metric)
            continue
        if not isinstance(new, (int, float)):
            problems.append("this run produced no server %r" % metric)
            continue
        if new < old * (1.0 - tolerance):
            problems.append(
                "server %s regressed: %.1f vs baseline %.1f "
                "(-%.0f%%, tolerance %.0f%%)"
                % (metric, new, old, 100.0 * (old - new) / old,
                   100.0 * tolerance))
    if isinstance(current.get("trace_overhead"), dict):
        # Tracing-overhead budget (PR 9): when the current run measured
        # an on-vs-off pair (`cli swarm --trace`), hold tracing-on to
        # within its req/s budget regardless of what the baseline ran.
        from .swarm import trace_overhead_problems
        problems.extend("server " + p
                        for p in trace_overhead_problems(current))


def _gate_server_endpoints(problems: List[str],
                           current: Dict[str, object],
                           base: Dict[str, object],
                           tolerance: float) -> None:
    """Per-endpoint p50/p99 latency gate over the classes both
    artifacts broke out (the endpoint_mix workload guard already
    matched, so the classes carry comparable traffic)."""
    cur_eps = current.get("endpoints")
    base_eps = base.get("endpoints")
    if not isinstance(cur_eps, dict) or not isinstance(base_eps, dict):
        return
    for cls in sorted(set(cur_eps) & set(base_eps)):
        cur_entry = cur_eps.get(cls)
        base_entry = base_eps.get(cls)
        if not isinstance(cur_entry, dict) \
                or not isinstance(base_entry, dict):
            continue
        for metric in SERVER_ENDPOINT_GATE_METRICS:
            old = base_entry.get(metric)
            new = cur_entry.get(metric)
            if not isinstance(old, (int, float)) or old <= 0:
                continue      # v5 baselines may lack a class's numbers
            if not isinstance(new, (int, float)):
                problems.append(
                    "this run produced no server endpoint %s %s"
                    % (cls, metric))
                continue
            if new > old * (1.0 + tolerance):
                problems.append(
                    "server endpoint %s %s regressed: %.3f ms vs "
                    "baseline %.3f ms (+%.0f%%, tolerance %.0f%%)"
                    % (cls, metric, new, old,
                       100.0 * (new - old) / old, 100.0 * tolerance))


def _gate_section(problems: List[str], current: Dict[str, object],
                  base: Dict[str, object], metrics, tolerance: float,
                  prefix: str = "") -> None:
    """Append tolerance violations for ``metrics`` to ``problems``."""
    for metric in metrics:
        old = base.get(metric)
        new = current.get(metric)
        if not isinstance(old, (int, float)) or old <= 0:
            problems.append("baseline has no usable %s%r" % (prefix, metric))
            continue
        if not isinstance(new, (int, float)):
            problems.append("this run produced no %s%r" % (prefix, metric))
            continue
        if new > old * (1.0 + tolerance):
            problems.append(
                "%s%s regressed: %.3f s vs baseline %.3f s "
                "(+%.0f%%, tolerance %.0f%%)"
                % (prefix, metric, new, old, 100.0 * (new - old) / old,
                   100.0 * tolerance))


def format_summary(results: Dict[str, object]) -> str:
    sha = results["sha256"]
    ver = results["ecdsa_verify"]
    camp = results["campaign"]
    lines = [
        "SHA-256      : %8.1f -> %8.1f MB/s   (%sx)"
        % (sha["reference_mb_per_s"], sha["fast_mb_per_s"], sha["speedup"]),
        "ECDSA verify : %8.1f -> %8.1f op/s   (%sx)"
        % (ver["reference_verifies_per_s"], ver["fast_verifies_per_s"],
           ver["speedup"]),
        "delta (%3dk) : %.3f s (bsdiff %.3f + lzss %.3f)"
        % (results["delta_generation"]["firmware_bytes"] // 1024,
           results["delta_generation"]["total_seconds"],
           results["delta_generation"]["bsdiff_seconds"],
           results["delta_generation"]["lzss_seconds"]),
        "campaign %3dd: %6.2f s serial/reference -> %5.2f s fast/parallel"
        % (camp["devices"], camp["reference_serial_seconds"],
           camp["fast_parallel_seconds"]),
        "               %6.2f -> %6.2f devices/s  (%sx end-to-end)"
        % (camp["reference_serial_devices_per_s"],
           camp["fast_parallel_devices_per_s"], camp["speedup"]),
        "               cpu profile: serial %.2f s, threads %.2f s"
        % (camp["fast_serial_seconds"], camp["fast_parallel_seconds"]),
    ]
    camp_io = results.get("campaign_io")
    if isinstance(camp_io, dict):
        lines.append(
            "campaign io  : rtt %.0f ms — serial %.2f s, threads %.2f s "
            "(%sx)"
            % (1000.0 * camp_io.get("host_rtt_seconds", 0.0),
               camp_io["fast_serial_seconds"],
               camp_io["fast_parallel_seconds"], camp_io["thread_speedup"]))
    scale = results.get("fleet_scale")
    if isinstance(scale, dict):
        lines.append(
            "fleet scale  : %d devices in %.2f s (%.0f devices/s, "
            "%d hydrations, %d B/row, rss %.1f MB)"
            % (scale["devices"], scale["scale_seconds"],
               scale["devices_per_s"], scale["hydrations"],
               scale["columnar_bytes_per_row"],
               scale["peak_rss_kb"] / 1024.0))
    return "\n".join(lines)


def format_delta_summary(results: Dict[str, object]) -> str:
    fastpath = results["delta_fastpath"]
    return (
        "delta fast path (%dk): %.3f s -> %.3f s (%sx, byte-identical)"
        % (fastpath["firmware_bytes"] // 1024,
           fastpath["reference"]["total_seconds"],
           fastpath["fast"]["total_seconds"], fastpath["speedup"]))
