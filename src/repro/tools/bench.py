"""Fleet performance benchmark harness.

Measures the fleet plane's hot path under both crypto engines:

* SHA-256 throughput (MB/s) — reference (from-scratch) vs. fast
  (hashlib) engine;
* ECDSA verify throughput (verifies/s) — plain Shamir-trick verify vs.
  fixed-window precomputed tables (distinct digests, so the
  verification cache is *not* what is being measured);
* delta generation time — bsdiff + LZSS over a firmware pair (engine
  independent, but it gates campaign start-up), the median of passes
  spread across the bench run so one slow host phase cannot trip the
  gate;
* end-to-end campaign throughput (devices/s) on a seeded fleet, for
  the seed path (reference engine) and the fast engine — asserting
  along the way that both produce the *identical*
  :class:`~repro.fleet.campaign.CampaignReport`.

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

import statistics
import time
from typing import Callable, Dict, List, Sequence, Tuple

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
from ..fleet import Campaign, DeviceRecord, RolloutPolicy
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
    "run_all",
    "run_delta",
    "write_results",
    "write_delta_results",
    "compare_to_baseline",
    "GATE_METRICS",
    "DELTA_GATE_METRICS",
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


def _delta_pair(image_size: int) -> Tuple[bytes, bytes]:
    """The seeded firmware pair every delta benchmark diffs."""
    generator = FirmwareGenerator(seed=b"bench-delta")
    old = generator.firmware(image_size, image_id=1)
    return old, generator.os_version_change(old, revision=2)


def _time_delta(old: bytes,
                new: bytes) -> Tuple[bytes, bytes, float, float]:
    """One timed bsdiff + LZSS pass: ``(patch, delta, bsdiff s, lzss s)``."""
    start = time.perf_counter()
    patch = bsdiff_diff(old, new)
    diff_seconds = time.perf_counter() - start
    start = time.perf_counter()
    delta = lzss_compress(patch)
    compress_seconds = time.perf_counter() - start
    return patch, delta, diff_seconds, compress_seconds


#: Firmware size of the ``delta_generation`` section.
DELTA_IMAGE_BYTES = 48 * 1024


def bench_delta(image_size: int = DELTA_IMAGE_BYTES,
                earlier_runs: Sequence[Tuple[float, float]] = ()
                ) -> Dict[str, object]:
    """bsdiff + LZSS generation time for one firmware pair.

    ``earlier_runs`` are ``(bsdiff, lzss)`` timings of the same pair
    taken earlier in the bench run; each reported timing is the median
    of those and this call's own pass.
    """
    patch, delta, diff_seconds, compress_seconds = _time_delta(
        *_delta_pair(image_size))
    runs = list(earlier_runs) + [(diff_seconds, compress_seconds)]
    return {
        "firmware_bytes": image_size,
        "patch_bytes": len(patch),
        "delta_bytes": len(delta),
        "repeats": len(runs),
        "bsdiff_seconds": round(
            statistics.median(diff for diff, _ in runs), 4),
        "lzss_seconds": round(
            statistics.median(lzss for _, lzss in runs), 4),
        "total_seconds": round(
            statistics.median(diff + lzss for diff, lzss in runs), 4),
    }


def bench_delta_fastpath(image_size: int = 96 * 1024) -> Dict[str, object]:
    """Vectorised vs. pure-Python delta generation on one firmware pair.

    The numpy fast path (suffix-array construction, batched
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
    old, new = _delta_pair(image_size)

    saved = (_suffix_mod._np, _bsdiff_mod._np, _lzss_mod._np)
    try:
        _suffix_mod._np = None
        _bsdiff_mod._np = None
        _lzss_mod._np = None
        ref_patch, ref_delta, ref_diff_s, ref_comp_s = _time_delta(old, new)
    finally:
        _suffix_mod._np, _bsdiff_mod._np, _lzss_mod._np = saved

    _time_delta(old, new)  # warm-up
    fast_patch = fast_delta = b""
    fast_diff_s = fast_comp_s = float("inf")
    for _ in range(3):
        patch_bytes, delta, diff_s, comp_s = _time_delta(old, new)
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
                    metrics=None) -> Campaign:
    """A seeded fleet at v1 with v2 published, ready to run.

    Construction is fully deterministic, so every configuration under
    test drives a bit-identical fleet against a bit-identical release.
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
        ))

    server.publish(vendor.release(fw_v2, 2))
    return Campaign(server, fleet, RolloutPolicy(canary_fraction=0.1),
                    metrics=metrics)


def bench_campaign(device_count: int = 50,
                   image_size: int = 24 * 1024) -> Dict[str, object]:
    """End-to-end campaign throughput per crypto engine.

    Two configurations — the reference engine (the seed path) and the
    fast engine.  Both must produce the identical
    :class:`CampaignReport` or the bench raises.
    """
    results: Dict[str, object] = {
        "devices": device_count,
        "image_bytes": image_size,
    }
    reports = {}
    crypto_stats: Dict[str, object] = {}
    server_stats: Dict[str, object] = {}
    metrics_out: Dict[str, object] = {}
    for label, engine_name in (("reference_serial", "reference"),
                               ("fast_serial", "fast")):
        # One registry per configuration: campaign wave counters and the
        # engine/server stats mirrors land side by side.  Observation is
        # purely additive — the CampaignReport equality assertion below
        # is what proves it.
        registry = MetricsRegistry()
        campaign = _build_campaign(device_count, image_size,
                                   metrics=registry)
        bind_server(registry, campaign.server)
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
    if reports["reference_serial"] != reports["fast_serial"]:
        raise AssertionError(
            "campaign report for reference_serial diverged from "
            "fast_serial")
    results["reports_identical"] = True
    results["speedup"] = round(
        results["reference_serial_seconds"]
        / results["fast_serial_seconds"], 2)
    results["crypto_stats"] = crypto_stats
    results["server_stats"] = server_stats
    results["metrics"] = metrics_out
    return results


# -- harness ----------------------------------------------------------------


def run_all(device_count: int = 50,
            image_size: int = 24 * 1024) -> Dict[str, object]:
    """Run every benchmark; returns the JSON-ready result document."""
    previous = get_engine().name
    # One delta pass is ~0.14 s, and the host's speed drifts over a
    # bench run: five back-to-back passes read +28-37% on four of six
    # fresh runs.  So one pass is timed after each other section, and
    # ``delta_generation`` reports the median of those and its own.
    delta_pair = _delta_pair(DELTA_IMAGE_BYTES)
    delta_runs: List[Tuple[float, float]] = []

    def then_time_delta(section: Callable[[], Dict[str, object]]
                        ) -> Dict[str, object]:
        value = section()
        delta_runs.append(_time_delta(*delta_pair)[2:])
        return value

    campaign = then_time_delta(
        lambda: bench_campaign(device_count, image_size))
    results = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": host_info(),
        "sha256": then_time_delta(bench_sha256),
        "ecdsa_verify": then_time_delta(bench_verify),
        "delta_generation": bench_delta(earlier_runs=delta_runs),
        # Engine/server telemetry lives top-level so the schema
        # validator can insist on it without digging into the campaign.
        "crypto_stats": campaign.pop("crypto_stats"),
        "server_stats": campaign.pop("server_stats"),
        "metrics": campaign.pop("metrics"),
        "campaign": campaign,
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
#: per engine, so a regression in either path (reference, fast) trips
#: the gate.
GATE_METRICS = ("reference_serial_seconds", "fast_serial_seconds")

#: Delta-generation wall-clock metrics, gated only when both artifacts
#: carry a ``delta_generation`` section.
DELTA_GATE_METRICS = ("bsdiff_seconds", "lzss_seconds", "total_seconds")

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
        "campaign %3dd: %6.2f s reference -> %5.2f s fast"
        % (camp["devices"], camp["reference_serial_seconds"],
           camp["fast_serial_seconds"]),
        "               %6.2f -> %6.2f devices/s  (%sx end-to-end)"
        % (camp["reference_serial_devices_per_s"],
           camp["fast_serial_devices_per_s"], camp["speedup"]),
    ]
    return "\n".join(lines)


def format_delta_summary(results: Dict[str, object]) -> str:
    fastpath = results["delta_fastpath"]
    return (
        "delta fast path (%dk): %.3f s -> %.3f s (%sx, byte-identical)"
        % (fastpath["firmware_bytes"] // 1024,
           fastpath["reference"]["total_seconds"],
           fastpath["fast"]["total_seconds"], fastpath["speedup"]))
