"""Tier-1 smoke subset of the performance harness.

The full benchmarks (``benchmarks/``, ``perf`` marker) are excluded
from tier-1 because they chase wall-clock numbers.  This module runs
the same code paths at a bounded size and checks only *correctness*
invariants — byte-identical fast-path output, identical campaign
reports across crypto engines — so a fast-path regression that breaks
equivalence fails CI immediately rather than at the next manual bench
run.  The ``perf_smoke`` marker selects just these tests
(``pytest -m perf_smoke``); unlike ``perf`` it is *not* excluded by
the tier-1 addopts.
"""

from __future__ import annotations

import pytest

from repro.tools import bench


pytestmark = pytest.mark.perf_smoke


def test_delta_fastpath_is_byte_identical_at_smoke_size():
    result = bench.bench_delta_fastpath(image_size=8 * 1024)
    assert result["byte_identical"] is True
    assert result["firmware_bytes"] == 8 * 1024
    assert result["patch_bytes"] > 0
    assert result["delta_bytes"] > 0
    for side in ("fast", "reference"):
        assert result[side]["total_seconds"] >= 0.0


def test_batched_match_search_rarely_falls_back(monkeypatch):
    """On the perfbench campaign's v1→v2 pair (24 KiB, OS change) at most
    2% of the positions bsdiff's scan loop visits take the scalar
    fallback of the batched match search (a deterministic count)."""
    pytest.importorskip("numpy")
    from repro.delta import SuffixIndex, diff
    from repro.workload import FirmwareGenerator

    counts = {"visited": 0, "fallback": 0}
    searcher, resolve = SuffixIndex.searcher, SuffixIndex._resolve

    def counting_searcher(self, new, cap):
        find = searcher(self, new, cap)

        def counted(scan):
            counts["visited"] += 1
            return find(scan)
        return counted

    def counting_resolve(self, *args):
        counts["fallback"] += 1
        return resolve(self, *args)

    monkeypatch.setattr(SuffixIndex, "searcher", counting_searcher)
    monkeypatch.setattr(SuffixIndex, "_resolve", counting_resolve)
    generator = FirmwareGenerator(seed=b"perfbench-campaign")
    old = generator.firmware(24 * 1024, image_id=1)
    diff(old, generator.os_version_change(old, revision=2))
    assert counts["visited"] > 1000
    assert counts["fallback"] <= 0.02 * counts["visited"]


def test_campaign_configurations_report_identically_at_smoke_size():
    """The reference and fast engines drive the same campaign to the
    same report; bench_campaign raises before returning otherwise."""
    result = bench.bench_campaign(device_count=4, image_size=4 * 1024)
    assert result["reports_identical"] is True
    for label in ("reference_serial", "fast_serial"):
        assert result["%s_seconds" % label] > 0.0
    # Each device's agent and bootloader check both signatures.  The
    # vendor signature is one for the whole fleet, so the fast engine
    # verifies it once; each server signature binds its device's
    # token, so it is verified once per device.
    stats = result["crypto_stats"]["fast_serial"]
    assert stats["verify_calls"] == 4 * 4
    assert stats["verify_calls"] - stats["verify_cache_hits"] == 1 + 4


def test_run_delta_document_validates():
    from repro.tools.report import validate_data

    document = bench.run_delta(image_size=8 * 1024)
    document["report_kind"] = "delta"
    document["schema_version"] = 1
    assert validate_data("delta", 1, document) == []


def test_signature_cache_accounting_is_exact_under_pool_contention():
    """Four signer-pool workers hammer a shared SignatureCache over a
    small keyspace; the accounting must stay *exact* (mirroring the
    PR 5 verify-LRU audit): every logical sign is either a hit or a
    miss, misses equal producer executions (one per distinct digest —
    single-flight means contention never re-signs), and every worker
    observes byte-identical signatures."""
    import threading

    from repro.crypto import generate_keypair
    from repro.crypto.engine import SignatureCache, available_engines
    from repro.serve.signing import SignerPool

    engine = available_engines()["fast"]
    key = generate_keypair(b"perf-smoke-sign-cache")
    cache = SignatureCache()
    pool = SignerPool(workers=4, engine=engine, signature_cache=cache)
    producers = [0] * 8
    producer_lock = threading.Lock()
    digests = [engine.sha256(b"message %d" % i) for i in range(8)]

    def sign_via_cache(index: int) -> bytes:
        digest = digests[index % 8]

        def produce() -> bytes:
            with producer_lock:
                producers[index % 8] += 1
            return key.sign_digest(digest, engine).encode()

        return cache.get_or_sign((key.scalar, digest), produce)

    rounds = 64
    futures = [pool.submit(sign_via_cache, i)
               for i in range(rounds)]
    results = [future.result(timeout=60) for future in futures]
    pool.close()

    expected = {i: key.sign_digest(digests[i], engine).encode()
                for i in range(8)}
    for i, signature in enumerate(results):
        assert signature == expected[i % 8]
    stats = cache.stats_snapshot()
    assert stats.calls == rounds
    assert stats.hits + stats.misses == rounds
    assert stats.misses == sum(producers)     # misses == executions
    assert [count for count in producers] == [1] * 8
    assert stats.hits == rounds - 8
    assert stats.evictions == 0
    assert len(cache) == 8
