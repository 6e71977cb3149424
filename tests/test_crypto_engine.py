"""Parity tests: the fast crypto engine must match the reference bit-for-bit.

The fast engine (hashlib SHA-256, fixed-window precomputed tables,
verification cache) exists purely to make fleet-scale simulation quick;
it must never change a single output byte.  These tests drive both
engines over the same inputs — digests, HMACs, signatures, verify
verdicts — and require identical results, including across engines
(sign under one, verify under the other).
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.crypto import (
    FixedWindowTable,
    P256,
    PrivateKey,
    Signature,
    generate_keypair,
    hmac_sha256,
    set_engine,
    sha256,
    use_engine,
)
from repro.crypto.engine import (
    FastEngine,
    ReferenceEngine,
    available_engines,
    get_engine,
)

ENGINES = ("reference", "fast")

# SHA-256 block boundaries: 55/56 straddle the length-field cutoff of
# the final block, 64 is one block, 119/120 the two-block cutoff.
BOUNDARY_LENGTHS = (0, 1, 54, 55, 56, 57, 63, 64, 65,
                    119, 120, 127, 128, 129, 1000)


@pytest.fixture(autouse=True)
def _reference_engine_after():
    """Every test leaves the process-wide engine as it found it."""
    previous = get_engine().name
    yield
    set_engine(previous)


# -- digest parity ----------------------------------------------------------


def test_sha256_known_vector_under_both_engines():
    expected = bytes.fromhex(
        "ba7816bf8f01cfea414140de5dae2223"
        "b00361a396177a9cb410ff61f20015ad")
    for name in ENGINES:
        with use_engine(name) as engine:
            assert engine.sha256(b"abc") == expected
            assert sha256(b"abc") == expected  # module fn stays reference


@pytest.mark.parametrize("length", BOUNDARY_LENGTHS)
def test_sha256_parity_at_block_boundaries(length):
    rng = random.Random(length)
    data = bytes(rng.getrandbits(8) for _ in range(length))
    reference = available_engines()["reference"].sha256(data)
    fast = available_engines()["fast"].sha256(data)
    assert reference == fast == hashlib.sha256(data).digest()


def test_sha256_parity_randomized():
    rng = random.Random(0xD16E57)
    reference = available_engines()["reference"]
    fast = available_engines()["fast"]
    for _ in range(40):
        data = bytes(rng.getrandbits(8)
                     for _ in range(rng.randrange(0, 600)))
        assert reference.sha256(data) == fast.sha256(data)


def test_incremental_hash_parity():
    rng = random.Random(0x1C4)
    data = bytes(rng.getrandbits(8) for _ in range(777))
    splits = (0, 1, 55, 64, 65, 300, 777)
    for name in ENGINES:
        engine = available_engines()[name]
        hasher = engine.new_hash()
        previous = 0
        for split in splits:
            hasher.update(data[previous:split])
            previous = split
        hasher.update(data[previous:])
        assert hasher.digest() == hashlib.sha256(data).digest()


def test_hmac_parity():
    rng = random.Random(0xAAC)
    reference = available_engines()["reference"]
    fast = available_engines()["fast"]
    # Keys shorter, equal to, and longer than the 64-byte HMAC block.
    for key_len in (0, 1, 32, 63, 64, 65, 200):
        key = bytes(rng.getrandbits(8) for _ in range(key_len))
        message = bytes(rng.getrandbits(8)
                        for _ in range(rng.randrange(0, 300)))
        expected = reference.hmac_sha256(key, message)
        assert fast.hmac_sha256(key, message) == expected
        with use_engine("fast"):
            assert hmac_sha256(key, message) == expected


# -- curve parity -----------------------------------------------------------


def test_multiply_base_parity():
    rng = random.Random(0xECC)
    fast = available_engines()["fast"]
    scalars = [1, 2, 3, 15, 16, 17, P256.n - 1, P256.n + 1]
    scalars += [rng.randrange(1, P256.n) for _ in range(10)]
    for k in scalars:
        assert fast.multiply_base(k) == P256.multiply_base(k)


def test_fixed_window_table_matches_plain_multiply():
    key = generate_keypair(b"table-parity")
    point = key.public_key().point
    table = FixedWindowTable(point)
    rng = random.Random(0x7AB)
    for k in [1, 2, P256.n - 1] + [rng.randrange(1, P256.n)
                                   for _ in range(8)]:
        assert table.multiply(k) == P256.multiply(k, point)


def test_combined_multiply_matches_double_multiply():
    key = generate_keypair(b"combined-parity")
    point = key.public_key().point
    generator_table = FixedWindowTable(P256.generator)
    key_table = FixedWindowTable(point)
    rng = random.Random(0xC0B)
    for _ in range(8):
        u1 = rng.randrange(1, P256.n)
        u2 = rng.randrange(1, P256.n)
        assert (generator_table.combined_multiply(u1, key_table, u2)
                == P256.double_multiply(u1, u2, point))


def test_window_table_rejects_infinity():
    from repro.crypto.ecc import INFINITY, CurveError

    with pytest.raises(CurveError):
        FixedWindowTable(INFINITY)


# -- ECDSA parity -----------------------------------------------------------


def test_signatures_identical_across_engines():
    """RFC 6979 is deterministic, so both engines sign identically."""
    rng = random.Random(0x516)
    key = generate_keypair(b"sign-parity")
    for _ in range(6):
        message = bytes(rng.getrandbits(8)
                        for _ in range(rng.randrange(1, 200)))
        with use_engine("reference"):
            reference_sig = key.sign(message)
        with use_engine("fast"):
            fast_sig = key.sign(message)
        assert reference_sig == fast_sig


@pytest.mark.parametrize("signer", ENGINES)
@pytest.mark.parametrize("verifier", ENGINES)
def test_sign_verify_round_trip_across_engines(signer, verifier):
    key = generate_keypair(b"roundtrip-%s-%s" % (signer.encode(),
                                                 verifier.encode()))
    public = key.public_key()
    message = b"cross-engine round trip"
    with use_engine(signer):
        signature = key.sign(message)
    with use_engine(verifier):
        assert public.verify(signature, message)
        assert not public.verify(signature, message + b"!")


@pytest.mark.parametrize("name", ENGINES)
def test_corrupted_signatures_rejected(name):
    rng = random.Random(0xBAD)
    key = generate_keypair(b"corruption")
    public = key.public_key()
    message = b"corrupted signature rejection"
    signature = key.sign(message)
    with use_engine(name):
        assert public.verify(signature, message)
        for _ in range(8):
            bit = 1 << rng.randrange(0, 256)
            mangled = Signature(r=signature.r ^ bit, s=signature.s)
            assert not public.verify(mangled, message)
            mangled = Signature(r=signature.r, s=signature.s ^ bit)
            assert not public.verify(mangled, message)
        assert not public.verify(signature, message + b"\x00")


def test_randomized_verify_verdict_parity():
    """Both engines agree on valid *and* invalid signatures."""
    rng = random.Random(0xF00D)
    key = generate_keypair(b"verdict-parity")
    public = key.public_key()
    reference = available_engines()["reference"]
    fast = available_engines()["fast"]
    for index in range(10):
        message = b"verdict %d" % index
        signature = key.sign(message)
        r, s = signature.r, signature.s
        if index % 2:
            r = (r ^ (1 << rng.randrange(0, 256))) % P256.n or 1
        digest = hashlib.sha256(message).digest()
        expected = reference.ecdsa_verify(public.point, r, s, digest)
        assert fast.ecdsa_verify(public.point, r, s, digest) == expected


# -- fast-engine cache behaviour -------------------------------------------


def test_verification_cache_hits_on_repeat():
    engine = FastEngine()
    key = generate_keypair(b"cache-hit")
    public = key.public_key()
    signature = key.sign(b"cached")
    digest = hashlib.sha256(b"cached").digest()
    assert engine.ecdsa_verify(public.point, signature.r, signature.s,
                               digest)
    assert engine.stats.verify_cache_hits == 0
    assert engine.ecdsa_verify(public.point, signature.r, signature.s,
                               digest)
    assert engine.stats.verify_cache_hits == 1
    assert engine.stats.verify_calls == 2


def test_verification_cache_caches_negative_verdicts():
    engine = FastEngine()
    key = generate_keypair(b"cache-negative")
    public = key.public_key()
    signature = key.sign(b"message")
    digest = hashlib.sha256(b"other message").digest()
    assert not engine.ecdsa_verify(public.point, signature.r,
                                   signature.s, digest)
    assert not engine.ecdsa_verify(public.point, signature.r,
                                   signature.s, digest)
    assert engine.stats.verify_cache_hits == 1


def test_verification_cache_is_bounded():
    engine = FastEngine(verify_cache_size=4)
    key = generate_keypair(b"cache-bound")
    public = key.public_key()
    for index in range(10):
        message = b"bound %d" % index
        signature = key.sign(message)
        digest = hashlib.sha256(message).digest()
        engine.ecdsa_verify(public.point, signature.r, signature.s,
                            digest)
    assert len(engine._verify_cache) == 4


def test_key_tables_built_after_threshold_and_bounded():
    engine = FastEngine(key_table_cache_size=2, table_threshold=2)
    keys = [generate_keypair(b"table-%d" % i) for i in range(3)]
    for index, key in enumerate(keys):
        public = key.public_key()
        for round_ in range(3):
            message = b"msg %d %d" % (index, round_)
            signature = key.sign(message)
            digest = hashlib.sha256(message).digest()
            assert engine.ecdsa_verify(public.point, signature.r,
                                       signature.s, digest)
    assert engine.stats.key_tables_built == 3
    assert engine.stats.key_tables_evicted == 1
    assert len(engine._key_tables) == 2


def test_clear_caches_resets_state():
    engine = FastEngine()
    key = generate_keypair(b"clear")
    public = key.public_key()
    signature = key.sign(b"clear me")
    digest = hashlib.sha256(b"clear me").digest()
    for _ in range(3):
        engine.ecdsa_verify(public.point, signature.r, signature.s,
                            digest)
    engine.clear_caches()
    assert engine.stats.verify_calls == 0
    assert not engine._verify_cache
    assert not engine._key_tables
    assert engine._base_table is None


def test_fast_engine_validates_cache_sizes():
    with pytest.raises(ValueError):
        FastEngine(verify_cache_size=0)
    with pytest.raises(ValueError):
        FastEngine(key_table_cache_size=0)


# -- engine selection -------------------------------------------------------


def test_set_engine_and_use_engine():
    assert get_engine().name == "reference"
    engine = set_engine("fast")
    assert isinstance(engine, FastEngine)
    assert get_engine() is engine
    set_engine("reference")
    assert isinstance(get_engine(), ReferenceEngine)
    with use_engine("fast"):
        assert get_engine().name == "fast"
    assert get_engine().name == "reference"


def test_use_engine_restores_on_exception():
    with pytest.raises(RuntimeError):
        with use_engine("fast"):
            raise RuntimeError("boom")
    assert get_engine().name == "reference"


def test_unknown_engine_rejected():
    with pytest.raises(KeyError):
        set_engine("quantum")


def test_available_engines_names():
    engines = available_engines()
    assert set(engines) == {"reference", "fast"}
    assert engines["reference"].name == "reference"
    assert engines["fast"].name == "fast"


# -- verify-cache lock audit (satellite: contention-safe counters) -----------


def _hammer_verify(engine, public, jobs, threads):
    """Run ``jobs`` (message, signature) verifies across ``threads``."""
    import threading

    errors = []
    per_thread = [jobs[i::threads] for i in range(threads)]

    def worker(assigned):
        try:
            for message, signature in assigned:
                assert public.verify(signature, message)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    workers = [threading.Thread(target=worker, args=(chunk,))
               for chunk in per_thread]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    assert errors == []


def test_verify_counters_exact_under_thread_contention():
    """verify_calls is exact and hits are bounded under contention.

    The hot path increments under the engine lock, so the call counter
    must equal the number of verifies issued no matter the interleaving.
    Two threads may race to first-verify the same signature (both miss,
    both compute — benign, results identical), so cache hits are
    bounded below by ``total - threads * distinct`` rather than exact.
    """
    threads, repeats = 4, 8
    key = generate_keypair(b"contention-audit")
    public = key.public_key()
    with use_engine("fast") as engine:
        engine.clear_caches()
        messages = [b"contended message %d" % i for i in range(3)]
        signed = [(m, key.sign(m)) for m in messages]
        signing_calls = engine.stats_snapshot().verify_calls
        jobs = signed * repeats
        _hammer_verify(engine, public, jobs, threads)
        stats = engine.stats_snapshot()
    total = len(jobs)
    distinct = len(signed)
    assert stats.verify_calls - signing_calls == total
    assert stats.verify_cache_hits <= stats.verify_calls
    assert stats.verify_cache_hits >= total - threads * distinct


def test_verify_cache_stays_bounded_under_thread_contention():
    """Eviction under the lock: the LRU never overshoots its bound."""
    threads = 4
    key = generate_keypair(b"contention-bound")
    public = key.public_key()
    with use_engine("fast"):
        engine = FastEngine(verify_cache_size=8)
        set_engine_obj = engine  # distinct instance; drive it directly
        messages = [b"bounded message %d" % i for i in range(64)]
        signatures = [key.sign(m) for m in messages]
    import threading

    errors = []

    def worker(offset):
        try:
            for i in range(offset, len(messages), threads):
                digest = hashlib.sha256(messages[i]).digest()
                sig = signatures[i]
                assert set_engine_obj.ecdsa_verify(
                    public.point, sig.r, sig.s, digest)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    workers = [threading.Thread(target=worker, args=(i,))
               for i in range(threads)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    assert errors == []
    assert len(set_engine_obj._verify_cache) <= 8
    stats = set_engine_obj.stats_snapshot()
    assert stats.verify_calls == len(messages)


def test_snapshots_never_tear_under_contention():
    """Concurrent stats_snapshot readers always see hits <= calls."""
    import threading

    key = generate_keypair(b"contention-snapshot")
    public = key.public_key()
    with use_engine("fast") as engine:
        engine.clear_caches()
        message = b"snapshot message"
        signature = key.sign(message)
        stop = threading.Event()
        torn = []

        def reader():
            while not stop.is_set():
                snap = engine.stats_snapshot()
                if snap.verify_cache_hits > snap.verify_calls:
                    torn.append(snap)  # pragma: no cover - failure path

        watcher = threading.Thread(target=reader)
        watcher.start()
        try:
            _hammer_verify(engine, public,
                           [(message, signature)] * 64, threads=4)
        finally:
            stop.set()
            watcher.join()
    assert torn == []

