"""Pluggable crypto acceleration: the reference/fast engine switch.

The from-scratch SHA-256 and P-256 implementations exist so the
reproduction carries its own substrate — but they make fleet
simulation (thousands of double-signed updates) minutes-slow for no
modeling benefit: the *cost models* in :mod:`repro.crypto.backends`
are what the simulation accounts, not the host CPU time.  This module
provides two interchangeable engines behind one dispatch point:

* ``reference`` (default) — the from-scratch SHA-256 and the plain
  Shamir-trick ECDSA verify.  Bit-for-bit the seed behaviour.
* ``fast`` — ``hashlib`` SHA-256/HMAC, fixed-window precomputed
  base-point tables plus a bounded per-public-key table cache for
  scalar multiplication (:class:`repro.crypto.ecc.FixedWindowTable`),
  and a bounded LRU *verification cache* keyed by
  ``(pubkey, digest, r, s)`` so the bootloader's re-verification of an
  image the agent already verified is near-free.

Both engines produce identical bytes for every operation (digests,
signatures, verify verdicts); the parity tests in
``tests/test_crypto_engine.py`` enforce this.  Select with::

    from repro.crypto import set_engine
    set_engine("fast")        # or "reference"

or via the ``REPRO_CRYPTO_ENGINE`` environment variable.  The modeled
footprint / latency / energy numbers are engine-independent: backends
meter *modeled* cost per operation, never host wall-clock.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .ecc import FixedWindowTable, P256, Point
from .sha256 import SHA256

__all__ = [
    "CryptoEngine",
    "ReferenceEngine",
    "FastEngine",
    "SignatureCache",
    "SignatureCacheStats",
    "available_engines",
    "get_engine",
    "set_engine",
    "use_engine",
]

_HMAC_BLOCK = 64


@dataclass
class EngineStats:
    """Counters for benchmarks and cache-behaviour tests.

    ``repro.obs.bind_engine`` mirrors every field into ``crypto.*``
    gauges on a metrics registry, so the verify-cache hit rate shows up
    next to the rest of an update's telemetry.
    """

    verify_calls: int = 0
    verify_cache_hits: int = 0
    key_tables_built: int = 0
    key_tables_evicted: int = 0

    def reset(self) -> None:
        self.verify_calls = 0
        self.verify_cache_hits = 0
        self.key_tables_built = 0
        self.key_tables_evicted = 0

    def to_dict(self) -> Dict[str, int]:
        """JSON-ready snapshot (embedded in bench reports)."""
        return {
            "verify_calls": self.verify_calls,
            "verify_cache_hits": self.verify_cache_hits,
            "key_tables_built": self.key_tables_built,
            "key_tables_evicted": self.key_tables_evicted,
        }


@dataclass
class SignatureCacheStats:
    """Exact hit/miss/coalesce accounting for the signing memo.

    The invariant the perf_smoke suite audits: every ``get_or_sign``
    call is counted exactly once as a hit or a miss, and every hit that
    waited on an in-flight producer is additionally counted as
    coalesced — so ``hits + misses == calls`` and ``misses`` equals the
    number of producer executions, even under signer-pool contention.
    """

    hits: int = 0
    misses: int = 0
    coalesced: int = 0
    evictions: int = 0

    @property
    def calls(self) -> int:
        return self.hits + self.misses

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self.evictions = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "coalesced": self.coalesced,
            "evictions": self.evictions,
        }


class SignatureCache:
    """Single-flight memo for deterministic (RFC 6979) signatures.

    Signing is deterministic, so ``(private key, digest)`` maps to
    exactly one signature and memoising the bytes is sound.  The serve
    plane's signer pool shares one instance across its worker threads:
    when a wave of devices resolves manifests for the same release
    payload, the first worker pays the scalar multiplication and every
    concurrent duplicate *waits on the in-flight result* instead of
    re-deriving the nonce — the accounting distinguishes those
    coalesced waiters from plain cache hits.

    A failed producer never poisons the cache: its waiters wake, see no
    entry, and re-run the producer themselves.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.stats = SignatureCacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, bytes]" = OrderedDict()
        self._inflight: Dict[tuple, threading.Event] = {}

    def get_or_sign(self, key: tuple, producer) -> bytes:
        """Return the cached signature for ``key`` or produce it once.

        Concurrent callers with the same key block on the producing
        thread's event rather than signing redundantly (single-flight).
        """
        while True:
            with self._lock:
                cached = self._entries.get(key)
                if cached is not None:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    return cached
                event = self._inflight.get(key)
                if event is None:
                    event = threading.Event()
                    self._inflight[key] = event
                    producing = True
                else:
                    producing = False
            if not producing:
                event.wait(timeout=60.0)
                with self._lock:
                    cached = self._entries.get(key)
                    if cached is not None:
                        self._entries.move_to_end(key)
                        self.stats.hits += 1
                        self.stats.coalesced += 1
                        return cached
                # The producer failed (or the entry was evicted before we
                # woke); loop and contend for the producer role ourselves.
                continue
            try:
                value = producer()
            except BaseException:
                with self._lock:
                    self._inflight.pop(key, None)
                event.set()
                raise
            with self._lock:
                self._entries[key] = value
                self._inflight.pop(key, None)
                self.stats.misses += 1
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1
            event.set()
            return value

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats_snapshot(self) -> SignatureCacheStats:
        with self._lock:
            return SignatureCacheStats(**self.stats.to_dict())

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.stats.reset()


class CryptoEngine:
    """Interface both engines implement.

    ``new_hash`` / ``sha256`` / ``hmac_sha256`` cover the digest
    surface; ``multiply_base`` and ``ecdsa_verify`` cover the curve
    surface.  Engines must be *byte-compatible*: swapping one for the
    other never changes any output, only host-side speed.
    """

    name = "abstract"

    def new_hash(self):
        """A fresh incremental SHA-256 hasher (hashlib-like interface)."""
        raise NotImplementedError

    def sha256(self, data: bytes) -> bytes:
        raise NotImplementedError

    def hmac_sha256(self, key: bytes, message: bytes) -> bytes:
        raise NotImplementedError

    def multiply_base(self, k: int) -> Point:
        """k * G on secp256r1."""
        raise NotImplementedError

    def ecdsa_verify(self, point: Point, r: int, s: int,
                     digest: bytes) -> bool:
        """The scalar math of ECDSA verification (range checks done)."""
        raise NotImplementedError


def _verify_scalars(r: int, s: int, digest: bytes) -> Tuple[int, int]:
    n = P256.n
    e = int.from_bytes(digest, "big") % n
    w = pow(s, -1, n)
    return (e * w) % n, (r * w) % n


class ReferenceEngine(CryptoEngine):
    """From-scratch SHA-256 and HMAC, table-free point multiplication
    and no caches: the reference every other engine must match."""

    name = "reference"

    def new_hash(self) -> SHA256:
        return SHA256()

    def sha256(self, data: bytes) -> bytes:
        return SHA256(data).digest()

    def hmac_sha256(self, key: bytes, message: bytes) -> bytes:
        if len(key) > _HMAC_BLOCK:
            key = self.sha256(key)
        key = key.ljust(_HMAC_BLOCK, b"\x00")
        inner = SHA256(bytes(b ^ 0x36 for b in key)).update(message).digest()
        return SHA256(bytes(b ^ 0x5C for b in key)).update(inner).digest()

    def multiply_base(self, k: int) -> Point:
        return P256.multiply_base(k)

    def ecdsa_verify(self, point: Point, r: int, s: int,
                     digest: bytes) -> bool:
        u1, u2 = _verify_scalars(r, s, digest)
        result = P256.double_multiply(u1, u2, point)
        if result.is_infinity:
            return False
        return result.x % P256.n == r


class FastEngine(CryptoEngine):
    """hashlib digests + precomputed-table ECDSA + verification cache.

    * SHA-256 / HMAC-SHA256 go through ``hashlib`` (identical output).
    * ``k * G`` uses a lazily built fixed-window table for the base
      point, shared process-wide.
    * Verification builds a :class:`FixedWindowTable` per public key
      once the key has been seen ``table_threshold`` times (trust
      anchors are verified against thousands of times per campaign;
      one-shot keys never pay the table build).  Tables live in a
      bounded LRU.
    * Completed verifications land in a bounded LRU keyed by
      ``(pubkey, r, s, digest)``: UpKit's bootloader re-verifies the
      exact signatures the agent just verified, so the second pass is
      a dictionary lookup.

    All shared state is lock-protected — the serve plane's signer-pool
    threads all sign through the one process-wide instance, and the
    campaign threads started by the ``run_in_executor`` campaign
    routes verify through it when it is the active engine.
    """

    name = "fast"

    def __init__(self, verify_cache_size: int = 4096,
                 key_table_cache_size: int = 32,
                 table_threshold: int = 2) -> None:
        if verify_cache_size < 1:
            raise ValueError("verify_cache_size must be positive")
        if key_table_cache_size < 1:
            raise ValueError("key_table_cache_size must be positive")
        self.verify_cache_size = verify_cache_size
        self.key_table_cache_size = key_table_cache_size
        self.table_threshold = max(1, table_threshold)
        self.stats = EngineStats()
        self._lock = threading.Lock()
        self._base_table: Optional[FixedWindowTable] = None
        self._key_tables: "OrderedDict[Tuple[int, int], FixedWindowTable]" \
            = OrderedDict()
        self._key_uses: Dict[Tuple[int, int], int] = {}
        self._verify_cache: "OrderedDict[tuple, bool]" = OrderedDict()

    # -- digests ----------------------------------------------------------

    def new_hash(self):
        return hashlib.sha256()

    def sha256(self, data: bytes) -> bytes:
        return hashlib.sha256(data).digest()

    def hmac_sha256(self, key: bytes, message: bytes) -> bytes:
        return _hmac.new(bytes(key), bytes(message), hashlib.sha256).digest()

    # -- curve ------------------------------------------------------------

    def multiply_base(self, k: int) -> Point:
        return self._generator_table().multiply(k)

    def ecdsa_verify(self, point: Point, r: int, s: int,
                     digest: bytes) -> bool:
        cache_key = (point.x, point.y, r, s, digest)
        with self._lock:
            self.stats.verify_calls += 1
            cached = self._verify_cache.get(cache_key)
            if cached is not None:
                self._verify_cache.move_to_end(cache_key)
                self.stats.verify_cache_hits += 1
                return cached
        u1, u2 = _verify_scalars(r, s, digest)
        key_table = self._table_for(point)
        if key_table is not None:
            result = self._generator_table().combined_multiply(
                u1, key_table, u2)
        else:
            result = P256.double_multiply(u1, u2, point)
        ok = (not result.is_infinity) and result.x % P256.n == r
        with self._lock:
            self._verify_cache[cache_key] = ok
            while len(self._verify_cache) > self.verify_cache_size:
                self._verify_cache.popitem(last=False)
        return ok

    # -- table management -------------------------------------------------

    def _generator_table(self) -> FixedWindowTable:
        table = self._base_table
        if table is None:
            with self._lock:
                if self._base_table is None:
                    self._base_table = FixedWindowTable(P256.generator)
                table = self._base_table
        return table

    def _table_for(self, point: Point) -> Optional[FixedWindowTable]:
        key = (point.x, point.y)
        with self._lock:
            table = self._key_tables.get(key)
            if table is not None:
                self._key_tables.move_to_end(key)
                return table
            uses = self._key_uses.get(key, 0) + 1
            self._key_uses[key] = uses
            if uses < self.table_threshold:
                return None
        built = FixedWindowTable(point)
        with self._lock:
            # Another thread may have raced us to it; last write wins,
            # both tables are identical.
            self._key_tables[key] = built
            self._key_uses.pop(key, None)
            self.stats.key_tables_built += 1
            while len(self._key_tables) > self.key_table_cache_size:
                self._key_tables.popitem(last=False)
                self.stats.key_tables_evicted += 1
        return built

    def stats_snapshot(self) -> EngineStats:
        """A consistent copy of the counters, taken under the lock.

        Reading ``engine.stats`` field by field from another thread can
        tear across a concurrent verify; the snapshot cannot.
        """
        with self._lock:
            return EngineStats(**self.stats.to_dict())

    def clear_caches(self) -> None:
        """Drop every cache and table (cold-start benchmarking)."""
        with self._lock:
            self._base_table = None
            self._key_tables.clear()
            self._key_uses.clear()
            self._verify_cache.clear()
            self.stats.reset()


_ENGINES: Dict[str, CryptoEngine] = {
    "reference": ReferenceEngine(),
    "fast": FastEngine(),
}

_current: CryptoEngine = _ENGINES.get(
    os.environ.get("REPRO_CRYPTO_ENGINE", "reference").lower(),
    _ENGINES["reference"],
)


def available_engines() -> Dict[str, CryptoEngine]:
    return dict(_ENGINES)


def get_engine() -> CryptoEngine:
    """The engine all crypto entry points currently dispatch through."""
    return _current


def set_engine(name: str) -> CryptoEngine:
    """Select the active engine by name ("reference" or "fast")."""
    global _current
    engine = _ENGINES.get(name.lower())
    if engine is None:
        raise KeyError(
            "unknown crypto engine %r (have: %s)"
            % (name, ", ".join(sorted(_ENGINES)))
        )
    _current = engine
    return engine


@contextmanager
def use_engine(name: str):
    """Temporarily switch engines (restores the previous on exit)."""
    previous = get_engine()
    engine = set_engine(name)
    try:
        yield engine
    finally:
        global _current
        _current = previous
