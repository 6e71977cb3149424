"""The serve plane's signer pool: ECDSA off the event loop, batched.

`BENCH_server.json` before this module told one story: manifest p50 at
684 ms against register p50 at 18 ms, because the per-token P-256
envelope signature ran *on the event loop* and *inside the global
service lock*.  Every endpoint convoyed behind scalar multiplication.

:class:`SignerPool` fixes the placement half of that problem:

* A small dedicated :class:`~concurrent.futures.ThreadPoolExecutor`
  owns all ECDSA work.  The HTTP and CoAP faces dispatch manifest
  resolution through :meth:`dispatch` the way campaign routes already
  use ``run_in_executor``, so the loop thread never touches the curve.
* All workers sign through **one shared fast engine** — one fixed-window
  generator table, built once and reused by every thread — and one
  shared single-flight :class:`~repro.crypto.engine.SignatureCache`, so
  a wave of devices pulling the same release pays for one signature.
  Engine parity is contractual (byte-identical output), so signing
  through the fast engine never changes what devices verify.
* Submissions drain in **batches**: a wave of simultaneous token
  resolutions is popped from one queue by at most ``workers`` drainer
  tasks, amortising executor wake-ups across the wave instead of paying
  one executor round-trip per job.

Jobs run under :func:`contextvars.copy_context` copied at submit time,
so tracer spans recorded inside a job land under the submitting
request's span — that is what feeds ``cli swarm --profile``'s
queue-wait / sign phase split.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..core.keys import SigningIdentity
from ..crypto.engine import (CryptoEngine, SignatureCache, available_engines)

__all__ = ["SignerPool", "SignerPoolStats", "shared_signer_pool"]

DEFAULT_WORKERS = 4


@dataclass
class SignerPoolStats:
    """Counters the bench embeds next to the endpoint latencies."""

    signs: int = 0
    jobs: int = 0
    batches: int = 0
    max_batch: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "signs": self.signs,
            "jobs": self.jobs,
            "batches": self.batches,
            "max_batch": self.max_batch,
        }


class SignerPool:
    """A dedicated executor for ECDSA work with batched queue drains.

    ``engine`` defaults to the process-wide "fast" engine instance so
    every pool (and every worker thread) shares the same precomputed
    P-256 base table.  ``sign`` / ``signer_for`` route through the
    shared :class:`SignatureCache`, which both memoises deterministic
    signatures and coalesces concurrent duplicates into a single
    producer (exact accounting audited by the perf_smoke suite).
    """

    def __init__(self, workers: Optional[int] = None,
                 engine: Optional[CryptoEngine] = None,
                 signature_cache: Optional[SignatureCache] = None) -> None:
        if workers is None:
            workers = min(DEFAULT_WORKERS, max(2, os.cpu_count() or 1))
        if workers < 1:
            raise ValueError("workers must be positive")
        self.workers = workers
        self.engine = engine or available_engines()["fast"]
        # `is None`, not `or`: an empty SignatureCache is falsy
        # (len() == 0), and a private cache passed by a test must not
        # silently fall back to the process-shared one.
        self.signatures = signature_cache if signature_cache is not None \
            else _shared_signature_cache()
        self.stats = SignerPoolStats()
        self._lock = threading.Lock()
        self._queue: "deque" = deque()
        self._drainers = 0
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="upkit-signer")

    # -- signing ----------------------------------------------------------

    def sign(self, identity: SigningIdentity, message: bytes) -> bytes:
        """Sign ``message`` under ``identity`` via the shared cache.

        Deterministic signing makes ``(key scalar, digest)`` a complete
        cache key; concurrent duplicates single-flight on the cache.
        """
        engine = self.engine
        digest = engine.sha256(message)
        key = (identity.private_key.scalar, digest)

        def produce() -> bytes:
            with self._lock:
                self.stats.signs += 1
            return identity.private_key.sign_digest(digest, engine).encode()

        return self.signatures.get_or_sign(key, produce)

    def signer_for(self, identity: SigningIdentity) -> Callable[[bytes], bytes]:
        """A ``sign(message) -> bytes`` closure for ``UpdateServer``."""
        return lambda message: self.sign(identity, message)

    # -- batched dispatch -------------------------------------------------

    def submit(self, fn: Callable[..., Any], *args: Any,
               tracer: Any = None) -> "Future":
        """Queue ``fn(*args)`` for a pool worker; returns its future.

        The job runs under a context copied now, so tracer state (the
        current request span) follows it onto the worker thread; when an
        enabled ``tracer`` is passed, the time spent queued is recorded
        as a ``sign.queue`` span under that request.  A drainer task is
        spawned only when fewer than ``workers`` are already running —
        a burst of submissions is drained in batches rather than paying
        one executor wake-up per job.
        """
        future: "Future" = Future()
        ctx = contextvars.copy_context()
        if tracer is not None and not getattr(tracer, "enabled", False):
            tracer = None
        queued_at = tracer.now_fn() if tracer is not None \
            else time.perf_counter()
        job = (future, ctx, fn, args, tracer, queued_at)
        with self._lock:
            self._queue.append(job)
            spawn = self._drainers < self.workers
            if spawn:
                self._drainers += 1
        if spawn:
            self._executor.submit(self._drain)
        return future

    async def dispatch(self, fn: Callable[..., Any], *args: Any,
                       tracer: Any = None) -> Any:
        """Await ``fn(*args)`` on the pool from a coroutine."""
        import asyncio

        return await asyncio.wrap_future(
            self.submit(fn, *args, tracer=tracer))

    def _drain(self) -> None:
        drained = 0
        while True:
            with self._lock:
                if not self._queue:
                    self._drainers -= 1
                    self.stats.batches += 1
                    self.stats.jobs += drained
                    if drained > self.stats.max_batch:
                        self.stats.max_batch = drained
                    return
                future, ctx, fn, args, tracer, queued_at = \
                    self._queue.popleft()
            if not future.set_running_or_notify_cancel():
                continue
            if tracer is not None:
                started = tracer.now_fn()
                ctx.run(tracer.record_span, "sign.queue", queued_at, started,
                        category="serve.sign")
            try:
                result = ctx.run(fn, *args)
            except BaseException as exc:  # propagate through the future
                future.set_exception(exc)
            else:
                future.set_result(result)
            drained += 1

    # -- lifecycle --------------------------------------------------------

    def stats_snapshot(self) -> SignerPoolStats:
        with self._lock:
            return SignerPoolStats(**self.stats.to_dict())

    def close(self) -> None:
        """Shut the executor down (private pools in tests; the shared
        pool lives for the process)."""
        self._executor.shutdown(wait=True)


# Re-entrant: shared_signer_pool() constructs a SignerPool while
# holding it, and that constructor takes it again for the shared
# signature cache.
_SHARED_LOCK = threading.RLock()
_SHARED_POOL: Optional[SignerPool] = None
_SHARED_SIGNATURES: Optional[SignatureCache] = None


def _shared_signature_cache() -> SignatureCache:
    global _SHARED_SIGNATURES
    with _SHARED_LOCK:
        if _SHARED_SIGNATURES is None:
            _SHARED_SIGNATURES = SignatureCache()
        return _SHARED_SIGNATURES


def shared_signer_pool() -> SignerPool:
    """The process-wide pool: one executor no matter how many
    ``FleetService`` instances a test session creates."""
    global _SHARED_POOL
    with _SHARED_LOCK:
        if _SHARED_POOL is None:
            _SHARED_POOL = SignerPool()
        return _SHARED_POOL
