"""Wave executors: how a campaign drives the devices of one wave.

``Campaign.run`` plans *waves* (canary first, then the rest) and models
their wall-clock as if devices within a wave updated in parallel — each
against its own radio.  This module makes the execution strategy
pluggable:

* :class:`SerialWaveExecutor` — the default; devices update one after
  the other on the calling thread.  Fully deterministic and the right
  choice for debugging and small fleets.
* :class:`ParallelWaveExecutor` — a persistent ``concurrent.futures``
  thread pool with configurable worker count and chunked dispatch.
  Threads overlap I/O waits (host-paced transports) but share the GIL,
  so they cannot speed up interpreter-bound device updates.

Both produce *identical* campaign results: each device is touched by
exactly one task, outcomes come back in wave order (so float
accumulation order matches the serial path bit-for-bit), and every
simulated cost comes off the device's own virtual clock — never the
host's.  ``tests/test_fleet_parallel.py`` asserts report equality.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import repeat
from typing import Callable, List, Optional, Sequence, TypeVar

__all__ = [
    "WaveExecutor",
    "SerialWaveExecutor",
    "ParallelWaveExecutor",
]

_Record = TypeVar("_Record")
_Outcome = TypeVar("_Outcome")

#: Called per device: (record, target_version) -> Optional[UpdateOutcome].
UpdateFn = Callable[[_Record, int], _Outcome]


class WaveExecutor:
    """Strategy interface: run one wave, return outcomes in wave order."""

    #: Optional :class:`~repro.obs.MetricsRegistry`: when set, each
    #: wave's *host* wall-clock (the executor's own cost, distinct from
    #: the devices' virtual time) is observed as
    #: ``executor.wave_host_seconds``.
    metrics = None
    #: Optional telemetry scrape hook, ``record -> None`` (set by the
    #: campaign when a :class:`~repro.obs.slo.FleetTelemetry` is
    #: attached).  Called once per device after its update finishes —
    #: a pure read of the device's metrics registry at its final
    #: virtual-clock time, so scraping never perturbs the simulation.
    #: The serial executor scrapes as it goes; the thread pool scrapes
    #: post-merge in wave order, so both yield the same store.
    scrape = None

    def run_wave(self, update: UpdateFn, wave: Sequence[_Record],
                 target: int) -> List[_Outcome]:
        raise NotImplementedError

    def close(self) -> None:
        """Release any worker pool (no-op for poolless executors)."""

    def _scrape_wave(self, wave: Sequence[_Record]) -> None:
        if self.scrape is not None:
            for record in wave:
                self.scrape(record)

    def _observe_wave(self, host_seconds: float, devices: int) -> None:
        if self.metrics is None:
            return
        from ..obs.metrics import HOST_SECONDS_BUCKETS

        self.metrics.counter("executor.waves").inc()
        self.metrics.counter("executor.devices_driven").inc(devices)
        self.metrics.histogram("executor.wave_host_seconds",
                               HOST_SECONDS_BUCKETS).observe(host_seconds)


class SerialWaveExecutor(WaveExecutor):
    """One device after another on the calling thread (seed behaviour)."""

    def __init__(self, metrics=None) -> None:
        self.metrics = metrics

    def run_wave(self, update: UpdateFn, wave: Sequence[_Record],
                 target: int) -> List[_Outcome]:
        start = time.perf_counter()
        outcomes = []
        for record in wave:
            outcomes.append(update(record, target))
            if self.scrape is not None:
                self.scrape(record)
        self._observe_wave(time.perf_counter() - start, len(wave))
        return outcomes


class ParallelWaveExecutor(WaveExecutor):
    """Thread-pool execution of a wave with chunked dispatch.

    ``max_workers`` bounds concurrency (default: CPU count, capped at
    16 — device updates are mostly interpreter-bound, so more threads
    only add contention).  ``chunk_size`` bounds how many device tasks
    are in flight at once, keeping memory flat on very large waves;
    it defaults to ``4 * max_workers``.

    The pool is created lazily on the first multi-device wave and
    **reused across waves** — per-wave pool construction used to cost
    more than the threads saved on I/O-light campaigns, inverting the
    speedup this executor exists to provide.  Call :meth:`close` (or
    rely on interpreter exit) to release the threads.

    Determinism: ``ThreadPoolExecutor.map`` yields results in
    submission order, each :class:`~repro.fleet.campaign.DeviceRecord`
    is owned by exactly one task, and shared components (the update
    server, the fast crypto engine's caches) take locks internally.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 chunk_size: Optional[int] = None, metrics=None) -> None:
        if max_workers is None:
            max_workers = min(16, os.cpu_count() or 1)
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if chunk_size is None:
            chunk_size = 4 * max_workers
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        self.max_workers = max_workers
        self.chunk_size = chunk_size
        self.metrics = metrics
        self._pool: Optional[ThreadPoolExecutor] = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def run_wave(self, update: UpdateFn, wave: Sequence[_Record],
                 target: int) -> List[_Outcome]:
        start_host = time.perf_counter()
        if len(wave) <= 1:
            results = [update(record, target) for record in wave]
            self._scrape_wave(wave)
            self._observe_wave(time.perf_counter() - start_host, len(wave))
            return results
        results: List[_Outcome] = []
        pool = self._ensure_pool()
        for start in range(0, len(wave), self.chunk_size):
            chunk = wave[start:start + self.chunk_size]
            results.extend(pool.map(update, chunk, repeat(target)))
        # Scrape post-merge, in wave order: worker threads never touch
        # the shared time-series store, so it fills deterministically.
        self._scrape_wave(wave)
        self._observe_wave(time.perf_counter() - start_host, len(wave))
        return results

