"""Update server: per-request specialisation and second signature.

The update server stores vendor releases, announces new versions, and —
given a device token — produces the update image for *that* device and
*that* request (Sect. III-A/B):

1. copy the token's device ID / nonce into the manifest;
2. if the token advertises a current version the server has, derive a
   bsdiff delta, compress it with LZSS and mark the payload
   ``DELTA_LZSS`` (falling back to the full image when the delta would
   not actually be smaller);
3. sign ``manifest ‖ vendor-signature`` with the update-server key.

Only the private key staying secret is assumed — no reliable time
source or transport security is required for freshness.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

from ..compression import compress as lzss_compress
from ..crypto import StreamCipher
from ..delta import ArtifactCache
from ..delta import diff as bsdiff_diff
from .errors import ManifestFormatError
from .image import SignedManifest, UpdateImage
from .keys import SigningIdentity
from .manifest import PayloadKind
from .token import DeviceToken
from .vendor import VendorRelease

__all__ = ["UpdateServer", "ServerStats", "DEFAULT_DELTA_CACHE_SIZE"]


@dataclass
class ServerStats:
    """Counters for the evaluation harness.

    ``repro.obs.bind_server`` mirrors every field into ``server.*``
    gauges, so delta-cache hit/eviction behaviour is visible in the
    same registry as device-side telemetry.
    """

    requests: int = 0
    full_updates: int = 0
    delta_updates: int = 0
    delta_fallbacks: int = 0
    bytes_served: int = 0
    delta_cache_hits: int = 0
    delta_cache_evictions: int = 0

    def to_dict(self) -> Dict[str, int]:
        """JSON-ready snapshot (embedded in bench reports)."""
        return {
            "requests": self.requests,
            "full_updates": self.full_updates,
            "delta_updates": self.delta_updates,
            "delta_fallbacks": self.delta_fallbacks,
            "bytes_served": self.bytes_served,
            "delta_cache_hits": self.delta_cache_hits,
            "delta_cache_evictions": self.delta_cache_evictions,
        }


#: Default bound on cached (old_version, new_version) deltas.  A fleet
#: usually spans a handful of trailing versions, so a small LRU keeps
#: the hit rate while capping server memory across long release chains.
DEFAULT_DELTA_CACHE_SIZE = 64


class UpdateServer:
    """Holds releases and answers device-token requests with signed images.

    Thread-safe: the serve plane's signer-pool threads
    (``FleetService.resolve_manifest_encoded``) issue concurrent
    ``prepare_update`` calls on one channel server, so the stats
    counters and the delta cache are lock-protected.  Delta
    *generation* happens under the cache lock on purpose — when many
    sessions ask for the same (old, new) pair at once, exactly one
    thread pays the bsdiff+LZSS cost and the rest get the cached
    bytes.
    """

    def __init__(self, identity: SigningIdentity,
                 cipher: Optional[StreamCipher] = None,
                 delta_cache_size: int = DEFAULT_DELTA_CACHE_SIZE,
                 artifacts: Optional[ArtifactCache] = None,
                 sign_fn=None) -> None:
        if delta_cache_size < 1:
            raise ValueError("delta_cache_size must be at least 1")
        self.identity = identity
        self.cipher = cipher
        #: Envelope-signing override: the serve plane's signer pool
        #: passes a closure that signs through the shared fast engine
        #: and the single-flight signature cache.  Byte-identical to
        #: ``identity.sign`` by the engine-parity contract.
        self._sign_fn = sign_fn
        self.delta_cache_size = delta_cache_size
        self.stats = ServerStats()
        #: Content-addressed layer under the version-pair LRU: deltas
        #: and envelope signatures keyed by firmware bytes, so reused
        #: content hits across campaigns and server instances.  Pass
        #: :func:`repro.delta.shared_cache` to share process-wide, or
        #: ``ArtifactCache(max_bytes=0)`` to disable.
        self.artifacts = artifacts if artifacts is not None \
            else ArtifactCache()
        self._releases: Dict[int, VendorRelease] = {}
        self._delta_cache: "OrderedDict[tuple[int, int], bytes]" \
            = OrderedDict()
        self._stats_lock = threading.Lock()
        self._delta_lock = threading.Lock()

    # -- publishing ------------------------------------------------------------

    def publish(self, release: VendorRelease) -> None:
        """Accept a vendor release (step 2 of Fig. 2)."""
        if release.version in self._releases:
            raise ManifestFormatError(
                "version %d already published" % release.version)
        self._releases[release.version] = release

    @property
    def latest_version(self) -> int:
        """Newest published version, or 0 when nothing is published."""
        return max(self._releases) if self._releases else 0

    def has_release(self, version: int) -> bool:
        """Whether ``version`` is published (the service layer's
        channel-resolution check)."""
        return version in self._releases

    def announce(self) -> "dict[str, int]":
        """The advertisement pushed to proxies (step 3 of Fig. 2)."""
        return {"latest_version": self.latest_version}

    # -- per-request image generation -------------------------------------------

    def prepare_update(self, token: DeviceToken) -> UpdateImage:
        """Build the double-signed update image for one device token."""
        with self._stats_lock:
            self.stats.requests += 1
        if not self._releases:
            raise ManifestFormatError("no published releases")
        release = self._releases[self.latest_version]

        payload, payload_kind, old_version = self._select_payload(
            release, token)
        if self.cipher is not None:
            # Per-request keystream: two images for different tokens must
            # never share CTR keystream bytes (see StreamCipher.derive).
            request_cipher = self.cipher.derive(token.pack())
            payload = request_cipher.process(payload)
            payload_kind = (PayloadKind.DELTA_ENCRYPTED
                            if PayloadKind.is_delta(payload_kind)
                            else PayloadKind.FULL_ENCRYPTED)

        manifest = release.manifest.bind_token(
            token,
            payload_kind=payload_kind,
            payload_size=len(payload),
            old_version=old_version,
        )
        # RFC 6979 signing is deterministic, so the envelope signature
        # is itself content-addressable: a device retrying the same
        # bound manifest (interrupted transfers, flaky links) reuses
        # the signature instead of re-running scalar multiplication.
        message = manifest.pack() + release.vendor_signature
        sign = self._sign_fn or self.identity.sign
        envelope = SignedManifest(
            manifest=manifest,
            vendor_signature=release.vendor_signature,
            server_signature=self.artifacts.get_or_create(
                message, b"", b"ecdsa-envelope:" + self.identity.role.encode(),
                lambda: sign(message)),
        )
        image = UpdateImage(envelope=envelope, payload=payload)
        with self._stats_lock:
            self.stats.bytes_served += image.total_size
        return image

    def _select_payload(
        self, release: VendorRelease, token: DeviceToken
    ) -> "tuple[bytes, int, int]":
        """Choose full vs. differential payload for this request."""
        current = token.current_version
        use_delta = (
            token.supports_differential
            and current in self._releases
            and current < release.version
        )
        if not use_delta:
            with self._stats_lock:
                self.stats.full_updates += 1
            return release.firmware, PayloadKind.FULL, 0

        delta = self._delta_for(current, release)
        if len(delta) >= len(release.firmware):
            # A delta larger than the image defeats its purpose.
            with self._stats_lock:
                self.stats.delta_fallbacks += 1
                self.stats.full_updates += 1
            return release.firmware, PayloadKind.FULL, 0
        with self._stats_lock:
            self.stats.delta_updates += 1
        return delta, PayloadKind.DELTA_LZSS, current

    def _delta_for(self, old_version: int, release: VendorRelease) -> bytes:
        key = (old_version, release.version)
        with self._delta_lock:
            cached = self._delta_cache.get(key)
            if cached is not None:
                self._delta_cache.move_to_end(key)
                with self._stats_lock:
                    self.stats.delta_cache_hits += 1
                return cached
            old_firmware = self._releases[old_version].firmware
            new_firmware = release.firmware
            # The content-addressed layer below the version-pair LRU:
            # identical firmware bytes reuse the prepared delta across
            # campaigns and server instances.
            delta = self.artifacts.get_or_create(
                old_firmware, new_firmware, b"bsdiff+lzss",
                lambda: lzss_compress(
                    bsdiff_diff(old_firmware, new_firmware)))
            self._delta_cache[key] = delta
            while len(self._delta_cache) > self.delta_cache_size:
                self._delta_cache.popitem(last=False)
                with self._stats_lock:
                    self.stats.delta_cache_evictions += 1
        return delta
