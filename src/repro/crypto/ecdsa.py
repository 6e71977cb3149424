"""ECDSA over secp256r1 with SHA-256, as used by UpKit's verifier.

Key generation is deterministic from a seed (devices and servers in the
simulation derive their keys from stable identities), signing follows
RFC 6979, and signatures use the fixed-width 64-byte ``r || s`` encoding
that constrained verifiers prefer over DER.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .ecc import P256, CurveError, Point
from .engine import CryptoEngine, get_engine
from .rfc6979 import deterministic_nonce, hmac_sha256

__all__ = [
    "PrivateKey",
    "PublicKey",
    "Signature",
    "SignatureError",
    "generate_keypair",
]

SIGNATURE_SIZE = 64


class SignatureError(ValueError):
    """Raised when a signature fails structural validation."""


@dataclass(frozen=True)
class Signature:
    """An ECDSA signature as the scalar pair (r, s)."""

    r: int
    s: int

    def encode(self) -> bytes:
        """Fixed-width 64-byte big-endian r || s."""
        return self.r.to_bytes(32, "big") + self.s.to_bytes(32, "big")

    @classmethod
    def decode(cls, data: bytes) -> "Signature":
        if len(data) != SIGNATURE_SIZE:
            raise SignatureError(
                "signature must be %d bytes, got %d" % (SIGNATURE_SIZE, len(data))
            )
        sig = cls(
            int.from_bytes(data[:32], "big"),
            int.from_bytes(data[32:], "big"),
        )
        if not (1 <= sig.r < P256.n and 1 <= sig.s < P256.n):
            raise SignatureError("signature scalars out of range")
        return sig


@dataclass(frozen=True)
class PublicKey:
    """A secp256r1 public key (curve point)."""

    point: Point

    def __post_init__(self) -> None:
        if self.point.is_infinity or not P256.contains(self.point):
            raise CurveError("public key is not a valid secp256r1 point")

    def encode(self) -> bytes:
        return self.point.encode()

    @classmethod
    def decode(cls, data: bytes) -> "PublicKey":
        return cls(P256.decode(data))

    def fingerprint(self) -> bytes:
        """SHA-256 of the encoded point; used as a key identifier."""
        return get_engine().sha256(self.encode())

    def verify(self, signature: Signature, message: bytes) -> bool:
        """Verify ``signature`` over SHA-256(message). Never raises on a
        well-formed signature; returns False for any invalid one."""
        return self.verify_digest(signature, get_engine().sha256(message))

    def verify_digest(self, signature: Signature, digest: bytes) -> bool:
        r, s = signature.r, signature.s
        if not (1 <= r < P256.n and 1 <= s < P256.n):
            return False
        return get_engine().ecdsa_verify(self.point, r, s, bytes(digest))


@dataclass(frozen=True)
class PrivateKey:
    """A secp256r1 private key (scalar in [1, n-1])."""

    scalar: int

    def __post_init__(self) -> None:
        if not (1 <= self.scalar < P256.n):
            raise SignatureError("private key scalar out of range")

    def public_key(self) -> PublicKey:
        return PublicKey(get_engine().multiply_base(self.scalar))

    def sign(self, message: bytes,
             engine: Optional[CryptoEngine] = None) -> Signature:
        """Deterministic (RFC 6979) ECDSA signature over SHA-256(message).

        ``engine`` pins a specific crypto engine for this signature (the
        signer pool signs through a shared fast engine this way); the
        default is the process-global engine.  Output bytes are identical
        either way — engine parity is contractual.
        """
        engine = engine or get_engine()
        return self.sign_digest(engine.sha256(message), engine)

    def sign_digest(self, digest: bytes,
                    engine: Optional[CryptoEngine] = None) -> Signature:
        engine = engine or get_engine()
        e = int.from_bytes(digest, "big") % P256.n
        while True:
            k = deterministic_nonce(self.scalar, digest, P256.n, engine)
            point = engine.multiply_base(k)
            r = point.x % P256.n
            if r == 0:
                digest = engine.sha256(digest)
                continue
            k_inv = pow(k, -1, P256.n)
            s = (k_inv * (e + r * self.scalar)) % P256.n
            if s == 0:
                digest = engine.sha256(digest)
                continue
            # Enforce low-s normalisation so signatures are non-malleable.
            if s > P256.n // 2:
                s = P256.n - s
            return Signature(r, s)


def generate_keypair(seed: bytes) -> PrivateKey:
    """Derive a private key deterministically from ``seed``.

    Uses HMAC-SHA256 in counter mode until a scalar in range is found,
    so any seed (including low-entropy test fixtures) yields a valid key.
    """
    if not seed:
        raise SignatureError("key seed must be non-empty")
    counter = 0
    while True:
        candidate = int.from_bytes(
            hmac_sha256(b"upkit-keygen", seed + counter.to_bytes(4, "big")),
            "big",
        )
        if 1 <= candidate < P256.n:
            return PrivateKey(candidate)
        counter += 1
