"""NIST P-256 (secp256r1) elliptic-curve arithmetic.

UpKit performs ECDSA signature verification over the secp256r1 curve with
SHA-256 digests (Sect. V of the paper).  This module implements the curve
group from scratch: affine points for the public API and Jacobian
coordinates internally for speed, since the pure-Python field inversions
dominate the cost otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

__all__ = ["P256", "Point", "CurveError", "FixedWindowTable"]


class CurveError(ValueError):
    """Raised when a point is not on the curve or encoding is invalid."""


# secp256r1 domain parameters (SEC 2, version 2.0)
_P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
_A = _P - 3
_B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
_N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
_GX = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
_GY = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5


@dataclass(frozen=True)
class Point:
    """Affine curve point; ``None`` coordinates encode the identity."""

    x: Optional[int]
    y: Optional[int]

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def encode(self) -> bytes:
        """Uncompressed SEC1 encoding (0x04 || X || Y)."""
        if self.is_infinity:
            raise CurveError("cannot encode the point at infinity")
        return b"\x04" + self.x.to_bytes(32, "big") + self.y.to_bytes(32, "big")


INFINITY = Point(None, None)


class _P256:
    """The secp256r1 group: point validation, addition, scalar multiply."""

    p = _P
    a = _A
    b = _B
    n = _N
    key_bytes = 32

    @property
    def generator(self) -> Point:
        return Point(_GX, _GY)

    def contains(self, point: Point) -> bool:
        if point.is_infinity:
            return True
        x, y = point.x, point.y
        if not (0 <= x < _P and 0 <= y < _P):
            return False
        return (y * y - (x * x * x + _A * x + _B)) % _P == 0

    def decode(self, data: bytes) -> Point:
        """Parse an uncompressed SEC1 point and validate curve membership."""
        if len(data) != 65 or data[0] != 0x04:
            raise CurveError("expected 65-byte uncompressed SEC1 point")
        point = Point(
            int.from_bytes(data[1:33], "big"),
            int.from_bytes(data[33:65], "big"),
        )
        if not self.contains(point) or point.is_infinity:
            raise CurveError("point is not on secp256r1")
        return point

    # -- group law -------------------------------------------------------

    def add(self, lhs: Point, rhs: Point) -> Point:
        return self._to_affine(
            self._jacobian_add(self._to_jacobian(lhs), self._to_jacobian(rhs))
        )

    def multiply(self, k: int, point: Point) -> Point:
        """Scalar multiplication k*point (left-to-right double-and-add)."""
        if point.is_infinity or k % _N == 0:
            return INFINITY
        k %= _N
        result = (0, 0, 0)  # Jacobian identity (Z == 0)
        addend = self._to_jacobian(point)
        while k:
            if k & 1:
                result = self._jacobian_add(result, addend)
            addend = self._jacobian_double(addend)
            k >>= 1
        return self._to_affine(result)

    def multiply_base(self, k: int) -> Point:
        return self.multiply(k, self.generator)

    def double_multiply(self, u1: int, u2: int, point: Point) -> Point:
        """u1*G + u2*point — the hot operation of ECDSA verification.

        Uses Shamir's trick (interleaved double-and-add) so verification
        costs roughly one scalar multiplication instead of two.
        """
        u1 %= _N
        u2 %= _N
        jg = self._to_jacobian(self.generator)
        jp = self._to_jacobian(point)
        jsum = self._jacobian_add(jg, jp)
        result = (0, 0, 0)
        for bit in range(max(u1.bit_length(), u2.bit_length()) - 1, -1, -1):
            result = self._jacobian_double(result)
            b1 = (u1 >> bit) & 1
            b2 = (u2 >> bit) & 1
            if b1 and b2:
                result = self._jacobian_add(result, jsum)
            elif b1:
                result = self._jacobian_add(result, jg)
            elif b2:
                result = self._jacobian_add(result, jp)
        return self._to_affine(result)

    # -- Jacobian internals ---------------------------------------------

    @staticmethod
    def _to_jacobian(point: Point) -> Tuple[int, int, int]:
        if point.is_infinity:
            return (0, 0, 0)
        return (point.x, point.y, 1)

    @staticmethod
    def _to_affine(jac: Tuple[int, int, int]) -> Point:
        x, y, z = jac
        if z == 0:
            return INFINITY
        z_inv = pow(z, -1, _P)
        z_inv2 = (z_inv * z_inv) % _P
        return Point((x * z_inv2) % _P, (y * z_inv2 * z_inv) % _P)

    @staticmethod
    def _jacobian_double(jac: Tuple[int, int, int]) -> Tuple[int, int, int]:
        x, y, z = jac
        if z == 0 or y == 0:
            return (0, 0, 0)
        # dbl-2001-b formulas specialised for a = -3
        delta = (z * z) % _P
        gamma = (y * y) % _P
        beta = (x * gamma) % _P
        alpha = (3 * (x - delta) * (x + delta)) % _P
        x3 = (alpha * alpha - 8 * beta) % _P
        z3 = ((y + z) * (y + z) - gamma - delta) % _P
        y3 = (alpha * (4 * beta - x3) - 8 * gamma * gamma) % _P
        return (x3, y3, z3)

    def _jacobian_add_affine(
        self, lhs: Tuple[int, int, int], x2: int, y2: int
    ) -> Tuple[int, int, int]:
        """Mixed addition lhs + (x2, y2, 1); saves the z2 field products.

        The fixed-window tables store their precomputed multiples in
        affine form precisely so that every table lookup lands on this
        cheaper formula (madd-2007-bl specialised for z2 = 1).
        """
        x1, y1, z1 = lhs
        if z1 == 0:
            return (x2, y2, 1)
        z1z1 = (z1 * z1) % _P
        u2 = (x2 * z1z1) % _P
        s2 = (y2 * z1 * z1z1) % _P
        if x1 == u2:
            if y1 != s2:
                return (0, 0, 0)
            return self._jacobian_double(lhs)
        h = (u2 - x1) % _P
        i = (4 * h * h) % _P
        j = (h * i) % _P
        r = (2 * (s2 - y1)) % _P
        v = (x1 * i) % _P
        x3 = (r * r - j - 2 * v) % _P
        y3 = (r * (v - x3) - 2 * y1 * j) % _P
        z3 = (((z1 + h) * (z1 + h) - z1z1 - h * h)) % _P
        return (x3, y3, z3)

    def _jacobian_add(
        self, lhs: Tuple[int, int, int], rhs: Tuple[int, int, int]
    ) -> Tuple[int, int, int]:
        x1, y1, z1 = lhs
        x2, y2, z2 = rhs
        if z1 == 0:
            return rhs
        if z2 == 0:
            return lhs
        z1z1 = (z1 * z1) % _P
        z2z2 = (z2 * z2) % _P
        u1 = (x1 * z2z2) % _P
        u2 = (x2 * z1z1) % _P
        s1 = (y1 * z2 * z2z2) % _P
        s2 = (y2 * z1 * z1z1) % _P
        if u1 == u2:
            if s1 != s2:
                return (0, 0, 0)
            return self._jacobian_double(lhs)
        h = (u2 - u1) % _P
        i = (4 * h * h) % _P
        j = (h * i) % _P
        r = (2 * (s2 - s1)) % _P
        v = (u1 * i) % _P
        x3 = (r * r - j - 2 * v) % _P
        y3 = (r * (v - x3) - 2 * s1 * j) % _P
        z3 = (((z1 + z2) * (z1 + z2) - z1z1 - z2z2) * h) % _P
        return (x3, y3, z3)


P256 = _P256()


def _batch_to_affine(
    jacs: Sequence[Tuple[int, int, int]]
) -> List[Tuple[int, int]]:
    """Normalise many Jacobian points with one field inversion.

    Montgomery's trick: invert the product of all z coordinates once,
    then peel per-point inverses off with multiplications.  Building a
    fixed-window table needs ~1000 normalisations; doing them naively
    would cost ~1000 modular inversions.
    """
    zs = [z for (_, _, z) in jacs]
    prefix = [1] * (len(zs) + 1)
    for i, z in enumerate(zs):
        prefix[i + 1] = (prefix[i] * z) % _P
    inv_all = pow(prefix[-1], -1, _P)
    affine: List[Tuple[int, int]] = [(0, 0)] * len(jacs)
    for i in range(len(jacs) - 1, -1, -1):
        x, y, z = jacs[i]
        z_inv = (inv_all * prefix[i]) % _P
        inv_all = (inv_all * z) % _P
        z_inv2 = (z_inv * z_inv) % _P
        affine[i] = ((x * z_inv2) % _P, (y * z_inv2 * z_inv) % _P)
    return affine


class FixedWindowTable:
    """Precomputed fixed-window multiples of one curve point.

    Stores ``d * 16**i * P`` for every window ``i`` (0..63) and digit
    ``d`` (1..15) in *affine* form, so a scalar multiplication becomes
    at most 64 cheap mixed additions and zero doublings — the classic
    comb/fixed-window trade of memory for the verify hot path.  The
    table costs ~1150 group operations to build, so it only pays off
    for points that are multiplied repeatedly (the base point, and the
    vendor / update-server public keys every device verifies against).
    """

    WINDOW_BITS = 4
    _WINDOWS = 64   # 256 bits / 4
    _DIGITS = 15    # non-zero 4-bit digits

    def __init__(self, point: Point) -> None:
        if point.is_infinity:
            raise CurveError("cannot build a window table for infinity")
        self.point = point
        curve = P256
        jacs: List[Tuple[int, int, int]] = []
        base = curve._to_jacobian(point)
        for _ in range(self._WINDOWS):
            acc = base
            jacs.append(acc)
            for _ in range(2, self._DIGITS + 1):
                acc = curve._jacobian_add(acc, base)
                jacs.append(acc)
            for _ in range(self.WINDOW_BITS):
                base = curve._jacobian_double(base)
        flat = _batch_to_affine(jacs)
        # rows[i][d-1] = d * 16**i * P in affine form
        self._rows = [
            flat[i * self._DIGITS:(i + 1) * self._DIGITS]
            for i in range(self._WINDOWS)
        ]

    def multiply_jacobian(self, k: int) -> Tuple[int, int, int]:
        """k * P as a Jacobian triple (identity encoded as z == 0)."""
        k %= _N
        acc = (0, 0, 0)
        add_affine = P256._jacobian_add_affine
        rows = self._rows
        window = 0
        while k:
            digit = k & 0x0F
            if digit:
                x2, y2 = rows[window][digit - 1]
                acc = add_affine(acc, x2, y2)
            k >>= 4
            window += 1
        return acc

    def multiply(self, k: int) -> Point:
        return P256._to_affine(self.multiply_jacobian(k))

    def combined_multiply(self, u1: int, other: "FixedWindowTable",
                          u2: int) -> Point:
        """u1 * self.point + u2 * other.point — table-only ECDSA verify."""
        jsum = P256._jacobian_add(self.multiply_jacobian(u1),
                                  other.multiply_jacobian(u2))
        return P256._to_affine(jsum)
