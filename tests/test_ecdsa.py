"""ECDSA (secp256r1 / SHA-256) tests, including RFC 6979 vectors."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    P256,
    PrivateKey,
    PublicKey,
    Signature,
    SignatureError,
    generate_keypair,
)
from repro.crypto.engine import available_engines

# RFC 6979 A.2.5 (P-256, SHA-256, message "sample").
RFC6979_KEY = int(
    "C9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721", 16)
RFC6979_R = int(
    "EFD48B2AACB6A8FD1140DD9CD45E81D69D2C877B56AAF991C34D0EA84EAF3716", 16)
RFC6979_S = int(
    "F7CB1C942D657C41D436C7A1B6E29F65F3E900DBB9AFF4064DC4AB2F843ACDA8", 16)


@pytest.fixture()
def keypair():
    private = generate_keypair(b"test-key")
    return private, private.public_key()


def test_rfc6979_vector_r_matches():
    key = PrivateKey(RFC6979_KEY)
    for engine in available_engines().values():
        signature = key.sign(b"sample", engine)
        assert signature.r == RFC6979_R
        # The implementation normalises to low-s; the vector's s is high.
        assert RFC6979_S > P256.n // 2
        assert signature.s == P256.n - RFC6979_S


def test_rfc6979_public_key_vector():
    key = PrivateKey(RFC6979_KEY)
    point = key.public_key().point
    assert point.x == int(
        "60FED4BA255A9D31C961EB74C6356D68C049B8923B61FA6CE669622E60F29FB6",
        16)
    assert point.y == int(
        "7903FE1008B8BC99A41AE9E95628BC64F2F1B20C2D7E9F5177A3C294D4462299",
        16)


def test_sign_verify_roundtrip(keypair):
    private, public = keypair
    signature = private.sign(b"firmware image")
    assert public.verify(signature, b"firmware image")


def test_verify_rejects_wrong_message(keypair):
    private, public = keypair
    signature = private.sign(b"original")
    assert not public.verify(signature, b"tampered")


def test_verify_rejects_wrong_key(keypair):
    private, _ = keypair
    other = generate_keypair(b"other-key").public_key()
    assert not other.verify(private.sign(b"msg"), b"msg")


def test_signature_deterministic(keypair):
    private, _ = keypair
    assert private.sign(b"x").encode() == private.sign(b"x").encode()


def test_signatures_differ_per_message(keypair):
    private, _ = keypair
    assert private.sign(b"a").encode() != private.sign(b"b").encode()


def test_low_s_normalisation(keypair):
    private, _ = keypair
    for message in (b"m1", b"m2", b"m3", b"m4"):
        assert private.sign(message).s <= P256.n // 2


def test_signature_encode_decode_roundtrip(keypair):
    private, public = keypair
    signature = private.sign(b"msg")
    decoded = Signature.decode(signature.encode())
    assert decoded == signature
    assert public.verify(decoded, b"msg")


def test_signature_decode_rejects_wrong_length():
    with pytest.raises(SignatureError):
        Signature.decode(b"\x01" * 63)


def test_signature_decode_rejects_zero_scalars():
    with pytest.raises(SignatureError):
        Signature.decode(b"\x00" * 64)


def test_signature_decode_rejects_out_of_range():
    blob = P256.n.to_bytes(32, "big") + (1).to_bytes(32, "big")
    with pytest.raises(SignatureError):
        Signature.decode(blob)


def test_private_key_range_validation():
    with pytest.raises(SignatureError):
        PrivateKey(0)
    with pytest.raises(SignatureError):
        PrivateKey(P256.n)


def test_generate_keypair_deterministic():
    assert (generate_keypair(b"seed").scalar
            == generate_keypair(b"seed").scalar)
    assert (generate_keypair(b"seed-a").scalar
            != generate_keypair(b"seed-b").scalar)


def test_generate_keypair_rejects_empty_seed():
    with pytest.raises(SignatureError):
        generate_keypair(b"")


def test_public_key_fingerprint_stable(keypair):
    _, public = keypair
    assert public.fingerprint() == public.fingerprint()
    assert len(public.fingerprint()) == 32


def test_public_key_encode_decode(keypair):
    _, public = keypair
    assert PublicKey.decode(public.encode()).point == public.point


def test_flipped_signature_bits_fail(keypair):
    private, public = keypair
    encoded = bytearray(private.sign(b"msg").encode())
    encoded[10] ^= 0x40
    tampered = Signature.decode(bytes(encoded))
    assert not public.verify(tampered, b"msg")


@settings(max_examples=10, deadline=None)
@given(st.binary(min_size=0, max_size=200))
def test_roundtrip_property(message):
    private = generate_keypair(b"prop-key")
    assert private.public_key().verify(private.sign(message), message)
