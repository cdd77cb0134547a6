"""The checksum registry and its collision-proof classification."""

import pytest

from repro.crypto.checksum import (
    ChecksumType,
    compute,
    constant_time_compare,
    spec_for,
    verify,
)

KEY = b"\x13\x34\x57\x79\x9b\xbc\xdf\xf1"


@pytest.mark.parametrize("kind", list(ChecksumType))
def test_compute_verify_roundtrip(kind):
    key = KEY if spec_for(kind).keyed else b""
    value = compute(kind, b"some protocol bytes", key)
    assert len(value) == spec_for(kind).length
    assert verify(kind, b"some protocol bytes", value, key)
    assert not verify(kind, b"some protocol bytez", value, key)


def test_classification_matches_the_paper():
    """CRC-32 is not collision-proof; the MD4 family is (in this threat
    model); only MD4-DES is keyed."""
    assert not spec_for(ChecksumType.CRC32).collision_proof
    assert spec_for(ChecksumType.MD4).collision_proof
    assert spec_for(ChecksumType.MD4_DES).collision_proof
    assert not spec_for(ChecksumType.CRC32).keyed
    assert not spec_for(ChecksumType.MD4).keyed
    assert spec_for(ChecksumType.MD4_DES).keyed


def test_keyed_checksum_requires_key():
    with pytest.raises(ValueError):
        compute(ChecksumType.MD4_DES, b"data")


def test_keyed_checksum_key_separates():
    a = compute(ChecksumType.MD4_DES, b"data", KEY)
    b = compute(ChecksumType.MD4_DES, b"data", b"\x01" * 8)
    assert a != b


def test_verify_length_mismatch_is_false():
    assert not verify(ChecksumType.MD4, b"data", b"short")


def test_unkeyed_checksum_is_attacker_computable():
    """The property behind the paper's warning: over public data, an
    unkeyed checksum gives zero integrity against an active attacker."""
    original = compute(ChecksumType.MD4, b"legitimate request")
    attacker_copy = compute(ChecksumType.MD4, b"legitimate request")
    assert original == attacker_copy


DIGEST = bytes(range(16))


def _flip(data, index):
    out = bytearray(data)
    out[index] ^= 0x01
    return bytes(out)


def test_constant_time_compare_equal_inputs():
    assert constant_time_compare(DIGEST, bytes(DIGEST))
    assert constant_time_compare(b"", b"")


@pytest.mark.parametrize("index", [0, len(DIGEST) - 1])
def test_constant_time_compare_one_byte_difference(index):
    assert not constant_time_compare(DIGEST, _flip(DIGEST, index))
    assert not constant_time_compare(_flip(DIGEST, index), DIGEST)


def test_constant_time_compare_unequal_lengths_are_false():
    assert not constant_time_compare(DIGEST, DIGEST[:-1])
    assert not constant_time_compare(DIGEST + b"\x00", DIGEST)
    assert not constant_time_compare(b"", DIGEST)


@pytest.mark.parametrize("wrap", [bytearray, memoryview])
def test_constant_time_compare_accepts_bytes_like(wrap):
    assert constant_time_compare(DIGEST, wrap(DIGEST))
    assert constant_time_compare(wrap(DIGEST), DIGEST)
    assert not constant_time_compare(DIGEST, wrap(_flip(DIGEST, 3)))


def test_constant_time_compare_rejects_str_mixed_with_bytes():
    with pytest.raises(TypeError):
        constant_time_compare("0123", b"0123")
    with pytest.raises(TypeError):
        constant_time_compare(b"0123", "0123")
