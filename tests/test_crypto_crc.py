"""CRC-32 correctness and the linearity forgery behind the cut-and-paste
attack."""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.crc import ForgeryError, crc32, crc32_reference, forge_field


@given(st.binary(max_size=300))
@settings(max_examples=60, deadline=None)
def test_matches_zlib(data):
    """``crc32`` is zlib's; the from-scratch byte loop pins it, so this
    is not zlib checked against itself."""
    assert crc32_reference(data) == zlib.crc32(data) == crc32(data)
    for view in (bytearray(data), memoryview(data)):
        assert crc32_reference(view) == zlib.crc32(view) == crc32(view)


def test_standard_check_value():
    """The catalogue check value of CRC-32/ISO-HDLC, the reflected
    0xEDB88320 CRC with final complement."""
    assert crc32(b"123456789") == crc32_reference(b"123456789") == 0xCBF43926


@given(st.binary(max_size=200), st.binary(max_size=200))
@settings(max_examples=40, deadline=None)
def test_affine_property(a, b):
    """crc(a) ^ crc(b) ^ crc(a^b-with-same-length) is constant per length
    — the structure the forgery exploits."""
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    xored = bytes(x ^ y for x, y in zip(a, b))
    zero = bytes(n)
    assert crc32(a) ^ crc32(b) == crc32(xored) ^ crc32(zero)
    assert (crc32_reference(a) ^ crc32_reference(b)
            == crc32_reference(xored) ^ crc32_reference(zero))


@given(
    st.binary(min_size=12, max_size=100),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.data(),
)
@settings(max_examples=50, deadline=None)
def test_forgery_hits_any_target(message, target, data):
    offset = data.draw(st.integers(min_value=0, max_value=len(message) - 4))
    forged = forge_field(message, offset, target)
    assert crc32(forged) == target
    assert crc32_reference(forged) == target
    assert forged[:offset] == message[:offset]
    assert forged[offset + 4:] == message[offset + 4:]
    assert len(forged) == len(message)


def test_forgery_out_of_range():
    with pytest.raises(ForgeryError):
        forge_field(b"short", 3, 0)
    with pytest.raises(ForgeryError):
        forge_field(b"longenough", -1, 0)


def test_forgery_reproduces_existing_crc():
    """Forging to the message's own CRC can leave the field semantics
    free: 4 bytes of attacker choice with no integrity cost."""
    message = b"server|options|ticket|AAAA|nonce"
    target = crc32(message)
    tampered = message.replace(b"options", b"OPTIONS")
    offset = tampered.index(b"AAAA")
    forged = forge_field(tampered, offset, target)
    assert crc32(forged) == target
    assert forged != message  # different content, same checksum
