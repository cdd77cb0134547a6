"""MD4 against the RFC 1320 vectors, incremental-update behaviour, and
a textbook reference: one step per iteration, the registers rotating
through the seats, as RFC 1320 writes the rounds."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.md4 import MD4, md4

_MASK = 0xFFFFFFFF

# (message word, rotation) per step.  Round 2 walks the words by
# column, round 3 in the bit-reversal order of their low 4 bits.
_ROUND1 = tuple((i, (3, 7, 11, 19)[i % 4]) for i in range(16))
_ROUND2 = tuple((i % 4 * 4 + i // 4, (3, 5, 9, 13)[i % 4]) for i in range(16))
_ROUND3 = tuple(
    (k, (3, 9, 11, 15)[i % 4])
    for i, k in enumerate((0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15))
)


def _compress(state, block):
    x = struct.unpack("<16I", block)
    a, b, c, d = state
    # Each step updates the register in a's seat from the other three
    # (F, G or H of b, c, d), then the seats rotate one place, so after
    # every fourth step each register is back in its own seat.
    for k, s in _ROUND1:  # F(b, c, d) = b ? c : d
        t = (a + (d ^ (b & (c ^ d))) + x[k]) & _MASK
        a, b, c, d = d, ((t << s) | (t >> (32 - s))) & _MASK, b, c
    for k, s in _ROUND2:  # G(b, c, d) = majority
        t = (a + ((b & c) | (d & (b | c))) + x[k] + 0x5A827999) & _MASK
        a, b, c, d = d, ((t << s) | (t >> (32 - s))) & _MASK, b, c
    for k, s in _ROUND3:  # H(b, c, d) = parity
        t = (a + (b ^ c ^ d) + x[k] + 0x6ED9EBA1) & _MASK
        a, b, c, d = d, ((t << s) | (t >> (32 - s))) & _MASK, b, c
    return [(old + new) & _MASK for old, new in zip(state, (a, b, c, d))]


def reference_md4(data):
    """MD4 through the textbook step loop, padded as RFC 1320 says."""
    length = len(data)
    message = (bytes(data) + b"\x80" + b"\x00" * ((55 - length) % 64)
               + struct.pack("<Q", length * 8))
    state = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476]
    for offset in range(0, len(message), 64):
        state = _compress(state, message[offset:offset + 64])
    return struct.pack("<4I", *state)


PADDING_BOUNDARIES = (55, 56, 63, 64, 65, 119, 120, 128)

RFC_VECTORS = {
    b"": "31d6cfe0d16ae931b73c59d7e0c089c0",
    b"a": "bde52cb31de33e46245e05fbdbd6fb24",
    b"abc": "a448017aaf21d8525fc10ae87aa6729d",
    b"message digest": "d9130a8164549fe818874806e1c7014b",
    b"abcdefghijklmnopqrstuvwxyz": "d79e1c308aa5bbcdeea8ed63df412da9",
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789":
        "043f8582f241db351ce627e153e7f0e4",
    b"1234567890" * 8: "e33b4ddc9c38f2199c3e7b164fcc0536",
}


@pytest.mark.parametrize("message,digest", RFC_VECTORS.items())
def test_rfc_vectors(message, digest):
    assert md4(message).hex() == digest


def test_digest_length():
    assert len(md4(b"x")) == 16


@given(st.binary(max_size=300), st.integers(min_value=0, max_value=300))
@settings(max_examples=50, deadline=None)
def test_incremental_equals_oneshot(data, split):
    split = min(split, len(data))
    hasher = MD4()
    hasher.update(data[:split])
    hasher.update(data[split:])
    assert hasher.digest() == md4(data)


def test_digest_is_nondestructive():
    hasher = MD4(b"hello")
    first = hasher.digest()
    assert hasher.digest() == first
    hasher.update(b" world")
    assert hasher.digest() == md4(b"hello world")


@given(st.binary(max_size=200), st.binary(max_size=200))
@settings(max_examples=40, deadline=None)
def test_distinct_inputs_distinct_digests(a, b):
    """Not a collision proof — just the sanity the protocol relies on."""
    if a != b:
        assert md4(a) != md4(b)


def test_block_boundary_lengths():
    """Padding edge cases: 55, 56, 63, 64, 65 bytes."""
    for length in (55, 56, 63, 64, 65, 119, 120, 128):
        data = bytes(i & 0xFF for i in range(length))
        hasher = MD4()
        for byte in data:
            hasher.update(bytes([byte]))
        assert hasher.digest() == md4(data), length


def test_reference_matches_rfc_vectors():
    for message, digest in RFC_VECTORS.items():
        assert reference_md4(message).hex() == digest


@given(st.binary(max_size=300))
@settings(max_examples=60, deadline=None)
def test_matches_reference(data):
    expected = reference_md4(data)
    assert md4(data) == expected
    assert MD4(data).digest() == expected
    assert md4(bytearray(data)) == md4(memoryview(data)) == expected


@pytest.mark.parametrize("length", PADDING_BOUNDARIES)
def test_padding_boundaries_match_reference(length):
    """Either side of where the padding stops fitting in the last block
    (55/56, 119/120 bytes), and around whole blocks (63-65, 128)."""
    data = bytes((7 * i + 3) & 0xFF for i in range(length))
    expected = reference_md4(data)
    assert md4(data) == expected
    assert MD4(data).digest() == expected


@given(st.binary(max_size=300),
       st.lists(st.integers(min_value=0, max_value=300), max_size=6))
@settings(max_examples=60, deadline=None)
def test_random_splits_match_reference(data, cuts):
    hasher = MD4()
    start = 0
    for cut in sorted(min(cut, len(data)) for cut in cuts):
        hasher.update(data[start:cut])
        start = cut
        # A digest between updates must not disturb the running state.
        assert hasher.digest() == reference_md4(data[:cut])
    hasher.update(data[start:])
    assert hasher.digest() == reference_md4(data)
