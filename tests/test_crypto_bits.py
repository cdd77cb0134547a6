"""The bit-manipulation toolkit under DES."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.bits import (
    bytes_to_int, int_to_bytes, permute, rotate_left, xor_bytes,
)


@given(st.binary(min_size=1, max_size=16))
@settings(max_examples=50, deadline=None)
def test_bytes_int_roundtrip(data):
    assert int_to_bytes(bytes_to_int(data), len(data)) == data


def test_int_to_bytes_overflow():
    with pytest.raises(OverflowError):
        int_to_bytes(256, 1)


def test_identity_permutation():
    table = tuple(range(1, 9))
    assert permute(0b10110010, 8, table) == 0b10110010


def test_reversal_permutation():
    table = tuple(range(8, 0, -1))
    assert permute(0b10000000, 8, table) == 0b00000001
    assert permute(0b10110010, 8, table) == 0b01001101


def test_expanding_permutation():
    # Duplicate bit 1 into two output positions (DES E-box style).
    table = (1, 1, 2)
    assert permute(0b10, 2, table) == 0b110
    assert permute(0b01, 2, table) == 0b001


@given(st.integers(min_value=0, max_value=(1 << 28) - 1),
       st.integers(min_value=0, max_value=60))
@settings(max_examples=50, deadline=None)
def test_rotate_left_inverse(value, amount):
    rotated = rotate_left(value, amount, 28)
    assert rotate_left(rotated, -amount % 28, 28) == value
    assert rotated < (1 << 28)


def test_rotate_full_width_is_identity():
    assert rotate_left(0xABCDEF0, 28, 28) == 0xABCDEF0


@given(st.binary(min_size=0, max_size=32))
@settings(max_examples=40, deadline=None)
def test_xor_properties(data):
    zero = bytes(len(data))
    assert xor_bytes(data, zero) == data
    assert xor_bytes(data, data) == zero
    mirrored = data[::-1]
    assert xor_bytes(data, mirrored) == \
        bytes(x ^ y for x, y in zip(data, mirrored))


def test_xor_length_mismatch():
    with pytest.raises(ValueError):
        xor_bytes(b"abc", b"ab")
