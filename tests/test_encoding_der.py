"""The DER subset: round trips, strictness, and rejection of malformed
input — the length-field property the paper credits ASN.1 with."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding import der


@given(st.integers(min_value=-2**63, max_value=2**63))
@settings(max_examples=60, deadline=None)
def test_integer_roundtrip(value):
    tag, decoded, end = der.decode(der.encode_integer(value))
    assert decoded == value
    assert tag == 0x02


@given(st.binary(max_size=300))
@settings(max_examples=60, deadline=None)
def test_octet_string_roundtrip(value):
    _tag, decoded, _ = der.decode(der.encode_octet_string(value))
    assert decoded == value


@given(st.text(max_size=100))
@settings(max_examples=40, deadline=None)
def test_utf8_roundtrip(value):
    _tag, decoded, _ = der.decode(der.encode_utf8(value))
    assert decoded == value


def test_sequence_roundtrip():
    blob = der.encode_sequence(
        der.encode_integer(42),
        der.encode_octet_string(b"key"),
        der.encode_utf8("pat"),
    )
    tag, items, _ = der.decode(blob)
    assert tag == 0x30
    assert [v for _t, v in items] == [42, b"key", "pat"]


def test_context_and_application_tags():
    inner = der.encode_integer(7)
    ctx = der.encode_context(3, inner)
    tag, items, _ = der.decode(ctx)
    assert tag == 0xA3
    assert items == [(0x02, 7)]
    app = der.encode_application(12, inner)
    tag, _items, _ = der.decode(app)
    assert tag == 0x6C


def test_long_form_length():
    blob = der.encode_octet_string(b"x" * 300)
    _tag, decoded, _ = der.decode(blob)
    assert decoded == b"x" * 300


def test_truncation_rejected():
    """'It is no longer possible for an attacker to truncate a message,
    and present the shortened form as a valid encrypted message.'"""
    blob = der.encode_octet_string(b"x" * 50)
    with pytest.raises(der.DerError):
        der.decode(blob[:-1])
    with pytest.raises(der.DerError):
        der.decode_all(blob[:10])


def test_trailing_garbage_rejected_by_decode_all():
    blob = der.encode_integer(1) + b"\xff"
    with pytest.raises(der.DerError):
        der.decode_all(blob)


def test_nonminimal_integer_rejected():
    # 0x02 0x02 0x00 0x01 — a non-minimal encoding of 1.
    with pytest.raises(der.DerError):
        der.decode(bytes([0x02, 0x02, 0x00, 0x01]))


def test_nonminimal_length_rejected():
    # long-form length 0x81 0x05 where short form would do.
    blob = bytes([0x04, 0x81, 0x05]) + b"12345"
    with pytest.raises(der.DerError):
        der.decode(blob)
    # Two length octets with a leading zero, for values short form and
    # one octet would each hold (X.690 §10.1: the fewest octets).
    with pytest.raises(der.DerError, match="non-minimal length"):
        der.decode(bytes([0x04, 0x82, 0x00, 0x03]) + b"abc")
    with pytest.raises(der.DerError, match="non-minimal length"):
        der.decode(bytes([0x04, 0x82, 0x00, 0x80]) + b"x" * 0x80)
    # The minimal long forms still parse.
    assert der.decode(bytes([0x04, 0x81, 0x80]) + b"x" * 0x80)[1] == b"x" * 0x80
    assert der.decode(bytes([0x04, 0x82, 0x01, 0x00]) + b"x" * 0x100)[1] == b"x" * 0x100


def test_empty_integer_rejected():
    with pytest.raises(der.DerError):
        der.decode(bytes([0x02, 0x00]))


def test_unsupported_tag_rejected():
    with pytest.raises(der.DerError):
        der.decode(bytes([0x13, 0x01, 0x41]))  # PrintableString unsupported


def test_tag_number_range_checked():
    with pytest.raises(der.DerError):
        der.encode_context(31, b"")
    with pytest.raises(der.DerError):
        der.encode_application(-1, b"")


@given(st.binary(max_size=60))
@settings(max_examples=80, deadline=None)
def test_decode_never_crashes_unexpectedly(junk):
    """Adversarial bytes either decode or raise DerError — nothing else."""
    try:
        der.decode_all(junk)
    except der.DerError:
        pass
