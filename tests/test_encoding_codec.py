"""The two wire codecs: round trips, validation, and the type-confusion
difference that motivates recommendation (b)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding import CodecError, Field, FieldKind, Schema, V4Codec, V5Codec

TICKET_LIKE = Schema("ticket-like", 1, (
    Field("server", FieldKind.STRING),
    Field("client", FieldKind.STRING),
    Field("stamp", FieldKind.UINT),
    Field("key", FieldKind.BYTES),
))

# Same *shape*, different meaning — the ambiguity scenario.
AUTH_LIKE = Schema("auth-like", 2, (
    Field("client", FieldKind.STRING),
    Field("address", FieldKind.STRING),
    Field("timestamp", FieldKind.UINT),
    Field("checksum", FieldKind.BYTES),
))

VALUES = {
    "server": "rlogin.myhost", "client": "bellovin",
    "stamp": 123456789, "key": b"\x01\x02\x03\x04\x05\x06\x07\x08",
}

value_strategy = st.fixed_dictionaries({
    "server": st.text(max_size=30),
    "client": st.text(max_size=30),
    "stamp": st.integers(min_value=0, max_value=2**63),
    "key": st.binary(max_size=64),
})


@pytest.mark.parametrize("codec", [V4Codec, V5Codec])
def test_roundtrip(codec):
    assert codec.decode(TICKET_LIKE, codec.encode(TICKET_LIKE, VALUES)) == VALUES


@given(value_strategy)
@settings(max_examples=50, deadline=None)
def test_roundtrip_property_v4(values):
    assert V4Codec.decode(TICKET_LIKE, V4Codec.encode(TICKET_LIKE, values)) == values


@given(value_strategy)
@settings(max_examples=50, deadline=None)
def test_roundtrip_property_v5(values):
    assert V5Codec.decode(TICKET_LIKE, V5Codec.encode(TICKET_LIKE, values)) == values


def assert_rejected_as_validate_words_it(codec, values):
    with pytest.raises(CodecError) as expected:
        TICKET_LIKE.validate(values)
    with pytest.raises(CodecError) as rejected:
        codec.encode(TICKET_LIKE, values)
    assert str(rejected.value) == str(expected.value)


@pytest.mark.parametrize("codec", [V4Codec, V5Codec])
def test_missing_field_rejected(codec):
    bad = dict(VALUES)
    del bad["key"]
    assert_rejected_as_validate_words_it(codec, bad)
    # Same field count, one name swapped: missing and unexpected at once.
    assert_rejected_as_validate_words_it(codec, dict(bad, extra=b""))


@pytest.mark.parametrize("codec", [V4Codec, V5Codec])
def test_extra_field_rejected(codec):
    assert_rejected_as_validate_words_it(codec, dict(VALUES, extra=1))


@pytest.mark.parametrize("codec", [V4Codec, V5Codec])
def test_type_mismatch_rejected(codec):
    for bad in (dict(VALUES, stamp="not an int"), dict(VALUES, key="not bytes"),
                dict(VALUES, stamp=-1), dict(VALUES, server=None),
                dict(VALUES, key=memoryview(b"x")),
                # The mistyped field outranks an unencodable string before it.
                dict(VALUES, server="\ud800", stamp=-1)):
        assert_rejected_as_validate_words_it(codec, bad)


def test_v5_unencodable_string_raises_like_der():
    bad = dict(VALUES, client="\ud800")
    with pytest.raises(UnicodeEncodeError):
        V5Codec.encode(TICKET_LIKE, bad)


def test_v4_cross_schema_confusion_succeeds():
    """The V4 weakness: bytes from one context parse in another.  'A
    ticket should never be interpretable as an authenticator' — under
    the V4 codec, it is."""
    blob = V4Codec.encode(TICKET_LIKE, VALUES)
    confused = V4Codec.decode(AUTH_LIKE, blob)
    assert confused["client"] == VALUES["server"]      # field slippage
    assert confused["timestamp"] == VALUES["stamp"]


def test_v5_cross_schema_confusion_rejected():
    """Recommendation (b): the APPLICATION tag stops cross-context
    parsing before any field is read."""
    blob = V5Codec.encode(TICKET_LIKE, VALUES)
    with pytest.raises(CodecError, match="wrong message type"):
        V5Codec.decode(AUTH_LIKE, blob)


@pytest.mark.parametrize("codec", [V4Codec, V5Codec])
def test_truncation_rejected(codec):
    blob = codec.encode(TICKET_LIKE, VALUES)
    with pytest.raises(CodecError):
        codec.decode(TICKET_LIKE, blob[:-3])


def test_v4_trailing_bytes_rejected():
    blob = V4Codec.encode(TICKET_LIKE, VALUES)
    with pytest.raises(CodecError):
        V4Codec.decode(TICKET_LIKE, blob + b"\x00")


def test_v5_wrong_field_count_rejected():
    short_schema = Schema("short", 1, (Field("server", FieldKind.STRING),))
    blob = V5Codec.encode(short_schema, {"server": "x"})
    with pytest.raises(CodecError):
        V5Codec.decode(TICKET_LIKE, blob)


def test_v4_uint_overflow_rejected():
    with pytest.raises(CodecError):
        V4Codec.encode(TICKET_LIKE, dict(VALUES, stamp=1 << 64))


def test_v4_bad_utf8_rejected():
    bytes_schema = Schema("b", 3, (Field("data", FieldKind.BYTES),))
    str_schema = Schema("s", 3, (Field("data", FieldKind.STRING),))
    blob = V4Codec.encode(bytes_schema, {"data": b"\xff\xfe"})
    with pytest.raises(CodecError):
        V4Codec.decode(str_schema, blob)
