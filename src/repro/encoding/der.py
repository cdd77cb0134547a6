"""A minimal DER (ASN.1 Distinguished Encoding Rules) subset.

Recommendation (b) of the paper: "Use a standard message encoding, such
as ASN.1, which includes identification of the message type within the
encrypted data."  The appendix notes two security payoffs the V5 Draft 3
adoption of ASN.1 delivered:

* every encrypted datum is labelled with its message type, so a ticket
  can never be (mis)interpreted as an authenticator, and
* the encoding carries explicit lengths, so "it is no longer possible for
  an attacker to truncate a message, and present the shortened form as a
  valid encrypted message."

This module implements just enough DER for those properties: INTEGER,
OCTET STRING, UTF8String, SEQUENCE, and context-specific / application
tagging with definite lengths.  It is a real, byte-exact DER subset (the
property tests in ``tests/test_encoding_der.py`` round-trip it against
adversarial inputs), not a toy framing.
"""

from __future__ import annotations

from typing import Any, List, Tuple

__all__ = [
    "DerError",
    "encode_integer",
    "encode_octet_string",
    "encode_utf8",
    "encode_sequence",
    "encode_context",
    "encode_application",
    "encode_header",
    "decode",
    "decode_all",
    "decode_length",
]

_TAG_INTEGER = 0x02
_TAG_OCTET_STRING = 0x04
_TAG_UTF8 = 0x0C
_TAG_SEQUENCE = 0x30
_CLASS_CONTEXT = 0xA0
_CLASS_APPLICATION = 0x60


class DerError(ValueError):
    """Malformed DER input."""


def encode_header(tag: int, length: int) -> bytes:
    """The tag and definite-length octets in front of *length* content bytes."""
    if length < 0x80:
        return bytes((tag, length))
    body = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes((tag, 0x80 | len(body))) + body


def _encode_tlv(tag: int, content: bytes) -> bytes:
    return encode_header(tag, len(content)) + content


def encode_integer(value: int) -> bytes:
    """DER INTEGER (two's complement, minimal length)."""
    if value == 0:
        return _encode_tlv(_TAG_INTEGER, b"\x00")
    length = (value.bit_length() // 8) + 1
    body = value.to_bytes(length, "big", signed=True)
    # Strip redundant leading bytes while preserving the sign bit.
    while (
        len(body) > 1
        and (
            (body[0] == 0x00 and not body[1] & 0x80)
            or (body[0] == 0xFF and body[1] & 0x80)
        )
    ):
        body = body[1:]
    return _encode_tlv(_TAG_INTEGER, body)


def encode_octet_string(value: bytes) -> bytes:
    return _encode_tlv(_TAG_OCTET_STRING, value)


def encode_utf8(value: str) -> bytes:
    return _encode_tlv(_TAG_UTF8, value.encode("utf-8"))


def encode_sequence(*elements: bytes) -> bytes:
    return _encode_tlv(_TAG_SEQUENCE, b"".join(elements))


def encode_context(tag_number: int, content: bytes) -> bytes:
    """[tag_number] EXPLICIT wrapper (constructed, context class)."""
    if not 0 <= tag_number < 31:
        raise DerError("context tag number out of supported range")
    return _encode_tlv(_CLASS_CONTEXT | tag_number, content)


def encode_application(tag_number: int, content: bytes) -> bytes:
    """[APPLICATION tag_number] wrapper — the message-type label."""
    if not 0 <= tag_number < 31:
        raise DerError("application tag number out of supported range")
    return _encode_tlv(_CLASS_APPLICATION | tag_number, content)


def decode_length(data: bytes, offset: int) -> Tuple[int, int]:
    """The length whose first octet is at *offset*, and the offset after it.

    DER (X.690 §10.1) wants the fewest length octets: a long form must
    not start with a zero octet, nor encode a value short form can hold.
    """
    if offset >= len(data):
        raise DerError("truncated length")
    first = data[offset]
    offset += 1
    if first < 0x80:
        return first, offset
    count = first & 0x7F
    if count == 0 or count > 8:
        raise DerError("unsupported length form")
    if offset + count > len(data):
        raise DerError("truncated long-form length")
    value = int.from_bytes(data[offset:offset + count], "big")
    if data[offset] == 0 or value < 0x80:
        raise DerError("non-minimal length encoding")
    return value, offset + count


def decode(data: bytes, offset: int = 0) -> Tuple[int, Any, int]:
    """Decode one TLV starting at *offset*.

    Returns ``(tag, value, next_offset)`` where *value* is:

    * ``int`` for INTEGER,
    * ``bytes`` for OCTET STRING,
    * ``str`` for UTF8String,
    * ``list`` of (tag, value) pairs for SEQUENCE and tagged wrappers.
    """
    if offset >= len(data):
        raise DerError("truncated tag")
    tag = data[offset]
    length, body_start = decode_length(data, offset + 1)
    body_end = body_start + length
    if body_end > len(data):
        raise DerError("content extends past end of data")
    body = data[body_start:body_end]

    if tag == _TAG_INTEGER:
        if not body:
            raise DerError("empty INTEGER")
        if len(body) > 1 and (
            (body[0] == 0x00 and not body[1] & 0x80)
            or (body[0] == 0xFF and body[1] & 0x80)
        ):
            raise DerError("non-minimal INTEGER")
        return tag, int.from_bytes(body, "big", signed=True), body_end
    if tag == _TAG_OCTET_STRING:
        return tag, body, body_end
    if tag == _TAG_UTF8:
        try:
            return tag, body.decode("utf-8"), body_end
        except UnicodeDecodeError as exc:
            raise DerError(f"invalid UTF8String contents: {exc}")
    if tag == _TAG_SEQUENCE or tag & 0xE0 in (_CLASS_CONTEXT, _CLASS_APPLICATION):
        return tag, decode_all(body), body_end
    raise DerError(f"unsupported tag 0x{tag:02x}")


def decode_all(data: bytes) -> List[Tuple[int, Any]]:
    """Decode a concatenation of TLVs, rejecting trailing garbage."""
    items: List[Tuple[int, Any]] = []
    offset = 0
    while offset < len(data):
        tag, value, offset = decode(data, offset)
        items.append((tag, value))
    return items
