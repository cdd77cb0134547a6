"""Message schemas and the two wire codecs (V4-style and V5-style).

The paper ties a whole class of cut-and-paste attacks to the *encoding*
of protocol messages:

    "The most simple analysis of the security of the Kerberos protocols
    should check that there is no possibility of ambiguity between
    messages sent in different contexts.  That is, a ticket should never
    be interpretable as an authenticator, or vice versa."

We model both generations:

* :class:`V4Codec` packs fields positionally with length prefixes but
  **no message-type label and no field names** — exactly the property
  that forces the "repetitive and often intricate analysis" the paper
  complains about, and that lets bytes produced in one context parse
  cleanly in another when the shapes happen to align
  (``repro.attacks`` exploits this; benchmark E20 measures it).

* :class:`V5Codec` wraps the same fields in the DER subset of
  :mod:`repro.encoding.der`, with the message type carried as an
  APPLICATION tag *inside* what gets encrypted (recommendation b).
  Cross-context decoding fails structurally.

A message schema is an ordered tuple of :class:`Field` descriptors; the
kerberos layer declares one schema per message type.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, List, Optional, Tuple

from repro.encoding import der

__all__ = ["FieldKind", "Field", "Schema", "CodecError", "V4Codec", "V5Codec"]


class CodecError(ValueError):
    """Raised when bytes do not parse under the expected schema."""


class FieldKind(enum.Enum):
    UINT = "uint"      # unsigned integer (timestamps, lifetimes, kvnos...)
    BYTES = "bytes"    # opaque bytes (keys, tickets, checksums)
    STRING = "string"  # principal names, realms


_INTEGER, _OCTET_STRING, _UTF8, _SEQUENCE = 0x02, 0x04, 0x0C, 0x30

#: The DER tag V5 puts inside each field's ``[i]`` wrapper.
_DER_TAG = {
    FieldKind.UINT: _INTEGER,
    FieldKind.BYTES: _OCTET_STRING,
    FieldKind.STRING: _UTF8,
}

#: A schema's V5 layout: its APPLICATION tag byte, and per field the
#: name, the ``[i]`` context tag byte and the inner DER tag.
_V5Plan = Tuple[int, Tuple[Tuple[str, int, int], ...]]


@dataclass(frozen=True)
class Field:
    """One named, typed slot in a message schema."""

    name: str
    kind: FieldKind


@dataclass(frozen=True)
class Schema:
    """An ordered field list plus a numeric message-type code.

    The *type_code* is what V5 puts on the wire (and inside encrypted
    data) and what V4 deliberately omits.
    """

    name: str
    type_code: int
    fields: Tuple[Field, ...]

    def field_names(self) -> Tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    @cached_property
    def _v5_plan(self) -> _V5Plan:
        # The der helpers range-check the tag numbers.
        return (
            der.encode_application(self.type_code, b"")[0],
            tuple(
                (f.name, der.encode_context(i, b"")[0], _DER_TAG[f.kind])
                for i, f in enumerate(self.fields)
            ),
        )

    def validate(self, values: Dict[str, Any]) -> None:
        names = self.field_names()
        missing = [n for n in names if n not in values]
        extra = [n for n in values if n not in names]
        if missing or extra:
            raise CodecError(
                f"{self.name}: missing fields {missing}, unexpected {extra}"
            )
        for field in self.fields:
            value = values[field.name]
            if field.kind is FieldKind.UINT and not (
                isinstance(value, int) and value >= 0
            ):
                raise CodecError(f"{self.name}.{field.name}: expected uint")
            if field.kind is FieldKind.BYTES and not isinstance(value, (bytes, bytearray)):
                raise CodecError(f"{self.name}.{field.name}: expected bytes")
            if field.kind is FieldKind.STRING and not isinstance(value, str):
                raise CodecError(f"{self.name}.{field.name}: expected str")


class V4Codec:
    """Positional packing: 8-byte big-endian uints, length-prefixed blobs.

    There is no type tag and no redundancy beyond the length prefixes, so
    any two schemas whose field-kind sequences match are mutually
    (mis)parseable — the encoding-ambiguity weakness.
    """

    name = "v4"

    @staticmethod
    def encode(schema: Schema, values: Dict[str, Any]) -> bytes:
        schema.validate(values)
        out = bytearray()
        for field in schema.fields:
            value = values[field.name]
            if field.kind is FieldKind.UINT:
                if value >= 1 << 64:
                    raise CodecError(f"{field.name}: uint too large for v4")
                out += value.to_bytes(8, "big")
            elif field.kind is FieldKind.BYTES:
                out += len(value).to_bytes(2, "big") + bytes(value)
            else:
                encoded = value.encode("utf-8")
                out += len(encoded).to_bytes(2, "big") + encoded
        return bytes(out)

    @staticmethod
    def decode(schema: Schema, data: bytes) -> Dict[str, Any]:
        values: Dict[str, Any] = {}
        offset = 0
        for field in schema.fields:
            if field.kind is FieldKind.UINT:
                if offset + 8 > len(data):
                    raise CodecError(f"{schema.name}.{field.name}: truncated")
                values[field.name] = int.from_bytes(data[offset:offset + 8], "big")
                offset += 8
            else:
                if offset + 2 > len(data):
                    raise CodecError(f"{schema.name}.{field.name}: truncated")
                length = int.from_bytes(data[offset:offset + 2], "big")
                offset += 2
                if offset + length > len(data):
                    raise CodecError(f"{schema.name}.{field.name}: truncated")
                blob = data[offset:offset + length]
                offset += length
                if field.kind is FieldKind.BYTES:
                    values[field.name] = blob
                else:
                    try:
                        values[field.name] = blob.decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise CodecError(
                            f"{schema.name}.{field.name}: bad utf-8"
                        ) from exc
        if offset != len(data):
            raise CodecError(f"{schema.name}: {len(data) - offset} trailing bytes")
        return values


class V5Codec:
    """DER encoding with the message type inside an APPLICATION tag.

    ``[APPLICATION type_code] SEQUENCE { [i] field_i }`` — decoding under
    the wrong schema fails on the outer tag before any field is read, the
    property recommendation (b) buys.

    Both directions run from the schema's plan (:attr:`Schema._v5_plan`):
    encoding checks the values and joins the TLVs once, decoding walks
    the bytes left to right once.  Input the walk refuses goes to the
    generic tree parse (:func:`_decode_tree`), which decides the
    :class:`CodecError` text.
    """

    name = "v5"

    @staticmethod
    def encode(schema: Schema, values: Dict[str, Any]) -> bytes:
        try:
            encoded = _join(schema._v5_plan, values)
        except UnicodeEncodeError:
            schema.validate(values)  # a mistyped field outranks a bad string
            raise
        if encoded is None:
            schema.validate(values)
            raise AssertionError(f"{schema.name}: encode refused valid values")
        return encoded

    @staticmethod
    def decode(schema: Schema, data: bytes) -> Dict[str, Any]:
        values = _walk(schema._v5_plan, data)
        return _decode_tree(schema, data) if values is None else values


def _join(plan: _V5Plan, values: Dict[str, Any]) -> Optional[bytes]:
    """The encoding of *values*, or None where a field is missing, extra
    or mistyped (the checks of :meth:`Schema.validate`)."""
    app_tag, fields = plan
    if len(values) != len(fields):
        return None
    parts: List[bytes] = []
    for name, context, tag in fields:
        value = values.get(name)
        if tag == _INTEGER:
            if not (isinstance(value, int) and value >= 0):
                return None
            # Non-negative, so this is der.encode_integer's minimal body.
            body = value.to_bytes(value.bit_length() // 8 + 1, "big")
        elif tag == _OCTET_STRING:
            if not isinstance(value, (bytes, bytearray)):
                return None
            body = bytes(value)
        elif isinstance(value, str):
            body = value.encode("utf-8")
        else:
            return None
        size = len(body)
        if size < 0x7E:  # both lengths fit the short form
            parts.append(bytes((context, size + 2, tag, size)))
        else:
            inner = der.encode_header(tag, size)
            parts.append(der.encode_header(context, len(inner) + size) + inner)
        parts.append(body)
    content = b"".join(parts)
    sequence = der.encode_header(_SEQUENCE, len(content))
    return (der.encode_header(app_tag, len(sequence) + len(content))
            + sequence + content)


def _walk(plan: _V5Plan, data: bytes) -> Optional[Dict[str, Any]]:
    """Decode *data* in one left-to-right pass, or None to defer.

    Accepts only what :func:`_decode_tree` accepts, with the same
    result: the APPLICATION tag, one SEQUENCE, and per field an ``[i]``
    wrapper holding exactly one TLV with the field's tag; minimal
    non-negative INTEGERs, valid UTF-8, minimal lengths that are exact
    at every level, nothing trailing.  Short-form lengths are read
    inline; long forms go through :func:`der.decode_length`.
    """
    app_tag, fields = plan
    end = len(data)
    values: Dict[str, Any] = {}
    try:
        if data[0] != app_tag:
            return None
        length, pos = data[1], 2
        if length >= 0x80:
            length, pos = der.decode_length(data, 1)
        if pos + length != end or data[pos] != _SEQUENCE:
            return None
        length, pos = data[pos + 1], pos + 2
        if length >= 0x80:
            length, pos = der.decode_length(data, pos - 1)
        if pos + length != end:
            return None
        for name, context, tag in fields:
            if data[pos] != context:
                return None
            length, pos = data[pos + 1], pos + 2
            if length >= 0x80:
                length, pos = der.decode_length(data, pos - 1)
            stop = pos + length
            if data[pos] != tag:
                return None
            length, pos = data[pos + 1], pos + 2
            if length >= 0x80:
                length, pos = der.decode_length(data, pos - 1)
            if pos + length != stop:
                return None
            if tag == _INTEGER:
                if (length == 0 or data[pos] >= 0x80
                        or (length > 1 and data[pos] == 0
                            and data[pos + 1] < 0x80)):
                    return None
                values[name] = int.from_bytes(data[pos:stop], "big")
            elif tag == _OCTET_STRING:
                values[name] = data[pos:stop]
            else:
                values[name] = data[pos:stop].decode("utf-8")
            pos = stop
    except (IndexError, der.DerError, UnicodeDecodeError):
        return None
    # A length past the end leaves pos past it too.
    return values if pos == end else None


def _decode_tree(schema: Schema, data: bytes) -> Dict[str, Any]:
    """The generic path: :func:`der.decode` plus the schema checks.

    Its errors are the ones that reach the wire (``bad TGS_REQ: ...``)
    and the event bus, so it alone words them.
    """
    try:
        tag, body, end = der.decode(data)
    except der.DerError as exc:
        raise CodecError(f"{schema.name}: {exc}") from exc
    if end != len(data):
        raise CodecError(f"{schema.name}: trailing bytes")
    if tag != (0x60 | schema.type_code):
        raise CodecError(
            f"{schema.name}: wrong message type tag 0x{tag:02x}, "
            f"expected APPLICATION {schema.type_code}"
        )
    if len(body) != 1 or body[0][0] != _SEQUENCE:
        raise CodecError(f"{schema.name}: missing SEQUENCE body")
    elements = body[0][1]
    if len(elements) != len(schema.fields):
        raise CodecError(
            f"{schema.name}: {len(elements)} fields, "
            f"expected {len(schema.fields)}"
        )
    values: Dict[str, Any] = {}
    for index, (field, (tag, inner)) in enumerate(
        zip(schema.fields, elements)
    ):
        if tag != (0xA0 | index):
            raise CodecError(f"{schema.name}.{field.name}: bad context tag")
        if len(inner) != 1:
            raise CodecError(f"{schema.name}.{field.name}: bad wrapper")
        inner_tag, value = inner[0]
        if inner_tag != _DER_TAG[field.kind]:
            raise CodecError(
                f"{schema.name}.{field.name}: type mismatch "
                f"(tag 0x{inner_tag:02x})"
            )
        if field.kind is FieldKind.UINT and value < 0:
            raise CodecError(f"{schema.name}.{field.name}: negative uint")
        values[field.name] = value
    return values
