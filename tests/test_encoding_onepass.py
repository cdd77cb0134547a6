"""The V5 codec's one-pass paths against the generic DER tree.

``V5Codec.encode`` joins a message from the schema's plan and
``V5Codec.decode`` walks the bytes once, deferring anything it refuses
to the generic parse (``codec._decode_tree``).  These tests hold both to
the generic path: encoding must give the bytes the composition of
``der.encode_*`` gives, and decoding must return the generic path's dict
or raise its exact ``CodecError`` on any input, well formed or mutated.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding import der
from repro.encoding.codec import CodecError, FieldKind, V5Codec, _decode_tree, _walk
from repro.kerberos import messages as M

# Content lengths either side of every DER length-form boundary: the
# inner TLV's, the [i] wrapper's (inner + 2) and 0x81 -> 0x82 -> 0x83.
LENGTHS = [0, 1, 125, 126, 127, 128, 129, 255, 256, 65535, 65536]

UINTS = st.one_of(
    st.sampled_from([0, 1, 127, 128, 255, 256, 2**63 - 1, 2**63, 2**64 - 1,
                     2**64, 2**64 + 1, 2**200]),
    st.integers(min_value=0, max_value=2**80),
    st.booleans(),
)
BLOBS = st.one_of(
    st.sampled_from(LENGTHS).map(lambda n: bytes(range(256)) * (n // 256)
                                 + bytes(range(n % 256))),
    st.binary(max_size=300),
)
BYTES_VALUES = st.one_of(BLOBS, BLOBS.map(bytearray))
STRINGS = st.one_of(
    st.sampled_from(LENGTHS).map(lambda n: "k" * n),
    st.sampled_from([63, 64, 65, 127, 128]).map(lambda n: "é" * n),
    st.text(max_size=80),
)
_VALUES = {FieldKind.UINT: UINTS, FieldKind.BYTES: BYTES_VALUES,
           FieldKind.STRING: STRINGS}

_DER_ENCODE = {
    FieldKind.UINT: der.encode_integer,
    FieldKind.BYTES: lambda value: der.encode_octet_string(bytes(value)),
    FieldKind.STRING: der.encode_utf8,
}


def reference_encode(schema, values, pad=None):
    """The V5 encoding as a composition of ``der.encode_*``; the field
    named *pad* gets a non-minimal length."""
    elements = []
    for index, field in enumerate(schema.fields):
        inner = _DER_ENCODE[field.kind](values[field.name])
        if field.name == pad:
            inner = padded_length(inner)
        elements.append(der.encode_context(index, inner))
    return der.encode_application(schema.type_code, der.encode_sequence(*elements))


def padded_length(tlv):
    """*tlv* with one zero octet in front of its length: BER, not DER."""
    if tlv[1] < 0x80:
        length, width, content = tlv[1], 1, tlv[2:]
    else:
        width = tlv[1] & 0x7F
        length, content = int.from_bytes(tlv[2:2 + width], "big"), tlv[2 + width:]
    return (bytes([tlv[0], 0x80 | (width + 1), 0])
            + length.to_bytes(width, "big") + content)


def schema_values(schema):
    return st.fixed_dictionaries(
        {field.name: _VALUES[field.kind] for field in schema.fields})


SCHEMAS = st.sampled_from(M.ALL_SCHEMAS)


def outcome(decode, schema, data):
    """A comparable result: the values with their types, or the error text."""
    try:
        values = decode(schema, data)
    except CodecError as exc:
        return "error", str(exc)
    return "ok", {name: (type(value), value) for name, value in values.items()}


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_encode_matches_der_composition(data):
    schema = data.draw(SCHEMAS)
    values = data.draw(schema_values(schema))
    blob = V5Codec.encode(schema, values)
    assert blob == reference_encode(schema, values)
    # Well-formed input never leaves the one-pass walk.
    assert _walk(schema._v5_plan, blob) is not None
    assert outcome(V5Codec.decode, schema, blob) == outcome(_decode_tree, schema, blob)


def _mutate(data, blob, other):
    """One of: keep (for decoding under another schema), flip a bit,
    truncate, append, splice, or paste another message's bytes in."""
    op = data.draw(st.sampled_from(["keep", "flip", "truncate", "append", "splice", "paste"]))
    if op == "keep":
        return blob
    if op == "flip":
        pos = data.draw(st.integers(0, len(blob) - 1))
        flipped = blob[pos] ^ (1 << data.draw(st.integers(0, 7)))
        return blob[:pos] + bytes([flipped]) + blob[pos + 1:]
    if op == "truncate":
        return blob[:data.draw(st.integers(0, len(blob) - 1))]
    if op == "append":
        return blob + data.draw(st.binary(min_size=1, max_size=4))
    start = data.draw(st.integers(0, len(blob)))
    stop = data.draw(st.integers(start, min(len(blob), start + 6)))
    if op == "splice":
        return blob[:start] + data.draw(st.binary(max_size=6)) + blob[stop:]
    cut = data.draw(st.integers(0, len(other)))
    return blob[:start] + other[cut:cut + data.draw(st.integers(0, 12))] + blob[stop:]


def _small_values(schema):
    return st.fixed_dictionaries({
        field.name: {FieldKind.UINT: st.integers(0, 2**70) | st.sampled_from([0, 127, 128]),
                     FieldKind.BYTES: st.binary(max_size=140),
                     FieldKind.STRING: st.text(max_size=20)}[field.kind]
        for field in schema.fields})


@given(data=st.data())
@settings(max_examples=600, deadline=None)
def test_decode_of_mutations_matches_tree(data):
    schema = data.draw(SCHEMAS)
    other = data.draw(SCHEMAS)
    blob = V5Codec.encode(schema, data.draw(_small_values(schema)))
    mutated = _mutate(data, blob, V5Codec.encode(other, data.draw(_small_values(other))))
    target = data.draw(st.sampled_from([schema, other]))
    assert outcome(V5Codec.decode, target, mutated) == outcome(_decode_tree, target, mutated)


@given(junk=st.binary(max_size=120), schema=SCHEMAS)
@settings(max_examples=200, deadline=None)
def test_decode_of_junk_matches_tree(junk, schema):
    assert outcome(V5Codec.decode, schema, junk) == outcome(_decode_tree, schema, junk)


def test_decode_accepts_bytearray_like_the_tree():
    blob = bytearray(V5Codec.encode(M.KRB_ERROR, {"code": 7, "text": "x", "e_data": b"\x01"}))
    assert outcome(V5Codec.decode, M.KRB_ERROR, blob) == outcome(_decode_tree, M.KRB_ERROR, blob)


TICKET_VALUES = {
    "server": "krbtgt.ATHENA@ATHENA", "client": "pat@ATHENA", "address": "10.0.0.5",
    "issued_at": 1_700_000_000, "lifetime": 28_800, "session_key": b"\x01" * 8,
    "flags": 0, "transited": "",
}


@pytest.mark.parametrize("pad", ["outer", "server", "issued_at", "session_key", "transited"])
def test_nonminimal_length_in_ticket_rejected(pad):
    """Two byte strings must not decode to one ticket: a length given
    with a leading zero octet is refused wherever it sits."""
    if pad == "outer":
        blob = padded_length(reference_encode(M.TICKET, TICKET_VALUES))
    else:
        blob = reference_encode(M.TICKET, TICKET_VALUES, pad=pad)
    with pytest.raises(CodecError, match="non-minimal length encoding"):
        V5Codec.decode(M.TICKET, blob)
