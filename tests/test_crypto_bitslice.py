"""The bitsliced DES engine against the per-bit reference.

:mod:`repro.crypto.des_bitslice` computes N blocks per call — bit *i*
of every block packed into one big integer, S-boxes as the committed
gate circuits of :mod:`repro.crypto.sbox_circuits`, the key schedule as
free selection from the sliced key bits.
None of that layout is allowed to show through: on the published
vectors, on random keys/blocks at every lane width, through both
chaining modes, and through batched ``string_to_key``, the sliced form
must be bit-identical to :mod:`repro.crypto.des_reference`.  These
tests are the contract that lets ``python -m repro crack`` and the
load harness's bitslice cost model trust the engine blindly.
"""

import ast
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import des, des_bitslice, des_reference, keys, sbox_circuits
from repro.crypto.bits import transpose_in, transpose_out
from repro.crypto.des_bitslice import (
    BitslicedKeys, broadcast_block, decrypt_block, decrypt_blocks,
    encrypt_block, encrypt_blocks,
)
from repro.crypto.keys import string_to_key, string_to_key_many
from repro.crypto.sbox_circuits import SBOXES

# The same published vectors the fast path is pinned to.
VECTORS = [
    ("133457799BBCDFF1", "0123456789ABCDEF", "85E813540F0AB405"),
    ("0123456789ABCDEF", "4E6F772069732074", "3FA40E8A984D4815"),
    ("0101010101010101", "0000000000000000", "8CA64DE9C1B123A7"),
    ("7CA110454A1A6E57", "01A1D6D039776742", "690F5B0D9A26939B"),
    ("0131D9619DC1376E", "5CD54CA83DEF57DA", "7A389D10354BD271"),
]

key8 = st.binary(min_size=8, max_size=8)
batch = st.lists(st.tuples(key8, key8), min_size=1, max_size=130)


# -- transposes -------------------------------------------------------------


@given(st.lists(key8, min_size=0, max_size=200))
@settings(max_examples=60, deadline=None)
def test_transpose_round_trip(blocks):
    lanes = transpose_in(blocks)
    assert len(lanes) == 64
    assert transpose_out(lanes, len(blocks)) == blocks


@given(st.lists(key8, min_size=1, max_size=70))
@settings(max_examples=40, deadline=None)
def test_transpose_in_bit_semantics(blocks):
    """Lane integer for bit position i has bit j iff block j has bit i
    set (FIPS numbering: bit 0 is the MSB of byte 0)."""
    lanes = transpose_in(blocks)
    for i in (0, 1, 7, 8, 31, 63):
        for j, block in enumerate(blocks):
            expected = (block[i >> 3] >> (7 - (i & 7))) & 1
            assert (lanes[i] >> j) & 1 == expected


def test_transpose_rejects_wrong_shapes():
    with pytest.raises(ValueError):
        transpose_in([b"short"])
    with pytest.raises(ValueError):
        transpose_out([0] * 63, 1)


# -- S-box circuits ---------------------------------------------------------

#: Input ``a{i}`` in 64-lane form: lane *v* carries bit ``5 - i`` of *v*,
#: so one call evaluates a circuit on every 6-bit S-box input at once.
INDEX_LANES = [
    sum(1 << v for v in range(64) if (v >> (5 - i)) & 1) for i in range(6)
]


@pytest.mark.parametrize("index", range(8))
def test_sbox_circuit_matches_its_table(index):
    outputs = SBOXES[index](*INDEX_LANES, (1 << 64) - 1)
    box = des._SBOXES[index]
    for v in range(64):
        value = sum(((outputs[bit] >> v) & 1) << (3 - bit) for bit in range(4))
        row, col = ((v >> 5) << 1) | (v & 1), (v >> 1) & 0xF
        assert value == box[row * 16 + col], (index + 1, v)


def test_sbox_circuits_stay_small():
    """Every gate is one binary operation in a straight-line function;
    the committed circuits have 639 in all (the minterm expansion they
    replaced had 1,648), and a regenerated module may not grow back."""
    tree = ast.parse(inspect.getsource(sbox_circuits))
    functions = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef)]
    assert len(functions) == 8
    gates = sum(isinstance(node, ast.BinOp)
                for function in functions for node in ast.walk(function))
    assert gates <= 850


# -- block identity ---------------------------------------------------------


@pytest.mark.parametrize("key_hex,plain_hex,cipher_hex", VECTORS)
def test_bitslice_matches_published_vectors(key_hex, plain_hex, cipher_hex):
    key = bytes.fromhex(key_hex)
    plain = bytes.fromhex(plain_hex)
    cipher = bytes.fromhex(cipher_hex)
    assert encrypt_block(key, plain) == cipher
    assert decrypt_block(key, cipher) == plain


@given(key8, key8)
@settings(max_examples=60, deadline=None)
def test_single_lane_equals_reference(key, block):
    assert encrypt_block(key, block) == \
        des_reference.encrypt_block(key, block)
    assert decrypt_block(key, block) == \
        des_reference.decrypt_block(key, block)


@given(batch)
@settings(max_examples=40, deadline=None)
def test_batched_lanes_equal_reference_per_lane(pairs):
    """Every lane of a mixed-key batch matches the scalar reference —
    across widths that cross the 64-lane and byte-group boundaries."""
    keys = [k for k, _ in pairs]
    blocks = [b for _, b in pairs]
    sliced = BitslicedKeys(keys)
    enc = encrypt_blocks(sliced, blocks)
    dec = decrypt_blocks(sliced, blocks)
    for key, block, e, d in zip(keys, blocks, enc, dec):
        assert e == des_reference.encrypt_block(key, block)
        assert d == des_reference.decrypt_block(key, block)


@given(key8, key8)
@settings(max_examples=30, deadline=None)
def test_parity_bits_are_ignored(key, block):
    """Flipping any parity bit (LSB of each key byte) changes nothing,
    exactly as in the table path."""
    flipped = bytes(b ^ 1 for b in key)
    assert encrypt_block(key, block) == encrypt_block(flipped, block)


@given(st.lists(key8, min_size=1, max_size=80), key8)
@settings(max_examples=30, deadline=None)
def test_broadcast_block_is_constant_lane_form(keys, block):
    """broadcast_block(x) fed to the engine equals slicing [x] * N."""
    sliced = BitslicedKeys(keys)
    via_broadcast = des_bitslice.encrypt_lanes(
        sliced, broadcast_block(block, sliced.mask)
    )
    assert transpose_out(via_broadcast, len(keys)) == \
        encrypt_blocks(sliced, [block] * len(keys))


def test_block_ops_meter_counts_lanes():
    before = des.BLOCK_OPS.count
    keys = [bytes([i] * 8) for i in range(17)]
    encrypt_blocks(BitslicedKeys(keys), [bytes(8)] * 17)
    assert des.BLOCK_OPS.count - before == 17


def test_rejects_bad_key_and_block_sizes():
    with pytest.raises(des.DesError):
        BitslicedKeys([b"short"])
    with pytest.raises(des.DesError):
        BitslicedKeys([])
    sliced = BitslicedKeys([bytes(8)])
    with pytest.raises(des.DesError):
        encrypt_blocks(sliced, [b"toolongblock"])
    with pytest.raises(des.DesError):
        encrypt_blocks(sliced, [bytes(8), bytes(8)])  # lane count mismatch


# -- modes through the sliced engine ---------------------------------------


@given(st.lists(st.text(max_size=24), min_size=1, max_size=90))
@settings(max_examples=30, deadline=None)
def test_string_to_key_many_equals_scalar(passwords):
    assert string_to_key_many(passwords) == \
        [string_to_key(p) for p in passwords]


@pytest.mark.parametrize("salt", ["", "ATHENA"])
def test_string_to_key_many_batched_groups_equal_scalar(salt):
    """Groups that clear the batch floor take the sliced checksum; a
    smaller group in the same call falls back to the scalar path."""
    floor = keys._BATCH_FLOOR
    passwords = ([f"pw{i:05d}" for i in range(floor + 3)]
                 + [f"a-longer-password-{i:04d}" for i in range(floor)]
                 + ["x" * 33, "y" * 34])
    assert string_to_key_many(passwords, salt) == \
        [string_to_key(p, salt) for p in passwords]


def test_string_to_key_many_at_scale_model_widths():
    """Scale mode derives every principal a call names in one batch:
    thousands of ``pw-{rank}`` lanes (about 20k in a default-size
    million-principal run), far wider than the cases above.  Nothing
    else reads those keys, so every lane is checked here."""
    passwords = ([f"pw-{rank}" for rank in range(0, 96_200, 37)]
                 + [f"pw-{rank}" for rank in range(100_000, 1_000_000, 3_001)])
    assert len(passwords) == 2_900  # 2,600 one-block, 300 two-block
    assert string_to_key_many(passwords) == \
        [string_to_key(p) for p in passwords]


def test_string_to_key_many_fixes_weak_fan_folds_in_a_batch():
    """Both passwords fan-fold to a FIPS 74 weak key (their padded block
    is one, parity and all), so the batched path's one-pass weak-key
    fix must turn them strong exactly as scalar derivation does."""
    weak = ["\x01" * 8, "\x1f\x1f\x1f\x1f\x0e\x0e\x0e\x0e"]
    for password in weak:
        # a one-block fan-fold is the padded block itself
        assert keys._pad_password(password, "") in des.WEAK_KEYS
    passwords = ([f"pw{i:05d}" for i in range(keys._BATCH_FLOOR)]
                 + weak + [weak[0]])
    assert len({len(keys._pad_password(p, "")) for p in passwords}) == 1
    assert string_to_key_many(passwords) == \
        [string_to_key(p) for p in passwords]


@given(st.lists(st.text(max_size=40), min_size=1, max_size=40),
       st.text(max_size=12))
@settings(max_examples=20, deadline=None)
def test_string_to_key_many_with_salt(passwords, salt):
    assert string_to_key_many(passwords, salt) == \
        [string_to_key(p, salt) for p in passwords]
