"""Bitsliced DES: N independent block operations as one boolean circuit.

The third and widest of the package's DES backends (after the per-bit
:mod:`repro.crypto.des_reference` and the table-driven fast path in
:mod:`repro.crypto.des`).  The layout trick is classic Biham-style
bitslicing, with Python's arbitrary-precision integers standing in for
SIMD registers: bit position *i* of N blocks is stored as **one** int
whose bit *j* belongs to block *j* (:func:`repro.crypto.bits.transpose_in`
builds this layout).  Every AND/OR/XOR/NOT then operates on all N lanes
at once, so the interpreter overhead per operation — the reason the
table-driven path tops out where it does — is amortised across the whole
batch.  At 1024+ lanes the big-int bitwise core runs at C speed and the
backend overtakes the table path several times over; at a handful of
lanes it loses badly, which is why the protocol stack keeps using
:func:`repro.crypto.des.encrypt_block` and this module serves the *batch*
consumers: ``python -m repro crack`` and ``string_to_key_many``.

Three structural wins fall out of the sliced layout:

* **Permutations are free.**  IP, FP, E, P and the key schedule's
  PC-1/PC-2 just select which lane integer feeds which gate — list
  indexing, zero boolean work.  The whole FIPS 46 key schedule reduces
  to :data:`_KS_SOURCE`, a 16×48 table of key-bit indices computed once
  by running PC-1, the rotations, and PC-2 *symbolically* over the
  indices 0..63.  Deriving N schedules costs N× nothing.

* **S-boxes become straight-line gate code.**  Each S-box is a plain
  Python function of 61–94 AND/OR/XOR gates (639 for all eight) in
  :mod:`repro.crypto.sbox_circuits`.  ``tools/synth_sboxes.py`` found
  them once, by Shannon decomposition of each output bit's 64-entry
  truth table with every table already built in the box shared across
  its four outputs, and committed them, so importing the backend does
  no search and the hot loop runs the bytecode of the gates alone.

* **Every lane may use a different key.**  Round keys are lane selections
  from the sliced key material, so a batch of N *distinct* password
  guesses — the cracking workload's shape — costs the same as N blocks
  under one key.  Contrast the table path, where each fresh key pays a
  full ``derive_subkeys``.

Bit-identity with ``des_reference`` across keys, parity, and modes is
pinned by property tests in ``tests/test_crypto_bitslice.py``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.crypto.bits import transpose_in, transpose_out
from repro.crypto.des import (
    _E,
    _FP,
    _IP,
    _P,
    _PC1,
    _PC2,
    _SHIFTS,
    BLOCK_OPS,
    BLOCK_SIZE,
    KEY_SIZE,
    DesError,
)
from repro.crypto.sbox_circuits import SBOXES

__all__ = [
    "BitslicedKeys",
    "broadcast_block",
    "decrypt_block",
    "decrypt_blocks",
    "decrypt_lanes",
    "encrypt_block",
    "encrypt_blocks",
    "encrypt_lanes",
]

# Permutations as 0-based source-index wiring (selection, not computation).
_IP_SRC = tuple(src - 1 for src in _IP)
_FP_SRC = tuple(src - 1 for src in _FP)
_E_SRC = tuple(src - 1 for src in _E)
_P_SRC = tuple(src - 1 for src in _P)


def _key_schedule_sources() -> Tuple[Tuple[int, ...], ...]:
    """Run PC-1, the rotations, and PC-2 symbolically over bit indices.

    ``result[r][t]`` is the 0-based key-bit index (MSB-first over the
    8-byte key) that supplies bit *t* of round *r*'s 48-bit subkey.  With
    this wiring, a sliced key schedule is sixteen 48-entry selections
    from the 64 sliced key bits — no boolean operations at all.
    """
    cd = [src - 1 for src in _PC1]
    c, d = cd[:28], cd[28:]
    rounds: List[Tuple[int, ...]] = []
    for shift in _SHIFTS:
        c = c[shift:] + c[:shift]
        d = d[shift:] + d[:shift]
        halves = c + d
        rounds.append(tuple(halves[src - 1] for src in _PC2))
    return tuple(rounds)


_KS_SOURCE = _key_schedule_sources()


# --- the sliced cipher -------------------------------------------------------


class BitslicedKeys:
    """The key schedules of N independent DES keys, in lane form.

    Construction transposes the raw keys once and wires the sixteen
    round-key selections; after that, encrypting a batch under N
    *different* keys costs exactly what one shared key would.  Parity
    bits are ignored (PC-1 never reads them), as in the standard.
    """

    __slots__ = ("count", "mask", "_enc", "_dec")

    def __init__(self, raw: Sequence[bytes]) -> None:
        if not raw:
            raise DesError("BitslicedKeys needs at least one key")
        for item in raw:
            if len(item) != KEY_SIZE:
                raise DesError(
                    f"DES key must be {KEY_SIZE} bytes, got {len(item)}"
                )
        self.count = len(raw)
        self.mask = (1 << self.count) - 1
        sliced = transpose_in(raw)
        self._enc: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sliced[src] for src in round_sources)
            for round_sources in _KS_SOURCE
        )
        self._dec: Tuple[Tuple[int, ...], ...] = tuple(reversed(self._enc))


def _crypt_lanes(
    state: Sequence[int],
    rounds: Sequence[Sequence[int]],
    mask: int,
) -> List[int]:
    """Sixteen Feistel rounds over 64 lane integers (IP/FP included)."""
    bits = [state[src] for src in _IP_SRC]
    left, right = bits[:32], bits[32:]
    sboxes = SBOXES
    e_src = _E_SRC
    p_src = _P_SRC
    for round_keys in rounds:
        x = [right[src] ^ rk for src, rk in zip(e_src, round_keys)]
        f: List[int] = []
        for i in range(8):
            base = 6 * i
            f.extend(
                sboxes[i](
                    x[base], x[base + 1], x[base + 2],
                    x[base + 3], x[base + 4], x[base + 5], mask,
                )
            )
        left, right = right, [
            lane ^ f[src] for lane, src in zip(left, p_src)
        ]
    pre = right + left
    return [pre[src] for src in _FP_SRC]


def encrypt_lanes(keys_sliced: BitslicedKeys, lanes: Sequence[int]) -> List[int]:
    """Encrypt lane form in, lane form out: block *j* under key *j*.

    The zero-transpose entry point for callers that keep state sliced
    across calls (CBC chains, the cracking workload's match masks).
    """
    BLOCK_OPS.count += keys_sliced.count
    return _crypt_lanes(lanes, keys_sliced._enc, keys_sliced.mask)


def decrypt_lanes(keys_sliced: BitslicedKeys, lanes: Sequence[int]) -> List[int]:
    """Decrypt lane form in, lane form out: block *j* under key *j*."""
    BLOCK_OPS.count += keys_sliced.count
    return _crypt_lanes(lanes, keys_sliced._dec, keys_sliced.mask)


def _check_batch(keys_sliced: BitslicedKeys, blocks: Sequence[bytes]) -> None:
    if len(blocks) != keys_sliced.count:
        raise DesError(
            f"batch of {len(blocks)} blocks against {keys_sliced.count} keys"
        )
    for block in blocks:
        if len(block) != BLOCK_SIZE:
            raise DesError(
                f"DES block must be {BLOCK_SIZE} bytes, got {len(block)}"
            )


def encrypt_blocks(
    keys_sliced: BitslicedKeys, blocks: Sequence[bytes]
) -> List[bytes]:
    """Encrypt ``blocks[j]`` under key *j*, all lanes at once."""
    _check_batch(keys_sliced, blocks)
    out = encrypt_lanes(keys_sliced, transpose_in(blocks))
    return transpose_out(out, len(blocks))


def decrypt_blocks(
    keys_sliced: BitslicedKeys, blocks: Sequence[bytes]
) -> List[bytes]:
    """Decrypt ``blocks[j]`` under key *j*, all lanes at once."""
    _check_batch(keys_sliced, blocks)
    out = decrypt_lanes(keys_sliced, transpose_in(blocks))
    return transpose_out(out, len(blocks))


def broadcast_block(block: bytes, mask: int) -> List[int]:
    """Slice one constant block across every lane of *mask*.

    A constant's lane form is just ``mask`` where the block has a 1 bit
    and ``0`` where it has a 0 — no transpose needed.  This is how the
    cracking workload feeds one captured ciphertext block to thousands
    of key lanes.
    """
    if len(block) != BLOCK_SIZE:
        raise DesError(
            f"DES block must be {BLOCK_SIZE} bytes, got {len(block)}"
        )
    return [
        mask if (block[i >> 3] >> (7 - (i & 7))) & 1 else 0
        for i in range(64)
    ]


def encrypt_block(key: bytes, block: bytes) -> bytes:
    """Single-lane convenience wrapper matching ``des.encrypt_block``.

    Exists for API parity and the identity tests; one lane is the
    backend's worst case, so real callers use the batch entry points.
    """
    return encrypt_blocks(BitslicedKeys([key]), [block])[0]


def decrypt_block(key: bytes, block: bytes) -> bytes:
    """Single-lane convenience wrapper matching ``des.decrypt_block``."""
    return decrypt_blocks(BitslicedKeys([key]), [block])[0]
