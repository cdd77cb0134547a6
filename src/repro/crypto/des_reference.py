"""The straight-from-the-standard DES, kept for cross-checking.

This module preserves the original per-bit implementation of DES: the
initial and final permutations, the E expansion and the PC-1/rotate/PC-2
key schedule all go through the generic
:func:`repro.crypto.bits.permute` and :func:`~repro.crypto.bits.rotate_left`,
exactly as FIPS 46 writes them down.  :mod:`repro.crypto.des` replaced
that path with byte-indexed lookup tables fused at import time; the two
must compute the identical function, and the property tests in
``tests/test_crypto_fastpath.py`` hold them to it on the published
vectors and on random keys and blocks — the block function and the key
schedule each on their own.

The reference path deliberately does **not** touch
:data:`repro.crypto.des.BLOCK_OPS` — it exists only for verification and
for E27's speedup baseline, never for protocol traffic, so it must not
perturb the cost accounting of E18.

The FIPS tables themselves (IP, FP, E, P, the S-boxes, PC-1/PC-2) live
in :mod:`repro.crypto.des` and are imported here; they are data, not an
implementation strategy, and keeping one copy means a transcription
error cannot hide in only one of the two paths.  Everything derived from
them — here the fused S-box/P tables — is built independently.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.crypto.bits import bytes_to_int, int_to_bytes, permute, rotate_left
from repro.crypto.des import (
    BLOCK_SIZE,
    KEY_SIZE,
    DesError,
    _E,
    _FP,
    _IP,
    _P,
    _PC1,
    _PC2,
    _SBOXES,
    _SHIFTS,
)

__all__ = [
    "derive_subkeys",
    "crypt_block",
    "encrypt_block",
    "decrypt_block",
]


def _build_sp_tables() -> Tuple[Tuple[int, ...], ...]:
    """Fuse each S-box with the P permutation.

    ``SP[i][v]`` is the 32-bit contribution of S-box *i* applied to 6-bit
    input *v*, already run through P.  The round function then reduces to
    eight table lookups and XORs.
    """
    tables: List[Tuple[int, ...]] = []
    for box_index, box in enumerate(_SBOXES):
        entries = []
        for v in range(64):
            row = ((v >> 5) << 1) | (v & 1)
            col = (v >> 1) & 0xF
            s_out = box[row * 16 + col]
            # Place the 4-bit output in its slot of the 32-bit pre-P word.
            pre_p = s_out << (4 * (7 - box_index))
            entries.append(permute(pre_p, 32, _P))
        tables.append(tuple(entries))
    return tuple(tables)


_SP = _build_sp_tables()


def derive_subkeys(key: bytes) -> Tuple[int, ...]:
    """The FIPS 46 key schedule, per bit: 16 48-bit round keys.

    Parity bits (the least significant bit of each key byte) are ignored,
    exactly as in the standard.
    """
    if len(key) != KEY_SIZE:
        raise DesError(f"DES key must be {KEY_SIZE} bytes, got {len(key)}")
    permuted = permute(bytes_to_int(key), 64, _PC1)
    c = permuted >> 28
    d = permuted & 0xFFFFFFF
    subkeys = []
    for shift in _SHIFTS:
        c = rotate_left(c, shift, 28)
        d = rotate_left(d, shift, 28)
        subkeys.append(permute((c << 28) | d, 56, _PC2))
    return tuple(subkeys)


def _feistel(right: int, subkey: int) -> int:
    """The round function, with E as a literal 48-entry permutation."""
    expanded = permute(right, 32, _E) ^ subkey
    out = 0
    for i in range(8):
        out ^= _SP[i][(expanded >> (6 * (7 - i))) & 0x3F]
    return out


def crypt_block(block: bytes, subkeys: Sequence[int]) -> bytes:
    """One DES block operation with per-bit IP/E/FP permutations."""
    if len(block) != BLOCK_SIZE:
        raise DesError(f"DES block must be {BLOCK_SIZE} bytes, got {len(block)}")
    value = permute(bytes_to_int(block), 64, _IP)
    left = value >> 32
    right = value & 0xFFFFFFFF
    for subkey in subkeys:
        left, right = right, left ^ _feistel(right, subkey)
    # Final swap is folded into the order of (right, left) here.
    return int_to_bytes(permute((right << 32) | left, 64, _FP), 8)


def encrypt_block(key: bytes, block: bytes) -> bytes:
    """Encrypt one block via the reference path (no schedule cache)."""
    return crypt_block(block, derive_subkeys(key))


def decrypt_block(key: bytes, block: bytes) -> bytes:
    """Decrypt one block via the reference path (no schedule cache)."""
    return crypt_block(block, tuple(reversed(derive_subkeys(key))))
