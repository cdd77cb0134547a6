"""CRC-32 and its forgery — the weak checksum behind the Draft-3 attack.

The Kerberos V5 Draft 3 specification listed CRC-32 as a permitted
checksum for protecting the unencrypted ``additional tickets`` and
``authorization data`` fields of a TGS request.  Bellovin & Merritt's
ENC-TKT-IN-SKEY cut-and-paste attack hinges on the fact that CRC-32 is
*not collision-proof*: "the additional authorization data field is filled
in with whatever information is needed to make the CRC match the original
version."

CRC-32 is affine over GF(2): flipping input bit *j* flips a fixed pattern
of output bits, independent of the rest of the message.  So given any
message containing a 4-byte field the attacker controls, one can solve a
32x32 linear system to choose that field so the overall CRC equals any
desired value.  :func:`forge_field` implements exactly this, and works no
matter *where* in the message the field sits — which is what the attack
needs, since the forged field (authorization data) comes after the fields
the attacker rewrites (option bits, enclosed ticket).

The CRC itself is the reflected IEEE 802.3 polynomial 0xEDB88320, the one
Kerberos specified.  :func:`crc32`, which every seal, unseal, request
checksum and forgery calls, is :func:`zlib.crc32`: the same function,
computed in C.  :func:`crc32_reference` is the from-scratch definition,
a byte loop over a 256-entry table; no serving, attack or checker path
calls it, and the tests hold :func:`crc32` to it, as they hold the DES
table path to :mod:`repro.crypto.des_reference`.  The GF(2) forgery is
written from scratch and needs nothing of the CRC but its values.
"""

from __future__ import annotations

import zlib
from typing import List

__all__ = ["crc32", "crc32_reference", "forge_field", "ForgeryError"]

_POLY = 0xEDB88320


def _build_table() -> List[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ _POLY if crc & 1 else crc >> 1
        table.append(crc)
    return table


_TABLE = _build_table()


def crc32(data: bytes) -> int:
    """Reflected CRC-32 with final complement, computed by zlib."""
    return zlib.crc32(data)


def crc32_reference(data: bytes) -> int:
    """The from-scratch CRC-32: one table lookup per byte.  Equal to
    :func:`crc32` on every input; the tests' oracle."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc = _TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


class ForgeryError(ValueError):
    """Raised when the 32-bit patch system is singular (cannot happen for
    a genuine CRC, but guards against misuse with a zero-width field)."""


def _solve_gf2(matrix: List[int], rhs: int) -> int:
    """Solve ``M x = rhs`` over GF(2).

    *matrix* holds 32 column vectors as 32-bit ints: ``matrix[j]`` is the
    effect on the CRC of setting patch bit *j*.  Returns the solution as a
    32-bit int whose bit *j* says whether patch bit *j* is set.
    """
    # Build augmented rows: row i is (bits of x coefficients, rhs bit i).
    rows = []
    for i in range(32):
        coeffs = 0
        for j in range(32):
            if (matrix[j] >> i) & 1:
                coeffs |= 1 << j
        rows.append((coeffs, (rhs >> i) & 1))

    solution = 0
    pivot_rows = []
    used = [False] * 32
    for col in range(32):
        pivot = None
        for i in range(32):
            if not used[i] and (rows[i][0] >> col) & 1:
                pivot = i
                break
        if pivot is None:
            continue
        used[pivot] = True
        pivot_rows.append((col, pivot))
        pc, pr = rows[pivot]
        for i in range(32):
            if i != pivot and (rows[i][0] >> col) & 1:
                rows[i] = (rows[i][0] ^ pc, rows[i][1] ^ pr)

    for i in range(32):
        if not used[i] and rows[i][1]:
            raise ForgeryError("inconsistent CRC patch system")
    for col, pivot in pivot_rows:
        if rows[pivot][1]:
            solution |= 1 << col
    return solution


def forge_field(message: bytes, field_offset: int, target_crc: int) -> bytes:
    """Rewrite 4 bytes of *message* so that ``crc32(message) == target_crc``.

    *field_offset* locates a 4-byte region the caller is free to choose
    (the attack uses the authorization-data field of a TGS request).
    Returns the patched message.  Pure GF(2) linear algebra — no search.
    """
    if field_offset < 0 or field_offset + 4 > len(message):
        raise ForgeryError("patch field out of range")

    base = bytearray(message)
    base[field_offset:field_offset + 4] = b"\x00\x00\x00\x00"
    base_crc = crc32(bytes(base))

    # Column j of the patch matrix: CRC delta from setting bit j of the
    # zeroed field.  CRC is affine, so deltas compose by XOR.
    columns = []
    for j in range(32):
        probe = bytearray(base)
        probe[field_offset + j // 8] |= 1 << (j % 8)
        columns.append(crc32(bytes(probe)) ^ base_crc)

    patch_bits = _solve_gf2(columns, base_crc ^ target_crc)
    for j in range(32):
        if (patch_bits >> j) & 1:
            base[field_offset + j // 8] |= 1 << (j % 8)
    return bytes(base)
