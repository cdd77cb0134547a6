"""MD4 message digest (RFC 1186 / RFC 1320), implemented from scratch.

Draft 3 of the Kerberos V5 specification offered three checksum types:
CRC-32, MD4, and MD4 encrypted with DES.  The paper's central point about
them is the distinction between checksums that are *collision-proof* —
where an attacker cannot construct a different message with the same
checksum — and those that are not.  MD4 is the paper's example of a
(then-)collision-proof checksum; CRC-32 is the weak one whose linearity
enables the ENC-TKT-IN-SKEY cut-and-paste attack.

(Historically MD4 was broken years later; within this reproduction's
threat model, as in the paper's, it is treated as collision-proof.)

This stays pure Python: OpenSSL 3 moved MD4 to its legacy provider, so
:mod:`hashlib` does not offer it on a default build.  Each round of the
compression function runs as four iterations of four steps, with the
registers in fixed seats; the tests hold it to the textbook form, one
step per iteration with the registers rotating through the seats.
"""

from __future__ import annotations

import struct
from typing import Tuple

__all__ = ["md4", "MD4"]

_MASK = 0xFFFFFFFF
_IV = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476)
_WORDS = struct.Struct("<16I").unpack_from
_DIGEST = struct.Struct("<4I").pack
_BIT_LENGTH = struct.Struct("<Q").pack

# Message words per iteration of four steps.  Round 2 walks the words
# by column, round 3 in the bit-reversal order of their low 4 bits.
_ROUND1 = ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11), (12, 13, 14, 15))
_ROUND2 = ((0, 4, 8, 12), (1, 5, 9, 13), (2, 6, 10, 14), (3, 7, 11, 15))
_ROUND3 = ((0, 8, 4, 12), (2, 10, 6, 14), (1, 9, 5, 13), (3, 11, 7, 15))

_State = Tuple[int, int, int, int]


def _padding(length: int) -> bytes:
    """What MD4 appends to a *length*-byte message: 0x80, zeros to 56
    mod 64, then the bit length."""
    return b"\x80" + b"\x00" * ((55 - length) % 64) + _BIT_LENGTH(length * 8)


def _compress(state: _State, data: bytes) -> _State:
    """Run the compression function over each 64-byte block of *data*."""
    aa, bb, cc, dd = state
    for offset in range(0, len(data), 64):
        x = _WORDS(data, offset)
        a, b, c, d = aa, bb, cc, dd
        # Each iteration updates a, d, c and b in turn, each from the
        # other three.  A step masks its sum to 32 bits before rotating
        # but not after: AND, OR, XOR and carries never move a bit
        # down, so a register's bits above 32 reach only bits that the
        # next step's mask, or the final sum's, drops.
        for i, j, k, m in _ROUND1:  # F(x, y, z) = x ? y : z
            t = (a + (d ^ (b & (c ^ d))) + x[i]) & _MASK
            a = (t << 3) | (t >> 29)
            t = (d + (c ^ (a & (b ^ c))) + x[j]) & _MASK
            d = (t << 7) | (t >> 25)
            t = (c + (b ^ (d & (a ^ b))) + x[k]) & _MASK
            c = (t << 11) | (t >> 21)
            t = (b + (a ^ (c & (d ^ a))) + x[m]) & _MASK
            b = (t << 19) | (t >> 13)
        for i, j, k, m in _ROUND2:  # G(x, y, z) = majority
            t = (a + ((b & c) | (d & (b | c))) + x[i] + 0x5A827999) & _MASK
            a = (t << 3) | (t >> 29)
            t = (d + ((a & b) | (c & (a | b))) + x[j] + 0x5A827999) & _MASK
            d = (t << 5) | (t >> 27)
            t = (c + ((d & a) | (b & (d | a))) + x[k] + 0x5A827999) & _MASK
            c = (t << 9) | (t >> 23)
            t = (b + ((c & d) | (a & (c | d))) + x[m] + 0x5A827999) & _MASK
            b = (t << 13) | (t >> 19)
        for i, j, k, m in _ROUND3:  # H(x, y, z) = parity
            t = (a + (b ^ c ^ d) + x[i] + 0x6ED9EBA1) & _MASK
            a = (t << 3) | (t >> 29)
            t = (d + (a ^ b ^ c) + x[j] + 0x6ED9EBA1) & _MASK
            d = (t << 9) | (t >> 23)
            t = (c + (d ^ a ^ b) + x[k] + 0x6ED9EBA1) & _MASK
            c = (t << 11) | (t >> 21)
            t = (b + (c ^ d ^ a) + x[m] + 0x6ED9EBA1) & _MASK
            b = (t << 15) | (t >> 17)
        aa = (aa + a) & _MASK
        bb = (bb + b) & _MASK
        cc = (cc + c) & _MASK
        dd = (dd + d) & _MASK
    return aa, bb, cc, dd


class MD4:
    """Incremental MD4, mirroring :mod:`hashlib`'s interface."""

    digest_size = 16
    block_size = 64

    def __init__(self, data: bytes = b"") -> None:
        self._state: _State = _IV
        self._buffer = b""
        self._length = 0
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        self._length += len(data)
        buffer = self._buffer + data
        whole = len(buffer) - len(buffer) % 64
        if whole:
            self._state = _compress(self._state, buffer[:whole])
        self._buffer = buffer[whole:]

    def digest(self) -> bytes:
        # Pads a copy of the tail, so digest() is non-destructive.
        tail = self._buffer + _padding(self._length)
        return _DIGEST(*_compress(self._state, tail))

    def hexdigest(self) -> str:
        return self.digest().hex()


def md4(data: bytes) -> bytes:
    """One-shot MD4 digest of *data* (16 bytes)."""
    return _DIGEST(*_compress(_IV, bytes(data) + _padding(len(data))))
