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
"""

from __future__ import annotations

import struct

__all__ = ["md4", "MD4"]

_MASK = 0xFFFFFFFF


# (message word, rotation) per step.  Round 2 walks the words by
# column, round 3 in the bit-reversal order of their low 4 bits.
_ROUND1 = tuple((i, (3, 7, 11, 19)[i % 4]) for i in range(16))
_ROUND2 = tuple((i % 4 * 4 + i // 4, (3, 5, 9, 13)[i % 4]) for i in range(16))
_ROUND3 = tuple(
    (k, (3, 9, 11, 15)[i % 4])
    for i, k in enumerate((0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15))
)


class MD4:
    """Incremental MD4, mirroring :mod:`hashlib`'s interface."""

    digest_size = 16
    block_size = 64

    def __init__(self, data: bytes = b"") -> None:
        self._state = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476]
        self._buffer = b""
        self._length = 0
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        self._length += len(data)
        self._buffer += data
        while len(self._buffer) >= 64:
            self._compress(self._buffer[:64])
            self._buffer = self._buffer[64:]

    def digest(self) -> bytes:
        # Clone state so digest() is non-destructive.
        clone = MD4.__new__(MD4)
        clone._state = list(self._state)
        clone._buffer = self._buffer
        clone._length = self._length
        bit_length = clone._length * 8
        padding = b"\x80" + b"\x00" * ((55 - clone._length) % 64)
        clone.update(padding + struct.pack("<Q", bit_length))
        # update() adjusted _length; that is harmless on the clone.
        return struct.pack("<4I", *clone._state)

    def hexdigest(self) -> str:
        return self.digest().hex()

    def _compress(self, block: bytes) -> None:
        x = struct.unpack("<16I", block)
        a, b, c, d = self._state
        # Each step updates the register in a's seat from the other three
        # (F, G or H of b, c, d), then the seats rotate one place, so after
        # every fourth step each register is back in its own seat.
        for k, s in _ROUND1:  # F(b, c, d) = b ? c : d
            t = (a + (d ^ (b & (c ^ d))) + x[k]) & _MASK
            a, b, c, d = d, ((t << s) | (t >> (32 - s))) & _MASK, b, c
        for k, s in _ROUND2:  # G(b, c, d) = majority
            t = (a + ((b & c) | (d & (b | c))) + x[k] + 0x5A827999) & _MASK
            a, b, c, d = d, ((t << s) | (t >> (32 - s))) & _MASK, b, c
        for k, s in _ROUND3:  # H(b, c, d) = parity
            t = (a + (b ^ c ^ d) + x[k] + 0x6ED9EBA1) & _MASK
            a, b, c, d = d, ((t << s) | (t >> (32 - s))) & _MASK, b, c

        self._state = [
            (self._state[0] + a) & _MASK,
            (self._state[1] + b) & _MASK,
            (self._state[2] + c) & _MASK,
            (self._state[3] + d) & _MASK,
        ]


def md4(data: bytes) -> bytes:
    """One-shot MD4 digest of *data* (16 bytes)."""
    return MD4(data).digest()
