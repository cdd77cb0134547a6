"""Cryptographic substrate, implemented from scratch.

Everything Kerberos V4 / V5-Draft-3 needed, in pure Python: DES (FIPS 46),
the ECB/CBC/PCBC modes, MD4, CRC-32 (plus its GF(2) forgery; the CRC
itself is computed by zlib, with the from-scratch byte loop kept as the
tests' oracle), checksum classification, exponential key exchange with
the baby-step/giant-step break, password-to-key derivation, tagged
keys, and deterministic randomness for reproducible simulation.
"""

from repro.crypto.checksum import ChecksumType, compute as compute_checksum, verify as verify_checksum
from repro.crypto.crc import crc32, forge_field
from repro.crypto.des import (
    BLOCK_SIZE,
    DesCipher,
    KeySchedule,
    decrypt_block,
    encrypt_block,
    get_schedule,
)
from repro.crypto.dh import DhGroup, DhKeyPair, discrete_log
from repro.crypto.keys import KeyTag, TaggedKey, string_to_key
from repro.crypto.md4 import md4
from repro.crypto.rng import DeterministicRandom

__all__ = [
    "BLOCK_SIZE",
    "ChecksumType",
    "DesCipher",
    "DeterministicRandom",
    "KeySchedule",
    "get_schedule",
    "DhGroup",
    "DhKeyPair",
    "KeyTag",
    "TaggedKey",
    "compute_checksum",
    "crc32",
    "decrypt_block",
    "discrete_log",
    "encrypt_block",
    "forge_field",
    "md4",
    "string_to_key",
    "verify_checksum",
]
