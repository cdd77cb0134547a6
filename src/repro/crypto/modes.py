"""Block-cipher modes of operation: ECB, CBC, and Kerberos V4's PCBC.

The modes here are the protagonists of two of the paper's attacks:

* **CBC prefix property** — "cipher-block chaining has the property that
  prefixes of encryptions are encryptions of prefixes".  A truncated CBC
  ciphertext is a valid CBC encryption of the truncated plaintext, which
  enables the inter-session chosen-plaintext attack against the V5
  ``KRB_PRIV`` format (:mod:`repro.attacks.chosen_plaintext`).

* **PCBC propagation** — Kerberos V4 used the non-standard *propagating*
  CBC mode, in which plaintext block ``i+1`` is XORed with both the
  plaintext and ciphertext of block ``i`` before encryption.  The paper
  observes its "poor propagation properties that permit message-stream
  modification: if two blocks of ciphertext are interchanged, only the
  corresponding blocks are garbled on decryption"
  (:mod:`repro.attacks.pcbc` demonstrates this).

All functions take and return raw ``bytes``; inputs must already be padded
to a multiple of the 8-byte block size (see :func:`pad_zero` /
:func:`pad_random`).  Each mode checks its input and is then one call of
the chained DES kernel (:func:`repro.crypto.des.crypt_blocks`) under the
module-level key schedule cache (:func:`repro.crypto.des.get_schedule`),
so repeated calls under the same key — the common case three protocol
layers deep — cost only block operations.  The kernel carries the chain
in the Feistel rounds' E-form, so no block is converted to an integer
and back on its way through a chaining mode.
Confounders — the random leading block Version 5
prepends so that identical plaintexts encrypt differently — are provided
as explicit helpers because the paper argues they belong in the encryption
layer, not the protocol layer.
"""

from __future__ import annotations

from typing import Protocol

from repro.crypto.des import (
    BLOCK_SIZE, CBC, PCBC, DesError, crypt_blocks, get_schedule,
)

__all__ = [
    "SupportsRandomBytes",
    "ZERO_IV",
    "pad_zero",
    "pad_random",
    "ecb_encrypt",
    "ecb_decrypt",
    "cbc_encrypt",
    "cbc_decrypt",
    "pcbc_encrypt",
    "pcbc_decrypt",
    "add_confounder",
    "strip_confounder",
]

ZERO_IV = bytes(BLOCK_SIZE)


class SupportsRandomBytes(Protocol):
    """The slice of :class:`repro.crypto.rng.DeterministicRandom` the
    padding and confounder helpers need."""

    def random_bytes(self, length: int) -> bytes: ...


def _check_blocks(data: bytes, what: str) -> None:
    if len(data) % BLOCK_SIZE:
        raise DesError(
            f"{what} length {len(data)} is not a multiple of {BLOCK_SIZE}"
        )


def _check_iv(iv: bytes) -> None:
    if len(iv) != BLOCK_SIZE:
        raise DesError(f"IV must be {BLOCK_SIZE} bytes, got {len(iv)}")


def pad_zero(data: bytes) -> bytes:
    """Pad with NUL bytes up to a block boundary (Kerberos style).

    Zero padding is not self-describing; the protocol layers carry explicit
    length fields, as the real Kerberos encodings do.
    """
    remainder = len(data) % BLOCK_SIZE
    if remainder == 0:
        return data
    return data + bytes(BLOCK_SIZE - remainder)


def pad_random(data: bytes, rng: SupportsRandomBytes) -> bytes:
    """Pad with random bytes from *rng* up to a block boundary."""
    remainder = len(data) % BLOCK_SIZE
    if remainder == 0:
        return data
    return data + rng.random_bytes(BLOCK_SIZE - remainder)


def ecb_encrypt(key: bytes, plaintext: bytes) -> bytes:
    """Electronic-codebook encryption (used only for single blocks)."""
    _check_blocks(plaintext, "plaintext")
    return crypt_blocks(get_schedule(key), plaintext)


def ecb_decrypt(key: bytes, ciphertext: bytes) -> bytes:
    _check_blocks(ciphertext, "ciphertext")
    return crypt_blocks(get_schedule(key), ciphertext, decrypt=True)


def cbc_encrypt(key: bytes, plaintext: bytes, iv: bytes = ZERO_IV) -> bytes:
    """Standard cipher-block chaining: ``C_i = E(P_i xor C_{i-1})``."""
    _check_blocks(plaintext, "plaintext")
    _check_iv(iv)
    return crypt_blocks(get_schedule(key), plaintext, CBC, iv)


def cbc_decrypt(key: bytes, ciphertext: bytes, iv: bytes = ZERO_IV) -> bytes:
    _check_blocks(ciphertext, "ciphertext")
    _check_iv(iv)
    return crypt_blocks(get_schedule(key), ciphertext, CBC, iv, decrypt=True)


def pcbc_encrypt(key: bytes, plaintext: bytes, iv: bytes = ZERO_IV) -> bytes:
    """Propagating CBC: ``C_i = E(P_i xor P_{i-1} xor C_{i-1})``.

    The chaining value for the first block is the IV alone, matching the
    Kerberos V4 usage (where the IV was fixed and public — the paper's
    chosen-ciphertext hint).
    """
    _check_blocks(plaintext, "plaintext")
    _check_iv(iv)
    return crypt_blocks(get_schedule(key), plaintext, PCBC, iv)


def pcbc_decrypt(key: bytes, ciphertext: bytes, iv: bytes = ZERO_IV) -> bytes:
    _check_blocks(ciphertext, "ciphertext")
    _check_iv(iv)
    return crypt_blocks(get_schedule(key), ciphertext, PCBC, iv, decrypt=True)


def add_confounder(plaintext: bytes, rng: SupportsRandomBytes) -> bytes:
    """Prepend one random block, the V5 draft's anti-replay confounder."""
    return rng.random_bytes(BLOCK_SIZE) + plaintext


def strip_confounder(plaintext: bytes) -> bytes:
    """Drop the leading confounder block after decryption."""
    if len(plaintext) < BLOCK_SIZE:
        raise DesError("plaintext shorter than one confounder block")
    return plaintext[BLOCK_SIZE:]
