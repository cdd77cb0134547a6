"""Key objects, string-to-key derivation, and purpose tags.

Two of the paper's themes live here:

* **"All privileges depend ultimately on this one key"** — the client key
  ``Kc`` is "derived from a non-invertible transform of the user's typed
  password".  :func:`string_to_key` implements the Kerberos V4 style
  fan-fold derivation.  Because the transform is public, a recorded
  ``KRB_AS_REP`` is an oracle for offline password guessing
  (:mod:`repro.attacks.password_guess`).

* **"Keys should be tagged with their purpose"** — the hardware section
  argues that a login key must decrypt only ticket-granting tickets, a
  session key only session traffic, and so on, so that a captured host
  cannot misuse the encryption unit as a decryption oracle.
  :class:`KeyTag` and :class:`TaggedKey` carry that purpose information;
  :mod:`repro.hardware.encryption_unit` enforces it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.crypto import modes
from repro.crypto.bits import transpose_in, transpose_out
from repro.crypto.des import (
    BLOCK_SIZE, SEMIWEAK_KEYS, WEAK_KEYS, set_odd_parity,
)

__all__ = ["KeyTag", "TaggedKey", "string_to_key", "string_to_key_many"]


class KeyTag(enum.Enum):
    """What a key is *for*.  Enforced by the simulated encryption unit."""

    LOGIN = "login"              # user's password-derived key Kc
    TGS_SESSION = "tgs-session"  # Kc,tgs from the AS exchange
    SERVICE = "service"          # long-term server key Ks
    SESSION = "session"          # per-service (multi-)session key Kc,s
    TRUE_SESSION = "true-session"  # negotiated single-session key (rec. e)
    MASTER = "master"            # KDC database / keystore master key


@dataclass(frozen=True)
class TaggedKey:
    """An 8-byte DES key annotated with its purpose and owner.

    The plain protocol code mostly passes raw ``bytes`` around (keys *are*
    just bytes on a conventional host, which is the paper's complaint);
    TaggedKey is the currency of the hardware modules, where the tag is a
    hard restriction.
    """

    key: bytes
    tag: KeyTag
    owner: str = ""

    def __post_init__(self) -> None:
        if len(self.key) != BLOCK_SIZE:
            raise ValueError(f"key must be {BLOCK_SIZE} bytes")


#: ``bytes.translate`` table: each byte's low 7 bits reversed, its top
#: bit dropped (the V4 fan-fold quirk).
_REVERSED_7BITS = bytes(
    sum(((value >> bit) & 1) << (6 - bit) for bit in range(7))
    for value in range(256)
)


def _pad_password(password: str, salt: str) -> bytes:
    data = (password + salt).encode("utf-8")
    return modes.pad_zero(data) or bytes(BLOCK_SIZE)


#: The FIPS 74 weak and semi-weak keys, all in odd-parity form, so a
#: parity-fixed key is weak exactly when it is in this set.
_WEAK_KEYS = WEAK_KEYS | SEMIWEAK_KEYS


def _finalize_key(block: bytes) -> bytes:
    """Parity-fix *block* and turn a weak or semi-weak key strong: the
    last step of the fan-fold and of the CBC checksum alike."""
    key = set_odd_parity(block)
    if key in _WEAK_KEYS:
        key = bytes([key[0] ^ 0xF0]) + key[1:]
    return key


def _finalize_keys(blocks: Sequence[bytes]) -> List[bytes]:
    """:func:`_finalize_key` over each of *blocks*, with one parity fix
    over all of them joined."""
    fixed = set_odd_parity(b"".join(blocks))
    weak = _WEAK_KEYS
    keys = [fixed[offset:offset + BLOCK_SIZE]
            for offset in range(0, len(fixed), BLOCK_SIZE)]
    return [bytes([key[0] ^ 0xF0]) + key[1:] if key in weak else key
            for key in keys]


def _fanfold_key(padded: bytes) -> bytes:
    """Fan-fold *padded* into 8 bytes, fix parity, and fix weak keys."""
    fanfold = 0
    for chunk_index in range(0, len(padded), BLOCK_SIZE):
        chunk = padded[chunk_index:chunk_index + BLOCK_SIZE]
        if (chunk_index // BLOCK_SIZE) % 2 == 1:
            chunk = chunk[::-1].translate(_REVERSED_7BITS)
        fanfold ^= int.from_bytes(chunk, "big")
    return _finalize_key(fanfold.to_bytes(BLOCK_SIZE, "big"))


def string_to_key(password: str, salt: str = "") -> bytes:
    """Derive a DES key from a password, Kerberos V4 style.

    The algorithm fan-folds the password into 8 bytes — XORing successive
    8-byte chunks, with odd chunks bit-reversed — fixes parity, then runs
    a DES-CBC checksum of the padded password keyed (and IV'd) with the
    fan-fold key, and fixes parity again.  The transform is public and
    deterministic: anyone can compute ``Kc`` from a password guess, which
    is precisely what makes recorded login dialogs crackable.

    *salt* is accepted for V5-style per-principal salting (an empty salt
    reproduces V4 behaviour, where identical passwords give identical
    keys across principals).
    """
    padded = _pad_password(password, salt)
    folded = _fanfold_key(padded)
    # CBC checksum of the padded password, keyed with the fan-fold key and
    # using it as IV; the final ciphertext block becomes the key.
    checksum = modes.cbc_encrypt(folded, padded, folded)[-BLOCK_SIZE:]
    return _finalize_key(checksum)


#: Below this many same-length candidates the sliced CBC checksum loses to
#: the table-driven path, or wins by less than its spread; fall back to
#: scalar derivation.  Measured on CPython 3.11, 2-vCPU Xeon VM, scalar
#: over batched µs/key (median [quartiles] of 25 alternating rounds, fresh
#: candidates each round; a range spans repeated runs): one-block (8-byte
#: padded) passwords 1.18–1.27 at 64 [lower quartiles 1.04–1.14],
#: 1.59–1.76 at 96 [1.33–1.60], 1.82–1.93 at 128; two-block 0.88–1.12 at
#: 64 [0.82–1.03], 1.09 at 80 [1.05–1.41], 1.27–1.60 at 96 [1.17–1.47],
#: 1.51–1.87 at 128.  Scalar wins ~2.5× at 8 candidates and ~1.5–2× at
#: 32, and batched keeps gaining with width: 10 vs 30 µs/key at 256.  The
#: floor was 128 before the gate-circuit S-boxes and the one-unpack key
#: schedule; that tree read 1.06 / 0.90 at 96 and 1.38 / 1.20 at 128
#: (one- / two-block) on the same box.
_BATCH_FLOOR = 96


def string_to_key_many(passwords: Sequence[str], salt: str = "") -> List[bytes]:
    """Derive DES keys for many passwords at once, bit-for-bit identical
    to mapping :func:`string_to_key` over them.

    This is the cracking workload's front half, and it builds the scale
    model's key table (:mod:`repro.serve.scale` derives every principal
    a call names in one batch).  The fan-fold, parity and weak-key
    fixes are cheap, but the CBC checksum is one DES block operation per
    8 password bytes — under a *different* key per candidate, the table
    path's worst case (every guess derives a fresh schedule).  Here
    candidates are grouped by padded length and each group's checksum
    runs through :mod:`repro.crypto.des_bitslice`, whose per-lane key
    schedules are free.  Each group's parity and weak-key fixes run in
    one pass over its keys joined (:func:`_finalize_keys`), and a
    one-block group needs no fan-fold: it is the padded block itself.
    """
    if len(passwords) < _BATCH_FLOOR:
        return [string_to_key(candidate, salt) for candidate in passwords]

    from repro.crypto import des_bitslice

    padded_all = [_pad_password(candidate, salt) for candidate in passwords]
    groups: Dict[int, List[int]] = {}
    for index, padded in enumerate(padded_all):
        groups.setdefault(len(padded), []).append(index)

    out: List[bytes] = [b""] * len(passwords)
    for length in sorted(groups):
        indices = groups[length]
        if len(indices) < _BATCH_FLOOR:
            for index in indices:
                out[index] = string_to_key(passwords[index], salt)
            continue
        if length == BLOCK_SIZE:
            # A one-block fan-fold is the padded block itself.
            folded = _finalize_keys([padded_all[index] for index in indices])
        else:
            folded = [_fanfold_key(padded_all[index]) for index in indices]
        sliced = des_bitslice.BitslicedKeys(folded)
        chain = transpose_in(folded)  # the fan-fold key doubles as the IV
        for offset in range(0, length, BLOCK_SIZE):
            plain = transpose_in(
                [padded_all[index][offset:offset + BLOCK_SIZE]
                 for index in indices]
            )
            chain = des_bitslice.encrypt_lanes(
                sliced, [p ^ c for p, c in zip(plain, chain)]
            )
        finals = _finalize_keys(transpose_out(chain, len(indices)))
        for index, key in zip(indices, finals):
            out[index] = key
    return out
