"""The Data Encryption Standard (FIPS 46), implemented from scratch.

Kerberos V4 and the V5 drafts analysed by Bellovin & Merritt use single-DES
as their only cipher.  The paper treats DES as a black box ("beginning only
with the premise that ... the encryption system is secure"), and so do our
attacks: nothing in :mod:`repro.attacks` inverts DES.  The cipher is here
so that the *modes* (CBC, PCBC) and the protocol layers above them behave
with the exact algebra the paper's attacks exploit — prefix properties of
CBC, the propagation behaviour of PCBC, and so on.

The implementation follows FIPS 46-3: initial/final permutations, 16
Feistel rounds with the E expansion, the eight S-boxes, the P
permutation, and the PC-1/PC-2 key schedule.  IP, FP, E, P and the key
schedule only *select* bits, so each is compiled at import into lookup
tables built from one mask per input bit (:func:`_subset_table`).  None
of this changes the function computed:

* the Feistel state is the pair of *E-expanded* 48-bit halves.  IP's
  byte tables emit ``(E(L) << 48) | E(R)`` directly, and since
  ``E(L ⊕ f) = E(L) ⊕ E(f)`` a round is one XOR with the 48-bit round
  key and four lookups in tables that fuse an S-box pair, P and E;
* on the way out one shared 4096-entry table maps each 12-bit field of
  an E-form half back to the byte it carries, ahead of the 8×256 FP
  byte tables;
* the key schedule is eight byte-table lookups: each key byte's share
  of all 16 round keys is precomputed as one 1024-bit integer, a 64-bit
  slot per round key, so one ``to_bytes`` and one ``struct`` unpack
  split the OR of the eight into the round keys;
* every block operation, in :mod:`repro.crypto.modes` and here, is one
  call of :func:`crypt_blocks`: a block's bytes go straight into E-form,
  and the CBC/PCBC chain stays in it (IP, E and FP commute with XOR).

The per-bit path the tables replace — block function and key schedule —
is retained in :mod:`repro.crypto.des_reference`; property tests
cross-check the two on the FIPS/Rivest vectors and on random keys and
blocks.

Key schedules are memoised in a bounded module-level cache
(:func:`get_schedule`): the protocol layers encrypt and decrypt under
the same handful of keys thousands of times per scenario (a ticket is
sealed by the KDC, unsealed by the server, its session key reused for
every KRB_PRIV message), so most block operations find their 16 round
keys already derived.

Verified against the FIPS / Rivest test vectors in
``tests/test_crypto_des.py``.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "BLOCK_SIZE",
    "KEY_SIZE",
    "SCHEDULE_CACHE_SIZE",
    "WEAK_KEYS",
    "SEMIWEAK_KEYS",
    "DesError",
    "KeySchedule",
    "derive_subkeys",
    "get_schedule",
    "schedule_cache_info",
    "clear_schedule_cache",
    "encrypt_block",
    "decrypt_block",
    "set_odd_parity",
    "has_odd_parity",
    "is_weak_key",
]

BLOCK_SIZE = 8
KEY_SIZE = 8


class DesError(ValueError):
    """Raised for malformed DES inputs (wrong block or key length)."""


# --- FIPS 46 tables (1-based bit indices, MSB first) -----------------------

_IP = (
    58, 50, 42, 34, 26, 18, 10, 2,
    60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6,
    64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17, 9, 1,
    59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5,
    63, 55, 47, 39, 31, 23, 15, 7,
)

_FP = (
    40, 8, 48, 16, 56, 24, 64, 32,
    39, 7, 47, 15, 55, 23, 63, 31,
    38, 6, 46, 14, 54, 22, 62, 30,
    37, 5, 45, 13, 53, 21, 61, 29,
    36, 4, 44, 12, 52, 20, 60, 28,
    35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26,
    33, 1, 41, 9, 49, 17, 57, 25,
)

_E = (
    32, 1, 2, 3, 4, 5,
    4, 5, 6, 7, 8, 9,
    8, 9, 10, 11, 12, 13,
    12, 13, 14, 15, 16, 17,
    16, 17, 18, 19, 20, 21,
    20, 21, 22, 23, 24, 25,
    24, 25, 26, 27, 28, 29,
    28, 29, 30, 31, 32, 1,
)

_P = (
    16, 7, 20, 21, 29, 12, 28, 17,
    1, 15, 23, 26, 5, 18, 31, 10,
    2, 8, 24, 14, 32, 27, 3, 9,
    19, 13, 30, 6, 22, 11, 4, 25,
)

_SBOXES = (
    (
        14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7,
        0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8,
        4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0,
        15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13,
    ),
    (
        15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10,
        3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5,
        0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15,
        13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9,
    ),
    (
        10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8,
        13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1,
        13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7,
        1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12,
    ),
    (
        7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15,
        13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9,
        10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4,
        3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14,
    ),
    (
        2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9,
        14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6,
        4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14,
        11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3,
    ),
    (
        12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11,
        10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8,
        9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6,
        4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13,
    ),
    (
        4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1,
        13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6,
        1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2,
        6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12,
    ),
    (
        13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7,
        1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2,
        7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8,
        2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11,
    ),
)

_PC1 = (
    57, 49, 41, 33, 25, 17, 9,
    1, 58, 50, 42, 34, 26, 18,
    10, 2, 59, 51, 43, 35, 27,
    19, 11, 3, 60, 52, 44, 36,
    63, 55, 47, 39, 31, 23, 15,
    7, 62, 54, 46, 38, 30, 22,
    14, 6, 61, 53, 45, 37, 29,
    21, 13, 5, 28, 20, 12, 4,
)

_PC2 = (
    14, 17, 11, 24, 1, 5,
    3, 28, 15, 6, 21, 10,
    23, 19, 12, 4, 26, 8,
    16, 7, 27, 20, 13, 2,
    41, 52, 31, 37, 47, 55,
    30, 40, 51, 45, 33, 48,
    44, 49, 39, 56, 34, 53,
    46, 42, 50, 36, 29, 32,
)

_SHIFTS = (1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1)

# The four weak keys (self-inverse key schedules) and six semi-weak pairs
# from FIPS 74.  The KDC's random key generation rejects these.

WEAK_KEYS = frozenset(
    bytes.fromhex(h)
    for h in (
        "0101010101010101",
        "fefefefefefefefe",
        "1f1f1f1f0e0e0e0e",
        "e0e0e0e0f1f1f1f1",
    )
)

SEMIWEAK_KEYS = frozenset(
    bytes.fromhex(h)
    for h in (
        "01fe01fe01fe01fe", "fe01fe01fe01fe01",
        "1fe01fe00ef10ef1", "e01fe01ff10ef10e",
        "01e001e001f101f1", "e001e001f101f101",
        "1ffe1ffe0efe0efe", "fe1ffe1ffe0efe0e",
        "011f011f010e010e", "1f011f010e010e01",
        "e0fee0fef1fef1fe", "fee0fee0fef1fef1",
    )
)


# --- precompiled fast-path tables ------------------------------------------
#
# IP, FP, E, P and the key schedule only *select* bits, so a table
# indexed by several of their input bits is the OR of what each set bit
# selects on its own: every table below is built from per-bit masks.


def _selection_masks(table: Sequence[int], width_in: int) -> List[int]:
    """Invert a FIPS-style bit selection into one mask per input bit.

    *table* lists, for each output bit (most significant first), the
    1-based input bit that supplies it, or 0 for an output bit that is
    always clear.  ``masks[j]`` has a bit set at every output position
    that copies input bit ``j + 1``; input bits that feed nothing (the
    key parity bits) get 0.
    """
    width = len(table)
    masks = [0] * width_in
    for out_pos, src in enumerate(table):
        if src:
            masks[src - 1] |= 1 << (width - 1 - out_pos)
    return masks


def _subset_table(masks: Sequence[int]) -> Tuple[int, ...]:
    """``T[v]`` is the OR of ``masks[j]`` over the set bits *j* of *v*.

    Bit *j* counts from the most significant of ``len(masks)`` index
    bits.  Each entry is one OR on an earlier one:
    ``T[v] = T[v & (v - 1)] | masks[lowest set bit of v]``.
    """
    width = len(masks)
    entries = [0] * (1 << width)
    for value in range(1, 1 << width):
        low = value & -value
        entries[value] = entries[value ^ low] | masks[width - low.bit_length()]
    return tuple(entries)


def _byte_tables(table: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
    """Compile a bit selection from 64 input bits into 8×256 byte tables:
    ``T[i][b]`` is what input byte *i* holding *b* contributes."""
    masks = _selection_masks(table, 64)
    return tuple(_subset_table(masks[8 * i:8 * i + 8]) for i in range(8))


def _schedule_selection() -> Tuple[int, ...]:
    """The key bit behind each of the 1024 bits of the 16 round-key
    slots: per round, 16 clear bits, then the 48-bit round key.

    PC-1 loads C and D, each round rotates them left, and PC-2 reads the
    round key out: index arithmetic only, run once on bit positions.
    """
    c, d = list(_PC1[:28]), list(_PC1[28:])
    selection: List[int] = []
    for shift in _SHIFTS:
        c = c[shift:] + c[:shift]
        d = d[shift:] + d[:shift]
        cd = c + d
        selection.extend([0] * 16)
        selection.extend(cd[src - 1] for src in _PC2)
    return tuple(selection)


#: The E-form of a 32-bit half is its 48-bit E expansion.  ``_IP_TAB``
#: runs IP and expands both halves in the same OR: its eight byte
#: contributions sum to ``(E(L) << 48) | E(R)``.
_IP_TAB = _byte_tables(
    [_IP[src - 1] for src in _E] + [_IP[32 + src - 1] for src in _E]
)
_FP_TAB = _byte_tables(_FP)

#: ``_KS_TAB[i][b]``: key byte *i* holding *b*, contributing to all 16
#: round keys at once — round key *r* (from 0) fills the low 48 bits of
#: the 64-bit slot at bits ``64 * (15 - r)`` of one 1024-bit integer.
_KS_TAB = _byte_tables(_schedule_selection())
#: Splits the 128 bytes of a packed schedule into its 16 slots, round 0
#: first.
_UNPACK_SCHEDULE = struct.Struct(">16Q").unpack


def _build_spe_tables() -> Tuple[Tuple[int, ...], ...]:
    """S-boxes, P and E fused, S-boxes in pairs.

    ``SPE[i][(a << 6) | b]`` is ``E(P(S[2i](a) ⊕ S[2i+1](b)))``: the
    E-form of what S-box pair *i* adds to the other half.  E and P only
    select bits, so E∘P is one selection from the 32-bit S-box output
    word, and each S-box's 4-bit output indexes a 16-entry slice of it.
    """
    ep_masks = _selection_masks([_P[src - 1] for src in _E], 32)
    single: List[List[int]] = []
    for index, box in enumerate(_SBOXES):
        nibble = _subset_table(ep_masks[4 * index:4 * index + 4])
        single.append([
            nibble[box[(((v >> 5) << 1) | (v & 1)) * 16 + ((v >> 1) & 0xF)]]
            for v in range(64)
        ])
    return tuple(
        tuple(a ^ b for a in single[2 * i] for b in single[2 * i + 1])
        for i in range(4)
    )


_SPE = _build_spe_tables()

#: E-form back to plain.  S-box pair *i* reads twelve E bits copied from
#: half bits 8i..8i+9 (FIPS numbering, bit 0 meaning bit 32), which
#: cover byte *i*.  Every pair lays them out alike, so one 4096-entry
#: table maps any 12-bit field to its byte; each byte bit is read from
#: the first field position that copies it.
_UNE = _subset_table([
    1 << (8 - src) if 1 <= src <= 8 and _E.index(src) == pos else 0
    for pos, src in enumerate(_E[:12])
])

#: Per-byte popcount-parity (1 = odd number of set bits).  Python 3.9 has
#: no ``int.bit_count``.
_PARITY = tuple(bin(value).count("1") & 1 for value in range(256))

#: ``bytes.translate`` table: each byte with its low bit set for odd parity.
_ODD_PARITY = bytes(
    (value & 0xFE) | (_PARITY[value & 0xFE] ^ 1) for value in range(256)
)


def derive_subkeys(key: bytes) -> Tuple[int, ...]:
    """Run the FIPS 46 key schedule, returning 16 48-bit round keys.

    Parity bits (the least significant bit of each key byte) are ignored,
    exactly as in the standard.  Eight byte-table lookups give all 16
    round keys packed in one integer, a 64-bit slot each, and one
    unpack splits them; see :data:`_KS_TAB`.
    """
    if len(key) != KEY_SIZE:
        raise DesError(f"DES key must be {KEY_SIZE} bytes, got {len(key)}")
    ks = _KS_TAB
    packed = (
        ks[0][key[0]] | ks[1][key[1]] | ks[2][key[2]] | ks[3][key[3]]
        | ks[4][key[4]] | ks[5][key[5]] | ks[6][key[6]] | ks[7][key[7]]
    )
    return _UNPACK_SCHEDULE(packed.to_bytes(128, "big"))


class _OpCounter:
    """Global count of DES block operations — the currency in which the
    paper's cost discussions are denominated (benchmark E18)."""

    def __init__(self) -> None:
        self.count = 0

    def reset(self) -> int:
        previous, self.count = self.count, 0
        return previous


BLOCK_OPS = _OpCounter()


#: Chaining rules for :func:`crypt_blocks`.
ECB, CBC, PCBC = 0, 1, 2


def crypt_blocks(schedule: KeySchedule, data: bytes, chaining: int = ECB,
                 iv: bytes = bytes(8), decrypt: bool = False) -> bytes:
    """Every table-path block operation: *data* under *schedule*, chained
    by *chaining*, in one Feistel loop over E-form halves.

    IP, E and FP commute with XOR and IP undoes FP, so the chain stays in
    E-form too.  Let ``X`` be the E-form of the block read (its bytes
    through ``_IP_TAB``) and ``Y`` that of the block written (FP's
    input); the IV goes through IP once.  Encrypting, the rounds run on
    ``X ⊕ chain`` and leave ``Y``; decrypting, they run on ``X`` and
    ``Y`` is their output ``⊕ chain``.  The next chain is ``Y`` under CBC
    encryption (no IP needed), ``X`` under CBC decryption and ``X ⊕ Y``
    under PCBC; ECB has none.

    Callers check lengths: *data* is whole blocks and *iv* one block.
    :data:`BLOCK_OPS` rises once per call, by the block count.
    """
    BLOCK_OPS.count += len(data) >> 3
    subkeys = schedule._decrypt_subkeys if decrypt else schedule.subkeys
    ip0, ip1, ip2, ip3, ip4, ip5, ip6, ip7 = _IP_TAB
    sp0, sp1, sp2, sp3 = _SPE
    fp0, fp1, fp2, fp3, fp4, fp5, fp6, fp7 = _FP_TAB
    une = _UNE
    chain = 0
    if chaining != ECB:
        i0, i1, i2, i3, i4, i5, i6, i7 = iv
        chain = (ip0[i0] | ip1[i1] | ip2[i2] | ip3[i3]
                 | ip4[i4] | ip5[i5] | ip6[i6] | ip7[i7])
    words: List[bytes] = []
    it = iter(data)
    for b0, b1, b2, b3, b4, b5, b6, b7 in zip(it, it, it, it, it, it, it, it):
        block = (ip0[b0] | ip1[b1] | ip2[b2] | ip3[b3]
                 | ip4[b4] | ip5[b5] | ip6[b6] | ip7[b7])
        value = block if decrypt else block ^ chain
        left = value >> 48
        right = value & 0xFFFFFFFFFFFF
        for subkey in subkeys:
            t = right ^ subkey
            left, right = right, (
                left ^ sp0[t >> 36] ^ sp1[(t >> 24) & 0xFFF]
                ^ sp2[(t >> 12) & 0xFFF] ^ sp3[t & 0xFFF]
            )
        # The final swap is folded into the order of (right, left).
        value = (right << 48) | left
        if decrypt:
            value ^= chain
        if chaining == CBC:
            chain = block if decrypt else value
        elif chaining == PCBC:
            chain = block ^ value
        words.append((
            fp0[une[value >> 84]] | fp1[une[(value >> 72) & 0xFFF]]
            | fp2[une[(value >> 60) & 0xFFF]] | fp3[une[(value >> 48) & 0xFFF]]
            | fp4[une[(value >> 36) & 0xFFF]] | fp5[une[(value >> 24) & 0xFFF]]
            | fp6[une[(value >> 12) & 0xFFF]] | fp7[une[value & 0xFFF]]
        ).to_bytes(8, "big"))
    return b"".join(words)


# --- the key-schedule cache ------------------------------------------------


class KeySchedule:
    """One key's derived schedule, in both directions.

    ``subkeys`` is exactly :func:`derive_subkeys`'s output (16 48-bit
    ints, encryption order), which is also what the block path consumes;
    decryption runs the same rounds over the reversed order.  Instances
    are immutable in practice and shared freely through the module cache.
    """

    __slots__ = ("key", "subkeys", "_decrypt_subkeys")

    def __init__(self, key: bytes) -> None:
        self.key = bytes(key)
        self.subkeys = derive_subkeys(self.key)
        self._decrypt_subkeys = self.subkeys[::-1]

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise DesError(
                f"DES block must be {BLOCK_SIZE} bytes, got {len(block)}")
        return crypt_blocks(self, block)

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise DesError(
                f"DES block must be {BLOCK_SIZE} bytes, got {len(block)}")
        return crypt_blocks(self, block, decrypt=True)


#: Bound on distinct keys memoised at once.  A whole matrix run touches a
#: few hundred keys (per-principal long-term keys plus per-scenario
#: session keys); evicting least-recently-used beyond this keeps the
#: cache a property of the working set, not of process lifetime.
SCHEDULE_CACHE_SIZE = 1024

_schedule_cache: "OrderedDict[bytes, KeySchedule]" = OrderedDict()
_cache_hits = 0
_cache_misses = 0


def get_schedule(key: bytes) -> KeySchedule:
    """Return the (cached) :class:`KeySchedule` for *key*.

    Every block-level entry point — :func:`encrypt_block`,
    :func:`decrypt_block`, :class:`DesCipher`, and all of
    :mod:`repro.crypto.modes` — routes through here, so a ticket that is
    encrypted by the KDC, decrypted by the server, and re-checked by the
    client derives its 16 subkeys exactly once.
    """
    global _cache_hits, _cache_misses
    key = bytes(key)
    schedule = _schedule_cache.get(key)
    if schedule is not None:
        _cache_hits += 1
        _schedule_cache.move_to_end(key)
        return schedule
    schedule = KeySchedule(key)  # raises DesError before touching the cache
    _cache_misses += 1
    _schedule_cache[key] = schedule
    if len(_schedule_cache) > SCHEDULE_CACHE_SIZE:
        _schedule_cache.popitem(last=False)
    return schedule


def schedule_cache_info() -> Dict[str, int]:
    """Hits, misses, and current size — for tests and ``repro perf``."""
    return {
        "hits": _cache_hits,
        "misses": _cache_misses,
        "size": len(_schedule_cache),
        "maxsize": SCHEDULE_CACHE_SIZE,
    }


def clear_schedule_cache() -> None:
    """Drop all memoised schedules and zero the hit/miss counters."""
    global _cache_hits, _cache_misses
    _schedule_cache.clear()
    _cache_hits = 0
    _cache_misses = 0


def encrypt_block(key: bytes, block: bytes) -> bytes:
    """Encrypt one 8-byte block under *key* (8 bytes, parity ignored)."""
    return get_schedule(key).encrypt_block(block)


def decrypt_block(key: bytes, block: bytes) -> bytes:
    """Decrypt one 8-byte block under *key*."""
    return get_schedule(key).decrypt_block(block)


class DesCipher:
    """A DES instance bound to one key's (cached) schedule.

    Kept as the stable object-style API; since the schedule cache it is
    a thin view — constructing one is a dictionary hit, not a key
    schedule.
    """

    __slots__ = ("key", "_schedule")

    def __init__(self, key: bytes) -> None:
        self._schedule = get_schedule(key)
        self.key = self._schedule.key

    def encrypt_block(self, block: bytes) -> bytes:
        return self._schedule.encrypt_block(block)

    def decrypt_block(self, block: bytes) -> bytes:
        return self._schedule.decrypt_block(block)


def set_odd_parity(key: bytes) -> bytes:
    """Return *key* with each byte's low bit fixed to give odd parity."""
    return bytes(key).translate(_ODD_PARITY)


def has_odd_parity(key: bytes) -> bool:
    """True if every byte of *key* has an odd number of set bits."""
    parity = _PARITY
    return all(parity[b] for b in key)


def is_weak_key(key: bytes) -> bool:
    """True for the FIPS 74 weak and semi-weak keys (after parity fix)."""
    normalized = set_odd_parity(key)
    return normalized in WEAK_KEYS or normalized in SEMIWEAK_KEYS


__all__.append("DesCipher")
__all__.append("BLOCK_OPS")
