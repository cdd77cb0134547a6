"""The table-driven DES fast path against the per-bit reference.

The fast path in :mod:`repro.crypto.des` (Feistel rounds over E-expanded
48-bit halves, byte-indexed IP/FP tables, paired S-box/P/E tables, key
schedules from byte-indexed tables) must compute *exactly* the function
of the retained per-bit implementation in
:mod:`repro.crypto.des_reference` — block function and key schedule
each on their own, on the published vectors, on random keys and blocks,
and through every mode of operation.  These tests are the contract that
lets the rest of the package trust the optimisation blindly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import des, des_reference, modes
from repro.crypto.des import (
    KeySchedule, clear_schedule_cache, decrypt_block, derive_subkeys,
    encrypt_block, get_schedule, schedule_cache_info,
)

# The same published vectors test_crypto_des.py pins the fast path to.
VECTORS = [
    ("133457799BBCDFF1", "0123456789ABCDEF", "85E813540F0AB405"),
    ("0123456789ABCDEF", "4E6F772069732074", "3FA40E8A984D4815"),
    ("0101010101010101", "0000000000000000", "8CA64DE9C1B123A7"),
    ("7CA110454A1A6E57", "01A1D6D039776742", "690F5B0D9A26939B"),
    ("0131D9619DC1376E", "5CD54CA83DEF57DA", "7A389D10354BD271"),
]

key8 = st.binary(min_size=8, max_size=8)


@pytest.mark.parametrize("key_hex,plain_hex,cipher_hex", VECTORS)
def test_reference_path_matches_published_vectors(key_hex, plain_hex,
                                                  cipher_hex):
    key = bytes.fromhex(key_hex)
    plain = bytes.fromhex(plain_hex)
    cipher = bytes.fromhex(cipher_hex)
    assert des_reference.encrypt_block(key, plain) == cipher
    assert des_reference.decrypt_block(key, cipher) == plain


@pytest.mark.parametrize("key_hex,plain_hex,cipher_hex", VECTORS)
def test_fast_path_matches_reference_on_vectors(key_hex, plain_hex,
                                                cipher_hex):
    key = bytes.fromhex(key_hex)
    plain = bytes.fromhex(plain_hex)
    assert encrypt_block(key, plain) == des_reference.encrypt_block(key, plain)


@given(key8, key8)
@settings(max_examples=60, deadline=None)
def test_fast_path_equals_reference_on_random_inputs(key, block):
    assert encrypt_block(key, block) == des_reference.encrypt_block(key, block)
    assert decrypt_block(key, block) == des_reference.decrypt_block(key, block)


@pytest.mark.parametrize("key_hex,plain_hex,cipher_hex", VECTORS)
def test_key_schedule_matches_reference_on_vectors(key_hex, plain_hex,
                                                   cipher_hex):
    key = bytes.fromhex(key_hex)
    assert derive_subkeys(key) == des_reference.derive_subkeys(key)


@given(key8)
@settings(max_examples=100, deadline=None)
def test_key_schedule_matches_reference_on_random_keys(key):
    assert derive_subkeys(key) == des_reference.derive_subkeys(key)


def test_key_schedule_matches_reference_for_every_byte_value():
    """Every round-key bit copies exactly one key bit, so the eight key
    bytes contribute disjoint bits and a schedule is the OR of eight
    one-byte schedules.  Each key below has one nonzero byte: the 8 × 256
    of them pin every entry of ``_KS_TAB``, round-key slots included,
    and so the schedule of every key."""
    for position in range(8):
        for value in range(256):
            key = bytes(position) + bytes([value]) + bytes(7 - position)
            assert derive_subkeys(key) == des_reference.derive_subkeys(key), (
                position, value)


@given(key8, key8)
@settings(max_examples=30, deadline=None)
def test_shared_subkeys_one_block_both_paths(key, block):
    """Each path derives its own schedule; the two must be equal, and
    both block functions consuming that one schedule must agree —
    isolates the block function from the key schedule."""
    subkeys = des_reference.derive_subkeys(key)
    schedule = KeySchedule(key)
    assert schedule.subkeys == subkeys
    assert schedule.encrypt_block(block) == \
        des_reference.crypt_block(block, subkeys)
    assert schedule.decrypt_block(block) == \
        des_reference.crypt_block(block, subkeys[::-1])


@given(st.binary(min_size=0, max_size=120).map(modes.pad_zero), key8, key8)
@settings(max_examples=30, deadline=None)
def test_modes_match_reference_composition(plaintext, key, iv):
    """ECB/CBC/PCBC built from reference block ops equal the cached fast
    modes byte for byte, both directions."""
    from repro.crypto.bits import xor_bytes

    expected_ecb = b"".join(
        des_reference.encrypt_block(key, plaintext[i:i + 8])
        for i in range(0, len(plaintext), 8)
    )
    assert modes.ecb_encrypt(key, plaintext) == expected_ecb
    assert modes.ecb_decrypt(key, expected_ecb) == plaintext

    expected_cbc = bytearray()
    prev = iv
    for i in range(0, len(plaintext), 8):
        prev = des_reference.encrypt_block(
            key, xor_bytes(plaintext[i:i + 8], prev))
        expected_cbc += prev
    assert modes.cbc_encrypt(key, plaintext, iv) == bytes(expected_cbc)
    assert modes.cbc_decrypt(key, bytes(expected_cbc), iv) == plaintext

    expected_pcbc = bytearray()
    chain = iv
    for i in range(0, len(plaintext), 8):
        block = plaintext[i:i + 8]
        sealed = des_reference.encrypt_block(key, xor_bytes(block, chain))
        expected_pcbc += sealed
        chain = xor_bytes(block, sealed)
    assert modes.pcbc_encrypt(key, plaintext, iv) == bytes(expected_pcbc)
    assert modes.pcbc_decrypt(key, bytes(expected_pcbc), iv) == plaintext


@given(st.binary(min_size=0, max_size=120).map(modes.pad_zero), key8, key8)
@settings(max_examples=20, deadline=None)
def test_modes_roundtrip_through_fast_path(plaintext, key, iv):
    assert modes.ecb_decrypt(key, modes.ecb_encrypt(key, plaintext)) \
        == plaintext
    assert modes.cbc_decrypt(key, modes.cbc_encrypt(key, plaintext, iv), iv) \
        == plaintext
    assert modes.pcbc_decrypt(key, modes.pcbc_encrypt(key, plaintext, iv), iv) \
        == plaintext


# --- the chained kernel: decryption, input types, the meter ---------------
#
# Every mode and the single-block API are one call of des.crypt_blocks,
# which carries the chain in the rounds' E-form.  Decryption is pinned
# here on ciphertext nobody encrypted, under keys that include the weak
# and semi-weak ones (whose schedules are palindromes or mirror pairs).

any_key = st.one_of(key8, st.sampled_from(
    sorted(des.WEAK_KEYS | des.SEMIWEAK_KEYS)))
blocks_0_16 = st.integers(min_value=0, max_value=16).flatmap(
    lambda n: st.binary(min_size=8 * n, max_size=8 * n))


def _reference_decrypt(mode, key, ciphertext, iv):
    """ECB/CBC/PCBC decryption composed from reference block ops."""
    from repro.crypto.bits import xor_bytes

    out = bytearray()
    chain = iv
    for i in range(0, len(ciphertext), 8):
        block = ciphertext[i:i + 8]
        plain = des_reference.decrypt_block(key, block)
        if mode == "cbc":
            plain, chain = xor_bytes(plain, chain), block
        elif mode == "pcbc":
            plain = xor_bytes(plain, chain)
            chain = xor_bytes(plain, block)
        out += plain
    return bytes(out)


@given(blocks_0_16, any_key, key8)
@settings(max_examples=40, deadline=None)
def test_decrypting_random_ciphertext_matches_reference(ciphertext, key, iv):
    assert modes.ecb_decrypt(key, ciphertext) == \
        _reference_decrypt("ecb", key, ciphertext, iv)
    assert modes.cbc_decrypt(key, ciphertext, iv) == \
        _reference_decrypt("cbc", key, ciphertext, iv)
    assert modes.pcbc_decrypt(key, ciphertext, iv) == \
        _reference_decrypt("pcbc", key, ciphertext, iv)


#: (name, mode function, takes an IV) for all six modes.
MODES = [
    ("ecb_encrypt", modes.ecb_encrypt, False),
    ("ecb_decrypt", modes.ecb_decrypt, False),
    ("cbc_encrypt", modes.cbc_encrypt, True),
    ("cbc_decrypt", modes.cbc_decrypt, True),
    ("pcbc_encrypt", modes.pcbc_encrypt, True),
    ("pcbc_decrypt", modes.pcbc_decrypt, True),
]
KEY = bytes.fromhex("0123456789ABCDEF")
IV = bytes.fromhex("FEDCBA9876543210")
DATA = bytes(range(7, 7 + 40))


@pytest.mark.parametrize("wrap", [bytearray, memoryview])
@pytest.mark.parametrize("name,mode,takes_iv", MODES)
def test_bytearray_and_memoryview_inputs_match_bytes(wrap, name, mode,
                                                     takes_iv):
    expected = mode(KEY, DATA, *([IV] if takes_iv else []))
    assert mode(KEY, wrap(DATA), *([wrap(IV)] if takes_iv else [])) == expected


@pytest.mark.parametrize("wrap", [bytearray, memoryview])
def test_single_block_api_takes_bytearray_and_memoryview(wrap):
    block = DATA[:8]
    schedule = get_schedule(KEY)
    cipher = des.DesCipher(KEY)
    for encrypt in (True, False):
        fast = encrypt_block if encrypt else decrypt_block
        expected = fast(KEY, block)
        assert fast(KEY, wrap(block)) == expected
        method = "encrypt_block" if encrypt else "decrypt_block"
        assert getattr(schedule, method)(wrap(block)) == expected
        assert getattr(cipher, method)(wrap(block)) == expected


@pytest.mark.parametrize("blocks", [0, 1, 2, 5, 16])
@pytest.mark.parametrize("name,mode,takes_iv", MODES)
def test_mode_call_counts_exactly_its_blocks(blocks, name, mode, takes_iv):
    data = bytes(range(8 * blocks))
    before = des.BLOCK_OPS.count
    out = mode(KEY, data, *([IV] if takes_iv else []))
    assert len(out) == len(data)
    assert des.BLOCK_OPS.count - before == blocks


def test_single_block_entry_points_count_one_each():
    block = DATA[:8]
    schedule = get_schedule(KEY)
    cipher = des.DesCipher(KEY)
    for call in (
        lambda: encrypt_block(KEY, block),
        lambda: decrypt_block(KEY, block),
        lambda: schedule.encrypt_block(block),
        lambda: schedule.decrypt_block(block),
        lambda: cipher.encrypt_block(block),
        lambda: cipher.decrypt_block(block),
    ):
        before = des.BLOCK_OPS.count
        call()
        assert des.BLOCK_OPS.count - before == 1


@pytest.mark.parametrize("name,mode,takes_iv", MODES)
def test_misaligned_input_or_bad_iv_raises_and_counts_nothing(name, mode,
                                                               takes_iv):
    before = des.BLOCK_OPS.count
    with pytest.raises(des.DesError):
        mode(KEY, DATA[:13], *([IV] if takes_iv else []))
    if takes_iv:
        for bad_iv in (b"", IV[:7], IV + b"\x00"):
            with pytest.raises(des.DesError):
                mode(KEY, DATA, bad_iv)
    assert des.BLOCK_OPS.count == before


def test_wrong_length_block_raises_and_counts_nothing():
    schedule = get_schedule(KEY)
    cipher = des.DesCipher(KEY)
    before = des.BLOCK_OPS.count
    for bad in (b"", DATA[:7], DATA[:9], DATA[:16]):
        for call in (encrypt_block, decrypt_block):
            with pytest.raises(des.DesError):
                call(KEY, bad)
        for owner in (schedule, cipher):
            with pytest.raises(des.DesError):
                owner.encrypt_block(bad)
            with pytest.raises(des.DesError):
                owner.decrypt_block(bad)
    assert des.BLOCK_OPS.count == before


# --- the schedule cache ----------------------------------------------------


def test_schedule_cache_hits_and_shares():
    clear_schedule_cache()
    key = bytes.fromhex("133457799BBCDFF1")
    first = get_schedule(key)
    again = get_schedule(bytearray(key))  # normalised to bytes
    assert again is first
    info = schedule_cache_info()
    assert info["hits"] == 1 and info["misses"] == 1 and info["size"] == 1


def test_entry_points_share_one_derivation(monkeypatch):
    """encrypt_block, decrypt_block, DesCipher, and the modes all reuse
    one cached schedule per key."""
    clear_schedule_cache()
    calls = []
    original = des.derive_subkeys

    def counting(key):
        calls.append(bytes(key))
        return original(key)

    monkeypatch.setattr(des, "derive_subkeys", counting)
    key = bytes.fromhex("0123456789ABCDEF")
    block = b"\x42" * 8
    des.encrypt_block(key, block)
    des.decrypt_block(key, block)
    des.DesCipher(key).encrypt_block(block)
    modes.cbc_decrypt(key, modes.cbc_encrypt(key, block * 3))
    modes.pcbc_encrypt(key, block * 2)
    assert calls == [key]


def test_cache_is_bounded_lru():
    clear_schedule_cache()
    overflow = des.SCHEDULE_CACHE_SIZE + 5
    first_key = (0).to_bytes(8, "big")
    get_schedule(first_key)
    for i in range(1, overflow):
        get_schedule(i.to_bytes(8, "big"))
    info = schedule_cache_info()
    assert info["size"] == des.SCHEDULE_CACHE_SIZE
    # The very first key was the least recently used: evicted.
    before = schedule_cache_info()["misses"]
    get_schedule(first_key)
    assert schedule_cache_info()["misses"] == before + 1


def test_bad_key_never_pollutes_cache():
    clear_schedule_cache()
    with pytest.raises(des.DesError):
        get_schedule(b"short")
    assert schedule_cache_info()["size"] == 0


def test_weak_key_still_self_inverse_via_cache():
    weak = next(iter(des.WEAK_KEYS))
    block = b"attack a"
    assert decrypt_block(weak, encrypt_block(weak, block)) == block
    assert encrypt_block(weak, encrypt_block(weak, block)) == block


# --- the parity table ------------------------------------------------------


@given(st.binary(min_size=1, max_size=16))
@settings(max_examples=50, deadline=None)
def test_parity_table_matches_popcount(data):
    fixed = des.set_odd_parity(data)
    assert all(bin(b).count("1") & 1 for b in fixed)
    assert des.has_odd_parity(fixed)
    assert des.has_odd_parity(data) == \
        all(bin(b).count("1") & 1 for b in data)
    # Parity fixing touches only the low bit of each byte.
    assert all((a & 0xFE) == (b & 0xFE) for a, b in zip(data, fixed))
