"""Key derivation and tagging."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import keys
from repro.crypto.des import has_odd_parity, is_weak_key, set_odd_parity
from repro.crypto.keys import KeyTag, TaggedKey, string_to_key

passwords = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    min_size=0, max_size=40,
)


@given(passwords)
@settings(max_examples=60, deadline=None)
def test_derivation_is_deterministic_and_well_formed(password):
    key = string_to_key(password)
    assert key == string_to_key(password)
    assert len(key) == 8
    assert has_odd_parity(key)
    assert not is_weak_key(key)


def test_publicly_computable():
    """The property the password-guessing attack rests on: anyone can
    derive Kc from a guess — there is no secret salt or work factor."""
    assert string_to_key("letmein") == string_to_key("letmein")


def test_different_passwords_differ():
    seen = {string_to_key(pw) for pw in ("a", "b", "ab", "letmein", "")}
    assert len(seen) == 5


def test_salt_separates_principals():
    """V5-style salting: same password, different realms, different keys
    (whereas V4's empty salt gives identical keys — also verified)."""
    assert string_to_key("pw", salt="ATHENA") != string_to_key("pw", salt="LCS")
    assert string_to_key("pw") == string_to_key("pw", salt="")


@pytest.mark.parametrize("password,salt,key_hex", [
    ("letmein", "", "2f0175f470adb586"),                  # one block
    ("correct horse battery", "", "e5e352b09b7f025b"),    # fan-fold reversal
    ("pw", "ATHENA.MIT.EDU", "34c17f0b384a6e79"),         # salted
])
def test_string_to_key_known_answers(password, salt, key_hex):
    """Pinned outputs: the KDC and the client both derive Kc, so drift in
    the derivation would pass every protocol test unnoticed."""
    assert string_to_key(password, salt).hex() == key_hex


def test_byte_tables_match_per_bit_formulas():
    """The parity and fan-fold translate tables, over all 256 byte values,
    against the per-byte and per-bit loops they replace."""
    values = bytes(range(256))
    parity = bytes(
        (v & 0xFE) | ((bin(v & 0xFE).count("1") & 1) ^ 1) for v in values
    )
    assert set_odd_parity(values) == parity

    def reverse_7bits(byte):
        out = 0
        for i in range(7):
            out |= ((byte >> i) & 1) << (6 - i)
        return out

    assert values.translate(keys._REVERSED_7BITS) == \
        bytes(reverse_7bits(v) for v in values)


def test_long_password_fanfold():
    key = string_to_key("a" * 100)
    assert len(key) == 8 and has_odd_parity(key)


def test_tagged_key_validation():
    TaggedKey(b"\x01" * 8, KeyTag.LOGIN, "pat")
    with pytest.raises(ValueError):
        TaggedKey(b"short", KeyTag.LOGIN, "pat")


def test_tagged_key_is_frozen():
    key = TaggedKey(b"\x01" * 8, KeyTag.SESSION)
    with pytest.raises(Exception):
        key.tag = KeyTag.MASTER
