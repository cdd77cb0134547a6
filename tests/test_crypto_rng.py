"""Deterministic randomness invariants."""

import random

from repro.crypto.des import has_odd_parity, is_weak_key
from repro.crypto.rng import DeterministicRandom


def test_same_seed_same_stream():
    a = DeterministicRandom(7)
    b = DeterministicRandom(7)
    assert a.random_bytes(32) == b.random_bytes(32)
    assert a.random_uint32() == b.random_uint32()


def test_different_seeds_differ():
    assert DeterministicRandom(1).random_bytes(16) != \
        DeterministicRandom(2).random_bytes(16)


def test_random_key_well_formed():
    rng = DeterministicRandom(3)
    for _ in range(20):
        key = rng.random_key()
        assert len(key) == 8
        assert has_odd_parity(key)
        assert not is_weak_key(key)


def test_fork_streams_are_independent():
    base = DeterministicRandom(5)
    child_a = base.fork("kdc")
    # Drawing from child_a must not change what a later fork with the
    # same parent state would produce from ITS stream identity.
    a_bytes = child_a.random_bytes(8)
    more = child_a.random_bytes(8)
    assert a_bytes != more  # streams advance


def test_fork_is_deterministic():
    a = DeterministicRandom(9).fork("label")
    b = DeterministicRandom(9).fork("label")
    assert a.random_bytes(8) == b.random_bytes(8)


def test_randint_bounds():
    rng = DeterministicRandom(11)
    for _ in range(100):
        value = rng.randint(3, 5)
        assert 3 <= value <= 5


def test_choice_and_shuffle():
    rng = DeterministicRandom(13)
    items = [1, 2, 3, 4]
    assert rng.choice(items) in items
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items


def test_random_bytes_is_one_getrandbits8_per_byte():
    # random_bytes draws all its bytes in one getrandbits call; the
    # stream must stay the per-byte getrandbits(8) one, interleaved
    # with the other draws exactly as before.
    for seed in range(5):
        rng = DeterministicRandom(seed)
        reference = random.Random(seed)
        for n in range(65):
            expected = bytes(reference.getrandbits(8) for _ in range(n))
            assert rng.random_bytes(n) == expected
            assert rng.random_uint32() == reference.getrandbits(32)
            assert rng.randint(0, n) == reference.randint(0, n)
        assert rng.random_bytes(-3) == b""
        assert rng.random_uint32() == reference.getrandbits(32)
