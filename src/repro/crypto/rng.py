"""Deterministic randomness for reproducible simulations.

Every random choice in the simulation — session keys, confounders,
nonces, password populations, network jitter — flows through a
:class:`DeterministicRandom` seeded at scenario start, so that every test,
example, and benchmark run is exactly repeatable.

The paper notes that "user workstations are not particularly good sources
of random keys" and proposes a network random-number service; the
:mod:`repro.hardware.random_service` module models that service on top of
this generator.
"""

from __future__ import annotations

import random
import zlib
from typing import List, Sequence, TypeVar

from repro.crypto.des import is_weak_key, set_odd_parity

__all__ = ["DeterministicRandom"]

T = TypeVar("T")


class DeterministicRandom:
    """A seeded random source with crypto-shaped convenience methods."""

    def __init__(self, seed: int = 0) -> None:
        self._random = random.Random(seed)

    def random_bytes(self, length: int) -> bytes:
        """*length* bytes, each the top byte of one 32-bit Mersenne
        Twister word: the stream ``getrandbits(8)`` per byte gives.

        One ``getrandbits(32 * length)`` call draws the same words, the
        first in the lowest 32 bits, so byte ``4*i + 3`` of its
        little-endian form is word ``i``'s top byte.
        """
        if length <= 0:
            return b""
        words = self._random.getrandbits(32 * length)
        return words.to_bytes(4 * length, "little")[3::4]

    def random_key(self) -> bytes:
        """An 8-byte DES key with odd parity, never weak or semi-weak."""
        while True:
            key = set_odd_parity(self.random_bytes(8))
            if not is_weak_key(key):
                return key

    def random_uint32(self) -> int:
        return self._random.getrandbits(32)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high], inclusive."""
        return self._random.randint(low, high)

    def choice(self, items: Sequence[T]) -> T:
        return self._random.choice(items)

    def shuffle(self, items: List[T]) -> None:
        self._random.shuffle(items)

    def random(self) -> float:
        return self._random.random()

    def fork(self, label: str) -> "DeterministicRandom":
        """Derive an independent stream named by *label*.

        Lets subsystems (KDC, adversary, workload generator) draw from
        separate streams so adding draws in one does not perturb another.
        The label is mixed in with CRC-32 rather than :func:`hash` —
        Python randomizes string hashing per process, which would make
        "same seed, same report" hold only within a single interpreter.
        """
        seed = self._random.getrandbits(64) ^ zlib.crc32(label.encode("utf-8"))
        return DeterministicRandom(seed)
