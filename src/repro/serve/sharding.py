"""Deterministic request routing for the sharded KDC service layer.

The paper's availability note — "the Kerberos server must be available
in real time for most application server interactions" — is the reason
a production KDC cannot be one process.  Scaling it out raises two
routing questions this module answers:

* **AS requests** name their client in cleartext ("requests for tickets
  are not themselves encrypted"), so they route by the client
  principal: each user's password-derived key lives on exactly one
  shard (:func:`shard_of` over the principal string).

* **TGS requests** do *not* expose the client in cleartext — the name
  is inside the sealed TGT — so they route by a fingerprint of the
  authenticator bytes instead.  That choice is load-bearing for the
  paper's replay analysis: a replayed authenticator is a byte-for-byte
  copy, so it hashes to the *same shard* and therefore hits the same
  bounded replay cache (:class:`repro.kerberos.validation.LruReplayCache`).
  Routing replays anywhere else would silently partition the dedup
  domain and re-open the replay window the cache exists to close.

CRC-32 is used as the routing hash.  It is *not* a security boundary —
an adversary who can choose authenticator bytes can choose their shard,
which only lets them pick which replay cache remembers them.  It is the
same polynomial as :mod:`repro.crypto.crc` (and ``zlib.crc32``), cheap,
and stable across runs, which is what deterministic benchmarks need.

When the primary shard is down, :func:`attempt_order` is the one
failover rule both the engine frontend and the scale model follow.
"""

from __future__ import annotations

import zlib
from typing import List, Union

__all__ = ["shard_of", "attempt_order"]


def shard_of(key: Union[str, bytes], shards: int) -> int:
    """Map *key* to a shard index in ``[0, shards)``, deterministically."""
    if shards < 1:
        raise ValueError("shard count must be at least 1")
    data = key.encode("utf-8") if isinstance(key, str) else key
    return zlib.crc32(data) % shards


def attempt_order(primary: int, shards: int, failover: bool) -> List[int]:
    """The shards one request tries, in order.

    Without *failover* the request is pinned to *primary*: an AS
    request needs the user's key, which only its home shard holds.
    With it the request walks the ring from *primary*: TGS keys are
    replicated, so any healthy shard can serve (at the cost of the
    replay-cache affinity the routing above buys).
    """
    if not failover:
        return [primary]
    return [(primary + k) % shards for k in range(shards)]
