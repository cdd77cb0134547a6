"""Authenticator and ticket validation, shared by the TGS and app servers.

This is the checking the paper scrutinises: "if the time does not match
the current time within the (predetermined) clock skew limits, the
request is assumed to be fraudulent."  Everything configurable about that
sentence is a :class:`repro.kerberos.config.ProtocolConfig` knob:

* the skew window itself (E2 sweeps it);
* whether a **replay cache** of live authenticators is kept — "the
  original design of Kerberos required such caching, though this was
  never implemented";
* whether the authenticator must carry a **collision-proof checksum of
  the ticket** it accompanies, closing the REUSE-SKEY redirect
  (appendix recommendation c);
* whether the network address in the ticket is checked at all.

The validator reads time from the *verifying host's* clock, so a host
whose clock has been dragged backwards by a spoofed time service will
happily accept stale authenticators (E4).
"""

from __future__ import annotations

import hashlib
import heapq
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.crypto.checksum import ChecksumType, compute
from repro.kerberos.config import ProtocolConfig
from repro.kerberos.tickets import Authenticator, Ticket
from repro.obs.events import ClockSkewReject, Event, PolicyReject, ReplayCacheHit

__all__ = ["ValidationError", "ReplayCache", "LruReplayCache",
           "validate_authenticator", "validation_event"]


class ValidationError(RuntimeError):
    """The AP/TGS request failed a check; ``reason`` is machine-readable."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


def validation_event(service: str, client: str, error: "ValidationError") -> Event:
    """The defender-side event one :class:`ValidationError` maps to.

    The verifiers (TGS and app servers) emit this on their bus so the
    paper's detection claims become countable: replays hit the cache,
    time trouble shows up as skew rejections, everything else is policy.
    """
    detail = str(error)
    if error.reason == "replay":
        return ReplayCacheHit(service=service, client=client, detail=detail)
    if error.reason in ("authenticator-stale", "ticket-expired"):
        return ClockSkewReject(
            service=service, client=client, reason=error.reason, detail=detail
        )
    return PolicyReject(
        service=service, reason=error.reason, client=client, detail=detail
    )


_Key = Tuple[str, int, bytes]


class ReplayCache:
    """Server-side store of live authenticators.

    Keyed on (client, timestamp, fingerprint), where the validator's
    fingerprint is the 16-byte BLAKE2b digest of the sealed authenticator
    bytes: two authenticators that differ in any bit are two entries.
    The digest only names cache entries and never goes on the wire, so
    it need not be a protocol checksum.  Entries expire once older than
    the authenticator lifetime plus skew, so the cache stays bounded —
    that growth is measured by benchmark E14.

    Expiry pops a min-heap of ``(timestamp, key)`` kept beside the
    entries, so a check costs the entries it expires rather than a scan
    of every live one.  The timestamp is part of the key, so a popped
    key that is still present is exactly an entry the scan would drop.

    The UDP-retransmission problem the paper raises is real here too: a
    *legitimate* retransmission of the same request is indistinguishable
    from a replay and will be rejected; callers model retransmission by
    re-sending the same bytes (see
    :func:`repro.attacks.replay.udp_retransmission_false_alarm`).
    """

    def __init__(self) -> None:
        self._entries: Dict[_Key, int] = {}
        self._expiry: List[Tuple[int, _Key]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def check_and_store(
        self, client: str, timestamp: int, fingerprint: bytes,
        now: int, horizon: int,
    ) -> bool:
        """True if fresh (and stores it); False if it is a replay."""
        self._expire(now, horizon)
        key = (client, timestamp, fingerprint)
        if key in self._entries:
            return False
        self._store(key, timestamp)
        return True

    def _store(self, key: _Key, timestamp: int) -> None:
        self._entries[key] = timestamp
        heapq.heappush(self._expiry, (timestamp, key))
        # Keys forgotten early (LRU evictions) leave stale heap entries.
        if len(self._expiry) > 2 * len(self._entries) + 64:
            self._expiry = [(ts, k) for k, ts in self._entries.items()]
            heapq.heapify(self._expiry)

    def _expire(self, now: int, horizon: int) -> None:
        cutoff = now - horizon
        expiry = self._expiry
        while expiry and expiry[0][0] < cutoff:
            self._entries.pop(heapq.heappop(expiry)[1], None)


class LruReplayCache(ReplayCache):
    """A :class:`ReplayCache` with a hard capacity bound.

    The unbounded cache is faithful to the paper's proposal, but a KDC
    shard serving a whole site cannot let the authenticator store grow
    with traffic: time-based expiry alone leaves the cache proportional
    to *offered load within the window*, which an attacker (or a busy
    morning) controls.  This variant keeps at most *capacity* live
    entries in LRU order: a lookup refreshes an entry's recency, an
    insert over capacity evicts the least-recently-seen entry first.

    The deliberate trade-off — the one that makes the defense
    *operational* rather than perfect — is that an eviction forgets an
    authenticator before its freshness window has closed, so a replay of
    the evicted authenticator would be accepted again.  ``evictions``
    counts how often that window opened; a deployment sizes ``capacity``
    so the count stays zero at expected load (benchmark E28 measures
    both sides).
    """

    def __init__(self, capacity: int = 4096):
        super().__init__()
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._entries: "OrderedDict[_Key, int]" = OrderedDict()
        self.hits = 0        # replays caught
        self.evictions = 0   # fresh entries forgotten to stay bounded

    def check_and_store(
        self, client: str, timestamp: int, fingerprint: bytes,
        now: int, horizon: int,
    ) -> bool:
        self._expire(now, horizon)
        key = (client, timestamp, fingerprint)
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return False
        while len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._store(key, timestamp)
        return True


def validate_authenticator(
    ticket: Ticket,
    sealed_ticket: bytes,
    authenticator: Authenticator,
    authenticator_bytes: bytes,
    config: ProtocolConfig,
    now: int,
    source_address: str,
    replay_cache: Optional[ReplayCache] = None,
    expected_server: Optional[str] = None,
) -> None:
    """Run every enabled check; raise :class:`ValidationError` on failure.

    *now* is the verifier's (host-local, possibly skewed) clock reading.
    *sealed_ticket* is the encrypted wire form, needed for the
    ticket-binding checksum.  *authenticator_bytes* fingerprints the
    authenticator for the replay cache.
    """
    # 1. Ticket validity window.
    if not ticket.is_current(now, config.clock_skew):
        raise ValidationError(
            "ticket-expired",
            f"issued={ticket.issued_at} lifetime={ticket.lifetime} now={now}",
        )

    # 2. Principal consistency between ticket and authenticator.
    if authenticator.client != ticket.client:
        raise ValidationError(
            "client-mismatch",
            f"ticket={ticket.client} authenticator={authenticator.client}",
        )

    # 3. Address binding (V4 semantics; V5 may omit the address).
    if config.bind_address and ticket.address:
        if authenticator.address != ticket.address:
            raise ValidationError(
                "address-mismatch",
                f"ticket={ticket.address} authenticator={authenticator.address}",
            )
        if source_address != ticket.address:
            raise ValidationError(
                "address-mismatch",
                f"ticket={ticket.address} source={source_address}",
            )

    # 4. Authenticator freshness within the skew window.
    age = now - authenticator.timestamp
    window = config.authenticator_lifetime + config.clock_skew
    if not -config.clock_skew <= age <= window:
        raise ValidationError(
            "authenticator-stale", f"age={age} window={window}"
        )

    # 5. Replay cache, when the deployment keeps one.
    if config.replay_cache:
        if replay_cache is None:
            raise ValidationError(
                "no-replay-cache", "config demands caching but server has none"
            )
        fingerprint = hashlib.blake2b(authenticator_bytes,
                                      digest_size=16).digest()
        if not replay_cache.check_and_store(
            str(authenticator.client), authenticator.timestamp,
            fingerprint, now, window,
        ):
            raise ValidationError("replay", "authenticator already seen")

    # 6. Ticket-binding checksum (appendix rec. c): defeats swapping in a
    #    different ticket that happens to share the session key.
    if config.authenticator_ticket_checksum:
        expected = compute(ChecksumType.MD4, sealed_ticket)
        if authenticator.ticket_checksum != expected:
            raise ValidationError(
                "ticket-binding", "authenticator not bound to this ticket"
            )

    # 7. Service-name check inside the ticket (part of the same fix:
    #    "including service names in the ticket" ties it to its context).
    if expected_server is not None and str(ticket.server) != expected_server:
        raise ValidationError(
            "server-mismatch",
            f"ticket for {ticket.server}, presented to {expected_server}",
        )
