"""Each authenticator/ticket check, exercised individually."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.checksum import ChecksumType, compute
from repro.kerberos.config import ProtocolConfig
from repro.kerberos.principal import Principal
from repro.kerberos.tickets import Authenticator, Ticket
from repro.kerberos.validation import (
    LruReplayCache, ReplayCache, ValidationError, validate_authenticator,
)
from repro.sim.clock import MINUTE

NOW = 100 * MINUTE
CONFIG = ProtocolConfig.v4()
CLIENT = Principal("pat", "", "ATHENA")
SERVER = Principal.service("mail", "mh", "ATHENA")


def make_pair(ts=NOW, addr="10.0.0.5", client=CLIENT, **ticket_overrides):
    fields = dict(
        server=SERVER, client=CLIENT, address="10.0.0.5",
        issued_at=NOW - 10 * MINUTE, lifetime=480 * MINUTE,
        session_key=b"\x01" * 8,
    )
    fields.update(ticket_overrides)
    ticket = Ticket(**fields)
    authenticator = Authenticator(client=client, address=addr, timestamp=ts)
    return ticket, authenticator


def validate(ticket, authenticator, config=CONFIG, now=NOW,
             source="10.0.0.5", cache=None, expected_server=None,
             sealed=b"sealed-ticket", auth_bytes=b"auth-bytes"):
    validate_authenticator(
        ticket, sealed, authenticator, auth_bytes, config, now, source,
        replay_cache=cache, expected_server=expected_server,
    )


def test_valid_pair_passes():
    ticket, authenticator = make_pair()
    validate(ticket, authenticator)


def test_expired_ticket():
    ticket, authenticator = make_pair(issued_at=0, lifetime=MINUTE)
    with pytest.raises(ValidationError) as excinfo:
        validate(ticket, authenticator)
    assert excinfo.value.reason == "ticket-expired"


def test_client_mismatch():
    ticket, authenticator = make_pair(client=Principal("mallory", "", "ATHENA"))
    with pytest.raises(ValidationError) as excinfo:
        validate(ticket, authenticator)
    assert excinfo.value.reason == "client-mismatch"


def test_address_mismatch_in_authenticator():
    ticket, authenticator = make_pair(addr="10.6.6.6")
    with pytest.raises(ValidationError) as excinfo:
        validate(ticket, authenticator)
    assert excinfo.value.reason == "address-mismatch"


def test_source_address_mismatch():
    ticket, authenticator = make_pair()
    with pytest.raises(ValidationError) as excinfo:
        validate(ticket, authenticator, source="10.6.6.6")
    assert excinfo.value.reason == "address-mismatch"


def test_address_not_checked_when_unbound():
    config = CONFIG.but(bind_address=False)
    ticket, authenticator = make_pair(addr="10.6.6.6")
    validate(ticket, authenticator, config=config, source="10.7.7.7")


def test_addressless_ticket_usable_anywhere():
    """V5 address omission: an empty ticket address disables the check."""
    ticket, authenticator = make_pair(addr="10.6.6.6")
    ticket = Ticket(
        server=ticket.server, client=ticket.client, address="",
        issued_at=ticket.issued_at, lifetime=ticket.lifetime,
        session_key=ticket.session_key,
    )
    validate(ticket, authenticator, source="10.7.7.7")


def test_stale_authenticator():
    ticket, authenticator = make_pair(ts=NOW - 20 * MINUTE)
    with pytest.raises(ValidationError) as excinfo:
        validate(ticket, authenticator)
    assert excinfo.value.reason == "authenticator-stale"


def test_future_authenticator_within_skew_ok():
    ticket, authenticator = make_pair(ts=NOW + 2 * MINUTE)
    validate(ticket, authenticator)


def test_far_future_authenticator_rejected():
    ticket, authenticator = make_pair(ts=NOW + 20 * MINUTE)
    with pytest.raises(ValidationError):
        validate(ticket, authenticator)


def test_replay_cache_blocks_second_use():
    config = CONFIG.but(replay_cache=True)
    cache = ReplayCache()
    ticket, authenticator = make_pair()
    validate(ticket, authenticator, config=config, cache=cache)
    with pytest.raises(ValidationError) as excinfo:
        validate(ticket, authenticator, config=config, cache=cache)
    assert excinfo.value.reason == "replay"


def test_replay_cache_required_when_configured():
    config = CONFIG.but(replay_cache=True)
    ticket, authenticator = make_pair()
    with pytest.raises(ValidationError) as excinfo:
        validate(ticket, authenticator, config=config, cache=None)
    assert excinfo.value.reason == "no-replay-cache"


def test_replay_cache_expires_entries():
    cache = ReplayCache()
    horizon = 10 * MINUTE
    assert cache.check_and_store("c", NOW, b"f", NOW, horizon)
    assert len(cache) == 1
    cache.check_and_store("c", NOW + 20 * MINUTE, b"g", NOW + 20 * MINUTE, horizon)
    assert len(cache) == 1  # the old entry aged out


class ScanningReplayCache:
    """The reference: expire by scanning every live entry on each check;
    with a capacity, keep LRU order and evict as :class:`LruReplayCache`."""

    def __init__(self, capacity=None):
        self.capacity = capacity
        self.entries = OrderedDict()
        self.hits = 0
        self.evictions = 0

    def check_and_store(self, client, timestamp, fingerprint, now, horizon):
        for key in [k for k, ts in self.entries.items() if ts < now - horizon]:
            del self.entries[key]
        key = (client, timestamp, fingerprint)
        if key in self.entries:
            if self.capacity is not None:
                self.entries.move_to_end(key)
            self.hits += 1
            return False
        self.entries[key] = timestamp
        while self.capacity is not None and len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
            self.evictions += 1
        return True


# Checks draw from a few (client, timestamp, fingerprint) keys, so they
# repeat; now drifts forward with the odd step back, so timestamps land
# on either side of it and out of order.
KEYS = st.lists(
    st.tuples(st.sampled_from("ab"), st.integers(0, 40), st.sampled_from([b"f", b"g"])),
    min_size=1, max_size=8,
)
CHECKS = st.lists(st.tuples(st.integers(-2, 5), st.integers(0, 7)), min_size=10, max_size=120)


@pytest.mark.parametrize("capacity", [None, 1, 3, 8])
@given(keys=KEYS, checks=CHECKS, horizon=st.sampled_from([5, 20]))
@settings(max_examples=150, deadline=None)
def test_heap_expiry_matches_scanning_reference(capacity, keys, checks, horizon):
    cache = ReplayCache() if capacity is None else LruReplayCache(capacity)
    reference = ScanningReplayCache(capacity)
    now = 0
    for step, index in checks:
        now += step
        args = (*keys[index % len(keys)], now, horizon)
        assert cache.check_and_store(*args) == reference.check_and_store(*args)
        assert len(cache) == len(reference.entries)
        assert list(cache._entries) == list(reference.entries)
    if capacity is not None:
        assert (cache.hits, cache.evictions) == (reference.hits, reference.evictions)


def test_expiry_heap_bounded_under_lru_evictions():
    cache = LruReplayCache(capacity=16)
    for i in range(10_000 + 16):
        assert cache.check_and_store("c", i, b"f", i, 10**9)
        assert len(cache._expiry) <= 2 * len(cache) + 64
        # Every live entry keeps a heap entry, so it will still expire.
        assert set(cache._entries) <= {key for _, key in cache._expiry}
    assert cache.evictions == 10_000


def test_ticket_binding_checksum():
    config = CONFIG.but(authenticator_ticket_checksum=True)
    sealed = b"the-sealed-ticket-bytes"
    ticket, _ = make_pair()
    bound = Authenticator(
        client=CLIENT, address="10.0.0.5", timestamp=NOW,
        ticket_checksum=compute(ChecksumType.MD4, sealed),
    )
    validate(ticket, bound, config=config, sealed=sealed)
    with pytest.raises(ValidationError) as excinfo:
        validate(ticket, bound, config=config, sealed=b"a different ticket")
    assert excinfo.value.reason == "ticket-binding"


def test_expected_server_check():
    ticket, authenticator = make_pair()
    validate(ticket, authenticator, expected_server=str(SERVER))
    with pytest.raises(ValidationError) as excinfo:
        validate(ticket, authenticator, expected_server="backup.bh@ATHENA")
    assert excinfo.value.reason == "server-mismatch"
