"""The sharded KDC service layer: routing, partitioning, degradation.

Pins the acceptance properties of ``repro.serve``: clients are
oblivious to sharding, user keys are partitioned while TGS/service
keys replicate, a byte-identical replayed authenticator routes back to
the shard whose bounded LRU cache remembers it (even with many clients
in flight), and a downed shard degrades honestly — framed
``ERR_UNAVAILABLE`` for AS traffic, failover (with its documented
replay-window cost) for TGS traffic.
"""

import pytest

from repro import Testbed, ProtocolConfig
from repro.kerberos.client import KerberosError
from repro.kerberos.messages import (
    ERR_REPLAY, ERR_UNAVAILABLE, decode_error, unframe,
)
from repro.kerberos.principal import Principal
from repro.kerberos.validation import LruReplayCache
from repro.obs.bus import capture
from repro.serve import ClusterDatabase, attempt_order, shard_of
from repro.sim.network import Endpoint

REPLAY_CONFIG = ProtocolConfig.v5_draft3().but(replay_cache=True)


def make_bed(shards=2, seed=7, config=None, **kwargs):
    bed = Testbed(config or REPLAY_CONFIG, seed=seed, shards=shards, **kwargs)
    bed.add_user("pat", "correct horse")
    bed.add_user("alice", "wonderland")
    bed.add_mail_server("mailhost")
    return bed


def fresh_session(bed, user, password, name):
    ws = bed.add_workstation(name)
    outcome = bed.login(user, password, ws)
    mail = bed.servers["mail.mailhost@" + bed.realm.name]
    cred = outcome.client.get_service_ticket(mail.principal)
    return outcome.client.ap_exchange(cred, bed.endpoint(mail))


# -- transparency -------------------------------------------------------


@pytest.mark.parametrize("shards", [2, 3, 5])
def test_full_flow_is_shard_oblivious(shards):
    bed = make_bed(shards=shards)
    session = fresh_session(bed, "pat", "correct horse", "ws1")
    assert session.call(b"SEND x hello") == b"OK stored"
    cluster = bed.realm.cluster
    assert cluster.requests["kerberos"] >= 1
    assert cluster.requests["tgs"] >= 1
    assert bed.realm.kdc is None


def test_directory_points_at_frontend_not_shards():
    bed = make_bed(shards=3)
    cluster = bed.realm.cluster
    registered = bed.directory.kdc_address(bed.realm.name)
    assert registered == cluster.frontend_host.address
    assert registered not in [s.host.address for s in cluster.shards]


def test_cluster_internal_hops_are_on_the_wire():
    """The frontend->shard hop crosses the same adversary-tapped fabric."""
    bed = make_bed(shards=2)
    fresh_session(bed, "pat", "correct horse", "ws1")
    cluster = bed.realm.cluster
    internal = [m for m in bed.adversary.recorded(direction="request")
                if m.src_address == cluster.frontend_host.address]
    assert internal, "shard dispatch must be visible to the wiretap"


# -- partitioning -------------------------------------------------------


def test_user_keys_partitioned_service_keys_replicated():
    bed = make_bed(shards=3)
    db = bed.realm.database
    assert isinstance(db, ClusterDatabase)
    pat = Principal("pat", "", bed.realm.name)
    holders = [shard.knows(pat) for shard in db.shards]
    assert holders.count(True) == 1
    assert holders[db.home_shard(pat)]

    mail = Principal.service("mail", "mailhost", bed.realm.name)
    krbtgt = Principal.tgs(bed.realm.name)
    for shard in db.shards:
        assert shard.knows(mail)
        assert shard.knows(krbtgt)
        assert shard.key_of(krbtgt) == db.shards[0].key_of(krbtgt)


def test_cluster_database_interface_matches_single_kdc():
    bed = make_bed(shards=2)
    db = bed.realm.database
    pat = Principal("pat", "", bed.realm.name)
    assert db.knows(pat)
    assert pat in db.users()
    assert pat in db.principals()
    assert db.key_of(pat) == dict(db.entries())[pat]
    db.set_key(pat, b"\x01" * 8)
    assert db.key_of(pat) == b"\x01" * 8


def test_shard_of_is_deterministic_and_in_range():
    for n in (1, 2, 3, 7):
        for key in ("pat@ATHENA", b"\x00\xffbytes", "alice@B"):
            assert shard_of(key, n) == shard_of(key, n)
            assert 0 <= shard_of(key, n) < n
    with pytest.raises(ValueError):
        shard_of("x", 0)


def test_attempt_order_pins_as_and_walks_the_ring_for_tgs():
    # AS: the user's key lives only on its home shard, so no failover.
    assert attempt_order(2, 4, failover=False) == [2]
    # TGS: keys are replicated; walk the ring starting at the primary.
    assert attempt_order(2, 4, failover=True) == [2, 3, 0, 1]
    assert attempt_order(0, 3, failover=True) == [0, 1, 2]
    for shards in (2, 3, 5):
        for primary in range(shards):
            order = attempt_order(primary, shards, failover=True)
            assert order[0] == primary
            assert sorted(order) == list(range(shards))


# -- replay affinity ----------------------------------------------------


def test_replayed_authenticator_rejected_under_concurrent_load():
    """The acceptance pin: with many clients in flight, every recorded
    TGS request, replayed byte-identically, routes to the shard that
    served the original and is rejected by *its* bounded cache."""
    bed = make_bed(shards=3)
    for i in range(8):
        bed.add_user(f"user{i}", f"pw{i}")
    for i in range(8):
        fresh_session(bed, f"user{i}", f"pw{i}", f"ws{i}")

    cluster = bed.realm.cluster
    frontend = cluster.frontend_host.address
    originals = [m for m in bed.adversary.recorded(service="tgs",
                                                   direction="request")
                 if m.dst.address == frontend]
    assert len(originals) == 8
    hits_before = sum(s.replay_cache.hits for s in cluster.shards)
    for message in originals:
        reply = bed.network.inject(
            "10.66.6.6", Endpoint(frontend, "tgs"), message.payload
        )
        is_error, body = unframe(bed.config, reply)
        assert is_error
        assert decode_error(bed.config, body)["code"] == ERR_REPLAY
    assert sum(s.replay_cache.hits for s in cluster.shards) \
        == hits_before + len(originals)


def test_replay_routes_to_original_shard():
    bed = make_bed(shards=4)
    fresh_session(bed, "pat", "correct horse", "ws1")
    cluster = bed.realm.cluster
    frontend = cluster.frontend_host.address
    original = [m for m in bed.adversary.recorded(service="tgs",
                                                  direction="request")
                if m.dst.address == frontend][0]
    expected = cluster.route("tgs", original.payload)
    served_by = [s.index for s in cluster.shards if s.served["tgs"]]
    assert served_by == [expected]
    bed.network.inject("10.66.6.6", Endpoint(frontend, "tgs"),
                       original.payload)
    assert cluster.shards[expected].replay_cache.hits == 1


# -- degradation --------------------------------------------------------


def test_as_request_for_downed_shard_gets_unavailable():
    bed = make_bed(shards=2)
    cluster = bed.realm.cluster
    pat = Principal("pat", "", bed.realm.name)
    home = cluster.shard_for_principal(pat)
    bed.network.fail_host(home.host.address)
    ws = bed.add_workstation("ws1")
    with pytest.raises(KerberosError) as err:
        bed.login("pat", "correct horse", ws)
    assert err.value.code == ERR_UNAVAILABLE
    assert cluster.unavailable == 1


def test_other_shards_keep_serving_while_one_is_down():
    bed = make_bed(shards=2)
    cluster = bed.realm.cluster
    pat = Principal("pat", "", bed.realm.name)
    # Find a user whose home shard differs from pat's.
    other = next(
        name for name in ("alice", "bob", "carol", "dave", "erin")
        if cluster.database.home_shard(Principal(name, "", bed.realm.name))
        != cluster.database.home_shard(pat)
    )
    bed.add_user(other, "hunter2")
    bed.network.fail_host(cluster.shard_for_principal(pat).host.address)
    outcome = bed.login(other, "hunter2", bed.add_workstation("ws1"))
    assert outcome.credentials.server.is_tgs


def test_recovery_after_restore():
    bed = make_bed(shards=2)
    cluster = bed.realm.cluster
    home = cluster.shard_for_principal(Principal("pat", "", bed.realm.name))
    bed.network.fail_host(home.host.address)
    with pytest.raises(KerberosError):
        bed.login("pat", "correct horse", bed.add_workstation("ws1"))
    bed.network.restore_host(home.host.address)
    session = fresh_session(bed, "pat", "correct horse", "ws2")
    assert session.call(b"COUNT") == b"0"


def test_tgs_fails_over_to_healthy_replica():
    bed = make_bed(shards=3)
    cluster = bed.realm.cluster
    mail = bed.servers["mail.mailhost@" + bed.realm.name]
    served = 0
    for i in range(6):
        outcome = bed.login("pat", "correct horse",
                            bed.add_workstation(f"ws{i}"))
        for shard in cluster.shards[1:]:
            bed.network.fail_host(shard.host.address)
        outcome.client.get_service_ticket(mail.principal)
        served += 1
        for shard in cluster.shards[1:]:
            bed.network.restore_host(shard.host.address)
    assert served == 6
    # With 2 of 3 shards down, roughly 2/3 of fingerprints route away
    # from shard 0 and must fail over; seed 7 gives a nonzero count.
    assert cluster.failovers > 0
    assert cluster.shards[0].failover_serves == cluster.failovers


def test_failover_breaks_replay_affinity_honestly():
    """The documented trade-off: a replay arriving while its home shard
    is down is served by a replica whose cache never saw the original."""
    bed = make_bed(shards=2)
    fresh_session(bed, "pat", "correct horse", "ws1")
    cluster = bed.realm.cluster
    frontend = cluster.frontend_host.address
    original = [m for m in bed.adversary.recorded(service="tgs",
                                                  direction="request")
                if m.dst.address == frontend][0]
    home = cluster.route("tgs", original.payload)
    bed.network.fail_host(cluster.shards[home].host.address)
    reply = bed.network.inject("10.66.6.6", Endpoint(frontend, "tgs"),
                               original.payload)
    is_error, _ = unframe(bed.config, reply)
    assert not is_error, "replica accepted the replay: affinity was broken"
    assert cluster.failovers == 1


def test_shard_unavailable_events_emitted():
    with capture() as cap:
        bed = make_bed(shards=2)
        cluster = bed.realm.cluster
        home = cluster.shard_for_principal(
            Principal("pat", "", bed.realm.name)
        )
        bed.network.fail_host(home.host.address)
        with pytest.raises(KerberosError):
            bed.login("pat", "correct horse", bed.add_workstation("ws1"))
    events = [e for e in cap.events if e.kind == "ShardUnavailable"]
    assert events and events[0].shard == home.index
    assert events[0].address == home.host.address


# -- bounded replay cache ----------------------------------------------


def test_lru_cache_bounds_and_counts():
    cache = LruReplayCache(capacity=2)
    now, horizon = 1_000_000, 10_000_000
    assert cache.check_and_store("a", 1, b"f1", now, horizon)
    assert cache.check_and_store("b", 2, b"f2", now, horizon)
    assert not cache.check_and_store("a", 1, b"f1", now, horizon)
    assert cache.hits == 1
    # Third insert evicts the least recently seen ("b": "a" was
    # refreshed by the replay lookup above).
    assert cache.check_and_store("c", 3, b"f3", now, horizon)
    assert cache.evictions == 1
    assert len(cache) == 2
    # The evicted authenticator is forgotten: its replay is accepted.
    assert cache.check_and_store("b", 2, b"f2", now, horizon)


def test_lru_cache_rejects_bad_capacity():
    with pytest.raises(ValueError):
        LruReplayCache(capacity=0)


def test_per_shard_caches_are_independent():
    bed = make_bed(shards=3, replay_cache_capacity=16)
    caches = {id(s.replay_cache) for s in bed.realm.cluster.shards}
    assert len(caches) == 3
    for shard in bed.realm.cluster.shards:
        assert shard.replay_cache.capacity == 16
