"""Credential caches and the login programs."""

import pytest

from repro import Testbed, ProtocolConfig
from repro.hardware import HandheldDevice
from repro.kerberos.ccache import CredentialCache, Credentials, parse_cache_bytes
from repro.kerberos.client import KerberosError
from repro.kerberos.login import TrojanedLoginProgram
from repro.kerberos.principal import Principal
from repro.sim.clock import SimClock
from repro.sim.host import Host, StorageKind
from repro.sim.network import Adversary, Network


def make_host():
    clock = SimClock()
    network = Network(clock, Adversary())
    return Host("h", network, clock, addresses=["10.0.0.1"])


def make_cred(server="mail.mh@A", key=b"\x01" * 8):
    return Credentials(
        server=Principal.parse(server),
        client=Principal.parse("pat@A"),
        sealed_ticket=b"sealed-bytes",
        session_key=key,
        issued_at=100,
        lifetime=5000,
    )


def test_store_lookup():
    cache = CredentialCache(make_host(), "pat", StorageKind.LOCAL_DISK)
    cred = make_cred()
    cache.store(cred)
    assert cache.lookup(cred.server) == cred
    assert cache.lookup(Principal.parse("other.x@A")) is None


def test_tgt_lookup():
    cache = CredentialCache(make_host(), "pat", StorageKind.LOCAL_DISK)
    assert cache.tgt() is None
    cache.store(make_cred())
    assert cache.tgt() is None
    tgt = make_cred(server="krbtgt.A@A")
    cache.store(tgt)
    assert cache.tgt() == tgt


def test_serialization_roundtrip_via_host_region():
    host = make_host()
    cache = CredentialCache(host, "pat", StorageKind.LOCAL_DISK)
    cache.store(make_cred())
    cache.store(make_cred(server="krbtgt.A@A", key=b"\x02" * 8))
    raw = host.read("ccache:pat", "pat")
    parsed = parse_cache_bytes(raw)
    assert len(parsed) == 2
    assert {str(c.server) for c in parsed} == {"mail.mh@A", "krbtgt.A@A"}


def test_destroy_wipes_region():
    host = make_host()
    cache = CredentialCache(host, "pat", StorageKind.LOCAL_DISK)
    cache.store(make_cred())
    cache.destroy()
    assert cache.entries() == []
    assert host.region("ccache:pat").wiped


def test_expires_at():
    assert make_cred().expires_at() == 5100


def test_login_program_creates_cache():
    bed = Testbed(ProtocolConfig.v4(), seed=1)
    bed.add_user("pat", "pw")
    ws = bed.add_workstation("ws1")
    outcome = bed.login("pat", "pw", ws)
    assert outcome.client.ccache.tgt() is not None
    assert ws.logged_in == ["pat"]


def test_failed_login_logs_the_user_out():
    """A single-user workstation stays usable after a failed login."""
    bed = Testbed(ProtocolConfig.v4(), seed=1)
    bed.add_user("pat", "pw")
    ws = bed.add_workstation("ws1")
    with pytest.raises(KerberosError):
        bed.login("pat", "wrong", ws)
    assert ws.logged_in == []
    outcome = bed.login("pat", "pw", ws)
    assert outcome.client.ccache.tgt() is not None
    assert ws.logged_in == ["pat"]


def test_trojan_records_password_transparently():
    bed = Testbed(ProtocolConfig.v4(), seed=2)
    bed.add_user("pat", "pw")
    ws = bed.add_workstation("ws1")
    trojan = TrojanedLoginProgram(
        ws, bed.config, bed.directory, bed.rng.fork("t")
    )
    outcome = trojan.login(Principal("pat", "", bed.realm.name), "pw")
    assert outcome.credentials is not None  # user suspects nothing
    assert trojan.captured_passwords == ["pw"]


def test_trojan_captures_only_onetime_value_from_handheld():
    bed = Testbed(ProtocolConfig.v4().but(handheld_login=True), seed=3)
    bed.add_user("pat", "pw")
    ws = bed.add_workstation("ws1")
    trojan = TrojanedLoginProgram(
        ws, bed.config, bed.directory, bed.rng.fork("t")
    )
    device = HandheldDevice.from_password("pw")
    outcome = trojan.login(Principal("pat", "", bed.realm.name), device)
    assert outcome.credentials is not None
    assert trojan.captured_passwords == []
    assert len(trojan.captured_responses) == 1


def test_handheld_preauth_via_device():
    config = ProtocolConfig.v4().but(handheld_login=True, preauth_required=True)
    bed = Testbed(config, seed=4)
    bed.add_user("pat", "pw")
    ws = bed.add_workstation("ws1")
    device = HandheldDevice.from_password("pw")
    outcome = bed.login("pat", device, ws)
    assert outcome.credentials.server.is_tgs
    assert device.responses_issued == 2  # preauth + reply key
