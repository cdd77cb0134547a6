"""One-call construction of complete simulated deployments.

Every test, benchmark, and example needs the same scaffolding: a clock,
an adversarial network, a KDC host, some users with passwords, some
workstations, and a few application servers.  :class:`Testbed` builds it
deterministically from a seed and a :class:`ProtocolConfig`.

This is the package's main entry point for users::

    from repro import Testbed, ProtocolConfig

    bed = Testbed(ProtocolConfig.v4(), seed=7)
    bed.add_user("pat", "correct horse")
    mail = bed.add_mail_server("mailhost")
    ws = bed.add_workstation("ws1")
    outcome = bed.login("pat", "correct horse", ws)
    session = outcome.client.ap_exchange(
        outcome.client.get_service_ticket(mail.principal), bed.endpoint(mail)
    )
"""

from __future__ import annotations

from typing import Dict, Optional, Type

from repro.crypto.rng import DeterministicRandom
from repro.kerberos.appserver import (
    AppServer, BackupServer, EchoServer, FileServer, MailServer,
)
from repro.kerberos.config import ProtocolConfig
from repro.kerberos.database import KdcDatabase
from repro.kerberos.kdc import Kdc
from repro.kerberos.login import LoginOutcome, LoginProgram
from repro.kerberos.principal import Principal
from repro.kerberos.realm import RealmDirectory, TrustPolicy
from repro.obs.audit import AuditTrail
from repro.sim.clock import SimClock
from repro.sim.host import Host, StorageKind
from repro.sim.network import Adversary, Endpoint, Network

__all__ = ["Realm", "Testbed"]

DEFAULT_REALM = "ATHENA"


class Realm:
    """One realm's KDC plus its registered principals.

    With ``shards >= 2`` the realm's KDC is a
    :class:`repro.serve.KdcCluster` instead of a single :class:`Kdc`:
    same endpoints, same directory entry, but the principal database is
    partitioned and requests take an internal frontend->shard hop.
    ``realm.kdc`` is ``None`` in that mode; ``realm.cluster`` holds the
    service layer.
    """

    def __init__(
        self, testbed: "Testbed", name: str, kdc_address: str,
        shards: int = 0, workers_per_shard: int = 2,
        replay_cache_capacity: int = 4096,
    ):
        self.name = name
        self.testbed = testbed
        self.passwords: Dict[str, str] = {}
        if shards >= 2:
            from repro.serve import KdcCluster

            self.cluster: Optional[KdcCluster] = KdcCluster(
                network=testbed.network, clock=testbed.clock,
                config=testbed.config,
                rng=testbed.rng.fork(f"kdc:{name}"),
                realm=name, directory=testbed.directory,
                frontend_address=kdc_address,
                shard_addresses=[
                    testbed._next_address() for _ in range(shards)
                ],
                workers_per_shard=workers_per_shard,
                replay_capacity=replay_cache_capacity,
            )
            self.database = self.cluster.database
            self.kdc_host = self.cluster.frontend_host
            self.kdc = None
            return
        self.cluster = None
        self.database = KdcDatabase(name, testbed.rng.fork(f"db:{name}"))
        self.kdc_host = Host(
            f"kdc-{name.lower()}", testbed.network, testbed.clock,
            addresses=[kdc_address], multi_user=True,
        )
        self.kdc = Kdc(
            name, self.database, self.kdc_host, testbed.config,
            testbed.rng.fork(f"kdc:{name}"), directory=testbed.directory,
        )

    def add_user(self, name: str, password: str) -> Principal:
        self.passwords[name] = password
        return self.database.add_user(name, password)

    def link(self, other: "Realm") -> None:
        """Establish shared inter-realm keys with *other* (both ways).

        Convention: the TGT realm A issues toward realm B is for principal
        ``krbtgt.B@A``, whose key A and B share.
        """
        toward_other = Principal("krbtgt", other.name, self.name)
        key = self.testbed.rng.random_key()
        self.database.set_key(toward_other, key)
        other.database.set_key(toward_other, key)

        toward_self = Principal("krbtgt", self.name, other.name)
        key_back = self.testbed.rng.random_key()
        other.database.set_key(toward_self, key_back)
        self.database.set_key(toward_self, key_back)


class Testbed:
    """A complete deterministic deployment."""

    __test__ = False  # not a pytest collection target, despite the name

    def __init__(
        self,
        config: Optional[ProtocolConfig] = None,
        seed: int = 0,
        realm: str = DEFAULT_REALM,
        max_wire_log: Optional[int] = None,
        shards: int = 0,
        workers_per_shard: int = 2,
        replay_cache_capacity: int = 4096,
    ):
        self.config = config if config is not None else ProtocolConfig.v4()
        self.rng = DeterministicRandom(seed)
        self.clock = SimClock(start=1_000_000_000)  # an arbitrary epoch
        self.adversary = Adversary(max_log=max_wire_log)
        self.network = Network(self.clock, self.adversary)
        self.bus = self.network.bus
        self.directory = RealmDirectory()
        self._host_counter = 0
        # shards == 0 (default): classic single-process KDC per realm.
        # shards >= 2: every realm added to this bed is a KdcCluster.
        self._shards = shards
        self._workers_per_shard = workers_per_shard
        self._replay_cache_capacity = replay_cache_capacity
        self.realms: Dict[str, Realm] = {}
        self.servers: Dict[str, AppServer] = {}
        self.realm = self.add_realm(realm)

    # -- topology -----------------------------------------------------------

    def add_realm(self, name: str) -> Realm:
        realm = Realm(
            self, name, self._next_address(),
            shards=self._shards,
            workers_per_shard=self._workers_per_shard,
            replay_cache_capacity=self._replay_cache_capacity,
        )
        self.realms[name] = realm
        return realm

    def add_workstation(
        self, name: str, diskless: bool = False,
        pages_shared_memory: bool = False, clock_offset: int = 0,
    ) -> Host:
        return Host(
            name, self.network, self.clock,
            addresses=[self._next_address()],
            multi_user=False, diskless=diskless,
            pages_shared_memory=pages_shared_memory,
            clock_offset=clock_offset,
        )

    def add_multiuser_host(
        self, name: str, clock_offset: int = 0, extra_addresses: int = 0
    ) -> Host:
        addresses = [self._next_address() for _ in range(1 + extra_addresses)]
        return Host(
            name, self.network, self.clock, addresses=addresses,
            multi_user=True, clock_offset=clock_offset,
        )

    # -- principals -----------------------------------------------------------

    def add_user(self, name: str, password: str, realm: Optional[str] = None) -> Principal:
        return self._realm_of(realm).add_user(name, password)

    def password_of(self, name: str, realm: Optional[str] = None) -> str:
        return self._realm_of(realm).passwords[name]

    # -- application servers -----------------------------------------------------

    def add_server(
        self,
        server_class: Type[AppServer],
        service: str,
        hostname: str,
        realm: Optional[str] = None,
        trust_policy: Optional[TrustPolicy] = None,
        config: Optional[ProtocolConfig] = None,
        **server_kwargs,
    ) -> AppServer:
        realm_obj = self._realm_of(realm)
        principal = realm_obj.database.add_service(service, hostname)
        host = self.add_multiuser_host(hostname)
        server = server_class(
            principal,
            realm_obj.database.key_of(principal),
            host,
            config if config is not None else self.config,
            self.rng.fork(f"server:{principal}"),
            trust_policy=trust_policy,
            **server_kwargs,
        )
        self.servers[str(principal)] = server
        return server

    def add_mail_server(self, hostname: str, **kwargs) -> MailServer:
        return self.add_server(MailServer, "mail", hostname, **kwargs)

    def add_file_server(self, hostname: str, **kwargs) -> FileServer:
        return self.add_server(FileServer, "file", hostname, **kwargs)

    def add_backup_server(self, hostname: str, **kwargs) -> BackupServer:
        return self.add_server(BackupServer, "backup", hostname, **kwargs)

    def add_echo_server(self, hostname: str, **kwargs) -> EchoServer:
        return self.add_server(EchoServer, "echo", hostname, **kwargs)

    # -- user actions ---------------------------------------------------------

    def login(
        self,
        user: str,
        typed_input,
        host: Host,
        realm: Optional[str] = None,
        cache_kind: StorageKind = StorageKind.LOCAL_DISK,
        forwardable: bool = False,
        config: Optional[ProtocolConfig] = None,
        retry_policy=None,
    ) -> LoginOutcome:
        realm_obj = self._realm_of(realm)
        program = LoginProgram(
            host, config if config is not None else self.config,
            self.directory, self.rng.fork(f"login:{user}:{host.name}"),
            cache_kind=cache_kind, retry_policy=retry_policy,
        )
        principal = Principal(user, "", realm_obj.name)
        return program.login(principal, typed_input, forwardable=forwardable)

    # -- helpers ----------------------------------------------------------------

    def endpoint(self, server: AppServer) -> Endpoint:
        return Endpoint(server.host.address, server.principal.name)

    def attach_audit(self) -> AuditTrail:
        """Start recording defender-side telemetry for this deployment.

        Returns the :class:`repro.obs.audit.AuditTrail` (events, metrics,
        spans, wire-log correlation).  Until this is called the event
        bus has no sinks and instrumentation is a no-op.
        """
        return AuditTrail(self.bus)

    def advance_minutes(self, minutes: float) -> None:
        self.clock.advance_minutes(minutes)

    def _realm_of(self, name: Optional[str]) -> Realm:
        return self.realms[name] if name else self.realm

    def _next_address(self) -> str:
        self._host_counter += 1
        return f"10.0.{self._host_counter // 256}.{self._host_counter % 256}"
