"""A sharded, fault-injectable KDC service layer over the existing engine.

The paper's replicated-server remark — Kerberos sites ran *slave* KDCs
because "the Kerberos server must be available in real time" — is the
seed of this module.  :class:`KdcCluster` scales one realm's KDC out to
N shards without touching the protocol engine: each shard is a complete
:class:`repro.kerberos.kdc.Kdc` with its own host, its own slice of the
principal database, and its own bounded
:class:`repro.kerberos.validation.LruReplayCache`.  A thin frontend
routes each request to a shard over the same adversary-tapped network
fabric everything else uses.

Partitioning (:class:`ClusterDatabase`):

* **User keys are partitioned** — each password-derived key lives on
  exactly one shard (home shard = CRC-32 of the principal string).
  This is the scale-out win, and the availability cost the load harness
  measures: while a shard is down, *its* users cannot authenticate.
* **Service, TGS, and inter-realm keys are replicated** to every shard.
  A TGS request can then be served anywhere, which is what makes
  failover possible at all.

Routing (:mod:`repro.serve.sharding`): AS requests by client principal
(the key only its home shard holds), TGS requests by a fingerprint of
the authenticator bytes — so an exact replay lands on the shard whose
replay cache remembers the original.

Degradation: a downed shard (``Network.fail_host``) makes the
frontend's internal hop raise :class:`repro.sim.network.NetworkError`.
For AS requests there is no replica holding the user's key, so the
client gets a framed ``ERR_UNAVAILABLE`` and is expected to retry with
backoff (:class:`repro.kerberos.client.RetryPolicy`).  For TGS requests
the frontend *fails over* to the next healthy shard
(:func:`repro.serve.sharding.attempt_order`) — correct for
issuance (TGS keys are replicated) but deliberately honest about the
cost: the replayed-authenticator dedup domain shifts with the route, so
during a failover window a replay can land on a cache that never saw
the original.  The ``failovers`` counter and the emitted
:class:`repro.obs.events.ShardUnavailable` events keep that trade-off
visible to the defender.

Tracing: when a :class:`repro.obs.trace.Tracer` is attached to the
network's bus, every request the frontend dispatches becomes one causal
span chain — ``frontend/<service>`` → ``shard<i>/<service>`` →
``worker/<service>`` → (TGS only) ``replay-cache/check`` — with exact
virtual-time stamps, so ``python -m repro monitor`` can attribute a
slow exchange to queue wait vs crypto vs dispatch overhead.  With no
tracer attached the only cost is one attribute read per request.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.crypto.des import BLOCK_OPS, get_schedule
from repro.crypto.keys import string_to_key
from repro.crypto.rng import DeterministicRandom
from repro.kerberos.config import ProtocolConfig
from repro.kerberos.database import KdcDatabase
from repro.kerberos.kdc import AS_SERVICE, TGS_SERVICE, Kdc
from repro.kerberos.messages import (
    AS_REQ, ERR_UNAVAILABLE, TGS_REQ, frame_error,
)
from repro.kerberos.principal import Principal
from repro.kerberos.realm import RealmDirectory
from repro.kerberos.validation import LruReplayCache
from repro.obs.bus import EventBus
from repro.obs.events import ShardUnavailable
from repro.serve.pool import WorkerPool
from repro.serve.sharding import attempt_order, shard_of
from repro.sim.clock import SimClock
from repro.sim.host import Host
from repro.sim.network import Endpoint, Network, NetworkError, WireMessage

__all__ = [
    "ClusterDatabase", "Shard", "ShardServer", "KdcCluster",
    "TracedReplayCache",
]


class TracedReplayCache(LruReplayCache):
    """An :class:`LruReplayCache` whose checks appear in traces.

    Lives here (not in :mod:`repro.obs`) so the observability layer
    never imports protocol code.  When the owning network's bus has a
    tracer attached, each ``check_and_store`` runs inside a
    ``replay-cache/check`` span — nested under the worker span of the
    exchange being served, since the simulation is synchronous — carrying
    the verdict and the cache's occupancy at that instant.  Untraced,
    the overhead is one attribute read.
    """

    def __init__(self, capacity: int, bus: EventBus) -> None:
        super().__init__(capacity)
        self._bus = bus

    def check_and_store(
        self, client: str, timestamp: int, fingerprint: bytes,
        now: int, horizon: int,
    ) -> bool:
        tracer = self._bus.tracer
        if tracer is None:
            return super().check_and_store(
                client, timestamp, fingerprint, now, horizon
            )
        with tracer.span("replay-cache/check", client=client) as span:
            fresh = super().check_and_store(
                client, timestamp, fingerprint, now, horizon
            )
            span.attrs.update(
                fresh=fresh, entries=len(self), evictions=self.evictions,
            )
        return fresh


class ClusterDatabase:
    """The :class:`KdcDatabase` interface over N per-shard databases.

    User keys are partitioned to their home shard; everything a TGS
    exchange can need (service keys, the realm's own ``krbtgt`` key,
    inter-realm keys) is replicated to all shards.  Replicated keys are
    the cluster's hot set, so their DES schedules are derived at install
    time through :func:`repro.crypto.des.get_schedule` — by the time
    traffic arrives, every shard serves them from the schedule cache.
    """

    def __init__(self, realm: str, rng: DeterministicRandom,
                 shard_count: int) -> None:
        if shard_count < 1:
            raise ValueError("a cluster needs at least one shard")
        self.realm = realm
        self.shard_count = shard_count
        # Keys come from the cluster's own stream so provisioning is
        # deterministic regardless of which shard they land on.
        self._rng = rng.fork("cluster-keys")
        self.shards: List[KdcDatabase] = [
            KdcDatabase(realm, rng.fork(f"shard{i}"))
            for i in range(shard_count)
        ]

    # -- placement ------------------------------------------------------

    @staticmethod
    def _partitioned(principal: Principal) -> bool:
        """User principals (no instance, not krbtgt) are partitioned;
        service/TGS/inter-realm principals are replicated."""
        return not principal.is_tgs and not principal.instance

    def home_shard(self, principal: Principal) -> int:
        return shard_of(str(principal), self.shard_count)

    def _install(self, principal: Principal, key: bytes) -> None:
        if self._partitioned(principal):
            self.shards[self.home_shard(principal)].set_key(principal, key)
        else:
            for db in self.shards:
                db.set_key(principal, key)
            get_schedule(key)  # replicated == hot: prewarm the fast path

    # -- registration (KdcDatabase interface) ---------------------------

    def add_user(self, name: str, password: str, instance: str = "") -> Principal:
        principal = Principal(name, instance, self.realm)
        self._install(principal, string_to_key(password))
        return principal

    def add_service(self, service: str, hostname: str) -> Principal:
        principal = Principal.service(service, hostname, self.realm)
        self._install(principal, self._rng.random_key())
        return principal

    def add_tgs(self) -> Principal:
        principal = Principal.tgs(self.realm)
        self._install(principal, self._rng.random_key())
        return principal

    def add_interrealm(self, other_realm: str, key: bytes) -> Principal:
        principal = Principal.tgs(self.realm, other_realm)
        self._install(principal, key)
        return principal

    def set_key(self, principal: Principal, key: bytes) -> None:
        self._install(principal, key)

    # -- lookup (KdcDatabase interface) ---------------------------------

    def _shard_for_lookup(self, principal: Principal) -> KdcDatabase:
        if self._partitioned(principal):
            return self.shards[self.home_shard(principal)]
        return self.shards[0]

    def key_of(self, principal: Principal) -> bytes:
        return self._shard_for_lookup(principal).key_of(principal)

    def knows(self, principal: Principal) -> bool:
        return self._shard_for_lookup(principal).knows(principal)

    def principals(self) -> List[Principal]:
        merged: "set[Principal]" = set()
        for db in self.shards:
            merged.update(db.principals())
        return sorted(merged)

    def users(self) -> List[Principal]:
        return [p for p in self.principals() if not p.instance and not p.is_tgs]

    def entries(self) -> List[Tuple[Principal, bytes]]:
        merged: Dict[Principal, bytes] = {}
        for db in self.shards:
            merged.update(dict(db.entries()))
        return sorted(merged.items())


class Shard:
    """One shard's serving state: a worker pool and its replay cache.

    Both modes of the load harness serve from this type and print its
    :meth:`stats`: engine mode through :class:`ShardServer`, which adds
    the real protocol machinery, and scale mode
    (:mod:`repro.serve.scale`) directly, charging calibrated costs.
    """

    def __init__(self, index: int, address: str,
                 replay_cache: LruReplayCache, pool: WorkerPool) -> None:
        self.index = index
        self.address = address
        self.replay_cache = replay_cache
        self.pool = pool
        self.served: Dict[str, int] = {AS_SERVICE: 0, TGS_SERVICE: 0}
        self.failover_serves = 0

    def stats(self) -> Dict[str, object]:
        return {
            "shard": self.index,
            "address": self.address,
            "served": dict(self.served),
            "failover_serves": self.failover_serves,
            "replay_cache": {
                "capacity": self.replay_cache.capacity,
                "entries": len(self.replay_cache),
                "hits": self.replay_cache.hits,
                "evictions": self.replay_cache.evictions,
            },
            "pool": self.pool.stats(),
        }


class ShardServer(Shard):
    """An engine-mode shard: a host, its database slice, and a full Kdc."""

    def __init__(
        self, index: int, host: Host, database: KdcDatabase, kdc: Kdc,
        replay_cache: LruReplayCache, pool: WorkerPool,
    ) -> None:
        super().__init__(index, host.address, replay_cache, pool)
        self.host = host
        self.database = database
        self.kdc = kdc


class KdcCluster:
    """Frontend + N shard KDCs for one realm.

    Clients are oblivious: the realm directory points at the frontend
    address, which serves the same ``kerberos``/``tgs`` endpoints a
    single :class:`Kdc` would.  Internally every request takes one more
    hop (frontend -> shard) over the same adversary-tapped network, so
    the wire log shows cluster-internal traffic too — the paper's
    threat model does not stop at the machine-room door.
    """

    def __init__(
        self,
        network: Network,
        clock: SimClock,
        config: ProtocolConfig,
        rng: DeterministicRandom,
        realm: str,
        directory: RealmDirectory,
        frontend_address: str,
        shard_addresses: List[str],
        workers_per_shard: int = 2,
        replay_capacity: int = 4096,
    ) -> None:
        if len(shard_addresses) < 1:
            raise ValueError("a cluster needs at least one shard address")
        self.network = network
        self._clock = clock
        self.config = config
        self.realm = realm
        self.directory = directory
        self.database = ClusterDatabase(
            realm, rng.fork(f"db:{realm}"), len(shard_addresses)
        )
        # One krbtgt key, replicated everywhere, *before* the shard Kdcs
        # come up (Kdc.__init__ would otherwise mint per-shard keys).
        self.database.add_tgs()

        self.frontend_host = Host(
            f"kdc-{realm.lower()}", network, clock,
            addresses=[frontend_address], multi_user=True,
        )
        self.shards: List[ShardServer] = []
        for index, address in enumerate(shard_addresses):
            host = Host(
                f"kdc-{realm.lower()}-s{index}", network, clock,
                addresses=[address], multi_user=True,
            )
            shard_db = self.database.shards[index]
            cache = TracedReplayCache(replay_capacity, network.bus)
            kdc = Kdc(
                realm, shard_db, host, config,
                rng.fork(f"kdc:{realm}:shard{index}"),
                directory=directory, replay_cache=cache,
            )
            self.shards.append(ShardServer(
                index, host, shard_db, kdc, cache,
                WorkerPool(workers_per_shard),
            ))

        # Shard Kdcs each registered themselves as the realm's KDC while
        # constructing; the frontend's registration (last) wins, so
        # clients and cross-realm referrals resolve to the cluster.
        network.register(frontend_address, AS_SERVICE,
                         lambda m: self._handle(AS_SERVICE, m))
        network.register(frontend_address, TGS_SERVICE,
                         lambda m: self._handle(TGS_SERVICE, m))
        directory.register(realm, frontend_address)

        # -- accounting ------------------------------------------------
        self.requests: Dict[str, int] = {AS_SERVICE: 0, TGS_SERVICE: 0}
        self.failovers = 0
        self.unavailable = 0
        # Measured DES cost per service, for the scale model's calibration.
        self.block_ops_by_service: Dict[str, int] = {
            AS_SERVICE: 0, TGS_SERVICE: 0,
        }

    # -- routing --------------------------------------------------------

    def route(self, service: str, payload: bytes) -> int:
        """Primary shard for a request. AS: home shard of the cleartext
        client principal.  TGS: fingerprint of the authenticator bytes,
        so a byte-identical replay revisits the shard that cached the
        original.  Undecodable requests go to shard 0, which produces
        the protocol's own error reply."""
        codec = self.config.codec
        try:
            if service == AS_SERVICE:
                request = codec.decode(AS_REQ, payload)
                return shard_of(request["client"], len(self.shards))
            request = codec.decode(TGS_REQ, payload)
            return shard_of(request["authenticator"], len(self.shards))
        except Exception:
            return 0

    # -- dispatch -------------------------------------------------------

    def _handle(self, service: str, message: WireMessage) -> bytes:
        self.requests[service] += 1
        # Under the event scheduler (clock.timeline attached) the clock
        # reads true overlapped virtual time: each request is its own
        # event chain, so now() *is* the arrival and worker pools see
        # queueing whenever events genuinely overlap.  (The old
        # synchronous fabric serialized everything and needed a de-lag
        # retrofit, `note_open_loop_arrival`, now deleted.)
        arrival = self._clock.now()
        primary = self.route(service, message.payload)
        tracer = self.network.bus.tracer
        fe_span = None
        if tracer is not None:
            fe_span = tracer.begin(
                f"frontend/{service}", seq=message.seq, primary_shard=primary,
            )
        # AS requests have exactly one shard that can serve them (the
        # user's key is not replicated); TGS requests may fail over.
        order = attempt_order(primary, len(self.shards),
                              failover=service == TGS_SERVICE)
        for position, index in enumerate(order):
            shard = self.shards[index]
            ops_before = BLOCK_OPS.count
            shard_span = worker_span = None
            if tracer is not None:
                shard_span = tracer.begin(
                    f"shard{index}/{service}", shard=index, attempt=position,
                )
                # Opened before the internal hop so the replay-cache
                # span (opened inside the shard's handler) nests here.
                worker_span = tracer.begin(f"worker/{service}", shard=index)
            try:
                reply = self.network.rpc(
                    self.frontend_host.address,
                    Endpoint(shard.host.address, service),
                    message.payload,
                )
            except NetworkError as exc:
                if tracer is not None:
                    tracer.end(worker_span, error="shard-down")
                    tracer.end(shard_span, error=str(exc))
                self._note_down(service, shard, str(exc))
                continue
            block_ops = BLOCK_OPS.count - ops_before
            self.block_ops_by_service[service] += block_ops
            start, finish = shard.pool.schedule(arrival, block_ops)
            # Wire transits model propagation; the pool models CPU.
            # Queue wait + service time is this request's CPU latency.
            # Under the scheduler, stall the event itself, so the reply
            # is genuinely late and downstream activity shifts with it.
            # Without one (a synchronous testbed, ``calibrate``) the
            # pool only keeps its books: the clock measures wire time.
            if self._clock.timeline is not None:
                self._clock.advance(finish - arrival)
            shard.served[service] += 1
            if position > 0:
                # Served, but by a replica: replay-cache affinity was
                # broken for this request (see module docstring).
                self.failovers += 1
                shard.failover_serves += 1
            if tracer is not None:
                pool = shard.pool
                crypto_us = int(block_ops * pool.us_per_block_op)
                tracer.end(
                    worker_span,
                    queue_wait_us=start - arrival,
                    service_us=finish - start,
                    crypto_us=crypto_us,
                    overhead_us=(finish - start) - crypto_us,
                    block_ops=block_ops,
                )
                tracer.end(shard_span)
                tracer.end(fe_span)
            return reply

        self.unavailable += 1
        if tracer is not None:
            tracer.end(fe_span, error="unavailable")
        return frame_error(
            self.config, ERR_UNAVAILABLE,
            f"{service}: shard {primary} is unavailable and no replica "
            f"holds the required key",
        )

    def _note_down(self, service: str, shard: ShardServer, detail: str) -> None:
        bus = self.network.bus
        if bus.active:
            bus.emit(ShardUnavailable(
                service=service, shard=shard.index,
                address=shard.host.address, detail=detail,
            ))

    # -- introspection --------------------------------------------------

    def shard_for_principal(self, principal: Principal) -> ShardServer:
        return self.shards[self.database.home_shard(principal)]
