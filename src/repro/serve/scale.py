"""Scale mode: the calibrated event model behind ``load --principals``.

Engine mode runs every exchange through the real Kerberos machinery —
software DES and all — which tops out around 10^2–10^3 units per
wall-second.  The paper's availability argument lives at site scale:
10^5–10^6 principals, morning surges, caches that actually churn.  This
module gets there by keeping the *queueing-relevant* parts real and
modelling the rest.

Shared with engine mode, not copied: each shard is a
:class:`repro.serve.cluster.Shard` — the engine's
:class:`repro.serve.pool.WorkerPool` plus a bounded
:class:`repro.kerberos.validation.LruReplayCache` (true LRU, true
evictions) — and the model is a :class:`repro.serve.cluster.Frontend`,
so every request goes through the engine's own
:meth:`~repro.serve.cluster.Frontend.dispatch`: the same try order,
failover and counters, routed by CRC-32
:func:`repro.serve.sharding.shard_of` (AS by the realm-qualified
principal, ``user7@ATHENA``, as the engine's frontend routes it; TGS by
authenticator fingerprint — replay affinity and all).  The unit
driver (latency histograms, fault timers, replay probe), the retry
loop, the gauge set and the ``BENCH_kdc.json`` builder are the load
harness's own (:mod:`repro.load`).  Also real: the discrete-event
scheduler itself, and the key of every principal a call names,
derived with the paper's public ``string_to_key`` transform once per
call, in one bitsliced :func:`repro.crypto.keys.string_to_key_many`
batch (:func:`_principal_keys`), and read by each unit at the start
of its AS phase as the KDC reads its database.

Modelled: per-request CPU and wire cost.  Both are **calibrated, not
invented**: at startup a handful of units run through the real engine on
a small testbed (:func:`calibrate`), and the model takes its per-service
DES block-op counts (``KdcCluster.block_ops_by_service``) and per-phase
wire times from that measurement.  A modelled try is served
synchronously inside one scheduler event, as an engine handler is: one
wire transit, admission to the shard's pool with the calibrated
block-op count (``WorkerPool.schedule``), the replay check, then the
pool's finish plus the return transit.  Those clock advances land on
the event timeline, so a unit with no retries costs three events: its
arrival, which serves the AS request; the zero wait after AS, which
serves the TGS request; and the end of the AP phase's calibrated wait.

Crash semantics match the engine's: a downed shard refuses new
requests at dispatch (TGS fails over, AS retries and may end
``unavailable``), and work it admitted before the crash completes.

Principal popularity is Zipfian and the arrival rate optionally diurnal
(:mod:`repro.sim.workload`): skew is what makes one shard run hot and
its replay cache churn while its neighbours idle, and the surge is what
the paper's "available in real time" warning is about.

Every run also sweeps a shards×workers grid at overload (each cell
offered twice its own estimated capacity, faults off) to chart the
throughput / p99 frontier that lands in ``BENCH_kdc.json``'s
``scaling_curve`` section; ``--scaling-curve`` widens the grid.
Everything except wall-clock figures is byte-for-byte deterministic for
a seed, across processes.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Generator, Iterator, List, Optional, Set, Tuple

from repro.crypto.keys import string_to_key_many
from repro.crypto.rng import DeterministicRandom
from repro.kerberos.client import KerberosError
from repro.kerberos.config import ProtocolConfig
from repro.kerberos.kdc import AS_SERVICE, TGS_SERVICE
from repro.kerberos.messages import ERR_UNAVAILABLE
from repro.kerberos.validation import LruReplayCache
from repro.load import (
    Finish, LoadRun, RetryLoop, cluster_sampler, diurnal_curve,
    fault_window, run_units,
)
from repro.obs.timeseries import LogHistogram, TickSampler
from repro.serve.cluster import Frontend, Shard
from repro.serve.pool import WorkerPool, warm_unit_cost_us
from repro.serve.sharding import shard_of
from repro.sim.clock import MINUTE, SECOND, SimClock
from repro.sim.sched import Scheduler, wait
from repro.sim.workload import ZipfianGenerator, open_loop_arrivals
from repro.testbed import DEFAULT_REALM, Testbed

__all__ = ["run_scale_model", "calibrate"]

#: Mean interarrival for the scale model's open-loop calendar, in
#: microseconds.  Against the calibrated per-unit CPU cost (one AS +
#: one TGS request) on the default 3×2 cluster this offers ~2/3 of
#: capacity — past the critical point where tails form, and the
#: diurnal peak (when enabled) tips the cluster into visible backlog.
DEFAULT_SCALE_INTERARRIVAL_US = 60

#: Unit counts when ``requests`` is not given.
DEFAULT_SCALE_REQUESTS = 60_000
DEFAULT_QUICK_REQUESTS = 20_000

#: Replay-cache freshness horizon offered with every check.
REPLAY_HORIZON_US = 5 * MINUTE

#: Overload factor for scaling-curve cells: each cell is offered this
#: multiple of its *own* estimated capacity, so its completed-per-sim-
#: second reflects capacity rather than the offered rate — including
#: for the largest cells, which a fixed rate would leave underfed.
CURVE_OVERLOAD = 2

#: Cells swept by every scale run (shards, workers_per_shard)...
DEFAULT_CURVE_GRID: "List[Tuple[int, int]]" = [
    (2, 2), (3, 2), (3, 4), (4, 4), (4, 8), (8, 8),
]
#: ...and the full grid behind ``--scaling-curve``.
WIDE_CURVE_GRID: "List[Tuple[int, int]]" = [
    (s, w) for s in (2, 3, 4, 6, 8) for w in (1, 2, 4, 8)
]

_CALIBRATION_CACHE: Dict[int, Dict[str, int]] = {}


def _draw_ranks(seed_rng: DeterministicRandom, principals: int,
                zipf_s: float, count: int) -> List[int]:
    """The principal ranks of a run's *count* arrivals, in arrival
    order, from the first fork (``"zipf"``) of the run's stream."""
    zipf = ZipfianGenerator(principals, s=zipf_s, rng=seed_rng.fork("zipf"))
    return [zipf.sample() for _ in range(count)]


def _principal_keys(ranks: Set[int]) -> Dict[int, bytes]:
    """rank → DES key for each of *ranks*, derived in one batch.

    Precomputing a million ``string_to_key`` results would dwarf the run
    itself, and real KDCs do not do it either.  But every run draws its
    ranks before its first arrival, so a call knows each principal it
    will name up front: this derives exactly those, once, through the
    bitsliced :func:`repro.crypto.keys.string_to_key_many`.  Ranks go
    in sorted, so the batch is the same for a seed.
    """
    ordered = sorted(ranks)
    return dict(zip(ordered, string_to_key_many(
        [f"pw-{rank}" for rank in ordered]
    )))


def calibrate(seed: int = 0) -> Dict[str, int]:
    """Measure per-phase wire time and DES cost from the real engine.

    Runs a few units through a small synchronous testbed and reads the
    cluster's per-service block-op meters plus the clock's per-phase
    advance.  Deterministic for a seed; cached per process because the
    scaling-curve sweep would otherwise re-measure per cell.
    """
    cached = _CALIBRATION_CACHE.get(seed)
    if cached is not None:
        return dict(cached)

    units = 4
    bed = Testbed(
        ProtocolConfig.v5_draft3().but(replay_cache=True),
        seed=seed, shards=2, workers_per_shard=2,
    )
    for i in range(units):
        bed.add_user(f"caluser{i}", f"calpw-{i}")
    mail = bed.add_mail_server("mailhost")
    cluster = bed.realm.cluster
    assert cluster is not None

    as_wire = tgs_wire = ap_wire = 0
    for i in range(units):
        workstation = bed.add_workstation(f"calws{i}")
        mark = bed.clock.now()
        outcome = bed.login(f"caluser{i}", f"calpw-{i}", workstation)
        as_wire += bed.clock.now() - mark

        mark = bed.clock.now()
        cred = outcome.client.get_service_ticket(mail.principal)
        tgs_wire += bed.clock.now() - mark

        mark = bed.clock.now()
        session = outcome.client.ap_exchange(cred, bed.endpoint(mail))
        session.call(b"COUNT")
        ap_wire += bed.clock.now() - mark

    result = {
        "as_wire_us": as_wire // units,
        "tgs_wire_us": tgs_wire // units,
        "ap_us": ap_wire // units,
        "as_block_ops": cluster.block_ops_by_service["kerberos"] // units,
        "tgs_block_ops": cluster.block_ops_by_service["tgs"] // units,
    }
    _CALIBRATION_CACHE[seed] = dict(result)
    return result


class _Model(Frontend[Shard]):
    """One modelled cluster, and the retry loop its clients share."""

    def __init__(self, shards: int, workers_per_shard: int,
                 replay_capacity: int, cal: Dict[str, int],
                 backoff_rng: DeterministicRandom) -> None:
        super().__init__(DEFAULT_REALM, [
            Shard(i, f"model-s{i}", LruReplayCache(replay_capacity),
                  WorkerPool(workers_per_shard))
            for i in range(shards)
        ])
        self.clock = SimClock()
        self.sched = Scheduler(self.clock)
        self.cal = cal
        self.down: Set[int] = set()
        self.retry = RetryLoop(backoff_rng)

    def _request(
        self, service: str, primary: int, block_ops: int, client: str,
        fingerprint: bytes, auth_timestamp: int = 0,
    ) -> Generator[Any, None, Tuple[str, int]]:
        """One client request (use via ``yield from``; returns the outcome).

        Each try is one :meth:`Frontend.dispatch` (see the module
        docstring).  When every shard refuses, the try raises the
        engine's ``ERR_UNAVAILABLE`` as a :class:`KerberosError`, and
        :class:`repro.load.RetryLoop` backs off on the scheduler and
        tries again, so a restore during the backoff serves the retry;
        out of retries, the error propagates.

        Returns ``(outcome, served_by)`` where ``served_by`` is the
        index of the shard that actually served the request — the
        replay probe needs the true serving shard, since a failover
        serve stores the authenticator in the failover's cache, not the
        fingerprint-primary's.
        """
        clock = self.clock
        wire = self.cal["as_wire_us" if service == AS_SERVICE
                        else "tgs_wire_us"]
        transit = max(1, wire // 2)

        def serve(index: int, _position: int) -> Optional[Tuple[str, int]]:
            if index in self.down:
                return None
            shard = self.shards[index]
            now = clock.advance(transit)
            _start, finish = shard.pool.schedule(now, block_ops)
            # The authenticator timestamp is minted client-side,
            # *before* the wire — every retransmission carries the
            # same one, which is what makes replay detection (and
            # the probe's exact-key re-offer) work.
            fresh = True
            if service == TGS_SERVICE:
                fresh = shard.replay_cache.check_and_store(
                    client, auth_timestamp, fingerprint, now,
                    REPLAY_HORIZON_US,
                )
            clock.advance(finish - now + transit)
            return ("ok" if fresh else "replay"), index

        def request() -> Tuple[str, int]:
            served = self.dispatch(service, primary, serve)
            if served is None:
                raise KerberosError(
                    ERR_UNAVAILABLE, f"{service}: shard {primary} is unavailable",
                )
            return served

        return self.retry(service, request)


def _pareto_frontier(cells: List[Dict[str, Any]]) -> None:
    """Mark cells no other cell dominates on (throughput up, p99 down)."""
    for cell in cells:
        cell["frontier"] = not any(
            other is not cell
            and other["ops_per_sim_s"] >= cell["ops_per_sim_s"]
            and other["unit_p99_us"] <= cell["unit_p99_us"]
            and (other["ops_per_sim_s"] > cell["ops_per_sim_s"]
                 or other["unit_p99_us"] < cell["unit_p99_us"])
            for other in cells
        )


def _run_model_once(
    ranks: List[int], keys: Dict[int, bytes], shards: int,
    workers_per_shard: int, replay_cache_capacity: int,
    interarrival_us: int, diurnal: bool, faults: bool,
    seed_rng: DeterministicRandom, cal: Dict[str, int], gauges: bool,
) -> LoadRun:
    """One complete model run on a fresh model, one unit per entry of
    *ranks*; the load harness's gauge set is sampled only when *gauges*
    is set (the main run).

    ``seed_rng`` is a :class:`repro.crypto.rng.DeterministicRandom` the
    caller forked and drew *ranks* from (:func:`_draw_ranks`);
    everything below draws from further labelled forks of it, so the
    main run and each scaling-curve cell are independent streams and
    the whole thing replays identically for a seed.  *keys* holds the
    key of every rank in *ranks* (:func:`_principal_keys`).
    """
    requests = len(ranks)
    model = _Model(shards, workers_per_shard, replay_cache_capacity, cal,
                   seed_rng.fork("backoff"))
    sched, clock = model.sched, model.clock
    retry = model.retry
    sampler = (cluster_sampler(clock, model, lambda: retry.retries,
                               interarrival_us)
               if gauges else TickSampler(clock))
    curve = (diurnal_curve(requests, interarrival_us, clock.now())
             if diurnal else None)
    arrivals = list(open_loop_arrivals(
        seed_rng.fork("arrivals"), requests, interarrival_us,
        diurnal=curve, start=interarrival_us,
    ))

    recorded_tgs: List[Tuple[str, int, bytes, int]] = []

    # TGS authenticator fingerprints: unique per op, mixed with a
    # seed-derived tag so different seeds populate (and route through)
    # the caches differently — but NOT with wall time, so runs replay.
    run_tag = seed_rng.fork("fingerprints").random_uint32()

    def unit(op: int, intended: int, finish: Finish) -> Iterator[Any]:
        sampler.poll()
        rank = ranks[op]
        # The principal string the engine's frontend routes AS by.
        client = f"user{rank}@{DEFAULT_REALM}"
        keys[rank]  # the AS phase's database read of the client's key
        marks = [intended]
        try:
            yield from model._request(
                AS_SERVICE, shard_of(client, shards), cal["as_block_ops"],
                client, b"",
            )
            marks.append(clock.now())
            yield wait(0)

            fingerprint = hashlib.sha1(
                f"{run_tag}:{op}".encode("ascii")
            ).digest()[:8]
            primary = shard_of(fingerprint, shards)
            auth_time = clock.now()
            outcome, served_by = yield from model._request(
                TGS_SERVICE, primary, cal["tgs_block_ops"], client,
                fingerprint, auth_timestamp=auth_time,
            )
        except KerberosError:
            finish(marks, "unavailable")
            return
        if outcome != "ok":
            finish(marks, outcome)
            return
        marks.append(clock.now())
        recorded_tgs.append((client, auth_time, fingerprint, served_by))
        yield wait(cal["ap_us"])
        marks.append(clock.now())
        finish(marks, None)

    def replay(recording: Tuple[str, int, bytes, int]) -> bool:
        """Re-offer a recorded authenticator to the shard that served
        it; the most recent inserts are the ones LRU churn cannot have
        evicted yet."""
        client, auth_time, fingerprint, served_by = recording
        return not model.shards[served_by].replay_cache.check_and_store(
            client, auth_time, fingerprint, clock.now(), REPLAY_HORIZON_US,
        )

    driven = run_units(
        sched, sampler, arrivals, fault_window(faults, requests, shards),
        unit, fail=model.down.add, restore=model.down.discard,
        recorded=lambda: recorded_tgs, replay=replay,
    )
    return LoadRun(
        frontend=model, workload={}, client_retries=retry.retries, **driven,
    )


def run_scale_model(
    principals: int,
    shards: int,
    requests: int,
    workers_per_shard: int,
    seed: int,
    faults: bool,
    replay_cache_capacity: int,
    interarrival_us: int,
    zipf_s: float,
    diurnal: bool,
    scaling_curve: bool,
) -> LoadRun:
    """The ``--principals N`` run: the main model run plus the curve
    sweep.  :func:`repro.load.run_load` checks the inputs, resolves
    their defaults, times the run and builds the report."""
    cal = calibrate(seed)
    root_rng = DeterministicRandom(seed)
    grid = WIDE_CURVE_GRID if scaling_curve else DEFAULT_CURVE_GRID
    curve_requests = min(requests, 3000)
    # Every run's ranks come from its own stream's first fork, so drawing
    # them all before any run starts changes no draw, and the main run
    # and the curve cells can share one key table.
    main_rng = root_rng.fork("scale:main")
    cell_rngs = [root_rng.fork(f"curve:{cell_shards}x{cell_workers}")
                 for cell_shards, cell_workers in grid]
    main_ranks = _draw_ranks(main_rng, principals, zipf_s, requests)
    cell_ranks = [_draw_ranks(rng, principals, zipf_s, curve_requests)
                  for rng in cell_rngs]
    keys = _principal_keys(set(main_ranks).union(*cell_ranks))

    run = _run_model_once(
        main_ranks, keys, shards, workers_per_shard, replay_cache_capacity,
        interarrival_us, diurnal, faults, main_rng, cal, gauges=True,
    )
    run.workload = {
        "mode": "model",
        "principals": {
            "total": principals,
            "materialized": len(set(main_ranks)),
        },
        "zipf_s": zipf_s,
        "diurnal": bool(diurnal),
        "calibration": cal,
    }

    # -- scaling curve: capacity frontier at overload --------------------
    # Each cell is offered CURVE_OVERLOAD × its own estimated capacity
    # (from the calibrated batched per-unit CPU cost), so every cell —
    # including the largest — genuinely saturates and completed/elapsed
    # measures what the cell can do, not what it was fed.
    unit_cpu_us = warm_unit_cost_us(cal["as_block_ops"],
                                    cal["tgs_block_ops"])
    cells: List[Dict[str, Any]] = []
    for (cell_shards, cell_workers), rng, ranks in zip(
            grid, cell_rngs, cell_ranks):
        cell_interarrival = max(
            1, unit_cpu_us // (CURVE_OVERLOAD * cell_shards * cell_workers)
        )
        cell = _run_model_once(
            ranks, keys, cell_shards, cell_workers, replay_cache_capacity,
            cell_interarrival, diurnal=False, faults=False, seed_rng=rng,
            cal=cal, gauges=False,
        )
        cell_wait = LogHistogram()
        for shard in cell.frontend.shards:
            cell_wait.merge(shard.pool.wait_histogram)
        elapsed = cell.sim_elapsed_us
        cells.append({
            "shards": cell_shards,
            "workers_per_shard": cell_workers,
            "requests": curve_requests,
            "interarrival_us": cell_interarrival,
            "completed": cell.completed,
            "ops_per_sim_s": round(cell.completed * SECOND / elapsed, 2)
            if elapsed else 0.0,
            "unit_p99_us": cell.latency_us["unit"]["p99"],
            "queue_wait_p99_us": cell_wait.summary()["p99"],
        })
    _pareto_frontier(cells)
    run.scaling_curve = {
        "requests_per_cell": curve_requests,
        "overload_factor": CURVE_OVERLOAD,
        "unit_cpu_us": unit_cpu_us,
        "cells": cells,
    }
    return run
