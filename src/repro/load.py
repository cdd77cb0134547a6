"""The KDC load harness: ``python -m repro load``.

The paper's replay and clock findings only bite under concurrent
traffic — a replay cache that is never offered two requests in the same
window defends nothing — and the ROADMAP's north star is a service
layer measured, not assumed.  This harness drives the sharded cluster
(:mod:`repro.serve`) with an **open-loop** workload and reports the
numbers a capacity plan needs: p50/p95/p99 latency, throughput,
degradation under fault injection, and whether the bounded per-shard
replay caches still reject a replayed authenticator at load.  Results
land in ``BENCH_kdc.json``.

How time works here: the harness runs on the discrete-event scheduler
(:mod:`repro.sim.sched`).  Each workload unit (one login + service
ticket + AP exchange, the E18 shape) is a generator process spawned at
its *intended* open-loop arrival time; the scheduler's binary heap
dispatches arrivals, shard outages/restores, and phase continuations in
virtual-time order, and the clock's event timeline lets the synchronous
protocol engine run unmodified inside events while genuinely
overlapping with its neighbours.  Latency is measured from the intended
arrival, so queueing is charged to the requests that experienced it
rather than silently absorbed (the coordinated-omission mistake load
tools warn about) — and under the scheduler that is no retrofit: the
heap *is* the calendar.

Two modes, one report (``repro-bench-kdc/3``).  Both serve from the
same :class:`repro.serve.cluster.Shard` (a worker pool plus its replay
cache) through the one dispatch loop
:meth:`repro.serve.cluster.Frontend.dispatch`, which routes, fails over
and counts every request; retry a refused request through the one
:class:`RetryLoop`, which backs off on the scheduler; run their units,
fault timers and replay probe through the one driver
:func:`run_units`; and hand a :class:`LoadRun` to the one gauge set
and the one report builder below.  Each mode brings only what differs:
how one try is served on one shard, how a unit runs its three phases,
how a shard goes down and comes back, and how a recorded TGS request
is replayed.

* **Engine mode** (default): every exchange runs the real Kerberos
  message machinery — real DES, real codecs, real replay caches — with
  worker-pool queueing stalling the serving event.
* **Scale mode** (``--principals N``): the same shards driven by a
  calibrated event model, which is what makes 10^5–10^6 principals
  with Zipfian popularity and diurnal arrival curves tractable in one
  process (see :mod:`repro.serve.scale`).  Always includes a
  shards×workers scaling-curve sweep; ``--scaling-curve`` widens the
  grid.

Inputs are checked once, here, for both modes.  Everything in the
report except the wall-clock figures is a pure function of the
parameters and seed — including across processes: two invocations with
the same arguments produce byte-identical non-wall-clock fields.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Generator, Iterator, List, Optional, Sequence,
    TypeVar,
)

from repro.crypto.rng import DeterministicRandom
from repro.kerberos.client import KerberosError
from repro.kerberos.config import ProtocolConfig
from repro.kerberos.kdc import AS_SERVICE, TGS_SERVICE
from repro.kerberos.messages import (
    ERR_REPLAY, ERR_UNAVAILABLE, decode_error, unframe,
)
from repro.obs.bus import EventBus
from repro.obs.events import RequestRetried
from repro.obs.metrics import MetricsRegistry, MetricsSink
from repro.obs.timeseries import FOLD_THRESHOLD, LogHistogram, TickSampler
from repro.obs.trace import Tracer
from repro.serve.cluster import Frontend
from repro.serve.pool import DEFAULT_US_PER_BLOCK_OP
from repro.sim.clock import MILLISECOND, SECOND, SimClock
from repro.sim.network import Endpoint, NetworkError, WireMessage
from repro.sim.sched import Scheduler, wait
from repro.sim.workload import DiurnalCurve, open_loop_arrivals
from repro.testbed import Testbed

__all__ = ["run_load", "render_report", "run_units", "backoff_us",
           "diurnal_curve", "RetryLoop", "LoadInputError", "LoadRun"]

#: Mean time between unit arrivals on the open-loop calendar.  A unit
#: costs ~3.0ms of simulated wire time (12 transits at 250us:
#: calibration measures 1,000us for each of its AS, TGS and AP phases)
#: and ~3.4ms with its service time, while its two KDC requests keep a
#: worker busy for under 0.4ms.  So at 6ms the default 3x2 cluster runs
#: at ~1% utilization with no queue wait: the baseline shows latency
#: floors and what the outage costs.  Lower it (``--interarrival``; 60
#: saturates) to see queueing.
DEFAULT_INTERARRIVAL_US = 6 * MILLISECOND

#: How many recorded TGS requests the replay probe re-injects.
REPLAY_PROBES = 5

#: Engine-mode unit count when ``requests`` is not given.
DEFAULT_REQUESTS = 240

#: Client retries in both modes (:class:`RetryLoop`): a refused request
#: is retried at most MAX_RETRIES times.  The wait before retry *n*
#: (0-based) is BACKOFF_BASE_US doubled *n* times, capped at
#: BACKOFF_CAP_US, then jittered by up to half either way.
MAX_RETRIES = 2
BACKOFF_BASE_US = 20 * MILLISECOND
BACKOFF_CAP_US = 2 * SECOND

#: A unit's phases, in the order its ``marks`` end them.
PHASES = ("as", "tgs", "ap")

#: ``finish(marks, error)``: how a unit hands its outcome to
#: :func:`run_units`.
Finish = Callable[[List[int], Optional[str]], None]
Recording = TypeVar("Recording")
Result = TypeVar("Result")


class LoadInputError(ValueError):
    """A load-harness parameter is out of range (the CLI exits 2)."""


@dataclass
class LoadRun:
    """What one run of either mode measured: the report builder's input."""

    frontend: Frontend[Any]
    sched: Scheduler
    sampler: TickSampler
    workload: Dict[str, Any]
    latency_us: Dict[str, Dict[str, int]]   # unit, as, tgs, ap summaries
    completed: int
    errors: Dict[str, int]
    sim_elapsed_us: int
    fault_window: Optional[Dict[str, int]]
    client_retries: int
    probe: Dict[str, int]
    metrics: Dict[str, Any] = field(default_factory=dict)
    scaling_curve: Optional[Dict[str, Any]] = None


def backoff_us(attempt: int, rng: DeterministicRandom) -> int:
    """The wait before retry *attempt* (0-based), in microseconds.  The
    jitter comes from *rng*, so clients refused together come back
    spread out, and one seed always gives the same waits."""
    base = min(BACKOFF_CAP_US, BACKOFF_BASE_US << attempt)
    spread = base // 2
    return base - spread + rng.randint(0, 2 * spread)


class RetryLoop:
    """The one retry loop of both modes, and the one count of its
    retries, which ``degradation.client_retries`` and the
    ``cluster.client_retries`` gauge read."""

    def __init__(self, rng: DeterministicRandom,
                 bus: Optional[EventBus] = None) -> None:
        self.rng = rng
        self.bus = bus
        self.retries = 0

    def __call__(
        self, service: str, request: Callable[[], Result],
    ) -> Generator[Any, None, Result]:
        """Make *request* to *service* (use via ``yield from``; returns
        its result).

        A request refused with a framed ``ERR_UNAVAILABLE`` (raised as
        :class:`KerberosError`) or lost on the wire
        (:class:`NetworkError`) is made again after a
        :func:`backoff_us` wait on the scheduler, so a shard restored
        during the wait serves the retry.  Out of retries, the last
        refusal propagates; any other error propagates at once.  A
        request that succeeds first time costs no scheduler event.
        Each retry emits :class:`RequestRetried` on *bus*, if given.
        """
        attempt = 0
        while True:
            try:
                return request()
            except (KerberosError, NetworkError) as exc:
                if attempt == MAX_RETRIES or (
                        isinstance(exc, KerberosError)
                        and exc.code != ERR_UNAVAILABLE):
                    raise
                detail = str(exc)
            backoff = backoff_us(attempt, self.rng)
            attempt += 1
            self.retries += 1
            bus = self.bus
            if bus is not None and bus.active:
                bus.emit(RequestRetried(
                    service=service, attempt=attempt, backoff_us=backoff,
                    detail=detail,
                ))
            yield wait(backoff)


def fault_window(faults: bool, requests: int,
                 shards: int) -> Optional[Dict[str, int]]:
    """The scripted outage: shard 1 down for the middle third of the
    calendar (``None`` when faults are off or the run is too short)."""
    if not faults or requests < 3:
        return None
    return {"shard": 1 % shards, "first_op": requests // 3,
            "last_op": (2 * requests) // 3 - 1}


def cluster_sampler(clock: SimClock, frontend: Frontend[Any],
                    client_retries: Callable[[], int],
                    tick_us: int) -> TickSampler:
    """The tick-sampled gauge set both modes report, one reading per
    *tick_us* of simulated time."""
    sampler = TickSampler(clock, tick_us=max(1, tick_us))
    for shard in frontend.shards:
        pool, cache = shard.pool, shard.replay_cache
        name = f"shard{shard.index}"
        sampler.gauge(f"{name}.queue_depth",
                      lambda p=pool: p.queue_depth(clock.now()))
        sampler.gauge(f"{name}.util_pct", pool.utilization_pct)
        sampler.gauge(f"{name}.replay_entries", lambda c=cache: len(c))
    sampler.gauge(
        "cluster.replay_evictions",
        lambda: sum(s.replay_cache.evictions for s in frontend.shards),
    )
    sampler.gauge("cluster.tgs_failovers", lambda: frontend.failovers)
    sampler.gauge("cluster.unavailable", lambda: frontend.unavailable)
    sampler.gauge("cluster.client_retries", client_retries)
    return sampler


def run_units(
    sched: Scheduler,
    sampler: TickSampler,
    arrivals: Sequence[int],
    window: Optional[Dict[str, int]],
    unit: Callable[[int, int, Finish], Iterator[Any]],
    fail: Callable[[int], None],
    restore: Callable[[int], None],
    recorded: Callable[[], Sequence[Recording]],
    replay: Callable[[Recording], bool],
) -> Dict[str, Any]:
    """Run one unit per arrival, then the replay probe: the part of a
    load run both modes share.  Returns the :class:`LoadRun` fields
    this part fills in.

    ``unit(op, intended, finish)`` is a mode's scheduler process for
    unit *op*, spawned at its *intended* arrival.  It keeps ``marks`` —
    *intended*, then the end of each phase it completed — and ends by
    calling ``finish(marks, error)``, *error* being ``None`` or the
    error kind.  ``finish`` appends each completed phase's duration to
    that phase's sample list; a completed unit also appends its
    latency, a failed one tallies its error.  The lists are folded into
    their :class:`~repro.obs.timeseries.LogHistogram`\\ s in bulk, every
    :data:`~repro.obs.timeseries.FOLD_THRESHOLD` units and once after
    the run, so a long run holds a bounded number of raw samples.

    With a fault *window*, ``fail(shard)`` runs at the arrival of op
    ``first_op`` and ``restore(shard)`` at that of op ``last_op + 1``.

    The probe re-offers the last :data:`REPLAY_PROBES` of
    ``recorded()`` through ``replay``, which says whether the replay
    was rejected.  With a window, only recordings made after the
    restore are eligible: a request served by a failover replica has no
    affinity to return to (that honest gap is pinned separately in
    tests/test_serve_cluster.py).
    """
    latency = {name: LogHistogram() for name in ("unit",) + PHASES}
    samples: Dict[str, List[int]] = {name: [] for name in latency}
    unit_samples = samples["unit"]
    phase_samples = [samples[name] for name in PHASES]
    errors: Dict[str, int] = {}
    completed = 0
    finished = 0
    seen_at_restore = 0

    def fold() -> None:
        for name, histogram in latency.items():
            histogram.record_many(samples[name])
            samples[name].clear()

    def finish(marks: List[int], error: Optional[str]) -> None:
        nonlocal completed, finished
        start = last = marks[0]
        for phase in range(1, len(marks)):
            mark = marks[phase]
            phase_samples[phase - 1].append(mark - last)
            last = mark
        if error is None:
            # Intended open-loop start to AP completion: queueing is
            # charged to the units that experienced it.
            unit_samples.append(last - start)
            completed += 1
        else:
            errors[error] = errors.get(error, 0) + 1
        finished += 1
        if finished % FOLD_THRESHOLD == 0:
            fold()

    def restore_and_cut(shard: int) -> None:
        nonlocal seen_at_restore
        restore(shard)
        seen_at_restore = len(recorded())

    clock = sched.clock
    sim_start = clock.now()
    # Fault timers go on the heap before the arrival processes: at an
    # equal timestamp FIFO tie-breaking then fires the outage/restore
    # *before* the unit that defines the window boundary, matching the
    # op-index semantics the fault window advertises.
    if window is not None:
        shard = window["shard"]
        sched.at(arrivals[window["first_op"]], lambda: fail(shard))
        sched.at(arrivals[window["last_op"] + 1],
                 lambda: restore_and_cut(shard))
    for op, intended in enumerate(arrivals):
        sched.spawn(unit(op, intended, finish), at_time=intended)
    sched.run()
    fold()
    sampler.tick()  # final reading at end-of-run state
    sim_elapsed_us = clock.now() - sim_start

    probe = {"attempted": 0, "rejected": 0}
    for recording in recorded()[seen_at_restore:][-REPLAY_PROBES:]:
        probe["attempted"] += 1
        if replay(recording):
            probe["rejected"] += 1
    return {
        "sched": sched, "sampler": sampler, "fault_window": window,
        "latency_us": {name: h.summary() for name, h in latency.items()},
        "completed": completed, "errors": errors,
        "sim_elapsed_us": sim_elapsed_us, "probe": probe,
    }


def run_load(
    shards: int = 3,
    clients: int = 8,
    requests: Optional[int] = None,
    workers_per_shard: int = 2,
    seed: int = 0,
    faults: bool = True,
    quick: bool = False,
    out_path: Optional[str] = "BENCH_kdc.json",
    replay_cache_capacity: int = 4096,
    interarrival_us: Optional[int] = None,
    tracer: Optional[Tracer] = None,
    principals: Optional[int] = None,
    zipf_s: float = 1.1,
    diurnal: bool = False,
    scaling_curve: bool = False,
) -> Dict[str, Any]:
    """Drive the sharded KDC and return (optionally write) the report.

    ``quick`` shrinks the run to CI-smoke size.  ``faults`` downs one
    shard for the middle third of the calendar; TGS traffic fails over,
    AS requests for users homed on the dead shard are refused with
    ``ERR_UNAVAILABLE``, and units retry refused requests with bounded
    jittered backoff (:class:`RetryLoop`) — all of which the report
    itemises.

    ``principals`` switches to scale mode: N principals, keyed only
    for those the run names (in one batch per call), with Zipfian
    popularity (exponent ``zipf_s``) and, with
    ``diurnal``, a sinusoidal arrival-rate curve, driven through the
    calibrated event model of :mod:`repro.serve.scale`.

    Out-of-range inputs raise :class:`LoadInputError` before anything
    runs.  Pass a :class:`repro.obs.trace.Tracer` to record every
    engine-mode exchange as a causal span chain (``python -m repro
    monitor`` does); afterwards it rides along as ``report["_tracer"]``.
    The tick-sampled gauge series likewise comes back as
    ``report["_sampler"]``; both keys are attached *after* the JSON is
    written, so the file stays pure data.
    """
    for bad, problem in (
        (shards < 2, "the load harness needs a sharded bed (shards >= 2)"),
        (requests is not None and requests < 1, "requests must be >= 1"),
        (workers_per_shard < 1, "workers per shard must be >= 1"),
        (interarrival_us is not None and interarrival_us < 1,
         "interarrival must be >= 1us"),
        (principals is not None and principals < 1,
         "principals must be >= 1"),
        (clients < 1, "clients must be >= 1"),
        (zipf_s <= 0, "the zipf exponent must be > 0"),
    ):
        if bad:
            raise LoadInputError(problem)

    wall_start = time.perf_counter()
    if principals is None:
        if requests is None:
            requests = DEFAULT_REQUESTS
        if interarrival_us is None:
            interarrival_us = DEFAULT_INTERARRIVAL_US
        if quick:
            clients = min(clients, 4)
            requests = min(requests, 36)
        run = _run_engine(
            shards, clients, requests, workers_per_shard, seed, faults,
            replay_cache_capacity, interarrival_us, tracer, diurnal,
        )
    else:
        from repro.serve import scale

        if requests is None:
            requests = (scale.DEFAULT_QUICK_REQUESTS if quick
                        else scale.DEFAULT_SCALE_REQUESTS)
        if interarrival_us is None:
            interarrival_us = scale.DEFAULT_SCALE_INTERARRIVAL_US
        if quick:
            requests = min(requests, scale.DEFAULT_QUICK_REQUESTS)
        run = scale.run_scale_model(
            principals, shards, requests, workers_per_shard, seed, faults,
            replay_cache_capacity, interarrival_us, zipf_s, diurnal,
            scaling_curve,
        )
    wall_elapsed = time.perf_counter() - wall_start

    report = _report(run, quick, wall_elapsed, {
        "shards": shards,
        "clients": clients if principals is None else principals,
        "requests": requests,
        "workers_per_shard": workers_per_shard,
        "seed": seed,
        "faults": faults,
        "replay_cache_capacity": replay_cache_capacity,
        "interarrival_us": interarrival_us,
        "protocol": "v5-draft3+replay-cache",
        "us_per_block_op": DEFAULT_US_PER_BLOCK_OP,
    })
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        report["written_to"] = out_path
    # Live objects ride along for the monitor; attached after the JSON
    # dump so the file on disk stays pure data.
    report["_sampler"] = run.sampler
    if tracer is not None:
        report["_tracer"] = tracer
    return report


def _report(run: LoadRun, quick: bool, wall_elapsed: float,
            config: Dict[str, Any]) -> Dict[str, Any]:
    """The ``repro-bench-kdc/3`` report, the same builder for both modes."""
    frontend = run.frontend
    # Per-shard queueing percentiles, plus the cluster-wide fold (the
    # LogHistogram merge is associative, so the fold order is free).
    cluster_wait = LogHistogram()
    cluster_service = LogHistogram()
    queueing_shards: List[Dict[str, Any]] = []
    for shard in frontend.shards:
        pool = shard.pool
        cluster_wait.merge(pool.wait_histogram)
        cluster_service.merge(pool.service_histogram)
        queueing_shards.append({
            "shard": shard.index,
            "queue_wait_us": pool.wait_histogram.summary(),
            "service_us": pool.service_histogram.summary(),
            "utilization_pct": pool.utilization_pct(),
        })

    completed, sim_elapsed_us = run.completed, run.sim_elapsed_us
    report: Dict[str, Any] = {
        "schema": "repro-bench-kdc/3",
        "quick": quick,
        "python": platform.python_version(),
        "config": config,
        "workload": run.workload,
        "latency_us": run.latency_us,
        "throughput": {
            "completed": completed,
            "failed": sum(run.errors.values()),
            "sim_seconds": round(sim_elapsed_us / SECOND, 6),
            "ops_per_sim_s": round(completed * SECOND / sim_elapsed_us, 2)
            if sim_elapsed_us else 0.0,
            # Wall-clock figures are informational, not deterministic.
            "wall_seconds": round(wall_elapsed, 3),
            "ops_per_wall_s": round(completed / wall_elapsed, 1)
            if wall_elapsed else 0.0,
        },
        "degradation": {
            "fault_window": run.fault_window,
            "client_retries": run.client_retries,
            "tgs_failovers": frontend.failovers,
            "unavailable_replies": frontend.unavailable,
            "errors": dict(sorted(run.errors.items())),
        },
        "queueing": {
            "per_shard": queueing_shards,
            "cluster_queue_wait_us": cluster_wait.summary(),
            "cluster_service_us": cluster_service.summary(),
        },
        "scheduler": run.sched.stats(),
        "timeseries": run.sampler.summaries(),
        "replay_probe": run.probe,
        "cluster": {
            "realm": frontend.realm,
            "shards": len(frontend.shards),
            "requests": dict(frontend.requests),
            "failovers": frontend.failovers,
            "unavailable": frontend.unavailable,
            "per_shard": [shard.stats() for shard in frontend.shards],
        },
        "metrics": run.metrics,
    }
    if run.scaling_curve is not None:
        report["scaling_curve"] = run.scaling_curve
    return report


def diurnal_curve(requests: int, interarrival_us: int,
                  now: int) -> DiurnalCurve:
    """The ``--diurnal`` arrival-rate curve, in both modes.

    Two compressed "days" over the expected run, anchored at *now* (the
    clock reading when the calendar is drawn), so the surge of the
    first peak lands mid-run — a 9am rush in miniature.  A literal
    24-hour period would be flat across a few sim-seconds.
    """
    return DiurnalCurve(
        period_us=max(1000, (requests * interarrival_us) // 2),
        phase_us=-now,
    )


def _run_engine(
    shards: int, clients: int, requests: int, workers_per_shard: int,
    seed: int, faults: bool, replay_cache_capacity: int,
    interarrival_us: int, tracer: Optional[Tracer], diurnal: bool,
) -> LoadRun:
    """Engine mode: every unit runs the real protocol on a testbed."""
    protocol = ProtocolConfig.v5_draft3().but(replay_cache=True)
    bed = Testbed(
        protocol, seed=seed, shards=shards,
        workers_per_shard=workers_per_shard,
        replay_cache_capacity=replay_cache_capacity,
    )
    registry = MetricsRegistry()
    bed.bus.subscribe(MetricsSink(registry))
    if tracer is not None:
        tracer.bind_clock(bed.clock)
        bed.bus.tracer = tracer

    for i in range(clients):
        bed.add_user(f"user{i}", f"pw-{i}")
    mail = bed.add_mail_server("mailhost")
    cluster = bed.realm.cluster
    assert cluster is not None
    sched = Scheduler(bed.clock)

    # Open-loop arrival calendar, fixed before any traffic flows.
    calendar_rng = bed.rng.fork("load:arrivals")
    now = bed.clock.now()
    curve = (diurnal_curve(requests, interarrival_us, now) if diurnal
             else None)
    first = now + calendar_rng.randint(
        interarrival_us // 2, 3 * interarrival_us // 2
    )
    arrivals: List[int] = list(open_loop_arrivals(
        calendar_rng, requests, interarrival_us, diurnal=curve, start=first,
    ))
    retry = RetryLoop(calendar_rng.fork("backoff"), bed.bus)
    sampler = cluster_sampler(bed.clock, cluster, lambda: retry.retries,
                              interarrival_us)

    frontend = cluster.frontend_host.address

    def unit(op: int, intended: int, finish: Finish) -> Iterator[Any]:
        """One workload unit: AS, then TGS, each through the retry
        loop, then AP, yielding between phases so each phase's requests
        enter the worker pools in global virtual-time order.
        Worker-pool queueing stalls the serving events themselves, so
        it is already inside the clock."""
        sampler.poll()
        user = op % clients
        name, password = f"user{user}", f"pw-{user}"
        workstation = bed.add_workstation(f"lws{op}")
        marks = [intended]
        error: Optional[str] = None
        try:
            outcome = yield from retry(
                AS_SERVICE, lambda: bed.login(name, password, workstation),
            )
            marks.append(bed.clock.now())
            yield wait(0)

            client = outcome.client
            cred = yield from retry(
                TGS_SERVICE, lambda: client.get_service_ticket(mail.principal),
            )
            marks.append(bed.clock.now())
            yield wait(0)

            session = client.ap_exchange(cred, bed.endpoint(mail))
            session.call(b"COUNT")
            marks.append(bed.clock.now())
        except KerberosError as err:
            error = ("unavailable" if err.code == ERR_UNAVAILABLE
                     else f"kerberos-{err.code}")
        except NetworkError:
            error = "network"
        finish(marks, error)

    def recorded() -> List[WireMessage]:
        """The client-to-frontend TGS requests on the wire, in order."""
        return [
            m for m in bed.adversary.recorded(service="tgs",
                                              direction="request")
            if m.dst.address == frontend
        ]

    def replay(message: WireMessage) -> bool:
        """Re-inject a recorded TGS request byte-for-byte."""
        reply = bed.network.inject(
            "10.66.6.6", Endpoint(frontend, "tgs"), message.payload
        )
        is_error, body = unframe(protocol, reply)
        return is_error and \
            decode_error(protocol, body)["code"] == ERR_REPLAY

    hosts = [shard.host.address for shard in cluster.shards]
    driven = run_units(
        sched, sampler, arrivals, fault_window(faults, requests, shards),
        unit, fail=lambda s: bed.network.fail_host(hosts[s]),
        restore=lambda s: bed.network.restore_host(hosts[s]),
        recorded=recorded, replay=replay,
    )
    if tracer is not None:
        bed.bus.tracer = None

    return LoadRun(
        frontend=cluster,
        workload={
            "mode": "engine",
            "principals": {"total": clients, "materialized": clients},
            "zipf_s": None,
            "diurnal": bool(diurnal),
        },
        client_retries=retry.retries, metrics=registry.snapshot(), **driven,
    )


def render_report(report: Dict[str, Any]) -> str:
    """The human-readable form ``python -m repro load`` prints."""
    cfg = report["config"]
    unit = report["latency_us"]["unit"]
    through = report["throughput"]
    degrade = report["degradation"]
    probe = report["replay_probe"]
    workload = report.get("workload", {})
    lines = [
        "KDC service-layer load harness"
        + (" (--quick)" if report["quick"] else ""),
        "=" * 30,
        "",
        f"workload         {cfg['requests']} units from {cfg['clients']} "
        f"clients over {cfg['shards']} shards "
        f"({cfg['workers_per_shard']} workers each, seed {cfg['seed']})",
    ]
    principals = workload.get("principals")
    if workload.get("mode") == "model" and principals:
        lines.append(
            f"principals       {principals['total']:,} total, "
            f"{principals['materialized']:,} keys materialized "
            f"(zipf s={workload['zipf_s']}"
            + (", diurnal arrivals)" if workload.get("diurnal") else ")")
        )
    lines += [
        f"completed        {through['completed']} ok, "
        f"{through['failed']} failed in {through['sim_seconds']}s simulated",
        f"throughput       {through['ops_per_sim_s']:>9,.2f} units/sim-s"
        f"   ({through['ops_per_wall_s']:,.1f} units/wall-s, informational)",
        "",
        f"unit latency     p50 {unit['p50']:>8,}us   p95 {unit['p95']:>8,}us"
        f"   p99 {unit['p99']:>8,}us   max {unit['max']:>8,}us",
    ]
    for phase in ("as", "tgs", "ap"):
        s = report["latency_us"][phase]
        lines.append(
            f"  {phase:<4} exchange  p50 {s['p50']:>8,}us"
            f"   p95 {s['p95']:>8,}us   p99 {s['p99']:>8,}us"
        )
    lines.append("")
    queueing = report.get("queueing")
    if queueing:
        wait_s = queueing["cluster_queue_wait_us"]
        lines.append(
            f"queue wait       p50 {wait_s['p50']:>8,}us"
            f"   p95 {wait_s['p95']:>8,}us   p99 {wait_s['p99']:>8,}us"
            f"   max {wait_s['max']:>8,}us   (cluster-wide)"
        )
        for entry in queueing["per_shard"]:
            w = entry["queue_wait_us"]
            lines.append(
                f"  shard {entry['shard']}        p50 {w['p50']:>8,}us"
                f"   p95 {w['p95']:>8,}us   p99 {w['p99']:>8,}us"
                f"   util {entry['utilization_pct']:>3}%"
            )
        lines.append("")
    if degrade["fault_window"]:
        window = degrade["fault_window"]
        lines.append(
            f"fault injection  shard {window['shard']} down for ops "
            f"{window['first_op']}..{window['last_op']}: "
            f"{degrade['errors'].get('unavailable', 0)} unavailable, "
            f"{degrade['client_retries']} client retries, "
            f"{degrade['tgs_failovers']} TGS failovers"
        )
    else:
        lines.append("fault injection  disabled")
    caches = [s["replay_cache"] for s in report["cluster"]["per_shard"]]
    lines += [
        f"replay probe     {probe['rejected']}/{probe['attempted']} "
        "replayed authenticators rejected",
        f"replay caches    entries {[c['entries'] for c in caches]}"
        f"  hits {[c['hits'] for c in caches]}"
        f"  evictions {[c['evictions'] for c in caches]}",
    ]
    sched_stats = report.get("scheduler")
    if sched_stats:
        lines.append(
            f"scheduler        {sched_stats['events_processed']:,} events, "
            f"heap high-water {sched_stats['heap_high_water']:,}, "
            f"{sched_stats['timers_cancelled']:,} timers cancelled"
        )
    curve = report.get("scaling_curve")
    if curve:
        lines += ["", "scaling curve (shards x workers -> units/sim-s, "
                      "unit p99 us; * = on the frontier)"]
        for cell in curve["cells"]:
            marker = "*" if cell["frontier"] else " "
            lines.append(
                f"  {marker} {cell['shards']}x{cell['workers_per_shard']}"
                f"   {cell['ops_per_sim_s']:>10,.2f}/s"
                f"   p99 {cell['unit_p99_us']:>9,}us"
                f"   wait p99 {cell['queue_wait_p99_us']:>9,}us"
            )
    if "written_to" in report:
        lines += ["", f"wrote {report['written_to']}"]
    return "\n".join(lines)
