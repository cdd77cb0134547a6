"""Virtual-time worker pools: where KDC queueing delay comes from.

The simulation is synchronous — a handler runs to completion the moment
its request arrives — so CPU contention on a busy KDC would otherwise be
invisible.  This module makes it visible the same way the rest of the
reproduction handles time: as explicit, deterministic bookkeeping.

Each shard (:class:`repro.serve.cluster.Shard`) owns a
:class:`WorkerPool` of N virtual workers, in both modes of the load
harness.  When the engine frontend dispatches a request it reports the
request's *measured* DES cost (the :data:`repro.crypto.des.BLOCK_OPS`
delta across the handler, so the accounting automatically tracks the
table-driven fast path and the config's cipher choices); the scale
model (:mod:`repro.serve.scale`) reports the calibrated per-service
count instead.  The pool answers the queueing question: given when
this request arrived and when a worker next comes free, when would it
actually have started and finished?  Under the scheduler the serving
event runs on until that finish, in both modes, so queue wait and
service time land in the load harness's latency percentiles — this is
what makes p99 diverge from p50 as offered load approaches pool
capacity, and a congested shard delays its replies and every later
phase of the unit.  Without a scheduler the pool only keeps its books.

Arrival times: the pool's free-times and the arrivals it is offered
live on the simulation's virtual timeline.  Under the discrete-event
scheduler (:mod:`repro.sim.sched`) that timeline carries genuinely
overlapping activity — each request is its own event chain — so
offered load above pool capacity shows up directly as growing queue
wait.  A request is served synchronously inside one scheduler event,
so the pool can admit it before it arrives: the scale model admits
each request when its event starts, one wire transit ahead of its
arrival.  :meth:`WorkerPool.queue_depth` therefore counts only the jobs
that have arrived (``arrival <= now < finish``).

Costs are module constants, the same for every pool and picked by
hand, not measured: a job costs a dispatch overhead (below) plus
:data:`DEFAULT_US_PER_BLOCK_OP` per DES block operation.

Batching: KDC work arrives in bursts (a login is an AS and a TGS
request back-to-back; K clients hammering the cluster overlap heavily).
Dispatch overhead — context switch, request parse, database lookup — is
paid in full (:data:`DEFAULT_OVERHEAD_US`) by the first request of a
burst, but requests that start within :data:`DEFAULT_BATCH_WINDOW_US`
of the previous dispatch ride the warm path (schedules already derived
via ``des.get_schedule``'s cache, code and tables hot) and are charged
the smaller :data:`DEFAULT_BATCH_OVERHEAD_US`.  The pool counts how
often that happens so benchmarks can report the amortisation.

Telemetry: every ``schedule`` appends its queue wait and service time
to two plain lists, which are folded in bulk into mergeable
:class:`repro.obs.timeseries.LogHistogram`\\ s (per-shard percentiles
in ``BENCH_kdc.json``; cluster-wide ones are a fold) when a histogram
is read and every :data:`repro.obs.timeseries.FOLD_THRESHOLD` jobs.
``jobs``, ``queue_wait_us`` and ``max_queue_wait_us`` are read off the
wait histogram.  The pool answers :meth:`queue_depth` and
:meth:`utilization_pct` for the tick-sampled gauges the load harness
reports and ``python -m repro monitor`` plots; the in-flight heap
behind :meth:`queue_depth` is filled only when it is read, so a pool
nobody samples (a scaling-curve cell) never pays for it.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple

from repro.obs.timeseries import FOLD_THRESHOLD, LogHistogram

__all__ = ["WorkerPool"]

#: Fixed dispatch cost for a cold request, in microseconds.
DEFAULT_OVERHEAD_US = 120
#: Dispatch cost when the request lands inside an active batch window.
DEFAULT_BATCH_OVERHEAD_US = 30
#: Two dispatches closer together than this share one warm-up.
DEFAULT_BATCH_WINDOW_US = 500
#: Marginal cost per DES block operation on the table-driven fast path.
DEFAULT_US_PER_BLOCK_OP = 2.0


#: ``_last_start`` before the first job: no batch is open.
_NO_JOB_YET = -(10**18)


class WorkerPool:
    """N virtual workers for one shard, tracked as a heap of free-times."""

    def __init__(self, workers: int = 2) -> None:
        if workers < 1:
            raise ValueError("a pool needs at least one worker")
        self.workers = workers
        # Heap of times at which each worker next comes free.
        self._free: List[int] = [0] * workers
        heapq.heapify(self._free)
        self._last_start = _NO_JOB_YET
        # (finish, arrival) of admitted jobs, for instantaneous queue
        # depth: appended here, pushed onto the heap when it is read.
        self._admitted: List[Tuple[int, int]] = []
        self._inflight: List[Tuple[int, int]] = []
        # Per-job samples not yet folded into the histograms.
        self._waits: List[int] = []
        self._services: List[int] = []
        self._wait_histogram = LogHistogram()
        self._service_histogram = LogHistogram()
        # -- accounting ------------------------------------------------
        self.batched_jobs = 0
        self.busy_us = 0
        self.first_arrival_us = 0   # pool-timeline window for utilization
        self.last_finish_us = 0

    def schedule(self, arrival: int, block_ops: int) -> Tuple[int, int]:
        """Admit a request that arrived at *arrival* costing *block_ops*
        DES block operations; return ``(start, finish)`` virtual times.

        ``start - arrival`` is the queueing delay (zero when a worker is
        idle); ``finish - start`` is the service time.
        """
        soonest_free = heapq.heappop(self._free)
        start = max(arrival, soonest_free)
        last_start = self._last_start
        in_batch = start - last_start <= DEFAULT_BATCH_WINDOW_US
        overhead = (DEFAULT_BATCH_OVERHEAD_US if in_batch
                    else DEFAULT_OVERHEAD_US)
        service = overhead + int(block_ops * DEFAULT_US_PER_BLOCK_OP)
        finish = start + service
        heapq.heappush(self._free, finish)
        self._admitted.append((finish, arrival))
        self._last_start = start

        if last_start == _NO_JOB_YET:
            self.first_arrival_us = arrival
        if in_batch:
            self.batched_jobs += 1
        self.busy_us += service
        if finish > self.last_finish_us:
            self.last_finish_us = finish
        waits = self._waits
        waits.append(start - arrival)
        self._services.append(service)
        if len(waits) >= FOLD_THRESHOLD:
            self._fold()
        return start, finish

    def _fold(self) -> None:
        """Fold the pending per-job samples into the histograms."""
        self._wait_histogram.record_many(self._waits)
        self._service_histogram.record_many(self._services)
        self._waits.clear()
        self._services.clear()

    @property
    def wait_histogram(self) -> LogHistogram:
        """Queue wait of every job admitted so far, in microseconds."""
        self._fold()
        return self._wait_histogram

    @property
    def service_histogram(self) -> LogHistogram:
        """Service time of every job admitted so far, in microseconds."""
        self._fold()
        return self._service_histogram

    # The wait histogram counts, sums and maxes its samples exactly.

    @property
    def jobs(self) -> int:
        """Jobs admitted so far."""
        return self.wait_histogram.count

    @property
    def queue_wait_us(self) -> int:
        """Total queue wait over every job, in microseconds."""
        return self.wait_histogram.total

    @property
    def max_queue_wait_us(self) -> int:
        """Longest queue wait of any job, in microseconds."""
        return self.wait_histogram.max_value

    # -- instantaneous gauges (tick-sampled by the monitor) -------------

    def queue_depth(self, now: int) -> int:
        """Jobs arrived but not yet finished at *now* (running +
        queued): ``arrival <= now < finish``.  The scale model admits a
        request one wire transit before it arrives, and a job that has
        not arrived is not in the queue yet."""
        inflight = self._inflight
        for job in self._admitted:
            heapq.heappush(inflight, job)
        self._admitted.clear()
        while inflight and inflight[0][0] <= now:
            heapq.heappop(inflight)
        return sum(1 for _finish, arrival in inflight if arrival <= now)

    def utilization_pct(self) -> int:
        """Busy time over the pool's active window, 0–100 (whole run)."""
        window = self.last_finish_us - self.first_arrival_us
        if window <= 0:
            return 0
        return min(100, (100 * self.busy_us) // (self.workers * window))

    def stats(self) -> Dict[str, object]:
        return {
            "workers": self.workers,
            "jobs": self.jobs,
            "batched_jobs": self.batched_jobs,
            "busy_us": self.busy_us,
            "queue_wait_us": self.queue_wait_us,
            "max_queue_wait_us": self.max_queue_wait_us,
            "utilization_pct": self.utilization_pct(),
            "queue_wait_percentiles_us": self.wait_histogram.summary(),
            "service_percentiles_us": self.service_histogram.summary(),
        }
