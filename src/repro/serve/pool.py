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

Telemetry: every ``schedule`` records its queue wait and service time
into mergeable :class:`repro.obs.timeseries.LogHistogram`\\ s (per-shard
percentiles in ``BENCH_kdc.json``; cluster-wide ones are a fold), and
the pool answers :meth:`queue_depth` and :meth:`utilization_pct` for
the tick-sampled gauges the load harness reports and ``python -m repro
monitor`` plots.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple

from repro.obs.timeseries import LogHistogram

__all__ = ["WorkerPool"]

#: Fixed dispatch cost for a cold request, in microseconds.
DEFAULT_OVERHEAD_US = 120
#: Dispatch cost when the request lands inside an active batch window.
DEFAULT_BATCH_OVERHEAD_US = 30
#: Two dispatches closer together than this share one warm-up.
DEFAULT_BATCH_WINDOW_US = 500
#: Marginal cost per DES block operation on the table-driven fast path.
DEFAULT_US_PER_BLOCK_OP = 2.0


class WorkerPool:
    """N virtual workers for one shard, tracked as a heap of free-times."""

    def __init__(self, workers: int = 2) -> None:
        if workers < 1:
            raise ValueError("a pool needs at least one worker")
        self.workers = workers
        # Heap of times at which each worker next comes free.
        self._free: List[int] = [0] * workers
        heapq.heapify(self._free)
        self._last_start = -(10**18)  # no batch in progress
        # (finish, arrival) of admitted jobs, for instantaneous queue depth.
        self._inflight: List[Tuple[int, int]] = []
        # -- accounting ------------------------------------------------
        self.jobs = 0
        self.batched_jobs = 0
        self.busy_us = 0
        self.queue_wait_us = 0
        self.max_queue_wait_us = 0
        self.first_arrival_us = 0   # pool-timeline window for utilization
        self.last_finish_us = 0
        self.wait_histogram = LogHistogram()
        self.service_histogram = LogHistogram()

    def schedule(self, arrival: int, block_ops: int) -> Tuple[int, int]:
        """Admit a request that arrived at *arrival* costing *block_ops*
        DES block operations; return ``(start, finish)`` virtual times.

        ``start - arrival`` is the queueing delay (zero when a worker is
        idle); ``finish - start`` is the service time.
        """
        soonest_free = heapq.heappop(self._free)
        start = max(arrival, soonest_free)
        in_batch = start - self._last_start <= DEFAULT_BATCH_WINDOW_US
        overhead = (DEFAULT_BATCH_OVERHEAD_US if in_batch
                    else DEFAULT_OVERHEAD_US)
        service = overhead + int(block_ops * DEFAULT_US_PER_BLOCK_OP)
        finish = start + service
        heapq.heappush(self._free, finish)
        heapq.heappush(self._inflight, (finish, arrival))
        self._last_start = start

        if not self.jobs:
            self.first_arrival_us = arrival
        self.jobs += 1
        if in_batch:
            self.batched_jobs += 1
        self.busy_us += service
        if finish > self.last_finish_us:
            self.last_finish_us = finish
        wait = start - arrival
        self.queue_wait_us += wait
        if wait > self.max_queue_wait_us:
            self.max_queue_wait_us = wait
        self.wait_histogram.record(wait)
        self.service_histogram.record(service)
        return start, finish

    # -- instantaneous gauges (tick-sampled by the monitor) -------------

    def queue_depth(self, now: int) -> int:
        """Jobs arrived but not yet finished at *now* (running +
        queued): ``arrival <= now < finish``.  The scale model admits a
        request one wire transit before it arrives, and a job that has
        not arrived is not in the queue yet."""
        inflight = self._inflight
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
