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
actually have started and finished?  Under the scheduler the cluster
stalls the serving event until that finish (below), so queue wait and
service time land in the load harness's latency percentiles — this is
what makes p99 diverge from p50 as offered load approaches pool
capacity.  Without a scheduler the pool only keeps its books.

Arrival times: the pool's free-times and the arrivals it is offered
live on the simulation's virtual timeline.  Under the discrete-event
scheduler (:mod:`repro.sim.sched`) that timeline carries genuinely
overlapping activity — each request is its own event chain, arriving
when its heap event fires — so offered load above pool capacity shows
up directly as growing queue wait.  (The old synchronous fabric
serialized every request and dragged the clock past each arrival,
which forced a de-lag retrofit, ``note_open_loop_arrival``, since
deleted: the scheduler made intended and actual arrival the same
thing.)  In scheduler mode the cluster also *stalls the serving event*
by the pool's queue-wait + service time, so a congested shard delays
its replies — downstream phases of a unit start later, exactly as a
real slow KDC would make them.

Batching: KDC work arrives in bursts (a login is an AS and a TGS
request back-to-back; K clients hammering the cluster overlap heavily).
Dispatch overhead — context switch, request parse, database lookup — is
paid in full by the first request of a burst, but requests that start
within ``batch_window_us`` of the previous dispatch ride the warm path
(schedules already derived via ``des.get_schedule``'s cache, code and
tables hot) and are charged the smaller ``batch_overhead_us``.  The
pool counts how often that happens so benchmarks can report the
amortisation.

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

    def __init__(
        self,
        workers: int = 2,
        overhead_us: int = DEFAULT_OVERHEAD_US,
        batch_overhead_us: int = DEFAULT_BATCH_OVERHEAD_US,
        batch_window_us: int = DEFAULT_BATCH_WINDOW_US,
        us_per_block_op: float = DEFAULT_US_PER_BLOCK_OP,
    ) -> None:
        if workers < 1:
            raise ValueError("a pool needs at least one worker")
        self.workers = workers
        self.overhead_us = overhead_us
        self.batch_overhead_us = batch_overhead_us
        self.batch_window_us = batch_window_us
        self.us_per_block_op = us_per_block_op
        # Heap of times at which each worker next comes free.
        self._free: List[int] = [0] * workers
        heapq.heapify(self._free)
        self._last_start = -(10**18)  # no batch in progress
        # Finish times of admitted jobs, for instantaneous queue depth.
        self._inflight: List[int] = []
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
        in_batch = start - self._last_start <= self.batch_window_us
        overhead = self.batch_overhead_us if in_batch else self.overhead_us
        service = overhead + int(block_ops * self.us_per_block_op)
        finish = start + service
        heapq.heappush(self._free, finish)
        heapq.heappush(self._inflight, finish)
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
        """Admitted jobs not yet finished at *now* (running + queued)."""
        inflight = self._inflight
        while inflight and inflight[0] <= now:
            heapq.heappop(inflight)
        return len(inflight)

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
