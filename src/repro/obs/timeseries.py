"""Time-series telemetry: log-bucketed histograms and tick-sampled gauges.

Keeping every sample is fine for hundreds of observations, wrong for
million-principal load runs, and impossible to combine across shards
without shipping raw samples around.  So every histogram in the repo —
load-harness latencies, worker-pool queue waits, and the
:class:`repro.obs.metrics.MetricsRegistry` histograms — is one type
from this module:

* :class:`LogHistogram` — an HDR-style histogram over non-negative
  integers (microseconds, queue depths, byte counts).  Values below
  ``2**sub_bits`` are recorded exactly; above that, buckets are
  logarithmic with ``2**sub_bits`` linear sub-buckets per octave, so the
  relative quantisation error is bounded by ``2**-sub_bits`` while the
  whole structure stays a small dict of counts.  Crucially ``merge`` is
  **associative and commutative** — per-shard histograms can be folded
  into a cluster-wide one in any order and produce identical
  percentiles, the property that makes per-shard recording safe
  (pinned by ``tests/test_obs_timeseries.py``).  The load harness's
  hot paths do not record one sample at a time: they append samples to
  a plain list and fold it in bulk (``record_many``) when the histogram
  is read and every :data:`FOLD_THRESHOLD` samples, which leaves the
  same histogram and keeps the pending list bounded.

* :class:`RingBuffer` — a bounded series of ``(time, value)`` samples;
  the oldest fall off first, so a long run keeps a recent window rather
  than growing without bound.

* :class:`TickSampler` — gauges sampled on virtual-time ticks.  Probes
  (per-shard queue depth, worker utilization, replay-cache occupancy,
  retry and failover counters) are registered once; ``poll()`` is
  called from the workload loop and samples every registered probe at
  most once per ``tick_us`` of *simulated* time, stamping samples with
  the simulation clock so two identical runs produce identical series.

Everything is pure bookkeeping on integers: no wall clock, no floats in
the stored state, deterministic rendering.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["FOLD_THRESHOLD", "LogHistogram", "RingBuffer", "TickSampler",
           "percentile_of"]

#: A sample list waiting for :meth:`LogHistogram.record_many` is folded
#: once it holds this many samples, so memory stays bounded however
#: long a run goes unread.
FOLD_THRESHOLD = 1024


def percentile_of(values: List[int], p: float) -> int:
    """Nearest-rank percentile of a small sample list (0 when empty)."""
    if not values:
        return 0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(p / 100.0 * len(ordered))))
    return ordered[rank]


class LogHistogram:
    """Log-bucketed histogram of non-negative ints, mergeable across shards.

    Bucket layout (``m = 2**sub_bits``): values ``v < m`` map to bucket
    ``v`` (exact); larger values map to ``e*m + (v >> e)`` where
    ``e = v.bit_length() - 1 - sub_bits`` — one octave per ``e``, ``m``
    linear sub-buckets inside it.  A bucket's representative value is
    its lower bound, so reported percentiles never exceed the true
    value; the exact ``max`` and ``total`` are tracked on the side.
    """

    def __init__(self, sub_bits: int = 6):
        if not 1 <= sub_bits <= 16:
            raise ValueError("sub_bits must be in [1, 16]")
        self.sub_bits = sub_bits
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0
        self.max_value = 0
        self.min_value: Optional[int] = None

    # -- recording -------------------------------------------------------

    def _lower_bound(self, index: int) -> int:
        if index < (1 << self.sub_bits):
            return index
        e = (index >> self.sub_bits) - 1
        # ``index`` in octave e encodes a mantissa in [2**sub_bits, 2**(sub_bits+1))
        return (index - (e << self.sub_bits)) << e

    def record(self, value: int, n: int = 1) -> None:
        if value < 0:
            raise ValueError("LogHistogram records non-negative values")
        if n < 1:
            return
        # the bucket index of the layout above, computed inline here
        # and in record_many: both sit on hot paths (MetricsSink records
        # here per bus event)
        sub_bits = self.sub_bits
        if value < (1 << sub_bits):
            index = value
        else:
            e = value.bit_length() - 1 - sub_bits
            index = (e << sub_bits) + (value >> e)
        self._buckets[index] = self._buckets.get(index, 0) + n
        self.count += n
        self.total += value * n
        if value > self.max_value:
            self.max_value = value
        if self.min_value is None or value < self.min_value:
            self.min_value = value

    def record_many(self, values: Sequence[int]) -> None:
        """Record each of *values* once, in bulk: the same buckets,
        ``count``, ``total``, ``min_value`` and ``max_value`` as calling
        :meth:`record` per value.  A negative value raises before
        anything changes."""
        if not values:
            return
        low = min(values)
        if low < 0:
            raise ValueError("LogHistogram records non-negative values")
        buckets = self._buckets
        sub_bits = self.sub_bits
        exact = 1 << sub_bits
        for value, n in Counter(values).items():
            if value < exact:
                index = value
            else:
                e = value.bit_length() - 1 - sub_bits
                index = (e << sub_bits) + (value >> e)
            buckets[index] = buckets.get(index, 0) + n
        self.count += len(values)
        self.total += sum(values)
        high = max(values)
        if high > self.max_value:
            self.max_value = high
        if self.min_value is None or low < self.min_value:
            self.min_value = low

    # -- merging ---------------------------------------------------------

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Fold *other* into self (in place); returns self for chaining.

        Associative and commutative: ``a.merge(b).merge(c)`` equals
        ``a.merge(b.merge(c))`` bucket for bucket, which is what lets
        per-shard histograms combine into cluster-wide percentiles in
        any order.
        """
        if other.sub_bits != self.sub_bits:
            raise ValueError("cannot merge histograms with different sub_bits")
        for index, n in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + n
        self.count += other.count
        self.total += other.total
        if other.max_value > self.max_value:
            self.max_value = other.max_value
        if other.min_value is not None and (
            self.min_value is None or other.min_value < self.min_value
        ):
            self.min_value = other.min_value
        return self

    def copy(self) -> "LogHistogram":
        out = LogHistogram(self.sub_bits)
        out._buckets = dict(self._buckets)
        out.count = self.count
        out.total = self.total
        out.max_value = self.max_value
        out.min_value = self.min_value
        return out

    # -- reading ---------------------------------------------------------

    def percentile(self, p: float) -> int:
        """Nearest-rank percentile, quantised to its bucket's lower bound."""
        if not self.count:
            return 0
        rank = max(0, min(self.count - 1, int(p / 100.0 * self.count)))
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen > rank:
                return min(self._lower_bound(index), self.max_value)
        return self.max_value  # pragma: no cover — seen always passes rank

    def summary(self) -> Dict[str, int]:
        """The report shape the load harness uses, all integers."""
        if not self.count:
            return {"count": 0, "p50": 0, "p95": 0, "p99": 0,
                    "mean": 0, "max": 0}
        return {
            "count": self.count,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "mean": self.total // self.count,
            "max": self.max_value,
        }

    def snapshot(self) -> Dict[int, int]:
        """The raw bucket counts, sorted — equality means equal histograms."""
        return {index: self._buckets[index] for index in sorted(self._buckets)}


class RingBuffer:
    """A bounded, ordered series of ``(time, value)`` samples."""

    def __init__(self, capacity: int = 512):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._samples: List[Tuple[int, int]] = []
        self._head = 0          # index of the oldest retained sample
        self.dropped = 0        # samples that fell off the window

    def append(self, time: int, value: int) -> None:
        if len(self._samples) < self.capacity:
            self._samples.append((time, value))
            return
        self._samples[self._head] = (time, value)
        self._head = (self._head + 1) % self.capacity
        self.dropped += 1

    def __len__(self) -> int:
        return len(self._samples)

    def samples(self) -> List[Tuple[int, int]]:
        """Retained samples, oldest first."""
        return self._samples[self._head:] + self._samples[:self._head]

    def values(self) -> List[int]:
        return [value for _time, value in self.samples()]

    def latest(self) -> Optional[Tuple[int, int]]:
        return self.samples()[-1] if self._samples else None

    def summary(self) -> Dict[str, int]:
        values = self.values()
        if not values:
            return {"samples": 0, "min": 0, "p50": 0, "p95": 0,
                    "max": 0, "last": 0}
        return {
            "samples": len(values) + self.dropped,
            "min": min(values),
            "p50": percentile_of(values, 50),
            "p95": percentile_of(values, 95),
            "max": max(values),
            "last": values[-1],
        }


class TickSampler:
    """Sample registered gauge probes on virtual-time ticks.

    ``poll()`` is cheap enough to call once per workload unit: it reads
    the clock and returns immediately until ``tick_us`` of simulated
    time has passed since the last sample.  ``tick()`` forces a sample
    (used for the final reading at the end of a run).
    """

    def __init__(self, clock, tick_us: int = 1000, capacity: int = 512):
        if tick_us < 1:
            raise ValueError("tick_us must be at least 1")
        self._clock = clock
        self.tick_us = tick_us
        self.capacity = capacity
        self._probes: Dict[str, Callable[[], int]] = {}
        self.series: Dict[str, RingBuffer] = {}
        self._next_tick: Optional[int] = None
        self.ticks = 0

    def gauge(self, name: str, probe: Callable[[], int]) -> RingBuffer:
        """Register *probe*; it is read at every subsequent tick."""
        if name in self._probes:
            raise ValueError(f"gauge {name!r} already registered")
        self._probes[name] = probe
        series = self.series[name] = RingBuffer(self.capacity)
        return series

    def poll(self) -> bool:
        """Sample if a tick has elapsed; True when a sample was taken."""
        now = self._clock.now()
        if self._next_tick is not None and now < self._next_tick:
            return False
        self._sample(now)
        self._next_tick = now + self.tick_us
        return True

    def tick(self) -> None:
        """Unconditionally sample every probe right now."""
        now = self._clock.now()
        self._sample(now)
        self._next_tick = now + self.tick_us

    def _sample(self, now: int) -> None:
        self.ticks += 1
        for name, probe in self._probes.items():
            self.series[name].append(now, int(probe()))

    def summaries(self) -> Dict[str, Dict[str, int]]:
        """Per-gauge summary dicts, sorted by gauge name."""
        return {name: self.series[name].summary()
                for name in sorted(self.series)}

    def render_rows(self) -> List[List[Any]]:
        """Table rows (gauge, samples, min, p50, p95, max, last)."""
        rows: List[List[Any]] = []
        for name, s in self.summaries().items():
            rows.append([name, s["samples"], s["min"], s["p50"],
                        s["p95"], s["max"], s["last"]])
        return rows
