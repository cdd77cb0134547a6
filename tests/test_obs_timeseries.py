"""Log histograms, ring buffers, and the tick sampler.

The property that matters most is merge associativity: per-shard
histograms must fold into cluster-wide percentiles in any order and
agree bucket for bucket, or the per-shard recording in
``repro.serve.pool`` would not be safe to aggregate.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.timeseries import (
    LogHistogram, RingBuffer, TickSampler, percentile_of,
)
from repro.sim.clock import SimClock


def test_small_values_are_exact():
    hist = LogHistogram(sub_bits=6)
    for value in range(64):
        hist.record(value)
    for p, expected in ((0, 0), (50, 32), (99, 63)):
        assert hist.percentile(p) == expected


def test_relative_error_is_bounded_by_sub_bits():
    hist = LogHistogram(sub_bits=6)
    values = [1, 17, 63, 64, 100, 1000, 12_345, 999_999, 2**30]
    for value in values:
        fresh = LogHistogram(sub_bits=6)
        fresh.record(value)
        reported = fresh.percentile(50)
        assert reported <= value
        assert value - reported <= value / (1 << 6)
    for value in values:
        hist.record(value)
    assert hist.count == len(values)
    assert hist.max_value == 2**30
    assert hist.min_value == 1


@given(st.lists(st.integers(min_value=0, max_value=2**40), min_size=1,
                max_size=300))
@settings(max_examples=200, deadline=None)
def test_summary_is_within_one_sub_bucket_of_exact(values):
    """Percentiles are bucket lower bounds: never above the exact
    nearest-rank value and less than 1/64 below it.  Count, mean and
    max are exact."""
    hist = LogHistogram(sub_bits=6)
    for value in values:
        hist.record(value)
    summary = hist.summary()
    ordered = sorted(values)
    for p in (50, 95, 99):
        exact = ordered[min(len(ordered) - 1, int(p / 100 * len(ordered)))]
        reported = summary[f"p{p}"]
        assert reported <= exact
        assert 64 * (exact - reported) < max(exact, 1)
    assert summary["count"] == len(values)
    assert summary["mean"] == sum(values) // len(values)
    assert summary["max"] == max(values)


def test_percentiles_never_exceed_max():
    hist = LogHistogram()
    hist.record(1000, n=99)
    hist.record(1001)
    assert hist.percentile(99) <= hist.max_value
    summary = hist.summary()
    assert summary["p50"] <= summary["p95"] <= summary["p99"] \
        <= summary["max"]


def test_merge_is_associative_and_commutative():
    def build(seed_values):
        hist = LogHistogram()
        for value in seed_values:
            hist.record(value)
        return hist

    a_values = [3, 70, 450, 12_000]
    b_values = [0, 64, 64, 9_999, 2**20]
    c_values = [5, 5, 5, 100_000]

    left = build(a_values).merge(build(b_values)).merge(build(c_values))
    right = build(a_values).merge(build(b_values).merge(build(c_values)))
    swapped = build(c_values).merge(build(a_values)).merge(build(b_values))

    assert left.snapshot() == right.snapshot() == swapped.snapshot()
    assert left.count == right.count == swapped.count
    assert left.summary() == right.summary() == swapped.summary()


def test_merge_rejects_mismatched_resolution():
    with pytest.raises(ValueError):
        LogHistogram(sub_bits=6).merge(LogHistogram(sub_bits=7))


def test_empty_histogram_summary_is_zeroed():
    assert LogHistogram().summary() == {
        "count": 0, "p50": 0, "p95": 0, "p99": 0, "mean": 0, "max": 0,
    }


def test_copy_is_independent():
    original = LogHistogram()
    original.record(10)
    clone = original.copy()
    clone.record(20)
    assert original.count == 1 and clone.count == 2


def test_negative_values_are_rejected():
    with pytest.raises(ValueError):
        LogHistogram().record(-1)


def _books(hist):
    return (hist.snapshot(), hist.count, hist.total, hist.min_value,
            hist.max_value, hist.summary())


_SAMPLES = st.one_of(
    st.just(0),
    st.integers(min_value=0, max_value=63),   # exact buckets at sub_bits=6
    st.integers(min_value=2**40 - 4096, max_value=2**40 + 4096),
    st.integers(min_value=0, max_value=2**40),
)


@given(sub_bits=st.sampled_from([1, 6, 16]),
       before=st.lists(_SAMPLES, max_size=20),
       values=st.lists(_SAMPLES, max_size=300))
@example(sub_bits=6, before=[], values=[])
@example(sub_bits=6, before=[], values=[0, 0, 0])
@example(sub_bits=6, before=[], values=list(range(64)))
@example(sub_bits=6, before=[], values=[2**40 - 1, 2**40, 2**40 + 1])
@example(sub_bits=6, before=[7, 0, 2**40], values=[64, 65, 0, 63, 2**40])
@settings(max_examples=200, deadline=None)
def test_record_many_equals_a_loop_of_record(sub_bits, before, values):
    """The load harness folds its samples in bulk; the histogram must
    be the one recording them one by one would have built, including
    after earlier single records."""
    looped, bulk = LogHistogram(sub_bits), LogHistogram(sub_bits)
    for value in before:
        looped.record(value)
        bulk.record(value)
    for value in values:
        looped.record(value)
    bulk.record_many(values)
    assert _books(bulk) == _books(looped)


@given(before=st.lists(_SAMPLES, max_size=20),
       values=st.lists(st.integers(min_value=-2**40, max_value=2**40),
                       min_size=1, max_size=50).filter(
                           lambda values: min(values) < 0))
@settings(max_examples=100, deadline=None)
def test_record_many_rejects_negatives_before_changing_anything(
        before, values):
    hist = LogHistogram()
    for value in before:
        hist.record(value)
    books = _books(hist)
    with pytest.raises(ValueError):
        hist.record_many(values)
    assert _books(hist) == books


def test_percentile_of_nearest_rank():
    assert percentile_of([], 50) == 0
    assert percentile_of([5], 99) == 5
    assert percentile_of([1, 2, 3, 4], 50) == 3
    assert percentile_of([4, 3, 2, 1], 0) == 1


def test_ring_buffer_drops_oldest_first():
    ring = RingBuffer(capacity=3)
    for i in range(5):
        ring.append(time=i, value=i * 10)
    assert ring.samples() == [(2, 20), (3, 30), (4, 40)]
    assert ring.dropped == 2
    assert ring.latest() == (4, 40)
    assert ring.summary()["samples"] == 5  # retained + dropped
    assert ring.summary()["last"] == 40


def test_tick_sampler_samples_on_virtual_ticks_only():
    clock = SimClock()
    sampler = TickSampler(clock, tick_us=100)
    reads = {"n": 0}

    def probe():
        reads["n"] += 1
        return reads["n"]

    sampler.gauge("g", probe)
    assert sampler.poll() is True      # first poll always samples
    assert sampler.poll() is False     # same instant: no new tick
    clock.advance(99)
    assert sampler.poll() is False     # tick not yet elapsed
    clock.advance(1)
    assert sampler.poll() is True
    assert sampler.series["g"].values() == [1, 2]
    sampler.tick()                      # forced, regardless of the clock
    assert sampler.series["g"].values() == [1, 2, 3]


def test_tick_sampler_rejects_duplicate_gauges():
    sampler = TickSampler(SimClock())
    sampler.gauge("g", lambda: 0)
    with pytest.raises(ValueError):
        sampler.gauge("g", lambda: 1)


def test_tick_sampler_render_rows_are_sorted():
    clock = SimClock()
    sampler = TickSampler(clock)
    sampler.gauge("b", lambda: 2)
    sampler.gauge("a", lambda: 1)
    sampler.tick()
    rows = sampler.render_rows()
    assert [row[0] for row in rows] == ["a", "b"]
    assert rows[0][-1] == 1  # "last" column
