"""Tests for the benchmark's own arithmetic.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from measure import changed_fields, digest, nearest_rank, tail_percentile

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


# -- the percentile rule -------------------------------------------------------


def test_p99_when_ten_samples_lie_beyond_it():
    values = list(range(1, 2001))
    assert tail_percentile(values) == (99, 1980)
    assert tail_percentile(list(range(1, 1001))) == (99, 990)


def test_falls_back_to_the_highest_percentile_with_ten_beyond():
    p, value = tail_percentile(list(range(1, 501)))
    assert (p, value) == (98, 490)
    assert sum(1 for v in range(1, 501) if v > value) == 10


def test_too_few_samples_for_a_tail_gives_the_median():
    assert tail_percentile([5.0, 1.0, 3.0]) == (50, 3.0)
    assert tail_percentile(list(range(19))) == (50, 9)


def test_nearest_rank():
    assert nearest_rank([1, 2, 3, 4], 50) == 2
    assert nearest_rank([1, 2, 3, 4], 100) == 4
    with pytest.raises(ValueError):
        tail_percentile([])


# -- self time -------------------------------------------------------------------


class FakeClock:
    def __init__(self, *ticks: int) -> None:
        self.ticks = list(ticks)

    def __call__(self) -> int:
        return self.ticks.pop(0)


def test_self_time_subtraction():
    from layers import Recorder

    rec = Recorder(clock=FakeClock(0, 10, 15, 30, 40, 50, 55, 100))
    a = rec.open("a")        # 0
    b = rec.open("b")        # 10
    c = rec.open("c")        # 15
    rec.close(c)             # 30: c lasted 15
    rec.close(b)             # 40: b lasted 30, self 15
    b2 = rec.open("b")       # 50
    rec.close(b2)            # 55: b lasted 5, self 5
    rec.close(a)             # 100: a lasted 100, children 35, self 65
    assert rec.total_ns == {"a": 100, "b": 35, "c": 15}
    assert rec.self_ns == {"a": 65, "b": 20, "c": 15}
    assert rec.calls == {"a": 1, "b": 2, "c": 1}
    assert sum(rec.self_ns.values()) == rec.total_ns["a"]
    # (id, parent, name) in close order; a=1, b=2, c=3, the second b=4.
    assert [span[:3] for span in rec.spans] == [
        (3, 2, "c"), (2, 1, "b"), (4, 1, "b"), (1, 0, "a"),
    ]


def test_nested_span_of_the_same_name_folds_into_its_parent():
    from layers import Recorder, wrap

    rec = Recorder(clock=FakeClock(0, 100))

    def inner() -> str:
        return "done"

    traced_inner = wrap(rec, inner, "x")
    traced_outer = wrap(rec, lambda: traced_inner(), "x")
    assert traced_outer() == "done"
    assert rec.calls == {"x": 1}
    assert rec.self_ns == {"x": 100}


def test_rpc_into_a_frontend_is_renamed_when_it_forwards_to_a_shard():
    from layers import Recorder, wrap_rpc

    class Dst:
        def __init__(self, service: str) -> None:
            self.service = service

    rec = Recorder(clock=FakeClock(0, 10, 20, 30, 40, 50))
    calls = []

    def rpc(_self, _src, dst, _payload):
        calls.append(dst.service)
        if len(calls) == 1:
            traced(None, "fe", Dst("tgs"), b"")
        return b""

    traced = wrap_rpc(rec, rpc)
    traced(None, "ws", Dst("tgs"), b"")
    traced(None, "ws", Dst("mail-data"), b"")
    assert rec.calls == {"frontend": 1, "kdc.tgs": 1, "appserver.data": 1}
    assert rec.self_ns["frontend"] == 30 - 0 - 10


# -- digests -----------------------------------------------------------------------


def test_changed_fields_are_named():
    old = {"a": 1, "b": [1, 2], "c": "x"}
    new = {"a": 1, "b": [1, 3], "d": 0}
    assert changed_fields(old, new) == ["b", "c", "d"]
    assert digest(old) == digest(dict(old))
    assert digest(old) != digest(new)


def test_digest_is_stable_on_a_tiny_run_traced_or_not():
    import workloads
    from layers import Patches, Recorder, layer_metrics

    class Tiny(workloads.Exchange):
        POOL = 3
        WARM_UP = 4
        BATCH = 3

    bench = Tiny(seed=5)
    bench.build()
    first = bench.warm_up()

    rec = Recorder()
    patches = Patches(rec)
    bench.build()
    patches.install()
    try:
        traced = bench.warm_up()
        outcome = bench.call()
    finally:
        patches.remove()
    assert digest(traced) == digest(first)
    assert first["errors"] == 0 and outcome.problems == []
    assert bench.finish() == []

    metrics = layer_metrics(rec, Tiny.WARM_UP + Tiny.BATCH, 0, 0)
    assert metrics["sched.events"][0] == 0
    assert metrics["bitslice.lane_blocks"][0] == 0
    assert metrics["kdc.as_requests"][0] == 1
    assert metrics["kdc.tgs_requests"][0] == 1
    assert metrics["frontend.self_us"][0] > 0
    assert metrics["codec.encode_calls"][0] > 0


# -- scaling to the nominal machine speed ----------------------------------------


def test_each_call_is_scaled_by_the_speed_around_it():
    from measure import NOMINAL_REFERENCE_NS
    from run import Call, end_to_end, speed
    from workloads import Outcome

    assert speed(NOMINAL_REFERENCE_NS // 2, 3 * NOMINAL_REFERENCE_NS // 2) == 1.0
    # The same work, once on a machine running at nominal speed and once
    # at half speed: scaled, both calls read the same.
    calls = [
        Call(1_000_000, Outcome(work=10, attempted=10, completed=10, failed=0,
                                latencies_ns=[100_000] * 10), False, 1.0),
        Call(2_000_000, Outcome(work=10, attempted=10, completed=10, failed=0,
                                latencies_ns=[200_000] * 10), False, 2.0),
    ]
    metrics, lines = end_to_end(calls, setup_s=0.5, raw_setup_s=0.75)
    assert metrics["units_per_s"] == (10_000.0, "1/s")
    assert metrics["unit_p50_us"] == (100.0, "us")
    assert metrics["setup_s"] == (0.5, "s")
    assert "units_per_s 7500.0000" in lines[0]
