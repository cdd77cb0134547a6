"""The tracer: ids, nesting, sampling, validation, Chrome export.

The contracts pinned here are the ones the monitor and the audit
tooling build on: lexical nesting is causality (the simulation is
synchronous), ids are deterministic, every finished trace is a single
rooted tree, and the bus stamps events with the span open when they
fired.
"""

import json

import pytest

from repro.obs.bus import EventBus, capture
from repro.obs.events import PolicyReject
from repro.obs.trace import (
    Span, Tracer, chrome_trace, span_forest, validate_traces,
    write_chrome_trace,
)
from repro.sim.clock import SimClock


def test_nested_spans_share_a_trace_and_chain_parents():
    clock = SimClock()
    tracer = Tracer(clock)
    root = tracer.begin("rpc/tgs")
    clock.advance(100)
    child = tracer.begin("frontend/tgs")
    clock.advance(50)
    grand = tracer.begin("worker/tgs")
    clock.advance(25)
    tracer.end(grand)
    tracer.end(child)
    tracer.end(root)

    assert root.trace_id == child.trace_id == grand.trace_id == 1
    assert root.parent_id == 0
    assert child.parent_id == root.span_id
    assert grand.parent_id == child.span_id
    assert root.begin == 0 and root.end == 175
    assert grand.duration == 25
    assert validate_traces(tracer.spans) == []


def test_sibling_roots_get_distinct_trace_ids():
    tracer = Tracer(SimClock())
    first = tracer.begin("rpc/kerberos")
    tracer.end(first)
    second = tracer.begin("rpc/tgs")
    tracer.end(second)
    assert (first.trace_id, second.trace_id) == (1, 2)
    assert tracer.trace_count == 2


def test_end_enforces_innermost_ordering():
    tracer = Tracer(SimClock())
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_span_context_manager_closes_on_exception():
    tracer = Tracer(SimClock())
    with pytest.raises(ValueError):
        with tracer.span("rpc/tgs"):
            with tracer.span("frontend/tgs"):
                raise ValueError("handler blew up")
    assert tracer.depth == 0
    assert validate_traces(tracer.spans) == []


def test_sampling_keeps_every_nth_trace_but_counts_all():
    clock = SimClock()
    tracer = Tracer(clock, sample_every=3)
    for _ in range(7):
        with tracer.span("rpc/kerberos"):
            clock.advance(10)
    assert tracer.trace_count == 7
    kept = sorted(tracer.traces())
    assert kept == [1, 4, 7]  # deterministic, not random


def test_current_ids_track_the_innermost_span():
    tracer = Tracer(SimClock())
    assert tracer.current_ids() == (0, 0)
    root = tracer.begin("rpc/tgs")
    assert tracer.current_ids() == (root.trace_id, root.span_id)
    child = tracer.begin("frontend/tgs")
    assert tracer.current_ids() == (child.trace_id, child.span_id)
    tracer.end(child)
    tracer.end(root)
    assert tracer.current_ids() == (0, 0)


def test_validate_traces_flags_orphans_and_multiple_roots():
    spans = [
        Span(trace_id=1, span_id=1, parent_id=0, name="a", begin=0, end=1),
        Span(trace_id=1, span_id=2, parent_id=99, name="b", begin=0, end=1),
        Span(trace_id=2, span_id=3, parent_id=0, name="c", begin=0, end=1),
        Span(trace_id=2, span_id=4, parent_id=0, name="d", begin=0, end=1),
        Span(trace_id=3, span_id=5, parent_id=0, name="e", begin=5, end=2),
    ]
    problems = "\n".join(validate_traces(spans))
    assert "orphaned" in problems
    assert "2 roots" in problems
    assert "ends before it begins" in problems


def test_span_forest_orders_siblings_by_begin():
    spans = [
        Span(trace_id=1, span_id=1, parent_id=0, name="root", begin=0, end=9),
        Span(trace_id=1, span_id=3, parent_id=1, name="late", begin=5, end=6),
        Span(trace_id=1, span_id=2, parent_id=1, name="early", begin=1, end=2),
    ]
    forest = span_forest(spans)
    assert [s.name for s in forest[1]] == ["early", "late"]


def test_chrome_trace_document_shape(tmp_path):
    clock = SimClock()
    tracer = Tracer(clock)
    with tracer.span("rpc/tgs", client="10.0.0.9"):
        clock.advance(100)
        with tracer.span("frontend/tgs"):
            clock.advance(50)
    doc = chrome_trace(tracer.spans)
    assert doc["displayTimeUnit"] == "ms"
    complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert len(complete) == 2
    assert meta  # process/thread names for Perfetto
    root = [e for e in complete if e["name"] == "rpc/tgs"][0]
    assert root["ts"] == 0 and root["dur"] == 150
    assert root["cat"] == "rpc"
    assert root["args"]["client"] == "10.0.0.9"
    assert root["tid"] == 1  # one thread track per trace

    path = tmp_path / "trace.json"
    count = write_chrome_trace(str(path), tracer.spans)
    on_disk = json.loads(path.read_text())
    assert len(on_disk["traceEvents"]) == count


def test_bus_stamps_events_with_open_span_ids():
    clock = SimClock()
    bus = EventBus(clock)
    seen = []
    bus.subscribe(seen.append)
    tracer = Tracer(clock)
    bus.tracer = tracer

    bus.emit(PolicyReject(reason="outside"))
    with tracer.span("rpc/tgs"):
        with tracer.span("frontend/tgs") as inner:
            bus.emit(PolicyReject(reason="inside"))
    outside, inside = seen
    assert outside.trace_id == 0 and outside.span_id == 0
    assert inside.trace_id == inner.trace_id
    assert inside.span_id == inner.span_id


def test_capture_attaches_and_detaches_the_tracer():
    tracer = Tracer()
    with capture(tracer=tracer):
        bus = EventBus(SimClock())
        assert bus.tracer is tracer
        assert tracer._clock is not None  # adopted the bus's clock
    assert bus.tracer is None  # reset on exit

    # Buses created outside the block are untouched.
    other = EventBus(SimClock())
    assert other.tracer is None


def test_tracer_requires_a_clock_to_time_spans():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        tracer.begin("rpc/tgs")
