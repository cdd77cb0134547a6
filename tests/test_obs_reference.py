"""The telemetry fast paths against the reference code they replaced.

:meth:`EventBus.emit` stamps an event by copying its field dict, and
:class:`MetricsSink` dispatches on the event's exact type.  Both must
stay indistinguishable from the straightforward versions kept here:
``dataclasses.replace`` for the stamp, and an ``isinstance`` chain that
calls ``Counter.inc`` with keyword labels for the metrics.
"""

from dataclasses import fields, replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.load import run_load
from repro.obs.bus import EventBus, capture
from repro.obs.events import (
    EVENT_KINDS, ClockSkewReject, DecryptFailure, Event, ExchangeComplete,
    LoginAttempt, PolicyReject, PreauthFailure, ReplayCacheHit,
    RequestRetried, SessionEstablished, ShardUnavailable, TicketIssued,
    WireCrossing,
)
from repro.obs.metrics import MetricsRegistry, MetricsSink
from repro.obs.trace import Tracer
from repro.sim.clock import SimClock


# --------------------------------------------------------------------- #
# reference implementations
# --------------------------------------------------------------------- #


def _replace_emit(self, event):
    """The stamping rules, written with ``dataclasses.replace``."""
    if not self.active:
        return
    stamp = {}
    if not event.time and self._clock is not None:
        stamp["time"] = self._clock.now()
    if not event.seq and self._exchange:
        stamp["seq"] = self._exchange[-1]
    tracer = self.tracer
    if tracer is not None and not event.trace_id:
        trace_id, span_id = tracer.current_ids()
        if trace_id:
            stamp["trace_id"] = trace_id
            stamp["span_id"] = span_id
    if stamp:
        event = replace(event, **stamp)
    for sink in self._sinks:
        sink(event)


class _ReplaceBus(EventBus):
    emit = _replace_emit


class _ChainSink:
    """The event-to-metric mapping as an ``isinstance`` chain."""

    def __init__(self):
        self.registry = MetricsRegistry()

    def __call__(self, event):
        registry = self.registry
        if isinstance(event, WireCrossing):
            registry.counter("wire_messages").inc(direction=event.direction)
            registry.histogram("wire_bytes").record(event.size)
        elif isinstance(event, ExchangeComplete):
            registry.histogram("exchange_latency_us").record(event.duration)
            registry.counter("exchanges").inc(service=event.service)
        elif isinstance(event, TicketIssued):
            registry.counter("tickets_issued").inc(
                realm=event.realm, exchange=event.exchange
            )
        elif isinstance(event, DecryptFailure):
            registry.counter("decrypt_failures").inc(service=event.service)
        elif isinstance(event, ReplayCacheHit):
            registry.counter("replay_cache_hits").inc(service=event.service)
        elif isinstance(event, ClockSkewReject):
            registry.counter("clock_skew_rejects").inc(service=event.service)
        elif isinstance(event, PreauthFailure):
            registry.counter("preauth_failures").inc(realm=event.realm)
        elif isinstance(event, PolicyReject):
            registry.counter("policy_rejects").inc(
                service=event.service, reason=event.reason
            )
        elif isinstance(event, LoginAttempt):
            registry.counter("login_attempts").inc(ok=event.ok)
        elif isinstance(event, SessionEstablished):
            registry.counter("sessions_established").inc(service=event.service)
        elif isinstance(event, ShardUnavailable):
            registry.counter("shard_unavailable").inc(
                service=event.service, shard=event.shard
            )
        elif isinstance(event, RequestRetried):
            registry.counter("request_retries").inc(service=event.service)
            registry.histogram("retry_backoff_us").record(event.backoff_us)


#: The counters and histograms each kind feeds; every other kind feeds none.
METRICS_OF = {
    WireCrossing: {"wire_messages", "wire_bytes"},
    ExchangeComplete: {"exchanges", "exchange_latency_us"},
    TicketIssued: {"tickets_issued"},
    DecryptFailure: {"decrypt_failures"},
    ReplayCacheHit: {"replay_cache_hits"},
    ClockSkewReject: {"clock_skew_rejects"},
    PreauthFailure: {"preauth_failures"},
    PolicyReject: {"policy_rejects"},
    LoginAttempt: {"login_attempts"},
    SessionEstablished: {"sessions_established"},
    ShardUnavailable: {"shard_unavailable"},
    RequestRetried: {"request_retries", "retry_backoff_us"},
}


# --------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------- #

_text = st.one_of(
    st.sampled_from(["", "kerberos", "tgs", "mail", "ATHENA"]),
    st.text(max_size=3),
)
_count = st.one_of(st.just(0), st.integers(min_value=1, max_value=10**9))


def _value(default):
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return _count
    return _text


def _event_of(cls):
    return st.fixed_dictionaries(
        {f.name: _value(f.default) for f in fields(cls)}
    ).map(lambda values: cls(**values))


EVERY_KIND = [Event, *EVENT_KINDS.values()]
events = st.one_of([_event_of(cls) for cls in EVERY_KIND])


# --------------------------------------------------------------------- #
# MetricsSink
# --------------------------------------------------------------------- #


@settings(max_examples=200, deadline=None)
@given(st.lists(events, max_size=40))
@example([cls() for cls in EVERY_KIND])
def test_metrics_sink_matches_the_isinstance_chain(sequence):
    sink, reference = MetricsSink(), _ChainSink()
    for event in sequence:
        sink(event)
        reference(event)
    assert sink.registry.snapshot() == reference.registry.snapshot()
    assert sink.registry.render_text() == reference.registry.render_text()

    snapshot = sink.registry.snapshot()
    for name in snapshot["counters"]:
        # The label keys themselves, which the text forms above would
        # not tell apart from a key holding an unconverted value.
        assert (sink.registry.counter(name).items()
                == reference.registry.counter(name).items())
    created = set(snapshot["counters"]) | set(snapshot["histograms"])
    fired = set().union(*(METRICS_OF.get(type(e), set()) for e in sequence))
    assert created == fired


# --------------------------------------------------------------------- #
# EventBus.emit
# --------------------------------------------------------------------- #


class _FixedClock:
    def __init__(self, value):
        self.value = value

    def now(self):
        return self.value


def _bus(cls, clock_value, exchanges, open_spans):
    bus = cls(None if clock_value is None else _FixedClock(clock_value))
    for seq in exchanges:
        bus.begin_exchange(seq)
    if open_spans is not None:
        tracer = Tracer(SimClock())
        for depth in range(open_spans):
            tracer.begin(f"span{depth}")
        bus.tracer = tracer
    seen_a, seen_b = [], []
    bus.subscribe(seen_a.append)
    bus.subscribe(seen_b.append)
    return bus, seen_a, seen_b


@settings(max_examples=300, deadline=None)
@given(
    event=events,
    clock_value=st.one_of(st.none(), _count),
    exchanges=st.lists(_count, max_size=3),
    open_spans=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
)
def test_emit_stamps_exactly_what_replace_would(
    event, clock_value, exchanges, open_spans,
):
    before = dict(vars(event))
    bus, seen_a, seen_b = _bus(EventBus, clock_value, exchanges, open_spans)
    ref, ref_a, ref_b = _bus(_ReplaceBus, clock_value, exchanges, open_spans)

    bus.emit(event)
    ref.emit(event)

    assert vars(event) == before  # the caller's event is never stamped
    (got,), (expected,) = seen_a, ref_a
    assert seen_b[0] is got and ref_b[0] is expected  # one object per emit
    assert type(got) is type(expected)
    assert vars(got) == vars(expected)
    assert got == expected and got.to_dict() == expected.to_dict()
    # Nothing to stamp: the event passes through as the same object.
    assert (got is event) == (expected is event)


# --------------------------------------------------------------------- #
# end to end: a traced engine-mode load
# --------------------------------------------------------------------- #


def _traced_load():
    tracer = Tracer()
    with capture() as cap:
        run_load(quick=True, shards=2, seed=0, out_path=None, tracer=tracer)
    return (
        [event.to_dict() for event in cap.events],
        [span.to_dict() for span in tracer.spans],
    )


def test_traced_load_streams_match_the_replace_bus(monkeypatch):
    events_fast, spans_fast = _traced_load()
    monkeypatch.setattr(EventBus, "emit", _replace_emit)
    events_ref, spans_ref = _traced_load()

    assert events_fast and spans_fast
    assert any(event["trace_id"] for event in events_fast)
    assert events_fast == events_ref
    assert spans_fast == spans_ref
