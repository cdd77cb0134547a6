"""The event bus: default-on, near-zero-cost until somebody listens.

Instrumented code follows one pattern::

    bus = self.bus
    if bus.active:
        bus.emit(ReplayCacheHit(service=..., client=...))

``active`` is a plain attribute kept in sync by subscribe/unsubscribe,
so the un-observed fast path costs one attribute read and one branch —
no event object is ever constructed.  That is what lets the bus stay
*default-on* in every :class:`repro.sim.network.Network` without
taxing the heavy-traffic workloads the roadmap cares about.

Correlation with the wire: :class:`repro.sim.network.Network` brackets
each handler invocation with :meth:`EventBus.begin_exchange` /
:meth:`EventBus.end_exchange`, so events emitted while a request is
being served inherit that request's ``WireMessage.seq``.

Scenario capture: the attack scenarios in :mod:`repro.suite` build
their own :class:`repro.testbed.Testbed` internally, so their buses do
not exist yet when the caller wants to observe them.  The
:func:`capture` context manager installs sinks *globally*: every bus
constructed while a capture is open auto-subscribes them.  This is how
``run_attack_matrix`` harvests a detectability digest from each cell.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.obs.events import Event
from repro.obs.sinks import CollectorSink

if TYPE_CHECKING:
    from repro.sim.clock import SimClock

__all__ = ["Sink", "EventBus", "capture"]

Sink = Callable[[Event], None]

#: Open :class:`capture` blocks; new buses adopt their sinks on creation.
_open_captures: List["capture"] = []


class EventBus:
    """Publish/subscribe fan-out of :class:`repro.obs.events.Event`."""

    def __init__(self, clock: Optional["SimClock"] = None) -> None:
        self._clock = clock
        self._sinks: List[Sink] = []
        self._exchange: List[int] = []   # stack of in-flight request seqs
        self.active = False
        # Optional repro.obs.trace.Tracer (Any: obs.trace sits above the
        # bus in the layering); instrumented code guards with
        # ``if bus.tracer is not None`` the same way emission guards
        # with ``if bus.active`` — no tracer, no cost beyond the read.
        self.tracer: Optional[Any] = None
        for cap in _open_captures:
            cap._adopt(self)

    # -- subscription ----------------------------------------------------

    def subscribe(self, sink: Sink) -> Sink:
        """Add *sink*; returns it for symmetry with unsubscribe."""
        self._sinks.append(sink)
        self.active = True
        return sink

    def unsubscribe(self, sink: Sink) -> None:
        if sink in self._sinks:
            self._sinks.remove(sink)
        self.active = bool(self._sinks)

    # -- exchange correlation -------------------------------------------

    def begin_exchange(self, seq: int) -> None:
        """Events emitted until :meth:`end_exchange` carry wire *seq*."""
        self._exchange.append(seq)

    def end_exchange(self) -> None:
        if self._exchange:
            self._exchange.pop()

    @property
    def current_seq(self) -> int:
        return self._exchange[-1] if self._exchange else 0

    # -- emission --------------------------------------------------------

    def emit(self, event: Event) -> None:
        """Stamp correlation fields and fan out to every sink.

        Callers guard with ``if bus.active`` so this only runs (and the
        event is only constructed) when someone is listening.  A field
        is stamped only while it is 0: ``time`` from the bus's clock,
        ``seq`` from the open exchange, ``trace_id``/``span_id`` from
        the tracer's innermost open span.  Sinks then receive a stamped
        copy (the caller's event is frozen and stays as it was); an
        event that needs no stamp is passed on as the same object.
        """
        if not self.active:
            return
        stamp = False
        time = event.time
        if not time and self._clock is not None:
            time = self._clock.now()
            stamp = True
        seq = event.seq
        if not seq and self._exchange:
            seq = self._exchange[-1]
            stamp = True
        trace_id = event.trace_id
        span_id = event.span_id
        tracer = self.tracer
        if tracer is not None and not trace_id:
            open_trace, open_span = tracer.current_ids()
            if open_trace:
                trace_id, span_id = open_trace, open_span
                stamp = True
        if stamp:
            # What dataclasses.replace would build, without re-running
            # the frozen __init__: one copy of the field dict with the
            # four correlation fields set, installed on a bare instance.
            fields = event.__dict__.copy()
            fields["time"] = time
            fields["seq"] = seq
            fields["trace_id"] = trace_id
            fields["span_id"] = span_id
            event = object.__new__(type(event))
            object.__setattr__(event, "__dict__", fields)
        for sink in self._sinks:
            sink(event)


class capture:
    """Context manager: observe every bus created inside the block.

    ``with capture() as cap:`` collects events from all buses
    constructed while open (plus any extra sinks passed in); afterwards
    ``cap.events`` holds everything observed, in emission order.
    Captures nest; each block unsubscribes exactly the sinks it
    installed, so adopted buses go quiet again on exit, and sinks with
    a ``close()`` (e.g. :class:`repro.obs.sinks.JsonlSink`) are closed.
    Buses that already existed before the block are left untouched.
    """

    def __init__(self, *extra_sinks: Sink, tracer=None):
        self.collector = CollectorSink()
        self._sinks: List[Sink] = [self.collector, *extra_sinks]
        self._adopted: List[EventBus] = []
        # Optional repro.obs.trace.Tracer, attached to every adopted
        # bus (first bus's clock wins) so scenario-internal testbeds get
        # span context — and events get trace_id stamps — for free.
        self.tracer = tracer
        self._traced: List[EventBus] = []

    @property
    def events(self) -> List[Event]:
        return self.collector.events

    def _adopt(self, bus: EventBus) -> None:
        self._adopted.append(bus)
        for sink in self._sinks:
            bus.subscribe(sink)
        if self.tracer is not None and bus.tracer is None:
            self.tracer.bind_clock(bus._clock)
            bus.tracer = self.tracer
            self._traced.append(bus)

    def __enter__(self) -> "capture":
        _open_captures.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        if self in _open_captures:
            _open_captures.remove(self)
        for bus in self._adopted:
            for sink in self._sinks:
                bus.unsubscribe(sink)
        self._adopted.clear()
        for bus in self._traced:
            if bus.tracer is self.tracer:
                bus.tracer = None
        self._traced.clear()
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if callable(close):
                close()
