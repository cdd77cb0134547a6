"""An open network "under the complete control of an adversary".

The paper's stated design goal: "For the widest utility, the network must
be considered as completely open.  Specifically, the protocols should be
secure even if the network is under the complete control of an
adversary."  This module is that threat model, made concrete:

* :class:`Network` routes request/response exchanges (the simulated
  analogue of UDP query traffic and short TCP dialogs) between service
  endpoints registered by hosts.

* :class:`Adversary` taps every message.  It can **eavesdrop** (the full
  wire log is always recorded), **modify** requests or responses in
  flight, **drop** them, and **inject** fresh messages of its own —
  including replaying anything from its log.  Each capability can be
  restricted to model weaker adversaries (a *passive* wiretapper for the
  password-guessing experiments, an *active* one for the cut-and-paste
  attacks).

Delivery is synchronous and deterministic; the interesting
nondeterminism of a real network (reordering, loss) is modelled where a
specific attack needs it (e.g. the UDP retransmission false-positive in
:func:`repro.attacks.replay.udp_retransmission_false_alarm`).  Under the discrete-event
scheduler (:mod:`repro.sim.sched`) the same synchronous code runs
unchanged inside events: each wire transit's ``clock.advance`` lands in
the running event's :class:`repro.sim.clock.EventTimeline`, so
concurrent exchanges overlap in virtual time instead of serializing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.obs.bus import EventBus
from repro.obs.events import ExchangeComplete, WireCrossing
from repro.sim.clock import SimClock

__all__ = ["Endpoint", "WireMessage", "NetworkError", "Adversary", "Network"]

Handler = Callable[["WireMessage"], bytes]


class NetworkError(RuntimeError):
    """No such endpoint, or the adversary dropped the message."""


@dataclass(frozen=True)
class Endpoint:
    """A service address: host network address plus service name."""

    address: str
    service: str


@dataclass
class WireMessage:
    """One direction of one exchange, as seen on the wire.

    ``dst`` is the *service endpoint of the exchange* for both
    directions — the stable anchor wire-log consumers filter on
    (``m.dst.service == "mail"`` matches the request and its reply).
    The true delivery pair is ``src_address`` -> ``dst_address``: for a
    response, ``src_address`` is the responding server and
    ``dst_address`` the original requester.  (Older logs left
    ``dst_address`` empty; fall back to ``dst.address`` then.)
    """

    seq: int
    src_address: str
    dst: Endpoint
    direction: str  # "request" or "response"
    payload: bytes
    time: int  # true simulation time when it crossed the wire
    dst_address: str = ""  # true delivery address (requester, for responses)

    @property
    def delivered_to(self) -> str:
        return self.dst_address or self.dst.address

    def clone_with(self, payload: bytes) -> "WireMessage":
        return WireMessage(
            self.seq, self.src_address, self.dst, self.direction,
            payload, self.time, self.dst_address,
        )


@dataclass
class Adversary:
    """The network attacker: log, filters, and capability switches.

    ``max_log`` bounds the wire log deque-style (oldest entries drop
    first) so long workload runs don't accumulate unbounded history;
    the default stays unbounded because replay attacks *want* to dig up
    arbitrarily old traffic.
    """

    can_modify: bool = True
    can_drop: bool = True
    can_inject: bool = True
    max_log: Optional[int] = None
    log: List[WireMessage] = field(default_factory=list)
    _request_filters: List[Callable[[WireMessage], Optional[bytes]]] = field(
        default_factory=list
    )
    _response_filters: List[Callable[[WireMessage], Optional[bytes]]] = field(
        default_factory=list
    )
    _drop_predicates: List[Callable[[WireMessage], bool]] = field(
        default_factory=list
    )

    # -- passive capabilities -------------------------------------------

    def observe(self, message: WireMessage) -> None:
        self.log.append(message)
        if self.max_log is not None and len(self.log) > self.max_log:
            del self.log[: len(self.log) - self.max_log]

    def recorded(
        self, service: Optional[str] = None, direction: Optional[str] = None
    ) -> List[WireMessage]:
        """Everything eavesdropped, optionally filtered."""
        out = self.log
        if service is not None:
            out = [m for m in out if m.dst.service == service]
        if direction is not None:
            out = [m for m in out if m.direction == direction]
        return list(out)

    # -- active capabilities --------------------------------------------

    def on_request(
        self, transform: Callable[[WireMessage], Optional[bytes]]
    ) -> None:
        """Install an in-flight request rewriter.

        The transform returns replacement payload bytes, or ``None`` to
        pass the message through unchanged.
        """
        if not self.can_modify:
            raise NetworkError("adversary is passive: cannot modify")
        self._request_filters.append(transform)

    def on_response(
        self, transform: Callable[[WireMessage], Optional[bytes]]
    ) -> None:
        if not self.can_modify:
            raise NetworkError("adversary is passive: cannot modify")
        self._response_filters.append(transform)

    def drop_if(self, predicate: Callable[[WireMessage], bool]) -> None:
        if not self.can_drop:
            raise NetworkError("adversary is passive: cannot drop")
        self._drop_predicates.append(predicate)

    def clear_taps(self) -> None:
        self._request_filters.clear()
        self._response_filters.clear()
        self._drop_predicates.clear()

    # -- applied by the network -----------------------------------------

    def _apply(self, message: WireMessage) -> WireMessage:
        for predicate in self._drop_predicates:
            if predicate(message):
                raise NetworkError(
                    f"message to {message.dst} dropped by adversary"
                )
        filters = (
            self._request_filters
            if message.direction == "request"
            else self._response_filters
        )
        for transform in filters:
            replacement = transform(message)
            if replacement is not None:
                message = message.clone_with(replacement)
        return message


class Network:
    """Synchronous message fabric with a single adversary in the middle.

    Each wire crossing advances the simulation clock by *transit_time*
    microseconds (default 250µs), modelling transmission plus processing
    delay.  At the Draft-3 millisecond timestamp resolution several
    messages can still land in the same quantum — the collision problem
    the paper notes ("the resolution of the timestamp is limited to 1
    millisecond, which is far too coarse for many applications").
    """

    def __init__(self, clock: SimClock,
                 adversary: Optional[Adversary] = None,
                 transit_time: int = 250,
                 bus: Optional[EventBus] = None) -> None:
        self._clock = clock
        self.adversary = adversary if adversary is not None else Adversary()
        self.transit_time = transit_time
        # The defender-side event bus rides the same fabric the
        # adversary taps; with no sinks subscribed it is a no-op.
        self.bus = bus if bus is not None else EventBus(clock)
        self._endpoints: Dict[Tuple[str, str], Handler] = {}
        self._seq = 0
        # Crashed/partitioned hosts (fault injection, not an adversary
        # capability): messages to a downed address vanish, exactly like
        # a dropped packet, so callers see the same NetworkError a
        # timeout would produce.
        self._down: Set[str] = set()

    # -- fault injection -------------------------------------------------

    def fail_host(self, address: str) -> None:
        """Take *address* off the network (crash / partition)."""
        self._down.add(address)

    def restore_host(self, address: str) -> None:
        """Bring *address* back; its registered endpoints resume serving."""
        self._down.discard(address)

    def register(self, address: str, service: str, handler: Handler) -> None:
        """Bind *handler* to ``(address, service)``."""
        key = (address, service)
        if key in self._endpoints:
            raise NetworkError(f"endpoint {key} already registered")
        self._endpoints[key] = handler

    def unregister(self, address: str, service: str) -> None:
        self._endpoints.pop((address, service), None)

    def endpoints(self) -> List[Endpoint]:
        return [Endpoint(a, s) for a, s in self._endpoints]

    def rpc(self, src_address: str, dst: Endpoint, payload: bytes) -> bytes:
        """One request/response exchange through the adversary."""
        request = self._make_message(
            src_address, dst, "request", payload, dst.address
        )
        self.witness(request)
        request = self.adversary._apply(request)

        if dst.address in self._down:
            raise NetworkError(f"host {dst.address} is down")
        handler = self._endpoints.get((dst.address, dst.service))
        if handler is None:
            raise NetworkError(f"no endpoint at {dst}")
        self.bus.begin_exchange(request.seq)
        try:
            response_payload = handler(request)
        finally:
            self.bus.end_exchange()

        response = self._make_message(
            dst.address, dst, "response", response_payload, src_address
        )
        self.witness(response)
        response = self.adversary._apply(response)
        bus = self.bus
        if bus.active:
            # End-to-end latency: client send (one transit before the
            # request message's stamp) to client receive.
            bus.emit(ExchangeComplete(
                seq=request.seq, service=dst.service,
                client_address=src_address,
                duration=response.time - request.time + self.transit_time,
            ))
        return response.payload

    def hijack_endpoint(
        self, address: str, service: str, handler: Handler
    ) -> Handler:
        """Route an endpoint's traffic to the adversary's handler.

        "The network is under the complete control of an adversary" —
        including where packets are delivered.  Returns the displaced
        handler so the attacker (or a test) can restore or consult it.
        """
        if not self.adversary.can_modify:
            raise NetworkError("adversary is passive: cannot hijack")
        key = (address, service)
        original = self._endpoints.get(key)
        if original is None:
            raise NetworkError(f"no endpoint at {key} to hijack")
        self._endpoints[key] = handler
        return original

    def inject(self, fake_src: str, dst: Endpoint, payload: bytes) -> bytes:
        """An adversary-originated request, with a forged source address.

        Bypasses the adversary's own taps (it would not attack itself)
        but is still recorded in the log for auditability.
        """
        if not self.adversary.can_inject:
            raise NetworkError("adversary is passive: cannot inject")
        message = self._make_message(fake_src, dst, "request", payload,
                                     dst.address)
        self.witness(message)
        if dst.address in self._down:
            raise NetworkError(f"host {dst.address} is down")
        handler = self._endpoints.get((dst.address, dst.service))
        if handler is None:
            raise NetworkError(f"no endpoint at {dst}")
        self.bus.begin_exchange(message.seq)
        # Injected traffic has no client-side span, so open one here:
        # anomalies the forged request trips (replay-cache hits, skew
        # rejects) then carry a trace id pointing back at the injection.
        tracer = self.bus.tracer
        span = None
        if tracer is not None:
            span = tracer.begin(f"inject/{dst.service}", src=fake_src,
                                seq=message.seq)
        try:
            response = handler(message)
        finally:
            if tracer is not None:
                tracer.end(span)
            self.bus.end_exchange()
        self.witness(
            self._make_message(dst.address, dst, "response", response,
                               fake_src)
        )
        return response

    def witness(self, message: WireMessage) -> None:
        """Record *message* on both taps: the adversary's log and the
        defender's event bus.  Every message entering the log goes
        through here, so the two views stay 1:1 by ``seq``."""
        self.adversary.observe(message)
        bus = self.bus
        if bus.active:
            bus.emit(WireCrossing(
                time=message.time, seq=message.seq,
                direction=message.direction, src=message.src_address,
                dst_address=message.delivered_to,
                service=message.dst.service, size=len(message.payload),
            ))

    def _make_message(
        self, src: str, dst: Endpoint, direction: str, payload: bytes,
        dst_address: str = "",
    ) -> WireMessage:
        self._seq += 1
        self._clock.advance(self.transit_time)
        return WireMessage(
            self._seq, src, dst, direction, payload, self._clock.now(),
            dst_address,
        )
