"""The event taxonomy: typed, structured records of defender-visible facts.

Every event is a frozen dataclass with two correlation fields stamped by
the bus when it can:

* ``time`` — true simulation time in microseconds (monotonic; the
  :class:`repro.sim.clock.SimClock`, not any host's skewed view);
* ``seq`` — the ``WireMessage.seq`` of the request being handled when
  the event fired, so defender events line up with the adversary's wire
  log entry for the same exchange.  ``0`` means "outside any exchange".

When a :class:`repro.obs.trace.Tracer` is attached to the bus, two more
correlation fields are stamped: ``trace_id``/``span_id`` tie the event
to the causal span open when it fired, so an anomaly can be traced to
the exact client request (and its shard hops and worker slot) that
carried it.  ``0`` means "no tracer" — the common case.

The kinds mirror the paper's detection vocabulary: a
:class:`ReplayCacheHit` is the cache doing the job caching was proposed
for; a :class:`ClockSkewReject` is the only symptom a time-spoofed host
shows; a :class:`PreauthFailure` is what recommendation (g) makes the
password-guessing attack leave behind; a :class:`DecryptFailure` is a
forged or mangled sealed object.  :class:`WireCrossing` mirrors the
adversary's log exactly — both sides see the same wire.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, ClassVar, Dict

__all__ = [
    "Event", "WireCrossing", "ExchangeComplete", "TicketIssued",
    "LoginAttempt", "SessionEstablished", "DecryptFailure",
    "ReplayCacheHit", "ClockSkewReject", "PreauthFailure", "PolicyReject",
    "ShardUnavailable", "RequestRetried", "LintFinding",
    "EVENT_KINDS", "event_from_dict",
]


@dataclass(frozen=True)
class Event:
    """Base event: correlation fields shared by every kind."""

    kind: ClassVar[str] = "Event"

    time: int = 0      # true sim time (µs) when the event fired
    seq: int = 0       # WireMessage.seq of the exchange being handled
    trace_id: int = 0  # trace open on the bus's tracer when it fired
    span_id: int = 0   # innermost span of that trace; 0 = untraced

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind}
        out.update(asdict(self))
        return out


# --------------------------------------------------------------------- #
# wire-level events (the defender's own wiretap)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class WireCrossing(Event):
    """One message crossed the wire — the defender-side mirror of one
    ``Adversary.log`` entry, matched 1:1 by ``seq``."""

    kind: ClassVar[str] = "WireCrossing"

    direction: str = ""    # "request" or "response"
    src: str = ""          # true source address
    dst_address: str = ""  # true destination address
    service: str = ""      # service endpoint of the exchange
    size: int = 0          # payload bytes


@dataclass(frozen=True)
class ExchangeComplete(Event):
    """One request/response exchange finished; ``duration`` is the
    end-to-end latency in sim microseconds (client send to client
    receive, including handler-side clock advances)."""

    kind: ClassVar[str] = "ExchangeComplete"

    service: str = ""
    client_address: str = ""
    duration: int = 0


# --------------------------------------------------------------------- #
# normal protocol progress
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class TicketIssued(Event):
    """The KDC issued a ticket.  ``exchange`` is ``as``, ``tgs``, or
    ``forward``."""

    kind: ClassVar[str] = "TicketIssued"

    realm: str = ""
    client: str = ""
    server: str = ""
    exchange: str = ""


@dataclass(frozen=True)
class LoginAttempt(Event):
    """login(1) ran on a workstation; ``ok`` is whether the AS exchange
    produced credentials."""

    kind: ClassVar[str] = "LoginAttempt"

    user: str = ""
    realm: str = ""
    host: str = ""
    ok: bool = False


@dataclass(frozen=True)
class SessionEstablished(Event):
    """An application server accepted an AP exchange."""

    kind: ClassVar[str] = "SessionEstablished"

    service: str = ""
    client: str = ""
    session_id: int = 0


# --------------------------------------------------------------------- #
# anomalies — what an IDS would alert on
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class DecryptFailure(Event):
    """A sealed object (ticket, authenticator, TGT, response) failed to
    unseal: forgery, tampering, or the wrong key."""

    kind: ClassVar[str] = "DecryptFailure"

    service: str = ""
    what: str = ""     # which sealed object failed
    client: str = ""
    detail: str = ""


@dataclass(frozen=True)
class ReplayCacheHit(Event):
    """A live authenticator was presented twice — the detection the
    replay cache exists to provide (and the false alarm the paper warns
    legitimate UDP retransmissions will trigger)."""

    kind: ClassVar[str] = "ReplayCacheHit"

    service: str = ""
    client: str = ""
    detail: str = ""


@dataclass(frozen=True)
class ClockSkewReject(Event):
    """A timestamp fell outside the allowed window: a stale
    authenticator, an expired ticket — or the only visible symptom of a
    time-spoofed verifier."""

    kind: ClassVar[str] = "ClockSkewReject"

    service: str = ""
    client: str = ""
    reason: str = ""   # "authenticator-stale" or "ticket-expired"
    detail: str = ""


@dataclass(frozen=True)
class PreauthFailure(Event):
    """Preauthentication data did not verify — what recommendation (g)
    forces a password-guessing harvester to leave in the KDC's log."""

    kind: ClassVar[str] = "PreauthFailure"

    realm: str = ""
    client: str = ""
    detail: str = ""


@dataclass(frozen=True)
class PolicyReject(Event):
    """Any other refused request: malformed messages, rate limiting,
    transit policy, disabled protocol options, address mismatches."""

    kind: ClassVar[str] = "PolicyReject"

    service: str = ""
    reason: str = ""
    client: str = ""
    detail: str = ""


@dataclass(frozen=True)
class ShardUnavailable(Event):
    """The service layer could not reach a KDC shard and degraded the
    request instead of serving it.  Availability telemetry, not an
    anomaly kind: a crashed shard pages the operator, but it is not
    evidence of a protocol attack, and it must never perturb a
    scenario's detectability digest."""

    kind: ClassVar[str] = "ShardUnavailable"

    service: str = ""    # "kerberos" or "tgs"
    shard: int = 0
    address: str = ""
    detail: str = ""


@dataclass(frozen=True)
class RequestRetried(Event):
    """A load-harness unit retried a lost or refused request after
    backoff (:class:`repro.load.RetryLoop`).  Client-side availability
    telemetry (same reasoning as :class:`ShardUnavailable`: ops
    signal, not attack evidence)."""

    kind: ClassVar[str] = "RequestRetried"

    service: str = ""
    attempt: int = 0     # 1 = first retry
    backoff_us: int = 0  # how long the client waited before this retry
    detail: str = ""


@dataclass(frozen=True)
class LintFinding(Event):
    """The static analyzer (``python -m repro lint``) reported one
    finding.  Tooling telemetry, not wire telemetry: it is deliberately
    *not* an anomaly kind — a lint run must never perturb a scenario's
    detectability digest."""

    kind: ClassVar[str] = "LintFinding"

    rule_id: str = ""
    severity: str = ""   # "note", "warning", or "error"
    column: str = ""     # protocol column the finding is against
    file: str = ""
    line: int = 0
    message: str = ""


#: Every concrete event kind, by name — the JSONL round-trip uses this.
EVENT_KINDS: Dict[str, type] = {
    cls.kind: cls
    for cls in (
        WireCrossing, ExchangeComplete, TicketIssued, LoginAttempt,
        SessionEstablished, DecryptFailure, ReplayCacheHit,
        ClockSkewReject, PreauthFailure, PolicyReject,
        ShardUnavailable, RequestRetried, LintFinding,
    )
}


def event_from_dict(data: Dict[str, Any]) -> Event:
    """Rebuild an event from its :meth:`Event.to_dict` form."""
    values = dict(data)
    kind = values.pop("kind", "Event")
    cls = EVENT_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown event kind {kind!r}")
    known = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in values.items() if k in known})
