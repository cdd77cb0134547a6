"""Wire-log correlation and detectability digests.

The adversary's wire log and the defender's event stream describe the
same traffic from opposite sides; ``WireMessage.seq`` is the join key.
This module builds the joined view:

* :func:`correlate_with_wire_log` checks the 1:1 property between
  :class:`repro.obs.events.WireCrossing` events and ``Adversary.log``
  entries — both taps see the same wire, so a mismatch means an
  instrumentation bug (or a deliberately bounded log);
* :func:`detectability_digest` reduces an event stream to the question
  the paper keeps asking: *would anyone have noticed?*  A digest of
  ``{}`` under a successful attack is the paper's worst case — the
  attack won silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.events import Event, WireCrossing
from repro.obs.metrics import MetricsRegistry, MetricsSink
from repro.obs.sinks import CollectorSink

__all__ = [
    "ANOMALY_KINDS", "AuditTrail", "correlate_with_wire_log",
    "detectability_digest", "render_events", "trace_digests",
]

#: Event kinds an IDS would alert on, in reporting order.
ANOMALY_KINDS: Tuple[str, ...] = (
    "DecryptFailure", "ReplayCacheHit", "ClockSkewReject",
    "PreauthFailure", "PolicyReject",
)


def detectability_digest(events: Sequence[Event]) -> Dict[str, int]:
    """Anomalous-event counts by kind; empty means nothing to notice."""
    digest: Dict[str, int] = {}
    for event in events:
        if event.kind in ANOMALY_KINDS:
            digest[event.kind] = digest.get(event.kind, 0) + 1
    return {kind: digest[kind] for kind in ANOMALY_KINDS if kind in digest}


def trace_digests(events: Sequence[Event]) -> Dict[int, Dict[str, int]]:
    """Anomaly counts grouped by the trace that carried them.

    The per-trace refinement of :func:`detectability_digest`: when a
    :class:`repro.obs.trace.Tracer` was attached during the run, every
    anomalous event is stamped with the trace open when it fired, so
    this maps trace id → ``{kind: count}`` — the exact requests (client
    calls, shard hops, adversary injections) an attack perturbed.
    Events with no trace context (``trace_id == 0``) are excluded; use
    :func:`detectability_digest` for the untraced total.
    """
    grouped: Dict[int, Dict[str, int]] = {}
    for event in events:
        if event.kind in ANOMALY_KINDS and event.trace_id:
            per = grouped.setdefault(event.trace_id, {})
            per[event.kind] = per.get(event.kind, 0) + 1
    return {
        trace_id: {kind: per[kind] for kind in ANOMALY_KINDS if kind in per}
        for trace_id, per in sorted(grouped.items())
    }


@dataclass
class WireCorrelation:
    """Outcome of joining WireCrossing events against ``Adversary.log``."""

    matched: int = 0
    #: seqs the defender saw but the (possibly trimmed) adversary log lacks
    defender_only: List[int] = field(default_factory=list)
    #: seqs in the adversary log with no WireCrossing event
    adversary_only: List[int] = field(default_factory=list)

    @property
    def one_to_one(self) -> bool:
        return not self.defender_only and not self.adversary_only


def correlate_with_wire_log(
    events: Sequence[Event], wire_log: Sequence
) -> WireCorrelation:
    """Join WireCrossing events with adversary ``WireMessage``s by seq.

    Pseudo-messages with ``seq <= 0`` (storage leaks) are outside the
    request/response fabric and excluded from the join.
    """
    defender = [e.seq for e in events
                if isinstance(e, WireCrossing) and e.seq > 0]
    adversary = [m.seq for m in wire_log if m.seq > 0]
    defender_set, adversary_set = set(defender), set(adversary)
    return WireCorrelation(
        matched=len(defender_set & adversary_set),
        defender_only=sorted(defender_set - adversary_set),
        adversary_only=sorted(adversary_set - defender_set),
    )


def render_events(events: Sequence[Event], limit: int = 0) -> str:
    """One line per event: time, seq, kind, then the kind's own fields."""
    if not events:
        return "(no events)"
    shown = list(events) if not limit else list(events)[-limit:]
    lines = []
    if limit and len(events) > limit:
        lines.append(f"... ({len(events) - limit} earlier events)")
    for event in shown:
        details = " ".join(
            f"{key}={value}"
            for key, value in event.to_dict().items()
            if key not in ("kind", "time", "seq") and value not in ("", 0, False)
        )
        mark = "!" if event.kind in ANOMALY_KINDS else " "
        lines.append(
            f"t={event.time:<12d} seq={event.seq:<4d} {mark} "
            f"{event.kind:<20s} {details}"
        )
    return "\n".join(lines)


class AuditTrail:
    """Collector + metrics bound to one bus — a testbed's flight recorder.

    ::

        bed = Testbed(config)
        trail = bed.attach_audit()
        ... run traffic ...
        trail.digest()                  # detectability digest
        trail.correlation(bed.adversary.log).one_to_one
        trail.metrics.render_text()
    """

    def __init__(self, bus, registry: Optional[MetricsRegistry] = None):
        self.bus = bus
        self.collector = CollectorSink()
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._metrics_sink = MetricsSink(self.metrics)
        bus.subscribe(self.collector)
        bus.subscribe(self._metrics_sink)

    @property
    def events(self) -> List[Event]:
        return self.collector.events

    def digest(self) -> Dict[str, int]:
        return detectability_digest(self.events)

    def correlation(self, wire_log: Sequence) -> WireCorrelation:
        return correlate_with_wire_log(self.events, wire_log)
