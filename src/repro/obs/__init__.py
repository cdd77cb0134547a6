"""Defender-side observability: events, metrics, and audit trails.

Everything the reproduction previously measured was the *attacker's*
view — ``Adversary.log`` is literally the wiretap.  This package is the
other side of the paper's ledger: what a site's administrators could
have seen.  The paper frames several limitations in exactly these
terms — replay caches exist so "an attempt to reuse [an authenticator]
can be detected", offline password guessing is dangerous because the
KDC *cannot* detect it, and a clock-skew rejection is the only symptom
of time spoofing.  Instrumenting the simulation lets every attack run
answer the question "what would an IDS have seen?".

Three layers:

* :mod:`repro.obs.events` / :mod:`repro.obs.bus` — typed, structured
  events on a publish/subscribe :class:`EventBus` with a no-op fast
  path: with no sinks subscribed, instrumented code pays one attribute
  read per site.
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of labelled
  counters and histograms, fed from events by :class:`MetricsSink`,
  rendered as text (via :func:`repro.analysis.report.render_table`) or
  JSON.
* :mod:`repro.obs.audit` — per-exchange spans correlating defender
  events with the adversary's wire log by ``WireMessage.seq``, and the
  *detectability digest* each :class:`repro.attacks.base.AttackResult`
  carries after a matrix run ("attack won but left N anomalous events"
  vs. the paper's worst case, "attack won silently").

Two more layers arrived with the cluster work:

* :mod:`repro.obs.trace` — causal spans over simulated time: a
  :class:`Tracer` attached to a bus gives every exchange a
  client → frontend → shard → worker → replay-cache span chain with
  exact virtual-time stamps, exportable as Chrome trace-event JSON.
* :mod:`repro.obs.timeseries` — mergeable log-bucketed histograms
  (:class:`LogHistogram`) and tick-sampled gauges (:class:`TickSampler`
  over :class:`RingBuffer`) for per-shard queue depth, utilization, and
  cache occupancy; the backbone of ``python -m repro monitor``.
"""

from repro.obs.audit import (
    ANOMALY_KINDS, AuditTrail, ExchangeSpan, build_spans,
    correlate_with_wire_log, detectability_digest, render_events,
)
from repro.obs.bus import EventBus, capture
from repro.obs.events import (
    ClockSkewReject, DecryptFailure, Event, ExchangeComplete,
    LintFinding, LoginAttempt, PolicyReject, PreauthFailure,
    ReplayCacheHit, RequestRetried, SessionEstablished, ShardUnavailable,
    TicketIssued, WireCrossing, event_from_dict,
)
from repro.obs.metrics import MetricsRegistry, MetricsSink
from repro.obs.sinks import CollectorSink, JsonlSink, read_jsonl
from repro.obs.timeseries import (
    LogHistogram, RingBuffer, TickSampler, percentile_of,
)
from repro.obs.trace import (
    Span, Tracer, chrome_trace, span_forest, validate_traces,
    write_chrome_trace,
)

__all__ = [
    "ANOMALY_KINDS", "AuditTrail", "ClockSkewReject", "CollectorSink",
    "DecryptFailure", "Event", "EventBus", "ExchangeComplete",
    "ExchangeSpan", "JsonlSink", "LintFinding", "LogHistogram",
    "LoginAttempt", "MetricsRegistry",
    "MetricsSink", "PolicyReject", "PreauthFailure", "ReplayCacheHit",
    "RequestRetried", "RingBuffer", "SessionEstablished",
    "ShardUnavailable", "Span", "TicketIssued", "TickSampler", "Tracer",
    "WireCrossing", "build_spans",
    "capture", "chrome_trace", "correlate_with_wire_log",
    "detectability_digest", "event_from_dict", "percentile_of",
    "read_jsonl", "render_events", "span_forest",
    "validate_traces", "write_chrome_trace",
]
