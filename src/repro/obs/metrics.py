"""Counters and histograms over the event stream.

:class:`MetricsRegistry` is deliberately small: labelled monotonic
counters and :class:`repro.obs.timeseries.LogHistogram`\\ s (the one
histogram type in the repo), with deterministic rendering —
snapshots sort by name and label so two identical runs produce
byte-identical tables (the repo's determinism contract extends to its
telemetry).  :class:`MetricsSink` is the standard event-to-metric
mapping; subscribe one to a bus and the registry fills itself:

* ``tickets_issued{realm,exchange}`` — per-realm issue rate;
* ``decrypt_failures{service}``, ``replay_cache_hits{service}``,
  ``clock_skew_rejects{service}``, ``preauth_failures{realm}``,
  ``policy_rejects{service,reason}`` — the anomaly counters;
* ``login_attempts{ok}``, ``sessions_established{service}``,
  ``wire_messages{direction}`` — volume;
* ``exchange_latency_us`` / ``wire_bytes`` histograms — end-to-end
  exchange latency in sim microseconds, payload sizes.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.events import (
    ClockSkewReject, DecryptFailure, Event, ExchangeComplete,
    LoginAttempt, PolicyReject, PreauthFailure, ReplayCacheHit,
    RequestRetried, SessionEstablished, ShardUnavailable, TicketIssued,
    WireCrossing,
)
from repro.obs.timeseries import LogHistogram

__all__ = ["Counter", "MetricsRegistry", "MetricsSink"]

Labels = Tuple[Tuple[str, str], ...]


def _labels(kwargs: Dict[str, Any]) -> Labels:
    return tuple(sorted((k, str(v)) for k, v in kwargs.items()))


def _label_text(labels: Labels) -> str:
    return ",".join(f"{k}={v}" for k, v in labels)


class Counter:
    """A monotonic counter, partitioned by label sets."""

    def __init__(self, name: str):
        self.name = name
        self._values: Dict[Labels, int] = {}

    def inc(self, amount: int = 1, **labels) -> None:
        self.add(_labels(labels), amount)

    def add(self, key: Labels, amount: int = 1) -> None:
        """Count *amount* under *key*, a label set already in the form
        :meth:`inc` builds: ``(name, str(value))`` pairs sorted by name."""
        values = self._values
        values[key] = values.get(key, 0) + amount

    def value(self, **labels) -> int:
        """The count for one label set, or the total with no labels given."""
        if labels:
            return self._values.get(_labels(labels), 0)
        return sum(self._values.values())

    def items(self) -> List[Tuple[Labels, int]]:
        return sorted(self._values.items())


class MetricsRegistry:
    """Named counters and histograms, with text and JSON snapshots."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, LogHistogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name: str) -> LogHistogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = LogHistogram()
        return histogram

    # -- snapshots -------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A plain-dict snapshot: deterministic ordering throughout."""
        counters: Dict[str, Dict[str, int]] = {}
        for name in sorted(self._counters):
            counters[name] = {
                _label_text(labels): value
                for labels, value in self._counters[name].items()
            }
        histograms = {
            name: self._histograms[name].summary()
            for name in sorted(self._histograms)
        }
        return {"counters": counters, "histograms": histograms}

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), sort_keys=True, indent=indent)

    def render_text(self) -> str:
        """Both tables, built on the same renderer the benchmarks use."""
        # Imported here, not at module top: repro.analysis pulls in the
        # protocol layer, which itself carries an event bus — importing
        # it while repro.obs is still initialising would be circular.
        from repro.analysis.report import render_table

        counter_rows = [
            [name, _label_text(labels) or "(total)", value]
            for name in sorted(self._counters)
            for labels, value in self._counters[name].items()
        ]
        blocks = [render_table(
            "counters", ["metric", "labels", "count"], counter_rows,
        )]
        columns = ["count", "p50", "p95", "p99", "mean", "max"]
        histogram_rows = []
        for name in sorted(self._histograms):
            summary = self._histograms[name].summary()
            histogram_rows.append([name] + [summary[c] for c in columns])
        if histogram_rows:
            blocks.append(render_table(
                "histograms", ["metric"] + columns, histogram_rows,
            ))
        return "\n\n".join(blocks)


# The standard mapping, one handler per event kind that MetricsSink
# counts.  Each handler builds its counter's label key itself, in the
# sorted order Counter.inc would give it, and fetches its counter and
# histogram from the registry on every call, so a kind that never fires
# creates neither.


def _count_by_service(name: str) -> Callable[[MetricsRegistry, Any], None]:
    def handler(registry: MetricsRegistry, event: Any) -> None:
        registry.counter(name).add((("service", str(event.service)),))
    return handler


def _wire_crossing(registry: MetricsRegistry, event: WireCrossing) -> None:
    registry.counter("wire_messages").add(
        (("direction", str(event.direction)),)
    )
    registry.histogram("wire_bytes").record(event.size)


def _exchange_complete(registry: MetricsRegistry, event: ExchangeComplete) -> None:
    registry.histogram("exchange_latency_us").record(event.duration)
    registry.counter("exchanges").add((("service", str(event.service)),))


def _ticket_issued(registry: MetricsRegistry, event: TicketIssued) -> None:
    registry.counter("tickets_issued").add(
        (("exchange", str(event.exchange)), ("realm", str(event.realm)))
    )


def _preauth_failure(registry: MetricsRegistry, event: PreauthFailure) -> None:
    registry.counter("preauth_failures").add((("realm", str(event.realm)),))


def _policy_reject(registry: MetricsRegistry, event: PolicyReject) -> None:
    registry.counter("policy_rejects").add(
        (("reason", str(event.reason)), ("service", str(event.service)))
    )


def _login_attempt(registry: MetricsRegistry, event: LoginAttempt) -> None:
    registry.counter("login_attempts").add((("ok", str(event.ok)),))


def _shard_unavailable(registry: MetricsRegistry, event: ShardUnavailable) -> None:
    registry.counter("shard_unavailable").add(
        (("service", str(event.service)), ("shard", str(event.shard)))
    )


def _request_retried(registry: MetricsRegistry, event: RequestRetried) -> None:
    registry.counter("request_retries").add(
        (("service", str(event.service)),)
    )
    registry.histogram("retry_backoff_us").record(event.backoff_us)


_HANDLERS: Dict[type, Callable[[MetricsRegistry, Any], None]] = {
    WireCrossing: _wire_crossing,
    ExchangeComplete: _exchange_complete,
    TicketIssued: _ticket_issued,
    DecryptFailure: _count_by_service("decrypt_failures"),
    ReplayCacheHit: _count_by_service("replay_cache_hits"),
    ClockSkewReject: _count_by_service("clock_skew_rejects"),
    PreauthFailure: _preauth_failure,
    PolicyReject: _policy_reject,
    LoginAttempt: _login_attempt,
    SessionEstablished: _count_by_service("sessions_established"),
    ShardUnavailable: _shard_unavailable,
    RequestRetried: _request_retried,
}


class MetricsSink:
    """The standard event-to-metric mapping; subscribe to a bus.

    Events are dispatched on their exact type; a kind with no handler
    (a bare :class:`Event`, a :class:`repro.obs.events.LintFinding`) is
    ignored.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()

    def __call__(self, event: Event) -> None:
        handler = _HANDLERS.get(type(event))
        if handler is not None:
            handler(self.registry, event)
