"""Causal spans over simulated time: distributed tracing for the cluster.

The paper's detection story is about *time* — replay windows,
authenticator lifetimes, suppress-replay delays — and the sharded
service layer added hops (client → frontend → shard → worker →
replay cache) whose latencies the flat event stream cannot attribute.
This module adds the missing causal structure:

* :class:`Span` — one timed operation with ``trace_id`` / ``span_id`` /
  ``parent_id`` and **exact virtual-time** begin/end stamps (sim
  microseconds, never the wall clock, so traces are deterministic).
* :class:`Tracer` — allocates ids, maintains the active-span stack
  (the simulation is synchronous, so lexical nesting *is* causality),
  and retains finished spans.  Attached to an
  :class:`repro.obs.bus.EventBus` as ``bus.tracer``; instrumented code
  follows the bus's own pattern::

      tracer = bus.tracer
      if tracer is not None:
          span = tracer.begin("shard0/tgs", shard=0)
          ...

  With no tracer attached the fast path costs one attribute read and
  one branch — the same no-op contract the bus keeps.
* Sampling — ``sample_every=N`` retains every Nth trace (deterministic,
  not random); unsampled traces still allocate ids so events stamped
  mid-trace stay correlatable, but their spans are discarded at root
  end, bounding memory on huge runs.
* :func:`chrome_trace` / :func:`write_chrome_trace` — export finished
  spans as Chrome trace-event JSON (``ph: "X"`` complete events, one
  track per trace), loadable in Perfetto or ``chrome://tracing``.
* :func:`validate_traces` — the structural contract tests pin: every
  trace has exactly one root, every ``parent_id`` resolves inside the
  same trace (no orphans — even across shard failover), and no span
  ends before it begins.

The bus stamps every event emitted while a span is open with the
current ``trace_id``/``span_id`` (see :meth:`EventBus.emit`), which is
what lets ``python -m repro audit`` point from an anomaly event to the
exact spans the attack perturbed.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Sequence, Tuple

__all__ = [
    "Span", "Tracer", "chrome_trace", "write_chrome_trace",
    "span_forest", "validate_traces",
]


@dataclass
class Span:
    """One timed operation inside one trace."""

    trace_id: int
    span_id: int
    parent_id: int          # 0 = root of its trace
    name: str
    begin: int              # virtual µs
    end: int = 0            # virtual µs; 0 while still open
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return max(0, self.end - self.begin)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id, "span_id": self.span_id,
            "parent_id": self.parent_id, "name": self.name,
            "begin": self.begin, "end": self.end, "attrs": dict(self.attrs),
        }


class Tracer:
    """Span factory + active-span stack + finished-span store.

    Ids are small sequential integers (deterministic across runs —
    the repo's determinism contract extends to its traces).  The clock
    may be bound lazily (:func:`repro.obs.bus.capture` binds the first
    adopted bus's clock) so a tracer can be created before any testbed
    exists.
    """

    def __init__(self, clock=None, sample_every: int = 1):
        if sample_every < 1:
            raise ValueError("sample_every must be at least 1")
        self._clock = clock
        self.sample_every = sample_every
        self.spans: List[Span] = []        # finished spans of sampled traces
        self._stack: List[Span] = []
        self._pending: List[Span] = []     # finished spans of the open trace
        self._next_span = 0
        self.trace_count = 0               # root spans ever started
        self._sampled = True               # is the open trace retained?

    def bind_clock(self, clock) -> None:
        """Adopt *clock* if none is bound yet (first bus wins)."""
        if self._clock is None:
            self._clock = clock

    # -- span lifecycle --------------------------------------------------

    def begin(self, name: str, **attrs: Any) -> Span:
        """Open a span as a child of the current one (or a new root)."""
        clock = self._clock
        if clock is None:
            raise RuntimeError("tracer has no clock bound")
        stack = self._stack
        if not stack:
            self.trace_count += 1
            self._sampled = (self.trace_count - 1) % self.sample_every == 0
            trace_id, parent_id = self.trace_count, 0
        else:
            top = stack[-1]
            trace_id, parent_id = top.trace_id, top.span_id
        self._next_span += 1
        span = Span(
            trace_id=trace_id, span_id=self._next_span,
            parent_id=parent_id, name=name, begin=clock.now(), attrs=attrs,
        )
        stack.append(span)
        return span

    def end(self, span: Span, **attrs: Any) -> Span:
        """Close *span* (which must be the innermost open span)."""
        stack = self._stack
        if not stack or stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} is not the innermost open span"
            )
        stack.pop()
        if not span.end:  # begin() saw a clock, and a bound one stays
            span.end = self._clock.now()
        if attrs:
            span.attrs.update(attrs)
        pending = self._pending
        pending.append(span)
        if not stack:  # trace finished: retain or discard
            if self._sampled:
                self.spans.extend(pending)
            pending.clear()
        return span

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        opened = self.begin(name, **attrs)
        try:
            yield opened
        finally:
            self.end(opened)

    # -- context ---------------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self._stack)

    def current_ids(self) -> Tuple[int, int]:
        """(trace_id, span_id) of the innermost open span, or (0, 0)."""
        if not self._stack:
            return 0, 0
        top = self._stack[-1]
        return top.trace_id, top.span_id

    # -- reading ---------------------------------------------------------

    def traces(self) -> Dict[int, List[Span]]:
        """Finished spans grouped by trace id, in begin order."""
        out: Dict[int, List[Span]] = {}
        for span in self.spans:
            out.setdefault(span.trace_id, []).append(span)
        for spans in out.values():
            spans.sort(key=lambda s: (s.begin, s.span_id))
        return out


# --------------------------------------------------------------------- #
# structure helpers
# --------------------------------------------------------------------- #


def span_forest(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    """Children of each span id (0 maps to the roots), in begin order."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: (s.begin, s.span_id))
    return children


def validate_traces(spans: Sequence[Span]) -> List[str]:
    """Structural problems in a finished span set (empty list == valid).

    Checks, per trace: exactly one root; every parent_id resolves to a
    span in the *same* trace (an orphan means context was lost across a
    hop — the failover regression this guards); begin <= end.
    """
    problems: List[str] = []
    by_trace: Dict[int, List[Span]] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
        if span.end < span.begin:
            problems.append(
                f"span {span.span_id} ({span.name}) ends before it begins"
            )
    for trace_id, members in sorted(by_trace.items()):
        ids = {span.span_id for span in members}
        roots = [span for span in members if span.parent_id == 0]
        if len(roots) != 1:
            problems.append(
                f"trace {trace_id} has {len(roots)} roots (want exactly 1)"
            )
        for span in members:
            if span.parent_id and span.parent_id not in ids:
                problems.append(
                    f"trace {trace_id}: span {span.span_id} ({span.name}) "
                    f"is orphaned (parent {span.parent_id} missing)"
                )
    return problems


# --------------------------------------------------------------------- #
# Chrome trace-event export
# --------------------------------------------------------------------- #


def chrome_trace(spans: Sequence[Span],
                 process_name: str = "repro virtual cluster") -> Dict[str, Any]:
    """Finished spans as a Chrome trace-event JSON document.

    One complete (``ph: "X"``) event per span, timestamps in virtual
    microseconds — exactly the unit the format expects — with one
    thread track per trace so a unit's frontend→shard→worker→
    replay-cache chain reads top to bottom in Perfetto.
    """
    events: List[Dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": process_name},
    }]
    for trace_id in sorted({span.trace_id for span in spans}):
        events.append({
            "name": "thread_name", "ph": "M", "pid": 0, "tid": trace_id,
            "args": {"name": f"trace {trace_id}"},
        })
    for span in sorted(spans, key=lambda s: (s.begin, s.span_id)):
        args: Dict[str, Any] = {
            "span_id": span.span_id, "parent_id": span.parent_id,
        }
        args.update(span.attrs)
        events.append({
            "name": span.name,
            "cat": span.name.split("/", 1)[0],
            "ph": "X",
            "ts": span.begin,
            "dur": span.duration,
            "pid": 0,
            "tid": span.trace_id,
            "args": args,
        })
    return {"displayTimeUnit": "ms", "traceEvents": events}


def write_chrome_trace(path: str, spans: Sequence[Span],
                       process_name: str = "repro virtual cluster") -> int:
    """Write :func:`chrome_trace` to *path*; returns the event count."""
    document = chrome_trace(spans, process_name=process_name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return len(document["traceEvents"])
