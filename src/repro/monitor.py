"""The cluster monitor: ``python -m repro monitor``.

``python -m repro load`` answers "how fast is the cluster?"; this
command answers "*where did the time go?*".  It drives the same traced
load-harness run with a :class:`repro.obs.trace.Tracer` attached and
renders saturation end-to-end:

* per-phase latency (the load harness's own percentiles);
* a per-shard table: requests served, queue-wait percentiles, worker
  utilization, replay-cache occupancy — the numbers that show *which*
  shard is hot and why;
* the tick-sampled gauge series (queue depth, utilization, cache
  occupancy, failover/retry counters) summarised over the run;
* the top-N slowest traces, each broken down into queue wait vs crypto
  vs dispatch overhead vs wire/other — computed from the worker spans'
  attributes, so a slow unit is attributable at a glance;
* a structural check over every finished trace
  (:func:`repro.obs.trace.validate_traces`): one root per trace, no
  orphan spans across failover (a retry is a trace of its own).

``--emit-chrome-trace PATH`` additionally exports the span forest as
Chrome trace-event JSON — loadable in Perfetto or ``chrome://tracing``,
one track per trace, timestamps in simulated microseconds.

``--overhead-guard PCT`` measures the cost of the instrumentation
itself: interleaved quick runs with tracing disabled vs enabled,
best-of-N each side, failing if tracing slowed the run down by more
than PCT — the no-op fast-path contract CI pins.

Everything except wall-clock figures is deterministic for a seed.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import render_table
from repro.load import run_load
from repro.obs.trace import (
    Span, Tracer, span_forest, validate_traces, write_chrome_trace,
)

__all__ = ["run_monitor", "render_monitor", "trace_breakdown",
           "render_trace_tree", "measure_overhead"]


def trace_breakdown(spans: Sequence[Span]) -> Dict[str, int]:
    """Where one trace's time went, from its worker spans' attributes.

    ``queue_wait``/``crypto``/``dispatch`` come from the virtual
    worker-pool model; ``wire_other`` is whatever of the root span's
    duration they do not explain (propagation, failed shard hops).
    """
    total = queue = crypto = dispatch = service = 0
    for span in spans:
        if span.parent_id == 0:
            total += span.duration
        if span.name.startswith("worker/"):
            queue += int(span.attrs.get("queue_wait_us", 0))
            crypto += int(span.attrs.get("crypto_us", 0))
            dispatch += int(span.attrs.get("overhead_us", 0))
            service += int(span.attrs.get("service_us", 0))
    return {
        "total_us": total,
        "queue_wait_us": queue,
        "crypto_us": crypto,
        "dispatch_us": dispatch,
        "wire_other_us": max(0, total - queue - service),
        "spans": len(spans),
    }


def run_monitor(
    shards: int = 3,
    clients: int = 8,
    requests: int = 240,
    workers_per_shard: int = 2,
    seed: int = 0,
    faults: bool = True,
    quick: bool = False,
    interarrival_us: Optional[int] = None,
    sample_every: int = 1,
    top_n: int = 5,
    chrome_trace_path: Optional[str] = None,
) -> Dict[str, Any]:
    """One traced load run, digested for the dashboard.

    Returns the load report extended with ``traces`` (count, problems,
    slowest breakdowns) — plus the live ``_tracer`` the load harness
    attached.  Writes the Chrome trace JSON when a path is given.
    """
    tracer = Tracer(sample_every=sample_every)
    report = run_load(
        shards=shards, clients=clients, requests=requests,
        workers_per_shard=workers_per_shard, seed=seed, faults=faults,
        quick=quick, interarrival_us=interarrival_us, out_path=None,
        tracer=tracer,
    )
    by_trace = tracer.traces()
    slowest = sorted(
        ((trace_id, trace_breakdown(spans))
         for trace_id, spans in by_trace.items()),
        key=lambda item: (-item[1]["total_us"], item[0]),
    )[:top_n]
    report["traces"] = {
        "started": tracer.trace_count,
        "sampled": len(by_trace),
        "spans": len(tracer.spans),
        "problems": validate_traces(tracer.spans),
        "slowest": [
            {"trace_id": trace_id, **breakdown}
            for trace_id, breakdown in slowest
        ],
    }
    if chrome_trace_path:
        events = write_chrome_trace(chrome_trace_path, tracer.spans)
        report["traces"]["chrome_trace"] = {
            "path": chrome_trace_path, "events": events,
        }
    return report


def render_trace_tree(spans: Sequence[Span]) -> List[str]:
    """One trace rendered as an indented span tree (also used by the
    ``audit`` command's perturbed-traces section)."""
    children = span_forest(spans)
    lines: List[str] = []

    def walk(span: Span, depth: int) -> None:
        extras = " ".join(
            f"{key}={value}" for key, value in sorted(span.attrs.items())
            if key in ("queue_wait_us", "crypto_us", "error", "attempt",
                       "shard", "fresh")
        )
        lines.append(
            f"  {'  ' * depth}{span.name:<{24 - 2 * min(depth, 6)}}"
            f" {span.duration:>8,}us" + (f"  {extras}" if extras else "")
        )
        for child in children.get(span.span_id, []):
            walk(child, depth + 1)

    for root in children.get(0, []):
        walk(root, 0)
    return lines


def render_monitor(report: Dict[str, Any], show_tree_for: int = 1) -> str:
    """The dashboard ``python -m repro monitor`` prints."""
    cfg = report["config"]
    out: List[str] = [
        "KDC cluster monitor" + (" (--quick)" if report["quick"] else ""),
        "=" * 30,
        "",
        f"workload         {cfg['requests']} units from {cfg['clients']} "
        f"clients over {cfg['shards']} shards "
        f"({cfg['workers_per_shard']} workers each, seed {cfg['seed']})",
        f"completed        {report['throughput']['completed']} ok, "
        f"{report['throughput']['failed']} failed in "
        f"{report['throughput']['sim_seconds']}s simulated",
        "",
    ]

    phase_rows = []
    for phase in ("unit", "as", "tgs", "ap"):
        s = report["latency_us"][phase]
        phase_rows.append([phase, s["count"], f"{s['p50']:,}",
                           f"{s['p95']:,}", f"{s['p99']:,}", f"{s['max']:,}"])
    out.append(render_table(
        "latency by phase (us)",
        ["phase", "count", "p50", "p95", "p99", "max"], phase_rows,
    ))
    out.append("")

    shard_rows = []
    for stats, queueing in zip(report["cluster"]["per_shard"],
                               report["queueing"]["per_shard"]):
        wait = queueing["queue_wait_us"]
        cache = stats["replay_cache"]
        shard_rows.append([
            stats["shard"],
            stats["served"]["kerberos"], stats["served"]["tgs"],
            stats["failover_serves"],
            f"{wait['p50']:,}", f"{wait['p99']:,}",
            f"{queueing['utilization_pct']}%",
            f"{cache['entries']}/{cache['capacity']}",
            cache["evictions"],
        ])
    out.append(render_table(
        "per-shard saturation",
        ["shard", "as", "tgs", "failover", "wait p50", "wait p99",
         "util", "cache", "evict"], shard_rows,
    ))
    out.append("")

    sampler = report.get("_sampler")
    if sampler is not None:
        out.append(render_table(
            "tick-sampled gauges",
            ["gauge", "samples", "min", "p50", "p95", "max", "last"],
            sampler.render_rows(),
        ))
        out.append("")

    traces = report["traces"]
    slow_rows = [
        [entry["trace_id"], f"{entry['total_us']:,}",
         f"{entry['queue_wait_us']:,}", f"{entry['crypto_us']:,}",
         f"{entry['dispatch_us']:,}", f"{entry['wire_other_us']:,}",
         entry["spans"]]
        for entry in traces["slowest"]
    ]
    out.append(render_table(
        f"top {len(slow_rows)} slowest traces (us)",
        ["trace", "total", "queue", "crypto", "dispatch", "wire/other",
         "spans"], slow_rows,
    ))

    tracer = report.get("_tracer")
    if tracer is not None and traces["slowest"] and show_tree_for > 0:
        by_trace = tracer.traces()
        for entry in traces["slowest"][:show_tree_for]:
            out.append("")
            out.append(f"trace {entry['trace_id']} span tree:")
            out.extend(render_trace_tree(by_trace[entry["trace_id"]]))

    out.append("")
    out.append(
        f"traces           {traces['sampled']}/{traces['started']} sampled, "
        f"{traces['spans']} spans"
    )
    if traces["problems"]:
        out.append("trace structure  BROKEN:")
        out.extend(f"  {problem}" for problem in traces["problems"])
    else:
        out.append("trace structure  OK (one root per trace, no orphans)")
    if "chrome_trace" in traces:
        chrome = traces["chrome_trace"]
        out.append(
            f"chrome trace     wrote {chrome['events']} events to "
            f"{chrome['path']} (load in Perfetto / chrome://tracing)"
        )
    return "\n".join(out)


def measure_overhead(runs: int = 9, **load_kwargs: Any) -> Dict[str, Any]:
    """Wall-time cost of tracing on the quick E28 workload.

    Runs ``runs`` interleaved untraced/traced pairs on fresh testbeds
    and compares best-of-N: the minimum is the least noisy wall-clock
    estimator for a CPU-bound deterministic run, and interleaving the
    pairs keeps slow machine-load drift from landing entirely on one
    side (two back-to-back blocks can misreport by >10% on a busy
    host).  The interesting bound is the *disabled* path — instrumented
    code with no tracer attached pays one attribute read per site, so
    enabling tracing should also stay within noise: the span bookkeeping
    is trivial next to the simulation's software DES.
    """
    kwargs = dict(quick=True, faults=False, out_path=None)
    kwargs.update(load_kwargs)

    def timed(tracer: Optional[Tracer]) -> float:
        start = time.perf_counter()
        run_load(tracer=tracer, **kwargs)
        return time.perf_counter() - start

    untraced_walls, traced_walls = [], []
    for _ in range(runs):
        untraced_walls.append(timed(None))
        traced_walls.append(timed(Tracer()))
    untraced, traced = min(untraced_walls), min(traced_walls)
    return {
        "runs": runs,
        "untraced_s": round(untraced, 4),
        "traced_s": round(traced, 4),
        "traced_overhead_pct": round(100.0 * (traced - untraced) / untraced, 1)
        if untraced else 0.0,
    }
