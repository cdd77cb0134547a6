"""``python -m repro monitor``: dashboard, traces, export, audit hookup.

This drives the traced load harness with fault injection on, so the
structural guarantees are exercised under the hard cases: shard
failover (frontend hops shards mid-trace) and client retries (each try
its own call, after a backoff on the scheduler) must still produce
single-rooted traces with no orphan spans.
"""

import json

import pytest

from repro.monitor import (
    measure_overhead, render_monitor, run_monitor, trace_breakdown,
)
from repro.obs.trace import span_forest, validate_traces


@pytest.fixture(scope="module")
def monitored(tmp_path_factory):
    path = tmp_path_factory.mktemp("monitor") / "repro-trace.json"
    report = run_monitor(
        quick=True, seed=0, interarrival_us=60,
        chrome_trace_path=str(path),
    )
    return report, path


def test_traces_survive_failover_and_retries_single_rooted(monitored):
    report, _ = monitored
    assert report["traces"]["problems"] == []
    tracer = report["_tracer"]
    by_trace = tracer.traces()
    assert by_trace, "fault-injected quick run must produce traces"
    assert report["degradation"]["tgs_failovers"] > 0

    # A rescued unit: its client's AS call met the downed shard, and a
    # retry, a call of its own after a backoff, was served.  Each try
    # is one trace, rooted at its rpc/kerberos span.
    as_calls = {}
    for _, spans in sorted(by_trace.items()):
        root = next(s for s in spans if s.parent_id == 0)
        if root.name == "rpc/kerberos":
            as_calls.setdefault(root.attrs["client"], []).append(spans)

    def refused(spans):
        return any(s.name == "frontend/kerberos"
                   and s.attrs.get("error") == "unavailable"
                   for s in spans)

    rescued = [calls for calls in as_calls.values()
               if refused(calls[0]) and not refused(calls[-1])]
    assert rescued, "the mid-run outage must force a retry that lands"
    for calls in rescued:
        assert all(refused(spans) for spans in calls[:-1])
        for spans in calls:
            assert len({s.trace_id for s in spans}) == 1
            assert sum(s.parent_id == 0 for s in spans) == 1
            assert validate_traces(spans) == []
        assert not any("error" in s.attrs for s in calls[-1])


def test_span_chain_covers_frontend_shard_worker_replay(monitored):
    report, _ = monitored
    by_trace = report["_tracer"].traces()
    full_chains = 0
    for spans in by_trace.values():
        names = {s.name.split("/", 1)[0] for s in spans}
        if {"frontend", "worker", "replay-cache"} <= names \
                and any(n.startswith("shard") for n in names):
            # The chain must actually nest, not just coexist.
            by_id = {s.span_id: s for s in spans}
            cache = [s for s in spans if s.name == "replay-cache/check"][0]
            worker = by_id[cache.parent_id]
            shard = by_id[worker.parent_id]
            frontend = by_id[shard.parent_id]
            assert worker.name.startswith("worker/")
            assert shard.name.startswith("shard")
            assert frontend.name.startswith("frontend/")
            full_chains += 1
    assert full_chains > 0


def test_chrome_trace_export_is_loadable(monitored):
    report, path = monitored
    doc = json.loads(path.read_text())
    assert set(doc) == {"displayTimeUnit", "traceEvents"}
    complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(complete) == report["traces"]["spans"]
    for event in complete:
        assert {"name", "cat", "ts", "dur", "pid", "tid", "args"} \
            <= set(event)
        assert event["dur"] >= 0
        assert "span_id" in event["args"]
    assert report["traces"]["chrome_trace"]["events"] \
        == len(doc["traceEvents"])


def test_slowest_traces_are_broken_down(monitored):
    report, _ = monitored
    slowest = report["traces"]["slowest"]
    assert slowest
    totals = [entry["total_us"] for entry in slowest]
    assert totals == sorted(totals, reverse=True)
    for entry in slowest:
        assert {"trace_id", "total_us", "queue_wait_us", "crypto_us",
                "dispatch_us", "wire_other_us", "spans"} <= set(entry)
        assert entry["total_us"] >= 0
    # Saturating interarrival: some trace must show real queue wait.
    assert any(entry["queue_wait_us"] > 0 for entry in slowest) or any(
        e["queue_wait_us"]["p99"] > 0
        for e in report["queueing"]["per_shard"]
    )


def test_trace_breakdown_accounts_for_worker_attrs():
    from repro.obs.trace import Span

    spans = [
        Span(trace_id=1, span_id=1, parent_id=0, name="rpc/tgs",
             begin=0, end=1000),
        Span(trace_id=1, span_id=2, parent_id=1, name="worker/tgs",
             begin=100, end=400,
             attrs={"queue_wait_us": 40, "service_us": 300,
                    "crypto_us": 220, "overhead_us": 80}),
    ]
    breakdown = trace_breakdown(spans)
    assert breakdown["total_us"] == 1000
    assert breakdown["queue_wait_us"] == 40
    assert breakdown["crypto_us"] == 220
    assert breakdown["dispatch_us"] == 80
    assert breakdown["wire_other_us"] == 1000 - 40 - 300
    assert breakdown["spans"] == 2


def test_render_monitor_has_every_section(monitored):
    report, _ = monitored
    text = render_monitor(report)
    for needle in (
        "KDC cluster monitor", "latency by phase", "per-shard saturation",
        "tick-sampled gauges", "slowest traces", "span tree",
        "trace structure  OK", "chrome trace     wrote",
    ):
        assert needle in text, needle


def test_sample_every_bounds_retained_traces():
    report = run_monitor(quick=True, seed=0, faults=False, sample_every=4)
    traces = report["traces"]
    assert traces["started"] > traces["sampled"] > 0
    assert traces["problems"] == []


def test_measure_overhead_reports_both_sides():
    overhead = measure_overhead(runs=1)
    assert overhead["runs"] == 1
    assert overhead["untraced_s"] > 0
    assert overhead["traced_s"] > 0
    assert isinstance(overhead["traced_overhead_pct"], float)


def test_cli_monitor_quick_exits_zero(tmp_path, capsys):
    from repro.__main__ import main

    out = tmp_path / "repro-trace.json"
    code = main([
        "monitor", "--quick", "--top", "3",
        "--emit-chrome-trace", str(out),
    ])
    assert code == 0
    assert out.exists()
    stdout = capsys.readouterr().out
    assert "trace structure  OK" in stdout
    assert "slowest traces" in stdout


def test_matrix_cells_carry_anomaly_traces():
    from repro.suite import DEFAULT_COLUMNS, SCENARIOS, _run_cell

    scenario = next(s for s in SCENARIOS if s.name == "authenticator replay")
    config = dict(DEFAULT_COLUMNS)["hardened"]
    outcome = _run_cell(scenario, config, seed=1000)
    assert outcome.detectability  # the replay cache catches the replay
    assert outcome.anomaly_traces  # ...and names the trace that tripped it
    for kinds in outcome.anomaly_traces.values():
        assert all(count > 0 for count in kinds.values())
    assert sum(
        count for kinds in outcome.anomaly_traces.values()
        for count in kinds.values()
    ) <= sum(outcome.detectability.values())


def test_cli_audit_prints_perturbed_traces(capsys):
    from repro.__main__ import main

    code = main(["audit", "authenticator replay", "--column", "hardened"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "perturbed traces" in stdout
    assert "inject/mail" in stdout


def test_span_forest_reconstructs_monitored_chains(monitored):
    report, _ = monitored
    by_trace = report["_tracer"].traces()
    for spans in by_trace.values():
        forest = span_forest(spans)
        roots = forest.get(0, [])
        assert len(roots) == 1
        # every non-root span is reachable from the root
        reachable = set()
        stack = [roots[0].span_id]
        while stack:
            node = stack.pop()
            reachable.add(node)
            stack.extend(child.span_id for child in forest.get(node, []))
        assert reachable == {s.span_id for s in spans}
