"""The load harness: report shape, determinism, degradation accounting.

``repro.load`` is the acceptance surface for the service layer: it has
to complete with fault injection on, write a ``BENCH_kdc.json`` other
tools can trust, and reject every replayed authenticator it probes.
"""

import json

import pytest

from repro.load import LoadInputError, run_load

QUICK = dict(quick=True, shards=2, seed=0, out_path=None)


@pytest.fixture(scope="module")
def quick_report():
    return run_load(**QUICK)


def test_quick_clamps_workload(quick_report):
    assert quick_report["quick"] is True
    assert quick_report["config"]["clients"] <= 4
    assert quick_report["config"]["requests"] <= 36


def test_report_has_required_keys(quick_report):
    assert quick_report["schema"] == "repro-bench-kdc/3"
    for phase in ("unit", "as", "tgs", "ap"):
        summary = quick_report["latency_us"][phase]
        assert {"count", "p50", "p95", "p99", "mean", "max"} <= set(summary)
    assert {"completed", "failed", "sim_seconds", "ops_per_sim_s",
            "wall_seconds", "ops_per_wall_s"} \
        <= set(quick_report["throughput"])


def test_report_has_queueing_and_timeseries(quick_report):
    queueing = quick_report["queueing"]
    assert len(queueing["per_shard"]) == quick_report["config"]["shards"]
    for entry in queueing["per_shard"]:
        assert {"count", "p50", "p95", "p99", "mean", "max"} \
            <= set(entry["queue_wait_us"])
        assert 0 <= entry["utilization_pct"] <= 100
    assert {"count", "p50", "p95", "p99", "mean", "max"} \
        <= set(queueing["cluster_queue_wait_us"])
    series = quick_report["timeseries"]
    for shard in range(quick_report["config"]["shards"]):
        assert f"shard{shard}.queue_depth" in series
        assert f"shard{shard}.util_pct" in series
        assert f"shard{shard}.replay_entries" in series
    assert "cluster.tgs_failovers" in series
    # The live sampler/tracer objects must never reach the JSON file.
    assert "_sampler" in quick_report
    json.dumps({k: v for k, v in quick_report.items()
                if not k.startswith("_")})


def test_percentiles_are_ordered(quick_report):
    for phase, summary in quick_report["latency_us"].items():
        assert summary["p50"] <= summary["p95"] <= summary["p99"] \
            <= summary["max"], phase


def test_all_units_accounted_for(quick_report):
    throughput = quick_report["throughput"]
    assert throughput["completed"] + throughput["failed"] \
        == quick_report["config"]["requests"]
    assert throughput["completed"] > 0


def test_fault_injection_produces_degradation(quick_report):
    degradation = quick_report["degradation"]
    assert degradation["fault_window"] is not None
    assert degradation["unavailable_replies"] > 0
    assert degradation["client_retries"] > 0


def test_replay_probe_rejects_every_replay(quick_report):
    probe = quick_report["replay_probe"]
    assert probe["attempted"] > 0
    assert probe["rejected"] == probe["attempted"]


def test_deterministic_for_a_seed():
    a = run_load(**QUICK)
    b = run_load(**QUICK)
    for key in ("latency_us", "degradation", "replay_probe", "throughput"):
        if key == "throughput":
            # wall-clock fields legitimately differ run to run
            trim = {k: v for k, v in a[key].items() if "wall" not in k}
            assert trim == {k: v for k, v in b[key].items()
                            if "wall" not in k}
        else:
            assert a[key] == b[key], key


def test_different_seed_changes_the_run():
    a = run_load(**{**QUICK, "seed": 1})
    b = run_load(**QUICK)
    assert a["latency_us"] != b["latency_us"]


def test_no_faults_gives_flat_latency():
    report = run_load(**{**QUICK, "faults": False})
    assert report["degradation"]["fault_window"] is None
    assert report["degradation"]["unavailable_replies"] == 0
    assert report["throughput"]["failed"] == 0
    unit = report["latency_us"]["unit"]
    assert unit["p99"] <= 2 * unit["p50"]


def test_saturating_arrivals_produce_queue_wait():
    """Regression for the zero-queue-wait anomaly: arrivals used to be
    read off the raw synchronous clock, which is always behind every
    worker's free time (each unit drags the clock through its full wire
    cost), so no arrival rate — however high — could ever queue.  With
    arrivals de-lagged onto the open-loop calendar, an interarrival far
    below per-unit service cost must show up as tail queue wait."""
    report = run_load(**{**QUICK, "faults": False, "interarrival_us": 60})
    queueing = report["queueing"]
    assert queueing["cluster_queue_wait_us"]["p99"] > 0
    assert any(entry["queue_wait_us"]["p99"] > 0
               for entry in queueing["per_shard"])
    assert max(entry["utilization_pct"]
               for entry in queueing["per_shard"]) > 0
    depth = max(
        report["timeseries"][f"shard{i}.queue_depth"]["max"]
        for i in range(report["config"]["shards"])
    )
    assert depth > 0


def test_gentle_arrivals_stay_uncongested():
    """The complement: at the default interarrival the cluster keeps
    up, so the de-lag fix must not invent phantom queueing."""
    report = run_load(**{**QUICK, "faults": False})
    assert report["queueing"]["cluster_queue_wait_us"]["p99"] \
        <= report["queueing"]["cluster_service_us"]["max"]


def test_engine_diurnal_curve_bunches_arrivals(monkeypatch):
    """``--diurnal`` compresses two days into an engine-mode run, as in
    scale mode: the busiest 24-arrival window of the calendar is far
    denser than the quietest (a flat calendar gives ~0.8)."""
    import repro.load as load

    calendars = []
    real = load.open_loop_arrivals

    def capture(*args, **kwargs):
        arrivals = list(real(*args, **kwargs))
        calendars.append(arrivals)
        return iter(arrivals)

    monkeypatch.setattr(load, "open_loop_arrivals", capture)
    run_load(seed=0, diurnal=True, faults=False, out_path=None)
    (arrivals,) = calendars
    spans = [later - earlier
             for earlier, later in zip(arrivals, arrivals[23:])]
    assert min(spans) / max(spans) < 0.6


def test_rejects_unsharded_bed():
    with pytest.raises(ValueError):
        run_load(quick=True, shards=1, out_path=None)


def test_writes_benchmark_json(tmp_path):
    out = tmp_path / "BENCH_kdc.json"
    report = run_load(**{**QUICK, "out_path": str(out)})
    assert report["written_to"] == str(out)
    on_disk = json.loads(out.read_text())
    assert on_disk["schema"] == "repro-bench-kdc/3"
    assert "queueing" in on_disk and "timeseries" in on_disk
    assert "_sampler" not in on_disk
    assert on_disk["latency_us"]["unit"]["p99"] \
        == report["latency_us"]["unit"]["p99"]


def test_cli_load_quick_exits_zero(tmp_path, capsys):
    from repro.__main__ import main

    out = tmp_path / "BENCH_kdc.json"
    code = main(["load", "--quick", "--shards", "2", "--out", str(out)])
    assert code == 0
    assert out.exists()
    stdout = capsys.readouterr().out
    assert "replay probe" in stdout
    assert "unit latency" in stdout


def test_cli_serve_prints_topology(capsys):
    from repro.__main__ import main

    assert main(["serve", "--shards", "2", "--users", "4"]) == 0
    stdout = capsys.readouterr().out
    assert "2 shards" in stdout
    assert "frontend" in stdout
    assert "shard 1" in stdout


BAD_INPUTS = [
    {"requests": 0}, {"requests": -3}, {"workers_per_shard": 0},
    {"interarrival_us": 0}, {"shards": 1}, {"clients": 0},
    {"principals": 0}, {"zipf_s": 0.0},
]


@pytest.mark.parametrize("mode", [{}, {"principals": 2000}],
                         ids=["engine", "scale"])
@pytest.mark.parametrize("bad", BAD_INPUTS, ids=str)
def test_bad_inputs_rejected_before_running(mode, bad, tmp_path):
    """Both modes share one up-front input check: nothing runs and no
    report is written for an out-of-range parameter."""
    out = tmp_path / "BENCH_kdc.json"
    with pytest.raises(LoadInputError):
        run_load(**{"out_path": str(out), **mode, **bad})
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["load", "--requests", "-3"],
    ["load", "--principals", "2000", "--workers", "0"],
    ["load", "--interarrival", "0"],
    ["monitor", "--requests", "-3"],
])
def test_cli_bad_input_exits_two_with_one_line(argv, tmp_path, capsys,
                                              monkeypatch):
    from repro.__main__ import main

    monkeypatch.chdir(tmp_path)  # a report written by mistake lands here
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(argv[0] + ": ")
    assert err.count("\n") == 1
    assert not list(tmp_path.iterdir())
