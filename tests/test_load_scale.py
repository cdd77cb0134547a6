"""Scale mode of the load harness: the calibrated million-principal model.

One shared report (module fixture) carries most assertions; the
deliberately small replay-cache capacity makes eviction churn visible
without needing the full 20k-request quick run in CI.
"""

import json

import pytest

from repro.crypto.keys import string_to_key, string_to_key_many
from repro.crypto.rng import DeterministicRandom
from repro.kerberos.kdc import AS_SERVICE
from repro.kerberos.principal import Principal
from repro.load import LoadInputError, backoff_us, render_report, run_load
from repro.serve import scale
from repro.serve.cluster import ClusterDatabase, Frontend, KdcCluster
from repro.serve.scale import _Model, _run_model_once, calibrate
from repro.serve.sharding import shard_of
from repro.sim.workload import ZipfianGenerator

PRINCIPALS = 30_000
REQUESTS = 2_500
CACHE = 256


@pytest.fixture(scope="module")
def report():
    return run_load(
        principals=PRINCIPALS, requests=REQUESTS, seed=0,
        replay_cache_capacity=CACHE, out_path=None,
    )


# -- calibration ---------------------------------------------------------

def test_calibration_is_measured_and_positive():
    cal = calibrate(seed=0)
    assert set(cal) == {"as_wire_us", "tgs_wire_us", "ap_us",
                       "as_block_ops", "tgs_block_ops"}
    assert all(v > 0 for v in cal.values())
    # TGS work includes decrypting the TGT *and* minting a ticket; it
    # cannot be cheaper than a handful of DES blocks.
    assert cal["tgs_block_ops"] > 10
    assert calibrate(seed=0) == cal  # cached and stable


# -- principal keys ------------------------------------------------------

def test_scale_call_derives_each_principal_once(monkeypatch):
    """The main run and every curve cell read one key table: each
    principal the call names is derived exactly once, to the key the
    paper's ``string_to_key`` gives its password."""
    derived = []

    def one(password, salt=""):
        key = string_to_key(password, salt)
        derived.append((password, key))
        return key

    def many(passwords, salt=""):
        out = string_to_key_many(passwords, salt)
        derived.extend(zip(passwords, out))
        return out

    # Wrap whichever derivation functions the model module calls.
    for name, wrapper in (("string_to_key", one),
                          ("string_to_key_many", many)):
        if hasattr(scale, name):
            monkeypatch.setattr(scale, name, wrapper)
    report = run_load(principals=2000, requests=200, seed=1, out_path=None)

    passwords = [password for password, _ in derived]
    assert len(passwords) == len(set(passwords))
    for password, key in derived:
        assert key == string_to_key(password)
    # The main run's ranks are the first fork of its stream.
    zipf = ZipfianGenerator(2000, s=1.1, rng=DeterministicRandom(1)
                            .fork("scale:main").fork("zipf"))
    main = {zipf.sample() for _ in range(200)}
    assert {f"pw-{rank}" for rank in main} <= set(passwords)
    assert report["workload"]["principals"]["materialized"] == len(main)


def test_zipf_population_touches_a_small_fraction(report):
    principals = report["workload"]["principals"]
    assert principals["total"] == PRINCIPALS
    assert 0 < principals["materialized"] < PRINCIPALS // 4


# -- the report ----------------------------------------------------------

def test_scale_report_schema_and_mode(report):
    assert report["schema"] == "repro-bench-kdc/3"
    assert report["workload"]["mode"] == "model"
    assert report["workload"]["zipf_s"] == 1.1
    assert report["workload"]["calibration"] == calibrate(seed=0)
    assert report["config"]["clients"] == PRINCIPALS


def test_saturation_shows_in_the_tail(report):
    wait = report["queueing"]["cluster_queue_wait_us"]
    assert wait["p99"] > 0
    assert wait["max"] >= wait["p99"] >= wait["p50"]


def test_replay_caches_churn_and_probe_rejects(report):
    caches = [s["replay_cache"] for s in report["cluster"]["per_shard"]]
    assert all(c["capacity"] == CACHE for c in caches)
    assert sum(c["evictions"] for c in caches) > 0
    assert all(c["entries"] <= CACHE for c in caches)
    probe = report["replay_probe"]
    assert probe["attempted"] > 0
    assert probe["rejected"] == probe["attempted"]


def test_fault_window_degrades_and_fails_over(report):
    degrade = report["degradation"]
    assert degrade["fault_window"] is not None
    assert degrade["tgs_failovers"] > 0
    assert report["throughput"]["completed"] > 0


def test_scheduler_drains_every_unit(report):
    stats = report["scheduler"]
    assert stats["events_processed"] > REQUESTS
    assert stats["heap_high_water"] > 0
    assert stats["pending"] == 0


def test_timeseries_gauges_sampled(report):
    series = report["timeseries"]
    assert "shard0.queue_depth" in series
    assert "cluster.replay_evictions" in series
    assert series["cluster.replay_evictions"]["last"] > 0
    assert report["_sampler"].ticks > 1


# -- the scaling curve ---------------------------------------------------

def test_scaling_curve_structure(report):
    curve = report["scaling_curve"]
    assert curve["requests_per_cell"] <= REQUESTS
    cells = curve["cells"]
    assert len(cells) >= 4
    for cell in cells:
        assert cell["shards"] >= 2
        assert cell["workers_per_shard"] >= 1
        assert cell["completed"] > 0
        assert cell["ops_per_sim_s"] > 0
        assert isinstance(cell["frontier"], bool)


def test_scaling_curve_throughput_grows_with_workers(report):
    cells = {(c["shards"], c["workers_per_shard"]): c
             for c in report["scaling_curve"]["cells"]}
    assert cells[(8, 8)]["ops_per_sim_s"] > cells[(2, 2)]["ops_per_sim_s"]


def test_frontier_cells_are_pareto_optimal(report):
    cells = report["scaling_curve"]["cells"]
    frontier = [c for c in cells if c["frontier"]]
    assert frontier
    for cell in frontier:
        dominated = any(
            o is not cell
            and o["ops_per_sim_s"] >= cell["ops_per_sim_s"]
            and o["unit_p99_us"] <= cell["unit_p99_us"]
            and (o["ops_per_sim_s"] > cell["ops_per_sim_s"]
                 or o["unit_p99_us"] < cell["unit_p99_us"])
            for o in cells
        )
        assert not dominated


def test_wide_scaling_curve_grid_runs_every_cell():
    """``--scaling-curve`` sweeps the full 5 x 4 shards x workers grid."""
    report = run_load(principals=2000, requests=60, scaling_curve=True,
                      out_path=None)
    cells = report["scaling_curve"]["cells"]
    assert [(c["shards"], c["workers_per_shard"]) for c in cells] == \
        scale.WIDE_CURVE_GRID
    assert len(cells) == 20
    assert all(cell["completed"] == 60 for cell in cells)
    assert any(cell["frontier"] for cell in cells)


# -- determinism ---------------------------------------------------------

def _stable_fields(report):
    out = {k: v for k, v in report.items() if not k.startswith("_")}
    out["throughput"] = {
        k: v for k, v in report["throughput"].items()
        if k not in ("wall_seconds", "ops_per_wall_s")
    }
    return json.dumps(out, sort_keys=True)


def test_same_seed_byte_identical_report():
    kwargs = dict(principals=5000, requests=800, seed=42,
                  replay_cache_capacity=64, out_path=None)
    assert _stable_fields(run_load(**kwargs)) == \
        _stable_fields(run_load(**kwargs))


def test_different_seed_different_workload():
    a = run_load(principals=5000, requests=800, seed=1,
                 replay_cache_capacity=64, out_path=None)
    b = run_load(principals=5000, requests=800, seed=2,
                 replay_cache_capacity=64, out_path=None)
    assert _stable_fields(a) != _stable_fields(b)


# -- wiring --------------------------------------------------------------

def test_run_load_dispatches_on_principals(report):
    assert report["workload"]["mode"] == "model"


def test_validation_guards():
    with pytest.raises(LoadInputError):
        run_load(principals=0, out_path=None)
    with pytest.raises(LoadInputError):
        run_load(principals=10, shards=1, out_path=None)


def _key_tree(value):
    if isinstance(value, dict):
        return {key: _key_tree(sub) for key, sub in value.items()
                if not key.startswith("_")}
    if isinstance(value, list):
        return [_key_tree(sub) for sub in value]
    return None


def test_engine_and_scale_reports_share_one_key_tree(report):
    """One builder: with equal shard counts the two modes' reports have
    the same keys at every depth, apart from the scale-only curve and
    calibration and the data-keyed error and metric maps."""
    engine = run_load(quick=True, shards=report["config"]["shards"],
                      seed=0, out_path=None)
    trees = []
    for run in (engine, report):
        tree = _key_tree(run)
        tree.pop("scaling_curve", None)
        tree.pop("metrics")
        tree["workload"].pop("calibration", None)
        tree["degradation"].pop("errors")
        trees.append(tree)
    assert trees[0] == trees[1]


def test_refused_requests_add_up_in_both_modes(report):
    """Both frontends count every request they are offered and every
    one they refuse: a request is served or refused, and a refused one
    is retried or ends its unit ``unavailable``."""
    engine = run_load(quick=True, shards=report["config"]["shards"],
                      seed=0, out_path=None)
    for run in (engine, report):
        cluster, degrade = run["cluster"], run["degradation"]
        served = sum(sum(shard["served"].values())
                     for shard in cluster["per_shard"])
        mode = run["workload"]["mode"]
        assert degrade["unavailable_replies"] == cluster["unavailable"] > 0
        assert sum(cluster["requests"].values()) \
            == served + cluster["unavailable"], mode
        assert degrade["client_retries"] == cluster["unavailable"] \
            - degrade["errors"].get("unavailable", 0), mode


# -- one request path ----------------------------------------------------

def test_every_request_goes_through_frontend_dispatch(monkeypatch):
    """Both modes route and count each request in Frontend.dispatch:
    per frontend, the calls it saw per service are its ``requests``."""
    seen = {}  # id -> (frontend, calls per service); holds each alive
    original = Frontend.dispatch

    def spy(self, service, primary, serve):
        _, calls = seen.setdefault(id(self), (self, {}))
        calls[service] = calls.get(service, 0) + 1
        return original(self, service, primary, serve)

    monkeypatch.setattr(Frontend, "dispatch", spy)
    engine = run_load(quick=True, shards=2, seed=0, out_path=None)
    model = run_load(principals=2000, requests=200, seed=1, out_path=None)
    assert {type(f) for f, _ in seen.values()} >= {KdcCluster, _Model}
    for frontend, calls in seen.values():
        assert calls == frontend.requests
    for run in (engine, model):
        requests = run["cluster"]["requests"]
        assert all(requests.values())
        assert requests in [f.requests for f, _ in seen.values()]


def test_modelled_backoff_sees_a_restore():
    """The client's backoff is a scheduler wait: a home shard restored
    during it serves the retry."""
    cal = {"as_wire_us": 1000, "tgs_wire_us": 1000, "ap_us": 1000,
           "as_block_ops": 25, "tgs_block_ops": 49}
    model = _Model(shards=2, workers_per_shard=1, replay_capacity=8,
                   cal=cal, backoff_rng=DeterministicRandom(0))
    model.down.add(0)
    outcomes = []

    def client():
        outcomes.append((yield from model._request(
            AS_SERVICE, 0, cal["as_block_ops"], "user0@ATHENA", b"",
        )))

    first_backoff = backoff_us(0, DeterministicRandom(0))
    model.sched.spawn(client())
    model.sched.at(first_backoff // 2, lambda: model.down.discard(0))
    model.sched.run()
    assert outcomes == [("ok", 0)]
    assert model.retry.retries == 1
    assert model.unavailable == 1
    assert model.requests[AS_SERVICE] == 2


def test_engine_backoff_sees_a_restore():
    """The engine twin: a unit's AS request meets its downed home
    shard, the shard comes back inside the first backoff, and the retry
    is served.  Three units, one principal homed on the shard that the
    outage downs for op 1 only; the restore comes one interarrival
    (500-1500us) after the refusal, well inside any first backoff."""
    shards = 3
    assert shard_of("user0@ATHENA", shards) == 1 % shards
    report = run_load(shards=shards, clients=1, requests=3,
                      interarrival_us=1000, seed=0, out_path=None)
    degrade = report["degradation"]
    assert degrade["fault_window"] == {"shard": 1, "first_op": 1,
                                       "last_op": 1}
    assert degrade["unavailable_replies"] == 1
    assert degrade["client_retries"] == 1
    assert degrade["errors"] == {}
    assert report["throughput"]["completed"] == 3
    assert report["cluster"]["requests"][AS_SERVICE] == 4


def test_model_homes_principals_where_the_engine_does(monkeypatch):
    """The model routes a unit's AS request to the shard that holds the
    principal's key in engine mode (``ClusterDatabase.home_shard``)."""
    shards = 3
    database = ClusterDatabase("ATHENA", DeterministicRandom(0), shards)
    seen = {}
    original = _Model._request

    def spy(self, service, primary, block_ops, client, *args, **kwargs):
        if service == AS_SERVICE:
            seen[client] = primary
        return original(self, service, primary, block_ops, client,
                        *args, **kwargs)

    monkeypatch.setattr(_Model, "_request", spy)
    ranks = list(range(1000))
    _run_model_once(
        ranks, dict.fromkeys(ranks, b""), shards, 2, 256, 600,
        diurnal=False, faults=False, seed_rng=DeterministicRandom(0),
        cal=calibrate(0), gauges=False,
    )
    assert len(seen) == len(ranks)
    for client, primary in seen.items():
        rank = int(client.split("@")[0][len("user"):])
        assert primary == database.home_shard(
            Principal(f"user{rank}", "", "ATHENA")), client


def test_modelled_unit_costs_three_events():
    requests = 150
    run = run_load(principals=2000, requests=requests, seed=2,
                   faults=False, out_path=None)
    assert run["scheduler"]["events_processed"] == 3 * requests


def test_render_report_shows_principals_and_curve(report):
    text = render_report(report)
    assert "30,000 total" in text
    assert "keys materialized" in text
    assert "scaling curve" in text
    assert "scheduler" in text


def test_cli_scale_flags(tmp_path, capsys):
    from repro.__main__ import main

    out = tmp_path / "bench.json"
    rc = main([
        "load", "--principals", "4000", "--requests", "600",
        "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert "4,000 total" in text
    on_disk = json.loads(out.read_text())
    assert on_disk["schema"] == "repro-bench-kdc/3"
    assert on_disk["workload"]["mode"] == "model"
    assert on_disk["scaling_curve"]["cells"]


def test_diurnal_surge_raises_peak_queueing():
    flat = run_load(principals=5000, requests=1200, seed=6,
                    replay_cache_capacity=64, out_path=None, faults=False)
    surged = run_load(principals=5000, requests=1200, seed=6,
                      replay_cache_capacity=64, out_path=None,
                      faults=False, diurnal=True)
    assert surged["workload"]["diurnal"] is True
    flat_wait = flat["queueing"]["cluster_queue_wait_us"]
    surge_wait = surged["queueing"]["cluster_queue_wait_us"]
    assert surge_wait["max"] > flat_wait["max"]
