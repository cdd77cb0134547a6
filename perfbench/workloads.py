"""The benchmark's four workloads.

Each workload is built from its seed and offers the same four steps to
the runner in ``run.py``:

* ``build()`` constructs the state a timed call needs (testbed, model
  tables), replacing any previous state and clearing the caches it
  fills, so repeated set-ups each pay the full cost;
* ``warm_up()`` runs a small amount of the workload so lazy set-up and
  first-touch costs land in set-up; it returns deterministic fields to
  digest, or ``None`` when the workload's calls carry their own;
* ``call()`` is one timed operation and returns an :class:`Outcome`;
* ``finish()`` runs checks that belong after the last call.

All entry points run with ``out_path=None`` and no Chrome-trace path,
so no report file is written.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.crack import run_crack
from repro.crypto.des import BLOCK_OPS
from repro.kerberos.client import KerberosError
from repro.kerberos.config import ProtocolConfig
from repro.kerberos.messages import ERR_REPLAY, decode_error, unframe
from repro.load import run_load
from repro.monitor import run_monitor
from repro.serve import scale
from repro.sim import workload as sim_workload
from repro.sim.host import HostError
from repro.sim.network import Endpoint, NetworkError
from repro.testbed import Testbed

#: Modules whose import the set-up time covers (the DES SP/IP tables and
#: the bitslice gate compile happen here).
IMPORTS = ("repro.crypto.des_bitslice", "repro.testbed", "repro.monitor",
           "repro.serve.scale", "repro.crack")


@dataclass
class Outcome:
    """What one timed call did."""

    work: int          # units completed: the throughput numerator
    attempted: int     # units attempted
    completed: int     # units that ended as the workload intends
    failed: int        # units that failed in a way the workload does not intend
    problems: List[str] = field(default_factory=list)  # failed output checks
    latencies_ns: Optional[List[int]] = None  # per-unit wall samples, if timed
    digest: Optional[Dict[str, Any]] = None   # deterministic fields
    failovers: int = 0


def _unintended(errors: Dict[str, int]) -> int:
    """Errors other than the framed unavailable replies the outage causes."""
    return sum(count for kind, count in errors.items() if kind != "unavailable")


def _load_checks(report: Dict[str, Any], requests: int) -> List[str]:
    """Every unit ended, and every replayed authenticator was refused."""
    through, probe = report["throughput"], report["replay_probe"]
    problems = []
    if through["completed"] + through["failed"] != requests:
        problems.append("completed + failed != requests")
    if probe["attempted"] == 0 or probe["rejected"] != probe["attempted"]:
        problems.append(f"replay probe rejected {probe['rejected']}"
                        f"/{probe['attempted']}")
    return problems


def _load_digest(report: Dict[str, Any]) -> Dict[str, Any]:
    """The load-harness report fields that do not depend on wall time."""
    return {
        "latency_us": report["latency_us"],
        "throughput": {key: value
                       for key, value in report["throughput"].items()
                       if key not in ("wall_seconds", "ops_per_wall_s")},
        "degradation": report["degradation"],
        "scheduler": report["scheduler"],
        "replay_hits_evictions": [
            [s["replay_cache"]["hits"], s["replay_cache"]["evictions"]]
            for s in report["cluster"]["per_shard"]
        ],
        "replay_probe": report["replay_probe"],
        "queueing": report["queueing"],
    }


class Exchange:
    """Closed loop, one client, a 3-shard cluster: login, service ticket,
    AP exchange, one private ``COUNT`` call, logout, cycling a fixed pool
    of principals.  Each exchange is timed from outside."""

    name = "exchange"
    POOL = 256
    BATCH = 50       # exchanges per timed call
    CYCLE = 1000     # exchanges on one testbed before a fresh one is built
    WARM_UP = 64     # exchanges in set-up, digested
    WIRE_LOG = 4096  # bounded adversary log, so memory does not grow with time

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def build(self) -> None:
        config = ProtocolConfig.v5_draft3().but(replay_cache=True)
        bed = Testbed(config, seed=self.seed, shards=3,
                      max_wire_log=self.WIRE_LOG)
        draw = random.Random(self.seed)
        self.users = [(f"user{i}", f"{draw.getrandbits(48):012x}")
                      for i in range(self.POOL)]
        for name, password in self.users:
            bed.add_user(name, password)
        self.mail = bed.add_mail_server("mailhost")
        self.endpoint = bed.endpoint(self.mail)
        self.hosts = [bed.add_workstation(f"ws{i}") for i in range(self.POOL)]
        self.bed, self.config = bed, config
        self.cluster = bed.realm.cluster
        self.done = 0

    def _exchange(self) -> Optional[bytes]:
        """One exchange; the ``COUNT`` reply, or ``None`` if it failed."""
        index = self.done % self.POOL
        self.done += 1
        name, password = self.users[index]
        host = self.hosts[index]
        try:
            outcome = self.bed.login(name, password, host)
            client = outcome.client
            cred = client.get_service_ticket(self.mail.principal)
            return client.ap_exchange(cred, self.endpoint).call(b"COUNT")
        except (KerberosError, NetworkError, HostError):
            return None
        finally:
            if name in host.logged_in:
                host.logout(name)

    def warm_up(self) -> Dict[str, Any]:
        clock = self.bed.clock
        virtual_us, block_ops, replies = [], [], []
        for _ in range(self.WARM_UP):
            start, ops = clock.now(), BLOCK_OPS.count
            reply = self._exchange()
            virtual_us.append(clock.now() - start)
            block_ops.append(BLOCK_OPS.count - ops)
            replies.append(None if reply is None else reply.decode())
        return {
            "virtual_latency_us": virtual_us,
            "des_block_ops_per_unit": block_ops,
            "replies": replies,
            "errors": replies.count(None),
            "kdc_requests": dict(self.cluster.requests),
            "kdc_replay_hits_evictions": [
                [s.replay_cache.hits, s.replay_cache.evictions]
                for s in self.cluster.shards
            ],
            "app_replay_entries": len(self.mail.replay_cache),
        }

    def call(self) -> Outcome:
        if self.done >= self.CYCLE:
            # The replay caches grow with every exchange.  Starting afresh
            # every CYCLE exchanges keeps memory and the cost of an
            # exchange from depending on how many a run had time for.
            self.build()
        latencies: List[int] = []
        ok = 0
        failovers = self.cluster.failovers
        clock_ns = time.perf_counter_ns
        for _ in range(self.BATCH):
            start = clock_ns()
            reply = self._exchange()
            latencies.append(clock_ns() - start)
            ok += reply == b"0"
        problems = ([] if ok == self.BATCH else
                    [f"{self.BATCH - ok} of {self.BATCH} COUNT replies missing"])
        return Outcome(work=ok, attempted=self.BATCH, completed=ok,
                       failed=self.BATCH - ok, problems=problems,
                       latencies_ns=latencies,
                       failovers=self.cluster.failovers - failovers)

    def finish(self) -> List[str]:
        """Re-inject the last recorded TGS request: it must be refused as
        a replay."""
        frontend = self.cluster.frontend_host.address
        recorded = [
            m for m in self.bed.adversary.recorded(service="tgs",
                                                   direction="request")
            if m.dst.address == frontend
        ]
        if not recorded:
            return ["no TGS request recorded for the replay probe"]
        reply = self.bed.network.inject(
            "10.66.6.6", Endpoint(frontend, "tgs"), recorded[-1].payload)
        is_error, body = unframe(self.config, reply)
        if not is_error or decode_error(self.config, body)["code"] != ERR_REPLAY:
            return ["re-injected TGS request was not refused as a replay"]
        return []


class Monitor:
    """``repro.monitor.run_monitor``: the engine-mode load harness with a
    mid-run shard outage and a tracer on every exchange."""

    name = "monitor"
    REQUESTS = 150   # about 0.6 s a call: many calls in a run
    WARM_UP_REQUESTS = 30

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def build(self) -> None:
        """``run_monitor`` builds its own testbed inside each call."""

    def warm_up(self) -> None:
        run_monitor(requests=self.WARM_UP_REQUESTS, seed=self.seed)
        return None

    def call(self) -> Outcome:
        ops = BLOCK_OPS.count
        report = run_monitor(requests=self.REQUESTS, seed=self.seed)
        ops = BLOCK_OPS.count - ops
        through, traces = report["throughput"], report["traces"]
        problems = _load_checks(report, self.REQUESTS)
        if traces["problems"]:
            problems.append(f"{len(traces['problems'])} trace problems")
        digest = _load_digest(report)
        digest["spans"] = [traces["started"], traces["sampled"], traces["spans"]]
        digest["des_block_ops_per_unit"] = ops / self.REQUESTS
        return Outcome(work=through["completed"], attempted=self.REQUESTS,
                       completed=through["completed"],
                       failed=_unintended(report["degradation"]["errors"]),
                       problems=problems, digest=digest,
                       failovers=report["cluster"]["failovers"])

    def finish(self) -> List[str]:
        return []


class ScaleMillion:
    """``run_load(principals=1_000_000)`` in scale mode: Zipf popularity,
    the mid-run outage, and the default shards x workers curve sweep."""

    name = "scale-1m"
    PRINCIPALS = 1_000_000
    REQUESTS = 400  # plus 6 curve cells of as many: about 0.4 s a call
    REPLAY_CAPACITY = 256  # small enough that the LRU caches evict
    WARM_UP_REQUESTS = 200

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def build(self) -> None:
        """The million-entry Zipf table, built from scratch each time."""
        sim_workload._CDF_CACHE.clear()
        sim_workload.ZipfianGenerator(self.PRINCIPALS)

    def warm_up(self) -> None:
        """Calibration against the real engine, then a short model run."""
        scale._CALIBRATION_CACHE.clear()
        scale.calibrate(self.seed)
        run_load(principals=self.PRINCIPALS, requests=self.WARM_UP_REQUESTS,
                 replay_cache_capacity=self.REPLAY_CAPACITY, seed=self.seed,
                 out_path=None)
        return None

    def call(self) -> Outcome:
        ops = BLOCK_OPS.count
        report = run_load(principals=self.PRINCIPALS, requests=self.REQUESTS,
                          replay_cache_capacity=self.REPLAY_CAPACITY,
                          seed=self.seed, out_path=None)
        ops = BLOCK_OPS.count - ops
        through, curve = report["throughput"], report["scaling_curve"]
        per_cell = curve["requests_per_cell"]
        problems = _load_checks(report, self.REQUESTS)
        short = [f"{c['shards']}x{c['workers_per_shard']}"
                 for c in curve["cells"] if c["completed"] != per_cell]
        if short:
            problems.append(f"curve cells short of {per_cell}: {short}")
        cell_done = sum(c["completed"] for c in curve["cells"])
        cell_missing = sum(max(0, per_cell - c["completed"])
                           for c in curve["cells"])
        attempted = self.REQUESTS + per_cell * len(curve["cells"])
        digest = _load_digest(report)
        digest["scaling_curve"] = curve
        digest["principals"] = report["workload"]["principals"]
        digest["calibration"] = report["workload"]["calibration"]
        digest["des_block_ops_per_unit"] = ops / attempted
        return Outcome(work=through["completed"] + cell_done,
                       attempted=attempted,
                       completed=through["completed"] + cell_done,
                       failed=_unintended(report["degradation"]["errors"])
                       + cell_missing,
                       problems=problems, digest=digest,
                       failovers=report["cluster"]["failovers"])

    def finish(self) -> List[str]:
        return []


class Crack:
    """``repro.crack.run_crack`` on the v4 config: the table path, then
    the bitsliced path, over one 4096-word dictionary."""

    name = "crack"
    TARGETS = 3  # two planted, one strong: about 0.4 s a call

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def build(self) -> None:
        """``run_crack`` records its own logins inside each call."""

    def warm_up(self) -> None:
        run_crack(quick=True, seed=self.seed, out_path=None)
        return None

    def call(self) -> Outcome:
        ops = BLOCK_OPS.count
        report = run_crack(targets=self.TARGETS, seed=self.seed, out_path=None)
        ops = BLOCK_OPS.count - ops
        table, sliced = report["table"], report["bitslice"]
        assert isinstance(table, dict) and isinstance(sliced, dict)
        guesses = table["attempts"] + sliced["attempts"]
        problems = [f"{check} is false" for check in ("agreement",
                                                      "planted_found")
                    if not report[check]]
        digest = {
            "cracked": report["cracked"],
            "attempts": [table["attempts"], sliced["attempts"]],
            "cracked_counts": [table["cracked"], sliced["cracked"]],
            "agreement": report["agreement"],
            "planted_found": report["planted_found"],
            "workload": report["workload"],
            "des_block_ops_per_unit": ops / guesses,
        }
        return Outcome(work=guesses, attempted=guesses, completed=guesses,
                       failed=len(problems), problems=problems, digest=digest)

    def finish(self) -> List[str]:
        return []


WORKLOADS = {cls.name: cls for cls in (Exchange, Monitor, ScaleMillion, Crack)}
