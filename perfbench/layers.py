"""Outside-in per-layer tracing for the benchmark.

Nothing under ``src/`` knows it is being traced.  :class:`Patches`
replaces the public functions of each layer with thin wrappers that
open a span on a :class:`Recorder`, call through, and close it.  Many
callers import a function by name (``from repro.crypto.keys import
string_to_key``), so a module-level function is replaced under every
name any loaded ``repro`` module holds it by; methods are replaced on
their class.  The wrappers are installed only around traced calls and
removed afterwards, so untraced calls run the original code.

Spans are kept in memory: name, start, end, parent and the unit id the
benchmark assigns.  Self time, a span's duration minus the time of the
wrapped spans directly inside it, is folded into per-name totals as
each span closes, so memory stays flat however long the run; the raw
spans of the first :attr:`Recorder.keep` closes are retained and
written out at the end.  A span opened directly inside a span of the
same name is folded into it (``encrypt_blocks`` calling
``encrypt_lanes`` is one bitslice operation).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from measure import nearest_rank

#: Span names whose individual durations are kept (their p50 is reported).
PHASES = ("client.as", "client.tgs", "client.ap")

#: The benchmark's own root span around each traced call.
ROOT_SPAN = "bench.call"

KDC_SERVICES = ("kerberos", "tgs")

Frame = List[Any]  # [name, start_ns, child_ns, span_id, parent_id]


class Recorder:
    """Span stack plus per-name count, inclusive and self nanoseconds."""

    def __init__(self, keep: int = 10_000,
                 clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.keep = keep
        self.unit = 0
        self.stack: List[Frame] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.durations: Dict[str, List[int]] = {name: [] for name in PHASES}
        self.counters: Dict[str, int] = defaultdict(int)
        self.maxima: Dict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[int]] = defaultdict(list)
        self.spans: List[Tuple[int, int, str, int, int, int]] = []
        self._next_id = 0

    def open(self, name: str) -> Frame:
        self._next_id += 1
        parent = self.stack[-1][3] if self.stack else 0
        frame = [name, self.clock(), 0, self._next_id, parent]
        self.stack.append(frame)
        return frame

    def close(self, frame: Frame) -> None:
        end = self.clock()
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        name, start, child, span_id, parent = frame
        duration = end - start
        self.calls[name] += 1
        self.total_ns[name] += duration
        self.self_ns[name] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        kept = self.durations.get(name)
        if kept is not None:
            kept.append(duration)
        if len(self.spans) < self.keep:
            self.spans.append((span_id, parent, name, start, end, self.unit))

    def span_records(self) -> List[Dict[str, Any]]:
        return [
            {"id": s, "parent": p, "name": n, "start_ns": b, "end_ns": e,
             "unit": u}
            for s, p, n, b, e, u in self.spans
        ]


Hook = Callable[[Recorder, Sequence[Any], Any, Any], None]
Pre = Callable[[Sequence[Any]], Any]


def wrap(rec: Recorder, fn: Callable[..., Any], name: str,
         pre: Optional[Pre] = None, post: Optional[Hook] = None
         ) -> Callable[..., Any]:
    """A span-recording stand-in for *fn*."""
    stack = rec.stack

    def traced(*args: Any, **kwargs: Any) -> Any:
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        token = pre(args) if pre is not None else None
        frame = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(frame)
        if post is not None:
            post(rec, args, result, token)
        return result

    return traced


def count_only(rec: Recorder, fn: Callable[..., Any], name: str
               ) -> Callable[..., Any]:
    """A stand-in that only counts calls (for very hot, very small calls)."""
    counters = rec.counters

    def counted(*args: Any, **kwargs: Any) -> Any:
        counters[name] += 1
        return fn(*args, **kwargs)

    return counted


def wrap_rpc(rec: Recorder, fn: Callable[..., Any]) -> Callable[..., Any]:
    """``Network.rpc``, named by destination: ``frontend``, ``kdc.as`` /
    ``kdc.tgs`` (a shard, or an unsharded KDC), or ``appserver.ap`` /
    ``appserver.data``.  A KDC-service rpc is provisionally a KDC; when
    a second KDC-service rpc opens directly inside it, the outer one was
    a cluster frontend and is renamed before it closes."""
    stack = rec.stack

    def traced(self: Any, src: str, dst: Any, payload: bytes) -> Any:
        service = dst.service
        if service in KDC_SERVICES:
            if stack and stack[-1][0].startswith("kdc."):
                stack[-1][0] = "frontend"
            name = "kdc.as" if service == "kerberos" else "kdc.tgs"
        elif service.endswith("-data"):
            name = "appserver.data"
        else:
            name = "appserver.ap"
        frame = rec.open(name)
        try:
            return fn(self, src, dst, payload)
        finally:
            rec.close(frame)

    return traced


# -- hooks -------------------------------------------------------------------


def _block_ops_now(_args: Sequence[Any]) -> int:
    from repro.crypto.des import BLOCK_OPS

    return BLOCK_OPS.count


def _lanes(rec: Recorder, _args: Sequence[Any], _result: Any, before: int) -> None:
    rec.counters["bitslice.lane_blocks"] += _block_ops_now(()) - before


def _queue_wait(rec: Recorder, args: Sequence[Any], result: Any, _t: Any) -> None:
    arrival = args[1]
    rec.samples["pool.queue_wait"].append(result[0] - arrival)


def _evictions_before(args: Sequence[Any]) -> int:
    return getattr(args[0], "evictions", 0)


def _replay(rec: Recorder, args: Sequence[Any], fresh: Any, before: int) -> None:
    cache = args[0]
    if not fresh:
        rec.counters["replay.hits"] += 1
    rec.counters["replay.evictions"] += getattr(cache, "evictions", 0) - before
    entries = len(cache)
    if entries > rec.maxima["replay.entries"]:
        rec.maxima["replay.entries"] = entries


def _sched_before(args: Sequence[Any]) -> Dict[str, int]:
    return dict(args[0].stats())


def _sched_after(rec: Recorder, args: Sequence[Any], _r: Any,
                 before: Dict[str, int]) -> None:
    after = args[0].stats()
    rec.counters["sched.events"] += (
        after["events_processed"] - before["events_processed"])
    rec.counters["sched.timers_cancelled"] += (
        after["timers_cancelled"] - before["timers_cancelled"])
    if after["heap_high_water"] > rec.maxima["sched.heap_high_water"]:
        rec.maxima["sched.heap_high_water"] = after["heap_high_water"]


# (module, attribute path, span name, pre, post).  A dotted path names a
# method on a class; a bare name a module-level function.
TARGETS: List[Tuple[str, str, str, Optional[Pre], Optional[Hook]]] = [
    ("repro.crypto.des", "KeySchedule.encrypt_block", "des.block", None, None),
    ("repro.crypto.des", "KeySchedule.decrypt_block", "des.block", None, None),
    ("repro.crypto.des", "DesCipher.encrypt_block", "des.block", None, None),
    ("repro.crypto.des", "DesCipher.decrypt_block", "des.block", None, None),
    ("repro.crypto.des", "KeySchedule.__init__", "des.schedule_derive", None, None),
    ("repro.crypto.des", "get_schedule", "des.get_schedule", None, None),
    ("repro.crypto.modes", "ecb_encrypt", "modes", None, None),
    ("repro.crypto.modes", "ecb_decrypt", "modes", None, None),
    ("repro.crypto.modes", "cbc_encrypt", "modes", None, None),
    ("repro.crypto.modes", "cbc_decrypt", "modes", None, None),
    ("repro.crypto.modes", "pcbc_encrypt", "modes", None, None),
    ("repro.crypto.modes", "pcbc_decrypt", "modes", None, None),
    ("repro.crypto.keys", "string_to_key", "keys.s2k", None, None),
    ("repro.crypto.keys", "string_to_key_many", "keys.s2k_many", None, None),
    ("repro.crypto.checksum", "compute", "checksum", None, None),
    ("repro.crypto.checksum", "verify", "checksum", None, None),
    ("repro.crypto.checksum", "ChecksumSpec.compute", "checksum", None, None),
    ("repro.crypto.des_bitslice", "BitslicedKeys.__init__", "bitslice",
     _block_ops_now, _lanes),
    ("repro.crypto.des_bitslice", "encrypt_lanes", "bitslice",
     _block_ops_now, _lanes),
    ("repro.crypto.des_bitslice", "decrypt_lanes", "bitslice",
     _block_ops_now, _lanes),
    ("repro.crypto.des_bitslice", "encrypt_blocks", "bitslice",
     _block_ops_now, _lanes),
    ("repro.crypto.des_bitslice", "decrypt_blocks", "bitslice",
     _block_ops_now, _lanes),
    ("repro.crypto.des_bitslice", "broadcast_block", "bitslice",
     _block_ops_now, _lanes),
    ("repro.encoding.codec", "V4Codec.encode", "codec.encode", None, None),
    ("repro.encoding.codec", "V5Codec.encode", "codec.encode", None, None),
    ("repro.encoding.codec", "V4Codec.decode", "codec.decode", None, None),
    ("repro.encoding.codec", "V5Codec.decode", "codec.decode", None, None),
    ("repro.kerberos.messages", "seal", "messages.seal", None, None),
    ("repro.kerberos.messages", "seal_private", "messages.seal", None, None),
    ("repro.kerberos.messages", "unseal", "messages.unseal", None, None),
    ("repro.kerberos.messages", "unseal_private", "messages.unseal", None, None),
    ("repro.sim.network", "Network.witness", "network.fabric", None, None),
    ("repro.serve.cluster", "KdcCluster.route", "frontend.route", None, None),
    ("repro.serve.pool", "WorkerPool.schedule", "pool.schedule", None, _queue_wait),
    ("repro.kerberos.validation", "ReplayCache.check_and_store", "replay.check",
     _evictions_before, _replay),
    ("repro.kerberos.validation", "LruReplayCache.check_and_store",
     "replay.check", _evictions_before, _replay),
    ("repro.serve.cluster", "TracedReplayCache.check_and_store", "replay.check",
     _evictions_before, _replay),
    ("repro.sim.sched", "Scheduler.run", "sched.run", _sched_before, _sched_after),
    ("repro.obs.bus", "EventBus.emit", "bus.emit", None, None),
    ("repro.obs.trace", "Tracer.begin", "trace.begin", None, None),
    ("repro.obs.trace", "Tracer.end", "trace.end", None, None),
    ("repro.obs.timeseries", "LogHistogram.record", "hist.record", None, None),
    ("repro.obs.timeseries", "TickSampler.poll", "sampler.poll", None, None),
    ("repro.sim.workload", "ZipfianGenerator.sample", "workload.zipf", None, None),
    ("repro.attacks.password_guess", "try_password_against_reply", "guess.try",
     None, None),
    ("repro.testbed", "Testbed.login", "client.as", None, None),
    ("repro.kerberos.client", "KerberosClient.get_service_ticket", "client.tgs",
     None, None),
    ("repro.kerberos.client", "KerberosClient.ap_exchange", "client.ap", None, None),
    ("repro.kerberos.client", "ClientSession.call", "client.call", None, None),
]

COUNTED = [("repro.crypto.bits", "xor_bytes", "bits.xor_calls")]


class Patches:
    """Every replacement, computed once; installed and removed per call."""

    def __init__(self, rec: Recorder) -> None:
        self._swaps: List[Tuple[Any, str, Any, Any]] = []
        for module_name, path, name, pre, post in TARGETS:
            self._plan(module_name, path,
                       lambda fn, n=name, a=pre, b=post: wrap(rec, fn, n, a, b))
        for module_name, path, name in COUNTED:
            self._plan(module_name, path,
                       lambda fn, n=name: count_only(rec, fn, n))
        self._plan("repro.sim.network", "Network.rpc",
                   lambda fn: wrap_rpc(rec, fn))

    def _plan(self, module_name: str, path: str,
              make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        module = sys.modules[module_name]
        if "." in path:
            class_name, attr = path.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[attr]
            if isinstance(original, staticmethod):
                replacement: Any = staticmethod(make(original.__func__))
            else:
                replacement = make(original)
            self._swaps.append((owner, attr, original, replacement))
            return
        original = getattr(module, path)
        replacement = make(original)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not (loaded_name == "repro"
                                      or loaded_name.startswith("repro.")):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._swaps.append((loaded, attr, original, replacement))

    def install(self) -> None:
        for owner, attr, _original, replacement in self._swaps:
            setattr(owner, attr, replacement)

    def remove(self) -> None:
        for owner, attr, original, _replacement in self._swaps:
            setattr(owner, attr, original)


# -- per-layer metrics -------------------------------------------------------


def layer_metrics(rec: Recorder, units: int, block_ops: int,
                  failovers: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer figures per unit of work, as ``name -> (value, unit)``.

    *units* is the number of units the traced calls attempted (exchanges,
    load-harness units, or password guesses); *block_ops* the table-DES plus
    bitslice-lane block operations they performed (``des.BLOCK_OPS``);
    *failovers* the cluster's TGS failovers during them.
    """
    per = 1.0 / max(1, units)
    calls, total, own = rec.calls, rec.total_ns, rec.self_ns
    counters, maxima = rec.counters, rec.maxima

    def n(name: str) -> Tuple[float, str]:
        return calls[name] * per, "count"

    def incl_us(name: str) -> Tuple[float, str]:
        return total[name] * per / 1e3, "us"

    def self_us(name: str) -> Tuple[float, str]:
        return own[name] * per / 1e3, "us"

    def p50_us(name: str) -> Tuple[float, str]:
        kept = sorted(rec.durations[name])
        return (nearest_rank(kept, 50) / 1e3 if kept else 0.0), "us"

    lanes = counters["bitslice.lane_blocks"]
    derived = calls["des.schedule_derive"]
    lookups = calls["des.get_schedule"]
    events = counters["sched.events"]
    waits = sorted(rec.samples["pool.queue_wait"])
    return {
        "des.block_ops": ((block_ops - lanes) * per, "count"),
        "des.block_ns": (total["des.block"] / calls["des.block"]
                         if calls["des.block"] else 0.0, "ns"),
        "des.schedule_calls": n("des.get_schedule"),
        "des.schedule_hit_ratio": (max(0.0, 1.0 - derived / lookups)
                                   if lookups else 0.0, "ratio"),
        "des.schedule_miss_us": incl_us("des.schedule_derive"),
        "modes.calls": n("modes"),
        "modes.self_us": self_us("modes"),
        "bits.xor_calls": (counters["bits.xor_calls"] * per, "count"),
        "keys.s2k_calls": n("keys.s2k"),
        "keys.s2k_us": incl_us("keys.s2k"),
        "keys.s2k_many_us": incl_us("keys.s2k_many"),
        "checksum.calls": n("checksum"),
        "checksum.us": incl_us("checksum"),
        "bitslice.lane_blocks": (lanes * per, "count"),
        "bitslice.us": incl_us("bitslice"),
        "codec.encode_calls": n("codec.encode"),
        "codec.decode_calls": n("codec.decode"),
        "codec.encode_us": incl_us("codec.encode"),
        "codec.decode_us": incl_us("codec.decode"),
        "messages.seal_calls": n("messages.seal"),
        "messages.unseal_calls": n("messages.unseal"),
        "messages.seal_self_us": self_us("messages.seal"),
        "messages.unseal_self_us": self_us("messages.unseal"),
        "kdc.as_requests": n("kdc.as"),
        "kdc.tgs_requests": n("kdc.tgs"),
        "kdc.as_self_us": self_us("kdc.as"),
        "kdc.tgs_self_us": self_us("kdc.tgs"),
        "frontend.self_us": self_us("frontend"),
        "frontend.route_us": incl_us("frontend.route"),
        "frontend.failovers": (failovers * per, "count"),
        "pool.jobs": n("pool.schedule"),
        "pool.schedule_us": incl_us("pool.schedule"),
        "pool.queue_wait_p99_vus": (float(nearest_rank(waits, 99))
                                    if waits else 0.0, "vus"),
        "replay.checks": n("replay.check"),
        "replay.check_us": incl_us("replay.check"),
        "replay.hits": (counters["replay.hits"] * per, "count"),
        "replay.evictions": (counters["replay.evictions"] * per, "count"),
        "replay.entries_max": (float(maxima["replay.entries"]), "count"),
        "appserver.ap_self_us": self_us("appserver.ap"),
        "client.as_phase_us": p50_us("client.as"),
        "client.tgs_phase_us": p50_us("client.tgs"),
        "client.ap_phase_us": p50_us("client.ap"),
        "network.messages": n("network.fabric"),
        "network.rpc_self_us": self_us("network.fabric"),
        "sched.events": (events * per, "count"),
        "sched.run_us": self_us("sched.run"),
        "sched.ns_per_event": (own["sched.run"] / events if events else 0.0,
                               "ns"),
        "sched.timers_cancelled": (counters["sched.timers_cancelled"] * per,
                                   "count"),
        "sched.heap_high_water": (float(maxima["sched.heap_high_water"]),
                                  "count"),
        "bus.emits": n("bus.emit"),
        "bus.emit_us": incl_us("bus.emit"),
        "trace.spans": n("trace.begin"),
        "trace.span_us": ((total["trace.begin"] + total["trace.end"]) * per / 1e3,
                          "us"),
        "hist.records": n("hist.record"),
        "hist.record_us": incl_us("hist.record"),
        "sampler.polls": n("sampler.poll"),
        "sampler.us": incl_us("sampler.poll"),
        "workload.zipf_us": incl_us("workload.zipf"),
        "guess.tries": n("guess.try"),
        "guess.try_self_us": self_us("guess.try"),
        "trace.residual_share": (own[ROOT_SPAN] / total[ROOT_SPAN]
                                 if total[ROOT_SPAN] else 0.0, "ratio"),
    }
