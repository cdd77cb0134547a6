"""The repository benchmark: one command, four workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload exchange --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py``):

* ``exchange``  closed-loop login -> TGS -> AP -> COUNT -> logout on a
  3-shard cluster; each exchange is timed from outside;
* ``monitor``   the traced engine-mode load harness with a shard outage;
* ``scale-1m``  the million-principal scale model plus its curve sweep;
* ``crack``     the dictionary attack, table path then bitsliced path.

The run sets up the workload five times (each: a fresh interpreter
importing the package, the build, the warm-up) and reports the median
as ``setup_s``.  It then repeats the workload's timed call until
``--seconds`` have passed and prints the end-to-end metrics, medians
over calls:

* ``units_per_s``   units completed per wall second of a call (a unit
  is an exchange, a load-harness unit including scaling-curve units, or
  a password guess over both crack paths);
* ``unit_p50_us``   median wall time of one unit (per exchange on
  ``exchange``; call wall time / units on the batch workloads);
* ``ok_ratio``      units that ended as intended / units attempted (the
  outage's framed unavailable replies are intended, and count against it);
* ``peak_rss_mb``   peak resident memory of the process;
* ``setup_s``       as above.

The three timings are scaled to a nominal machine speed.  On a shared
host the speed of the whole machine moves by up to half for seconds to
minutes at a time, so raw wall times of the same code differ by more
than any useful regression bound from one run to the next.  Between
set-ups and between calls the run times fixed reference loops
(``measure.reference_ns``, which no change to the program can affect).
Each set-up and each call is scaled by the speed measured around it, the
mean of the reference just before and just after it over
``measure.NOMINAL_REFERENCE_NS``, raised to ``SPEED_ELASTICITY``: its
times are divided, and its rates multiplied, by that speed, and the
medians are taken over the scaled figures.  Scaling each call by its own
neighbourhood follows speed changes within a run, which one speed for
the whole run cannot.  The raw wall-clock figures are printed too.

The tail, the highest percentile up to p99 with at least ten samples
beyond it, is printed with its sample count but is not a metric: it
follows the contention bursts within a run, and its run-to-run spread is
wider than any usable bound.  The batch workloads give one sample per
call, too few for a tail.

``--trace 1`` alternates untraced and traced calls instead and prints
the per-layer metrics of ``layers.py`` per unit attempted in the traced
calls, with
``trace.residual_share`` (the share of traced wall time no wrapped layer
accounts for), ``trace.overhead_ratio`` (traced over untraced wall time
per unit) and the set-up split ``setup.import_s``/``build_s``/
``warmup_s``.  The spans are written to ``.perfbench-out/``.

Every run checks the workload's outputs and digests the fields that do
not depend on wall time.  All calls of a run must give the same digest,
and so must every run of the same source tree with the same workload
and seed (``.perfbench-out/digest-*.json`` holds the last one); a
changed digest from a changed tree is reported by field name.  The last
line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when a check fails and 2
when there is no source tree to measure.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from layers import ROOT_SPAN, Patches, Recorder, layer_metrics
from measure import (
    NOMINAL_REFERENCE_NS, changed_fields, digest, environment, median,
    reference_ns, tail_percentile,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 5

#: How the workloads' wall time follows the reference loops': when the
#: loops run twice as slow, the workloads run 2 ** 0.9 times as slow.
#: Fitted across runs on the reference host, the exponent lies between
#: 0.88 (scale-1m) and 0.96 (monitor); with 1, busy runs were
#: over-corrected and read faster than calm ones.
SPEED_ELASTICITY = 0.9

Metrics = Dict[str, Tuple[float, str]]


def time_import(modules: Tuple[str, ...]) -> float:
    """Seconds a fresh interpreter spends importing *modules*."""
    code = ("import sys, time\n"
            "start = time.perf_counter()\n"
            f"import {', '.join(modules)}\n"
            "sys.stdout.write(repr(time.perf_counter() - start))\n")
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


def speed(before: int, after: int) -> float:
    """How much slower than nominal the machine ran between two
    reference-loop times, as the workloads feel it."""
    return ((before + after) / 2 / NOMINAL_REFERENCE_NS) ** SPEED_ELASTICITY


def set_up(bench: Any, modules: Tuple[str, ...]
           ) -> Tuple[List[Tuple[float, float, float]], List[float],
                      List[Dict[str, Any]]]:
    """Set the workload up :data:`SETUP_REPEATS` times.

    Returns the (import, build, warm-up) seconds of each repeat, the
    machine speed around each repeat, and the deterministic fields any
    warm-up returned.
    """
    splits, speeds, fields = [], [], []
    reference = reference_ns()
    for _ in range(SETUP_REPEATS):
        imported = time_import(modules)
        start = time.perf_counter()
        bench.build()
        built = time.perf_counter()
        warm = bench.warm_up()
        splits.append((imported, built - start, time.perf_counter() - built))
        after = reference_ns()
        speeds.append(speed(reference, after))
        reference = after
        if warm is not None:
            fields.append(warm)
    return splits, speeds, fields


@dataclass
class Call:
    wall_ns: int
    outcome: Any
    traced: bool
    speed: float = 1.0  # how much slower than nominal, around the call


def measure_calls(bench: Any, seconds: float, patches: Any = None,
                  rec: Any = None) -> List[Call]:
    """Call the workload until *seconds* have passed.

    Garbage the previous call left is collected before each call, outside
    the timing, so every call starts from the heap a fresh process would
    see instead of paying for its predecessor's cycles; then the reference
    loop runs, and it runs once more after the last call, so each call
    has a reference on either side.  With *patches*, every second call is
    traced.  A call is not started when the median call so far would end
    it more than 10% past the budget; at least one untraced (and, when
    tracing, one traced) call always runs.
    """
    from repro.crypto.des import BLOCK_OPS

    calls: List[Call] = []
    references: List[int] = []
    start = time.perf_counter()
    minimum = 2 if patches is not None else 1
    while True:
        gc.collect()
        references.append(reference_ns())
        traced = patches is not None and len(calls) % 2 == 1
        if traced:
            ops = BLOCK_OPS.count
            patches.install()
            rec.unit = len(calls)
            frame = rec.open(ROOT_SPAN)
        begin = time.perf_counter_ns()
        try:
            outcome = bench.call()
        finally:
            wall = time.perf_counter_ns() - begin
            if traced:
                rec.close(frame)
                patches.remove()
                rec.counters["block_ops"] += BLOCK_OPS.count - ops
                rec.counters["units"] += outcome.attempted
                rec.counters["failovers"] += outcome.failovers
        calls.append(Call(wall, outcome, traced))
        elapsed = time.perf_counter() - start
        if len(calls) >= minimum and (
                elapsed >= seconds
                or elapsed + median([c.wall_ns for c in calls]) / 1e9
                > 1.1 * seconds):
            gc.collect()
            references.append(reference_ns())
            for call, before, after in zip(calls, references, references[1:]):
                call.speed = speed(before, after)
            return calls


def per_unit_ns(calls: List[Call], scaled: bool = True) -> List[float]:
    """Wall time per unit of each call, divided by the call's speed
    unless *scaled* is false."""
    return [c.wall_ns / max(1, c.outcome.work) / (c.speed if scaled else 1.0)
            for c in calls]


def unit_latencies(calls: List[Call], scaled: bool) -> List[float]:
    """Per-unit wall samples: the workload's own where it times units,
    otherwise one per call."""
    latencies: List[float] = []
    for call in calls:
        factor = call.speed if scaled else 1.0
        latencies.extend(ns / factor for ns in call.outcome.latencies_ns or [])
    return latencies or per_unit_ns(calls, scaled)


def end_to_end(calls: List[Call], setup_s: float, raw_setup_s: float
               ) -> Tuple[Metrics, List[str]]:
    """The end-to-end metrics of the given calls, and lines on the raw
    figures and the tail.  *setup_s* is already scaled."""
    latencies = unit_latencies(calls, scaled=True)
    tail_p, tail_ns = tail_percentile(latencies)
    attempted = sum(c.outcome.attempted for c in calls)
    completed = sum(c.outcome.completed for c in calls)
    rate = median([c.outcome.work * 1e9 / c.wall_ns * c.speed for c in calls])
    raw_rate = median([c.outcome.work * 1e9 / c.wall_ns for c in calls])
    raw_p50_us = median(unit_latencies(calls, scaled=False)) / 1e3
    metrics: Metrics = {
        "units_per_s": (rate, "1/s"),
        "unit_p50_us": (median(latencies) / 1e3, "us"),
        "ok_ratio": (completed / attempted if attempted else 0.0, "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    lines = [
        f"wall clock, before scaling: units_per_s {raw_rate:.4f}  unit_p50_us"
        f" {raw_p50_us:.4f}  setup_s {raw_setup_s:.4f}",
        f"tail: p{tail_p} of {len(latencies)} unit samples is"
        f" {tail_ns / 1e3:.1f} us"
        + (" (too few samples for a tail: the median)"
           if tail_p == 50 else ""),
    ]
    return metrics, lines


def check_digests(name: str, seed: int, fields: List[Dict[str, Any]],
                  source: Dict[str, str]
                  ) -> Tuple[Optional[str], List[str], List[str]]:
    """Compare every digest of this run, then against the last run's.

    Returns ``(digest, problems, notes)``.
    """
    if not fields:
        return None, ["no deterministic fields were produced"], []
    first = fields[0]
    value = digest(first)
    problems, notes = [], []
    for other in fields[1:]:
        if digest(other) != value:
            problems.append("digest differs between calls of one run: "
                            + ", ".join(changed_fields(first, other)))
            break
    path = OUT / f"digest-{name}-seed{seed}.json"
    if path.exists():
        last = json.loads(path.read_text(encoding="utf-8"))
        if last["digest"] != value:
            changed = ", ".join(changed_fields(last["fields"], first))
            if last.get("source") == source:
                problems.append("digest differs from the last run of this "
                                f"source tree: {changed}")
            else:
                notes.append(f"digest changed since {last.get('source')}: "
                             f"{changed}")
    if not problems:
        OUT.mkdir(exist_ok=True)
        path.write_text(json.dumps({"source": source, "digest": value,
                                    "fields": first}, sort_keys=True),
                        encoding="utf-8")
    return value, problems, notes


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{sorted(workloads.WORKLOADS)}")
    env = environment(ROOT, SRC, Path(__file__).resolve().parent)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g}"
          f" trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    bench = workloads.WORKLOADS[args.workload](args.seed)
    splits, setup_speeds, fields = set_up(bench, workloads.IMPORTS)
    raw_setup_s = median([sum(split) for split in splits])
    setup_s = median([sum(split) / factor
                      for split, factor in zip(splits, setup_speeds)])
    import_s, build_s, warmup_s = (median(column) for column in zip(*splits))
    print(f"setup {raw_setup_s:.4f}s median of {SETUP_REPEATS}: import"
          f" {import_s:.4f}s  build {build_s:.4f}s  warm-up {warmup_s:.4f}s")

    rec = patches = None
    if args.trace:
        rec = Recorder()
        patches = Patches(rec)
    calls = measure_calls(bench, args.seconds, patches, rec)

    problems: List[str] = []
    for call in calls:
        problems.extend(p for p in call.outcome.problems if p not in problems)
    problems.extend(bench.finish())
    fields.extend(c.outcome.digest for c in calls if c.outcome.digest is not None)
    value, digest_problems, notes = check_digests(
        args.workload, args.seed, fields,
        {key: env[key] for key in ("source_sha256", "bench_sha256")})
    problems.extend(digest_problems)

    speeds = setup_speeds + [call.speed for call in calls]
    notes.append(f"machine slowness as the workloads feel it: {min(speeds):.3f}"
                 f" to {max(speeds):.3f}, median {median(speeds):.4f} x the"
                 f" nominal reference {NOMINAL_REFERENCE_NS} ns")
    untraced = [call for call in calls if not call.traced]
    metrics: Metrics
    if args.trace:
        traced = [call for call in calls if call.traced]
        metrics = layer_metrics(rec, rec.counters["units"],
                                rec.counters["block_ops"],
                                rec.counters["failovers"])
        metrics["trace.overhead_ratio"] = (
            median(per_unit_ns(traced)) / median(per_unit_ns(untraced)), "ratio")
        metrics["setup.import_s"] = (import_s, "s")
        metrics["setup.build_s"] = (build_s, "s")
        metrics["setup.warmup_s"] = (warmup_s, "s")
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(rec.span_records()), encoding="utf-8")
        notes.append(f"{len(traced)} traced and {len(untraced)} untraced"
                     f" calls; {len(rec.spans)} spans written to {spans_path}")
    else:
        metrics, lines = end_to_end(untraced, setup_s, raw_setup_s)
        notes.extend(lines)

    attempted = sum(c.outcome.attempted for c in calls)
    failed = sum(c.outcome.failed for c in calls)
    print(f"calls {len(calls)}  attempted {attempted}  failed {failed}")
    print(f"digest {value}")
    for note in notes:
        print(note)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    width = max(len(name) for name in metrics)
    for name, (number, unit) in metrics.items():
        print(f"{name:<{width}}  {number:>16.4f} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": number, "unit": unit}
                    for name, (number, unit) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
