"""The benchmark's own arithmetic: the reference loop, percentiles,
digests and the environment stamp.

Kept free of any ``repro`` import so its tests run without the package.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import os
import platform
import statistics
import subprocess
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: A tail percentile is reported only where at least this many samples
#: lie beyond it.
TAIL_BEYOND = 10

#: What :func:`reference_ns` takes on an uncontended 2-vCPU Intel Xeon
#: host under CPython 3.11; timings are scaled to this machine speed.
NOMINAL_REFERENCE_NS = 4_000_000


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: int, after: Any) -> None:
        self.key, self.value, self.next = key, value, after


def _table(entries: int, tag: bytes) -> Tuple[int, ...]:
    """A table of *entries* pseudo-random 32-bit values, built at C speed."""
    return tuple(array("I", hashlib.shake_128(tag).digest(4 * entries)))


def _lookups(tables: Sequence[Tuple[int, ...]], rounds: int) -> int:
    t0, t1, t2, t3 = tables
    mask = len(t0) - 1
    x = 12345
    for _ in range(rounds):
        x = (t0[x & mask] ^ t1[(x >> 3) & mask] ^ t2[(x >> 7) & mask]
             ^ t3[(x >> 11) & mask]) + 1
    return x


def _objects(rounds: int) -> int:
    counts: Dict[int, int] = {}
    heap: List[int] = []
    node = None
    for i in range(rounds):
        node = _Node(i & 255, i, node)
        counts[node.key] = counts.get(node.key, 0) + node.value
        heapq.heappush(heap, (i * 7919) % 1009)
        if len(heap) > 64:
            heapq.heappop(heap)
    return len(counts)


def _arithmetic(rounds: int) -> int:
    x = 1
    for i in range(rounds):
        x = (x * 31 + i) & 0xFFFFFFFF
    return x


def _bytes(rounds: int) -> int:
    block = bytes(range(256)) * 4
    for i in range(rounds):
        word = int.from_bytes(block[i % 64:i % 64 + 8], "big")
        block = (word ^ 0x5A5A5A5A5A5A5A5A).to_bytes(8, "big") + block[8:]
    return len(block)


def reference_ns() -> int:
    """Sum over six fixed loops of the best of three runs of each.

    It gauges how fast the machine runs the interpreter at this moment,
    independently of the program under test.  On a shared host the speed
    moves by tens of percent for seconds to minutes at a time, as
    neighbours contend for cores and caches, and different kinds of code
    slow down by different amounts: table lookups by cache footprint,
    object and heap churn, integer arithmetic, byte slicing.  The loops
    cover those kinds, each taking about the same time, so their sum
    slows down about as much as the workloads do.  The lookup tables
    (four of 4096 entries, the shape of DES's SP tables, four of 256,
    and one of 65536 looked up four ways) are built afresh on every
    call, so no one placement of them in memory can bias a whole run.
    """
    small = [_table(256, b"s%d" % k) for k in range(4)]
    sp = [_table(4096, b"t%d" % k) for k in range(4)]
    big = _table(65536, b"b")
    loops: List[Callable[[], int]] = [
        lambda: _lookups(small, 2000),
        lambda: _lookups(sp, 2000),
        lambda: _lookups([big] * 4, 1500),
        lambda: _objects(500),
        lambda: _arithmetic(5000),
        lambda: _bytes(800),
    ]
    total = 0
    for loop in loops:
        best = 0
        for _ in range(3):
            begin = time.perf_counter_ns()
            loop()
            elapsed = time.perf_counter_ns() - begin
            best = elapsed if not best else min(best, elapsed)
        total += best
    return total


def nearest_rank(sorted_values: Sequence[float], p: float) -> float:
    """The nearest-rank ``p``-th percentile of already sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    index = max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)
    return sorted_values[min(index, len(sorted_values) - 1)]


def tail_percentile(values: Sequence[float], target: int = 99,
                    beyond: int = TAIL_BEYOND) -> Tuple[int, float]:
    """The highest whole percentile <= *target* with *beyond* samples above.

    Returns ``(p, value)`` by the nearest-rank rule.  A tail is a
    percentile above the median: with fewer than ``2 * beyond`` samples
    none qualifies, and the median is returned as ``p = 50``.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    for p in range(target, 50, -1):
        index = max(0, math.ceil(p / 100.0 * n) - 1)
        if n - 1 - index >= beyond:
            return p, ordered[index]
    return 50, median(ordered)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def digest(fields: Dict[str, Any]) -> str:
    """A stable hash of a JSON-able field dict."""
    blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()


def changed_fields(old: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    """Names of the top-level fields whose values differ."""
    return sorted(
        key for key in set(old) | set(new) if old.get(key) != new.get(key)
    )


def source_hash(src: Path) -> str:
    """Content hash of every ``.py`` file under *src*, in path order."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def environment(root: Path, src: Path, bench: Path) -> Dict[str, Any]:
    """The stamp every result carries."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(root),
        "source_sha256": source_hash(src),
        "bench_sha256": source_hash(bench),
    }
