"""The determinism cross-check: a static verdict, dynamically pinned.

``python -m repro lint --family sim --consistency`` ties the sim rule
family's static claim — *this tree has no determinism hazards* — to a
runtime witness: run the load harness twice in-process with the same
seed, in engine mode and in scale mode (the two share one unit driver),
and assert each pair of serialized reports is byte-identical.
If the static scan is clean but the double run diverges, either a rule
has a blind spot or a new hazard class exists; if the scan finds
hazards but the runs agree, the hazard simply was not exercised — both
disagreements are reported, in the spirit of the protocol family's
tri-consistency witness.

Reports are compared on their **deterministic surface**: the harness
intentionally measures host wall time for informational throughput
lines (``wall_seconds``/``ops_per_wall_s`` — their files are on the
wall-budget allowlist for exactly that reason), attaches live helper
objects under ``_``-prefixed keys, and records where it wrote the
report and which interpreter ran it.  :func:`canonical_report_bytes`
strips those before comparing; everything else must match to the byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List

__all__ = ["canonical_report_bytes", "DeterminismReport",
           "check_determinism"]

#: Report keys outside the deterministic surface: host wall-time
#: measurements (informational by contract), the interpreter version
#: and the output location.
_HOST_KEYS = frozenset({"wall_seconds", "ops_per_wall_s", "python",
                        "written_to"})


def _canonical(value: Any) -> Any:
    if isinstance(value, dict):
        return {
            key: _canonical(sub) for key, sub in value.items()
            if not (isinstance(key, str)
                    and (key.startswith("_") or key in _HOST_KEYS))
        }
    if isinstance(value, (list, tuple)):
        return [_canonical(sub) for sub in value]
    return value


def canonical_report_bytes(report: Dict[str, Any]) -> bytes:
    """The report's deterministic surface, serialized canonically.

    Drops ``_``-prefixed keys (live helper objects the harness attaches
    after writing), ``written_to``, ``python`` (so one seed gives one
    surface on every interpreter), and the informational wall-time
    throughput fields at any nesting depth, then dumps with sorted keys.
    """
    return json.dumps(_canonical(report), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


@dataclass(frozen=True)
class DeterminismReport:
    """Outcome of the double-run witness vs the static verdict."""

    principals: int
    seed: int
    static_findings: int     # sim-family findings over the live tree
    identical: bool          # did the two runs serialize identically?
    first_divergence: str    # "" when identical; else a pointer

    @property
    def agrees(self) -> bool:
        """Static says clean iff dynamic says identical."""
        return (self.static_findings == 0) == self.identical

    def render(self) -> str:
        lines = [
            "determinism cross-check (engine mode, and scale mode at "
            f"principals={self.principals}; seed={self.seed})",
            f"  static : {self.static_findings} sim finding"
            f"{'s' if self.static_findings != 1 else ''}",
            "  dynamic: reports "
            + ("byte-identical" if self.identical
               else f"DIVERGED ({self.first_divergence})"),
            f"  verdict: {'agree' if self.agrees else 'DISAGREE'}",
        ]
        return "\n".join(lines)


def _first_divergence(a: bytes, b: bytes) -> str:
    if len(a) != len(b):
        note = f"lengths differ ({len(a)} vs {len(b)} bytes"
    else:
        note = f"equal lengths ({len(a)} bytes"
    offset = next(
        (i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a),
                                                                len(b)))
    return f"{note}, first difference at byte {offset})"


def check_determinism(static_findings: int,
                      principals: int = 20000,
                      seed: int = 0,
                      quick: bool = True) -> DeterminismReport:
    """Run the load harness twice with the same seed in each mode —
    engine mode, then scale mode with *principals* — and compare the
    canonical report bytes against the static verdict.

    *static_findings* is the number of sim-family findings the caller's
    scan produced over the live tree; the report's :attr:`agrees` flag
    is the tri-consistency check (clean scan must imply identical
    bytes).  :attr:`first_divergence` names each mode that diverged.
    """
    from repro.load import run_load

    divergences: List[str] = []
    for mode, population in (("engine", None), ("scale", principals)):
        runs = [
            canonical_report_bytes(run_load(
                principals=population, seed=seed, quick=quick,
                out_path=None,
            ))
            for _ in range(2)
        ]
        if runs[0] != runs[1]:
            divergences.append(f"{mode} mode: {_first_divergence(*runs)}")
    return DeterminismReport(
        principals=principals,
        seed=seed,
        static_findings=static_findings,
        identical=not divergences,
        first_divergence="; ".join(divergences),
    )
