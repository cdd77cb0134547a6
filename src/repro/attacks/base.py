"""Common shape for attack outcomes.

Every attack in this package returns an :class:`AttackResult`, so the
attack×defense matrices in the tests, benchmarks, and EXPERIMENTS.md all
read the same way: did the adversary get what the paper says they get,
and what evidence shows it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = ["AttackResult"]


@dataclass
class AttackResult:
    """Outcome of one attack run.

    ``detectability`` is filled in by runners that record defender-side
    telemetry (``repro.suite``, ``python -m repro audit``): a mapping of
    anomaly event kind to count, per :func:`repro.obs.detectability_digest`.
    ``None`` means nobody was listening; ``{}`` means the defenders were
    listening and saw nothing anomalous — for a successful attack, the
    paper's worst case.

    ``block_ops`` is the number of DES block operations the whole cell
    executed (attacker, KDC, and servers together), measured from
    :data:`repro.crypto.des.BLOCK_OPS` by ``run_attack_matrix``.
    ``None`` means the run was not metered.

    ``anomaly_traces`` refines ``detectability`` by causal trace: when
    the runner attached a :class:`repro.obs.trace.Tracer`, it maps
    trace id → ``{kind: count}`` (per
    :func:`repro.obs.audit.trace_digests`), pointing from each detected
    anomaly back to the exact request — client retry chain, shard hop,
    or adversary injection — that carried it.  ``None`` means untraced;
    it is never rendered in the matrix.
    """

    name: str
    succeeded: bool
    detail: str = ""
    evidence: Dict[str, Any] = field(default_factory=dict)
    detectability: Optional[Dict[str, int]] = None
    block_ops: Optional[int] = None
    anomaly_traces: Optional[Dict[int, Dict[str, int]]] = None

    @property
    def silent(self) -> Optional[bool]:
        """Did the attack leave no anomaly trace?  ``None`` if unmeasured."""
        if self.detectability is None:
            return None
        return not self.detectability

    def __str__(self) -> str:
        verdict = "SUCCEEDED" if self.succeeded else "failed"
        suffix = f" — {self.detail}" if self.detail else ""
        return f"[{self.name}] {verdict}{suffix}"
