"""The key-hygiene cross-check: a static verdict, dynamically pinned.

``python -m repro lint --family crypto --consistency`` ties the crypto
rule family's static claim — *no raw key material reaches an output
surface* — to a runtime witness: plant canary key bytes in a testbed
realm, drive the full observable surface (a traced client/server
exchange, the attack matrix, a quick load-harness run, the family's
own SARIF render), and scan every artifact the run emitted for the
canary bytes in any spelling an accidental leak would use (raw, hex,
base64, Python ``repr``).

If the static scan is clean but a canary escapes, a rule has a blind
spot (or a new sink class exists); if the scan finds hazards but no
canary escapes, the hazard simply was not exercised by this workload —
both disagreements are reported, mirroring
:mod:`repro.lint.simconsistency`'s double-run determinism witness.

One artifact is exempt **by contract**: the adversary's wire log.  The
attacker holds ciphertext by definition — the paper's whole premise is
an eavesdropper with a complete traffic recording — so sealed canary
bytes there are the threat model, not a leak.  The witness still
writes the wire log next to the scanned artifacts so the exemption is
visible, but never scans it.
"""

from __future__ import annotations

import base64
import json
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.findings import Finding

__all__ = [
    "CANARY_USER", "CANARY_PASSWORD", "EXEMPT_ARTIFACTS",
    "needle_forms", "CanaryReport", "check_canary",
]

#: The planted principal and its password.  The password is chosen to
#: be long, unusual, and printable, so its derived key is unique to
#: this witness and the password itself is greppable.
CANARY_USER = "canary"
CANARY_PASSWORD = "canary-tweety-0xDECAFBAD-witness"

#: Artifacts written but never scanned: attacker-held surfaces whose
#: *job* is to contain (sealed) canary traffic.
EXEMPT_ARTIFACTS = frozenset({"adversary-wire.log"})


def needle_forms(label: str, secret: bytes) -> List[Tuple[str, bytes]]:
    """Every spelling an accidental leak would embed *secret* under.

    Raw bytes (binary writers), hex (``.hex()`` — pointedly not a
    sanitizer), base64 (codec-style dumps), and Python ``repr`` (the
    f-string/``%r`` spelling that lands in logs and error text).
    """
    return [
        (f"{label}:raw", secret),
        (f"{label}:hex", secret.hex().encode("ascii")),
        (f"{label}:base64", base64.b64encode(secret)),
        (f"{label}:repr", repr(secret).encode("utf-8")),
    ]


@dataclass(frozen=True)
class CanaryReport:
    """Outcome of the canary witness vs the static verdict."""

    seed: int
    static_findings: int          # crypto findings over the live tree
    needles: int                  # planted byte patterns searched for
    artifacts: Tuple[str, ...]    # artifact names scanned
    exempt: Tuple[str, ...]       # written but contractually unscanned
    escapes: Tuple[Tuple[str, str], ...]   # (artifact, needle label)

    @property
    def clean(self) -> bool:
        return not self.escapes

    @property
    def agrees(self) -> bool:
        """Static says clean iff no canary escaped unsealed."""
        return (self.static_findings == 0) == self.clean

    def render(self) -> str:
        lines = [
            f"canary cross-check (seed={self.seed})",
            f"  static : {self.static_findings} crypto finding"
            f"{'s' if self.static_findings != 1 else ''}",
            f"  planted: {self.needles} needle forms",
            f"  scanned: {len(self.artifacts)} artifacts "
            f"({', '.join(self.artifacts)})",
            f"  exempt : {', '.join(self.exempt) or '(none)'} "
            "(attacker-held by contract)",
        ]
        if self.escapes:
            lines.append(f"  dynamic: {len(self.escapes)} ESCAPES")
            for artifact, label in self.escapes:
                lines.append(f"    {artifact}: {label}")
        else:
            lines.append("  dynamic: no unsealed canary escapes")
        lines.append(
            f"  verdict: {'agree' if self.agrees else 'DISAGREE'}")
        return "\n".join(lines)


def _canary_exchange(seed: int, out_dir: Path,
                     needles: List[Tuple[str, bytes]]) -> None:
    """One fully-traced client/server exchange for the canary user.

    Writes ``events.jsonl`` (every bus event), ``audit.txt`` (the
    rendered event log), ``trace.json`` (the Chrome trace export), and
    ``adversary-wire.log`` (the exempt attacker surface), and extends
    *needles* with the session keys the exchange actually negotiated.
    """
    from repro.kerberos.config import ProtocolConfig
    from repro.obs.audit import render_events
    from repro.obs.bus import capture
    from repro.obs.sinks import JsonlSink
    from repro.obs.trace import Tracer, write_chrome_trace
    from repro.testbed import Testbed

    tracer = Tracer()
    sink = JsonlSink(str(out_dir / "events.jsonl"))
    with capture(sink, tracer=tracer) as cap:
        bed = Testbed(ProtocolConfig.v5_draft3(), seed=seed)
        bed.add_user(CANARY_USER, CANARY_PASSWORD)
        echo = bed.add_echo_server("echohost")
        workstation = bed.add_workstation("canary-ws")
        outcome = bed.login(CANARY_USER, CANARY_PASSWORD, workstation)
        credential = outcome.client.get_service_ticket(echo.principal)
        session = outcome.client.ap_exchange(credential,
                                             bed.endpoint(echo))
        session.call(b"canary probe message")

    needles.extend(needle_forms("tgt-session-key",
                                outcome.credentials.session_key))
    needles.extend(needle_forms("service-session-key",
                                credential.session_key))

    (out_dir / "audit.txt").write_text(render_events(cap.events) + "\n",
                                       encoding="utf-8")
    write_chrome_trace(str(out_dir / "trace.json"), tracer.spans)
    with open(out_dir / "adversary-wire.log", "w",
              encoding="utf-8") as handle:
        for message in bed.adversary.log:
            delivered = message.dst_address or message.dst.address
            handle.write(
                f"{message.time} {message.direction} "
                f"{message.src_address}->{delivered} "
                f"{message.dst.service} {message.payload.hex()}\n"
            )


def _matrix_artifact(out_dir: Path) -> None:
    """Run the attack matrix and write its rendered table."""
    from repro.suite import run_attack_matrix

    result = run_attack_matrix()
    (out_dir / "attack-matrix.txt").write_text(result.render() + "\n",
                                               encoding="utf-8")


def _load_artifact(seed: int, out_dir: Path) -> None:
    """Run the quick load harness, report written into *out_dir*."""
    from repro.load import run_load

    run_load(seed=seed, quick=True,
             out_path=str(out_dir / "BENCH_kdc.json"))


def _sarif_artifact(findings: Sequence[Finding], out_dir: Path) -> None:
    """Render the crypto family's own SARIF log as a scanned artifact."""
    from repro.lint.cryptorules import CRYPTO_PAPER_SECTION, CRYPTO_RULES
    from repro.lint.reporters import render_sarif, sarif_rule

    rules = [sarif_rule(rule, CRYPTO_PAPER_SECTION) for rule in CRYPTO_RULES]
    (out_dir / "repro-lint-crypto.sarif").write_text(
        render_sarif(list(findings), rules=rules) + "\n", encoding="utf-8",
    )


def check_canary(findings: Sequence[Finding],
                 seed: int = 0,
                 artifact_dir: Optional[str] = None,
                 run_matrix: bool = True,
                 run_load_harness: bool = True) -> CanaryReport:
    """Plant canary key bytes, drive the tree, scan every artifact.

    *findings* is the crypto family's static scan of the live tree;
    the report's :attr:`CanaryReport.agrees` flag checks the two
    verdicts against each other.  With *artifact_dir* the artifacts
    are left on disk for inspection; otherwise a temporary directory
    is used and discarded.  *run_matrix*/*run_load_harness* exist so
    focused tests can skip the heavier stages; the CLI witness runs
    everything.
    """
    from repro.crypto.keys import string_to_key

    needles: List[Tuple[str, bytes]] = []
    needles.extend(needle_forms("canary-password",
                                CANARY_PASSWORD.encode("utf-8")))
    needles.extend(needle_forms("canary-kc",
                                string_to_key(CANARY_PASSWORD)))
    # The load harness's principals are formulaic (user{i}/pw-{i}), so
    # their derived keys are computable needles too.
    for index in range(8):
        needles.extend(needle_forms(f"load-kc-{index}",
                                    string_to_key(f"pw-{index}")))

    with tempfile.TemporaryDirectory() as scratch:
        out_dir = Path(artifact_dir) if artifact_dir else Path(scratch)
        out_dir.mkdir(parents=True, exist_ok=True)

        _canary_exchange(seed, out_dir, needles)
        if run_matrix:
            _matrix_artifact(out_dir)
        if run_load_harness:
            _load_artifact(seed, out_dir)
        _sarif_artifact(findings, out_dir)

        scanned: List[str] = []
        exempt: List[str] = []
        escapes: List[Tuple[str, str]] = []
        for path in sorted(out_dir.iterdir()):
            if not path.is_file():
                continue
            if path.name in EXEMPT_ARTIFACTS:
                exempt.append(path.name)
                continue
            scanned.append(path.name)
            blob = path.read_bytes()
            for label, needle in needles:
                if needle and needle in blob:
                    escapes.append((path.name, label))

    return CanaryReport(
        seed=seed,
        static_findings=len(findings),
        needles=len(needles),
        artifacts=tuple(scanned),
        exempt=tuple(exempt),
        escapes=tuple(sorted(set(escapes))),
    )


def _self_test_leak(out_dir: Path, key: bytes) -> None:  # pragma: no cover
    """Test hook: deliberately leak *key* into an artifact.

    Exists so the witness's own detection path is testable — see
    ``tests/test_lint_cryptoconsistency.py``.
    """
    report: Dict[str, str] = {"debug_key": key.hex()}
    (out_dir / "events.jsonl").open("a", encoding="utf-8").write(
        json.dumps(report) + "\n")
