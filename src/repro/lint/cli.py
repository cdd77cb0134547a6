"""Implementation of ``python -m repro lint``.

Thin orchestration over the package: scan the tree, evaluate the
selected rule famil(ies) — ``protocol`` (the paper's misuse catalogue,
per protocol column), ``sim`` (the determinism / scheduler-safety
family over the simulation stack), ``crypto`` (the key-material flow
family), or ``all`` — apply the baseline,
render in the requested format, optionally run each family's witness
(a dynamic run that checks the static verdict: the tri-consistency
harness for ``protocol``, the same-seed double run for ``sim``, the
canary scan for ``crypto``), and exit non-zero when non-baselined
findings reach the ``--fail-on`` threshold or a witness disagrees.

Every finding is also published as a
:class:`repro.obs.events.LintFinding` event, so a
:func:`repro.obs.capture` block around :func:`run_lint` observes the
run exactly like it observes a protocol exchange.
"""

from __future__ import annotations

from pathlib import Path
from typing import (
    Any, Callable, Dict, List, Optional, Protocol, Sequence, Tuple,
)

from repro.kerberos.config import ProtocolConfig
from repro.lint.baseline import (
    BaselineError, find_stale, load_baseline_entries, split_by_baseline,
    write_baseline,
)
from repro.lint.engine import CodeModel, analyze_repro, analyze_tree
from repro.lint.findings import Finding, Severity
from repro.lint.reporters import render_json, render_sarif, render_text
from repro.lint.rules import (
    RULES_BY_ID, UNREAD_FLAG_RULE_ID, run_all_rules,
)
from repro.lint.cryptorules import (
    CRYPTO_COLUMN, CRYPTO_RULES_BY_ID, CRYPTO_SCAN_EXCLUDES,
    crypto_sarif_rules, run_crypto_rules,
)
from repro.lint.simrules import (
    SIM_COLUMN, SIM_RULES_BY_ID, SIM_SCAN_EXCLUDES, run_sim_rules,
    sim_sarif_rules,
)

__all__ = ["run_lint", "resolve_columns", "run_witness", "Witness",
           "TRI_BANNER", "FORMATS", "FAIL_ON", "FAMILIES"]

FORMATS: Tuple[str, ...] = ("text", "json", "sarif")
FAIL_ON: Tuple[str, ...] = ("error", "warn", "never")
FAMILIES: Tuple[str, ...] = ("protocol", "sim", "crypto", "all")

_FAIL_RANK: Dict[str, int] = {
    "error": Severity.ERROR.rank,
    "warn": Severity.WARNING.rank,
}

Printer = Callable[[str], None]

#: Banner of the tri-consistency witness, shared with ``check``.
TRI_BANNER = ("tri-consistency harness: checker vs. lint vs. the live "
              "attack matrix (deterministic, ~1 s)...")


class Witness(Protocol):
    """A dynamic run's report on a static verdict."""

    @property
    def agrees(self) -> bool: ...

    def render(self) -> str: ...


def run_witness(banner: str, witness: Callable[[], Witness],
                echo: Printer) -> bool:
    """Print a blank line and *banner*, run *witness*, print its
    render, and return whether it agrees with the static verdict."""
    echo("")
    echo(banner)
    report = witness()
    echo(report.render())
    return report.agrees


def resolve_columns(column: str,
                    ) -> Optional[List[Tuple[str, ProtocolConfig]]]:
    """Map ``--column`` to (label, config) pairs; None if unknown."""
    from repro.suite import DEFAULT_COLUMNS

    if column == "all":
        return list(DEFAULT_COLUMNS)
    for label, config in DEFAULT_COLUMNS:
        if label == column:
            return [(label, config)]
    return None


def _emit_events(findings: Sequence[Finding]) -> None:
    from repro.obs import EventBus, LintFinding

    bus = EventBus()
    if not bus.active:   # nobody is capturing: skip event construction
        return
    for finding in findings:
        bus.emit(LintFinding(
            rule_id=finding.rule_id,
            severity=finding.severity.value,
            column=finding.column,
            file=finding.file,
            line=finding.line,
            message=finding.message,
        ))


def _render(fmt: str, fresh: Sequence[Finding],
            suppressed: Sequence[Finding],
            labels: Sequence[str],
            sarif_rules: Optional[List[Dict[str, Any]]] = None) -> str:
    if fmt == "json":
        return render_json(fresh, suppressed, labels)
    if fmt == "sarif":
        return render_sarif(fresh, suppressed, labels, rules=sarif_rules)
    return render_text(fresh, suppressed)


def _known_rule_ids() -> frozenset:
    """Every rule ID any family can emit (for stale-baseline checks)."""
    return frozenset(RULES_BY_ID) | {UNREAD_FLAG_RULE_ID} | \
        frozenset(SIM_RULES_BY_ID) | frozenset(CRYPTO_RULES_BY_ID)


def _file_checker(root: Optional[str]) -> Callable[[str], bool]:
    """Does a baseline entry's recorded anchor path still exist?

    Real-tree scans record ``src/repro/<...>`` paths; resolve them
    against the installed package so the check works from any cwd.
    """
    if root is not None:
        base = Path(root)
        return lambda file: (base / file).exists()

    import repro

    package = Path(repro.__file__ or ".").parent
    prefix = "src/repro/"

    def exists(file: str) -> bool:
        if file.startswith(prefix):
            return (package / file[len(prefix):]).exists()
        return Path(file).exists()

    return exists


def run_lint(
    fmt: str = "text",
    column: str = "all",
    baseline: Optional[str] = None,
    fail_on: str = "warn",
    out: Optional[str] = None,
    root: Optional[str] = None,
    consistency: bool = False,
    write_baseline_path: Optional[str] = None,
    jobs: Optional[int] = None,
    family: str = "protocol",
    echo: Printer = print,
) -> int:
    """The lint command.  Returns a process exit code (0/1/2).

    ``family`` selects the rule famil(ies): ``protocol`` (default),
    ``sim`` (determinism / scheduler-safety over the simulation stack),
    ``crypto`` (key-material flow into output surfaces), or ``all`` —
    note the families scan different subtrees.
    ``jobs=N`` fans the per-file scan out over N worker processes
    (byte-identical output; see :func:`repro.lint.engine.analyze_tree`).
    """
    if family not in FAMILIES:
        echo(f"unknown family {family!r}; choose protocol, sim, crypto, "
             "or all")
        return 2
    want_protocol = family in ("protocol", "all")
    want_sim = family in ("sim", "all")
    want_crypto = family in ("crypto", "all")

    columns: List[Tuple[str, ProtocolConfig]] = []
    if want_protocol:
        resolved = resolve_columns(column)
        if resolved is None:
            echo(f"unknown column {column!r}; choose v4, v5-draft3, "
                 "hardened, or all")
            return 2
        columns = resolved

    protocol_model: Optional[CodeModel] = None
    sim_model: Optional[CodeModel] = None
    crypto_model: Optional[CodeModel] = None
    if want_protocol:
        protocol_model = (analyze_repro(jobs=jobs) if root is None
                          else analyze_tree(Path(root), jobs=jobs))
    if want_sim:
        sim_model = (
            analyze_repro(exclude=SIM_SCAN_EXCLUDES, jobs=jobs)
            if root is None
            else analyze_tree(Path(root), exclude=SIM_SCAN_EXCLUDES,
                              jobs=jobs))
    if want_crypto:
        crypto_model = (
            analyze_repro(exclude=CRYPTO_SCAN_EXCLUDES, jobs=jobs)
            if root is None
            else analyze_tree(Path(root), exclude=CRYPTO_SCAN_EXCLUDES,
                              jobs=jobs))
    for model in (protocol_model, sim_model, crypto_model):
        if model is not None and model.errors:
            for error in model.errors:
                echo(f"parse error: {error}")
            return 2

    findings: List[Finding] = []
    labels: List[str] = []
    if protocol_model is not None:
        findings.extend(run_all_rules(protocol_model, columns))
        labels.extend(label for label, _config in columns)
    if sim_model is not None:
        findings.extend(run_sim_rules(sim_model))
        labels.append(SIM_COLUMN)
    if crypto_model is not None:
        findings.extend(run_crypto_rules(crypto_model))
        labels.append(CRYPTO_COLUMN)
    _emit_events(findings)

    if write_baseline_path is not None:
        target = Path(write_baseline_path)
        kept: Dict[str, str] = {}
        if target.exists():
            # Refreshing an existing baseline: keep each surviving
            # entry's hand-written justification; retired entries
            # (rule gone, file gone, finding fixed) simply drop out.
            try:
                kept = {entry.fingerprint: entry.reason
                        for entry in load_baseline_entries(target)
                        if entry.reason}
            except BaselineError as exc:
                echo(str(exc))
                return 2
        count = write_baseline(findings, target, reasons=kept)
        echo(f"wrote {count} suppressions to {write_baseline_path}")
        return 0

    suppressed: List[Finding] = []
    fresh = list(findings)
    if baseline is not None:
        try:
            entries = load_baseline_entries(Path(baseline))
        except BaselineError as exc:
            echo(str(exc))
            return 2
        stale = find_stale(entries, _known_rule_ids(),
                           _file_checker(root))
        if stale:
            for entry, why in stale:
                echo(f"stale baseline entry {entry.fingerprint}: {why}")
            echo(f"{len(stale)} stale entr"
                 f"{'ies' if len(stale) != 1 else 'y'} in {baseline}: "
                 "refresh the baseline (python -m repro lint "
                 f"--write-baseline {baseline})")
            return 2
        accepted = {entry.fingerprint: entry.reason for entry in entries}
        fresh, suppressed = split_by_baseline(findings, accepted)

    sarif_rules: Optional[List[Dict[str, Any]]] = None
    if fmt == "sarif" and family != "protocol":
        sarif_rules = []
        if want_protocol:
            from repro.lint.reporters import default_sarif_rules

            sarif_rules += default_sarif_rules()
        if want_sim:
            sarif_rules += sim_sarif_rules()
        if want_crypto:
            sarif_rules += crypto_sarif_rules()

    report = _render(fmt, fresh, suppressed, labels, sarif_rules)
    if out is not None:
        Path(out).write_text(report + "\n", encoding="utf-8")
        echo(f"wrote {fmt} report to {out} "
             f"({len(fresh)} findings, {len(suppressed)} baselined)")
    else:
        echo(report)

    exit_code = 0
    threshold = _FAIL_RANK.get(fail_on)
    if threshold is not None and any(f.severity.rank >= threshold
                                     for f in fresh):
        exit_code = 1

    if consistency and protocol_model is not None:
        from repro.check.consistency import check_tri_consistency

        if not run_witness(TRI_BANNER, lambda: check_tri_consistency(
                columns=columns, code_model=protocol_model), echo):
            exit_code = 1

    if consistency and sim_model is not None:
        from repro.lint.simconsistency import check_determinism

        sim_fresh = [f for f in fresh if f.column == SIM_COLUMN]
        if not run_witness(
                "determinism harness: double-running the load harness in "
                "engine and scale mode with one seed (byte-identity "
                "witness)...",
                lambda: check_determinism(static_findings=len(sim_fresh)),
                echo):
            exit_code = 1

    if consistency and crypto_model is not None:
        from repro.lint.cryptoconsistency import check_canary

        crypto_fresh = [f for f in fresh if f.column == CRYPTO_COLUMN]
        if not run_witness(
                "canary harness: planting canary key bytes, driving the "
                "tree, scanning every emitted artifact for escapes...",
                lambda: check_canary(crypto_fresh), echo):
            exit_code = 1

    return exit_code
