"""``repro.lint`` — system-specific static analyzers for the tree.

Three rule families share one AST/dataflow engine
(:mod:`repro.lint.engine`):

* **protocol** — the paper's misuse catalogue (PCBC splicing, CRC-32
  as a MAC, untyped V4 encodings, missing replay caches,
  unauthenticated time, the misusable Draft 3 options) is mechanically
  recognizable misuse.  The engine models which secrets flow into
  which primitives and where each
  :class:`repro.kerberos.config.ProtocolConfig` knob is consulted; a
  rule registry (:mod:`repro.lint.rules`) encodes one rule per paper
  finding; and the tri-consistency harness
  (:mod:`repro.check.consistency`) pins every mapped rule's verdict to
  the model checker's and to the live ``run_attack_matrix`` cell it
  predicts.
* **sim** — determinism and scheduler-safety hazards in the
  simulation/serve stack (:mod:`repro.lint.simrules`): wall-clock
  reads, ``hash()``/unseeded-``random`` nondeterminism, unordered set
  iteration reaching order-sensitive sinks, and discrete-event process
  discipline (no in-process clock advances, no orphaned timers, no
  non-command yields).  Its harness
  (:mod:`repro.lint.simconsistency`) pins the static verdict with a
  dynamic witness: the load harness run twice under one seed, in
  engine and in scale mode, must serialize byte-identically.
* **crypto** — key material flowing into logs, error text and wire
  cleartext (:mod:`repro.lint.cryptorules`).  Its witness
  (:mod:`repro.lint.cryptoconsistency`) plants canary key bytes, drives
  the tree and scans every emitted artifact for them.

Every config-independent rule — all of the sim and crypto families,
and the protocol family's ``CONFIG-FLAG-UNREAD`` — has one shape,
:class:`~repro.lint.findings.CodeRule`, and one runner,
:func:`~repro.lint.findings.run_code_rules`, which reports each
evidence site as a finding under the family's column label.  The sim
and crypto families read one shared model of ``src/repro`` minus
:data:`~repro.lint.engine.BASE_EXCLUDES`; the protocol family scans
the narrower :data:`~repro.lint.engine.DEFAULT_EXCLUDES` subtree.

Reporters (:mod:`repro.lint.reporters`) render any family as text,
JSON, or SARIF 2.1.0, building each rule's SARIF metadata with one
function, :func:`~repro.lint.reporters.sarif_rule`.  Entry point:
``python -m repro lint [--family protocol|sim|crypto|all]`` (see
:mod:`repro.lint.cli`).
"""

from repro.lint.baseline import (
    BaselineEntry, BaselineError, find_stale, load_baseline,
    load_baseline_entries, split_by_baseline, write_baseline,
)
from repro.lint.engine import (
    BASE_EXCLUDES, DEFAULT_EXCLUDES, CodeModel, analyze_repro,
    analyze_source, analyze_tree,
)
from repro.lint.findings import (
    CodeRule, Finding, Severity, run_code_rules, sort_findings,
)
from repro.lint.reporters import (
    render_json, render_sarif, render_text, sarif_rule,
)
from repro.lint.rules import (
    CODE_COLUMN, CODE_RULES, RULES, RULES_BY_ID, Rule, fired_rule_ids,
    run_all_rules, run_config_rules,
)
from repro.lint.simconsistency import (
    DeterminismReport, canonical_report_bytes, check_determinism,
)

__all__ = [
    "BASE_EXCLUDES", "BaselineEntry", "BaselineError", "CODE_COLUMN",
    "CODE_RULES", "CodeModel", "CodeRule", "DEFAULT_EXCLUDES",
    "DeterminismReport", "Finding", "RULES", "RULES_BY_ID", "Rule",
    "Severity", "analyze_repro", "analyze_source", "analyze_tree",
    "canonical_report_bytes", "check_determinism", "find_stale",
    "fired_rule_ids", "load_baseline", "load_baseline_entries",
    "render_json", "render_sarif", "render_text", "run_all_rules",
    "run_code_rules", "run_config_rules", "sarif_rule", "sort_findings",
    "split_by_baseline", "write_baseline",
]
