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

Reporters (:mod:`repro.lint.reporters`) render any family as text,
JSON, or SARIF 2.1.0.  Entry point: ``python -m repro lint
[--family protocol|sim|crypto|all]`` (see :mod:`repro.lint.cli`).
"""

from repro.lint.baseline import (
    BaselineEntry, BaselineError, find_stale, load_baseline,
    load_baseline_entries, split_by_baseline, write_baseline,
)
from repro.lint.engine import (
    CodeModel, analyze_repro, analyze_source, analyze_tree,
)
from repro.lint.findings import Finding, Severity, sort_findings
from repro.lint.reporters import render_json, render_sarif, render_text
from repro.lint.rules import (
    CODE_COLUMN, RULES, RULES_BY_ID, Rule, fired_rule_ids,
    run_all_rules, run_code_rules, run_config_rules,
)
from repro.lint.simconsistency import (
    DeterminismReport, canonical_report_bytes, check_determinism,
)
from repro.lint.simrules import (
    SIM_COLUMN, SIM_RULES, SIM_RULES_BY_ID, SIM_SCAN_EXCLUDES,
    WALL_BUDGET_FILES, SimRule, run_sim_rules,
)

__all__ = [
    "BaselineEntry", "BaselineError", "CODE_COLUMN", "CodeModel",
    "DeterminismReport", "Finding", "RULES", "RULES_BY_ID", "Rule",
    "SIM_COLUMN", "SIM_RULES", "SIM_RULES_BY_ID", "SIM_SCAN_EXCLUDES",
    "Severity", "SimRule", "WALL_BUDGET_FILES", "analyze_repro",
    "analyze_source", "analyze_tree", "canonical_report_bytes",
    "check_determinism", "find_stale", "fired_rule_ids",
    "load_baseline", "load_baseline_entries", "render_json",
    "render_sarif", "render_text", "run_all_rules", "run_code_rules",
    "run_config_rules", "run_sim_rules", "sort_findings",
    "split_by_baseline", "write_baseline",
]
