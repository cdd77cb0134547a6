"""Reporters: the same findings as human text, JSON, or SARIF 2.1.0.

All three renderers are deterministic (stable ordering, sorted keys)
so their output can be golden-file tested and diffed across runs.
Suppressed (baselined) findings stay visible: the text report counts
them, the JSON report lists them separately, and the SARIF report marks
them with an ``external`` suppression — which is how SARIF viewers and
code-scanning UIs expect accepted findings to be represented.

The JSON and SARIF renderers take the tool identity (and, for SARIF,
the rule-metadata array) as parameters, defaulting to this linter's:
:mod:`repro.check.report` drives the same machinery under its own name,
so both tools emit structurally identical logs with the shared
``rule x column x file`` fingerprint scheme.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.lint.findings import CodeRule, Finding, Severity, sort_findings
from repro.lint.rules import CODE_RULES, RULES, UNREAD_FLAG_SECTION, Rule

__all__ = ["TOOL_NAME", "TOOL_VERSION", "render_text", "render_json",
           "render_sarif", "sarif_rule", "default_sarif_rules"]

TOOL_NAME = "repro-lint"
TOOL_VERSION = "1.0.0"
_SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                 "master/Schemata/sarif-schema-2.1.0.json")
_INFO_URI = "https://github.com/project-repro/repro"


def _count(findings: Sequence[Finding], severity: Severity) -> int:
    return sum(1 for f in findings if f.severity is severity)


def _summary_line(findings: Sequence[Finding],
                  suppressed: Sequence[Finding]) -> str:
    parts = [f"{len(findings)} finding{'s' if len(findings) != 1 else ''}"]
    parts.append(f"{_count(findings, Severity.ERROR)} errors")
    parts.append(f"{_count(findings, Severity.WARNING)} warnings")
    if suppressed:
        parts.append(f"{len(suppressed)} baselined")
    return " (".join([parts[0], ", ".join(parts[1:])]) + ")"


def render_text(findings: Sequence[Finding],
                suppressed: Sequence[Finding] = ()) -> str:
    """One ``file:line: severity RULE [column] message`` line each."""
    lines: List[str] = []
    for finding in sort_findings(findings):
        lines.append(
            f"{finding.file}:{finding.line}: {finding.severity.value} "
            f"{finding.rule_id} [{finding.column}] {finding.message}"
        )
    if not findings:
        lines.append("no findings")
    lines.append("")
    lines.append(_summary_line(findings, suppressed))
    return "\n".join(lines)


def render_json(findings: Sequence[Finding],
                suppressed: Sequence[Finding] = (),
                columns: Sequence[str] = (),
                tool_name: str = TOOL_NAME,
                tool_version: str = TOOL_VERSION) -> str:
    """The machine-readable report ``--format json`` prints."""
    payload: Dict[str, Any] = {
        "tool": {"name": tool_name, "version": tool_version},
        "columns": list(columns),
        "findings": [f.to_dict() for f in sort_findings(findings)],
        "suppressed": [f.to_dict() for f in sort_findings(suppressed)],
        "summary": {
            "total": len(findings),
            "errors": _count(findings, Severity.ERROR),
            "warnings": _count(findings, Severity.WARNING),
            "notes": _count(findings, Severity.NOTE),
            "baselined": len(suppressed),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


# --------------------------------------------------------------------- #
# SARIF 2.1.0
# --------------------------------------------------------------------- #


def sarif_rule(rule: Union[Rule, CodeRule],
               paper_section: str) -> Dict[str, Any]:
    """One ``tool.driver.rules`` entry: a rule's metadata."""
    return {
        "id": rule.rule_id,
        "name": rule.rule_id.title().replace("-", ""),
        "shortDescription": {"text": rule.title},
        "fullDescription": {"text": rule.description},
        "defaultConfiguration": {"level": rule.severity.value},
        "properties": {"paperSection": paper_section},
    }


def default_sarif_rules() -> List[Dict[str, Any]]:
    """Protocol-family rule metadata for ``tool.driver.rules``: the
    default of :func:`render_sarif`'s *rules*."""
    return ([sarif_rule(rule, rule.paper_section) for rule in RULES]
            + [sarif_rule(rule, UNREAD_FLAG_SECTION) for rule in CODE_RULES])


def _rule_index(rules: Sequence[Dict[str, Any]]) -> Dict[str, int]:
    return {str(rule["id"]): index for index, rule in enumerate(rules)}


def _sarif_result(finding: Finding, index: Dict[str, int],
                  suppressed: bool) -> Dict[str, Any]:
    result: Dict[str, Any] = {
        "ruleId": finding.rule_id,
        "ruleIndex": index.get(finding.rule_id, -1),
        "level": finding.severity.value,
        "message": {"text": finding.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {
                    "uri": finding.file,
                    "uriBaseId": "SRCROOT",
                },
                "region": {"startLine": max(finding.line, 1)},
            },
        }],
        "partialFingerprints": {"reproLint/v1": finding.fingerprint},
        "properties": {
            "column": finding.column,
            "paperSection": finding.paper_section,
        },
    }
    if suppressed:
        result["suppressions"] = [{
            "kind": "external",
            "justification": "accepted in lint-baseline.json",
        }]
    return result


def render_sarif(findings: Sequence[Finding],
                 suppressed: Sequence[Finding] = (),
                 columns: Sequence[str] = (),
                 tool_name: str = TOOL_NAME,
                 tool_version: str = TOOL_VERSION,
                 rules: Optional[List[Dict[str, Any]]] = None) -> str:
    """A single-run SARIF 2.1.0 log, suitable for code-scanning upload.

    *rules* overrides the ``tool.driver.rules`` metadata array (default:
    this linter's registry) so other tools can reuse the renderer.
    """
    if rules is None:
        rules = default_sarif_rules()
    index = _rule_index(rules)
    results = [_sarif_result(f, index, suppressed=False)
               for f in sort_findings(findings)]
    results.extend(_sarif_result(f, index, suppressed=True)
                   for f in sort_findings(suppressed))
    log: Dict[str, Any] = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": tool_name,
                    "version": tool_version,
                    "informationUri": _INFO_URI,
                    "rules": rules,
                },
            },
            "originalUriBaseIds": {
                "SRCROOT": {"description": {
                    "text": "repository root",
                }},
            },
            "properties": {"columns": list(columns)},
            "results": results,
        }],
    }
    return json.dumps(log, indent=2, sort_keys=True)
