"""Findings: what a rule reports when it fires.

A :class:`Finding` is one (rule, protocol column) verdict anchored to a
``file:line`` in the scanned tree.  Findings are frozen and carry a
stable :attr:`Finding.fingerprint` — deliberately independent of the
line number, so a baseline recorded against one revision keeps
suppressing the same finding after unrelated edits move the anchor.

A :class:`CodeRule` is the one shape of a config-independent rule (the
sim and crypto families, and the protocol family's
``CONFIG-FLAG-UNREAD``): its evidence query maps a scanned
:class:`~repro.lint.engine.CodeModel` to ``(file, line, message)``
sites, and :func:`run_code_rules` turns every site into its own
finding under one column label and one paper section.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.lint.engine import CodeModel

__all__ = ["Severity", "Finding", "EvidenceSite", "CodeRule",
           "run_code_rules", "sort_findings"]


class Severity(enum.Enum):
    """SARIF-compatible levels, ordered from chatty to blocking."""

    NOTE = "note"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return _RANKS[self]


_RANKS: Dict[Severity, int] = {
    Severity.NOTE: 0, Severity.WARNING: 1, Severity.ERROR: 2,
}


@dataclass(frozen=True)
class Finding:
    """One rule verdict against one protocol column."""

    rule_id: str
    severity: Severity
    message: str
    file: str            # repo-relative anchor path
    line: int
    column: str          # protocol column label, or a code rule's
                         # family label: "(code)", "(sim)", "(crypto)"
    paper_section: str

    @property
    def fingerprint(self) -> str:
        """Stable identity for baselining: rule x column x file.

        The line number is excluded on purpose — unrelated edits above
        the anchor must not un-suppress a baselined finding.
        """
        return f"{self.rule_id}::{self.column}::{self.file}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule_id": self.rule_id,
            "severity": self.severity.value,
            "message": self.message,
            "file": self.file,
            "line": self.line,
            "column": self.column,
            "paper_section": self.paper_section,
            "fingerprint": self.fingerprint,
        }


#: Where a code rule's evidence is, and what is wrong there:
#: ``(file, line, message)``.
EvidenceSite = Tuple[str, int, str]


@dataclass(frozen=True)
class CodeRule:
    """One config-independent hazard: every evidence site is a bug."""

    rule_id: str
    severity: Severity
    title: str
    description: str
    evidence: Callable[[CodeModel], List[EvidenceSite]]


def run_code_rules(rules: Sequence[CodeRule], model: CodeModel,
                   column: str, paper_section: str) -> List[Finding]:
    """Every finding of *rules* over *model*, one per evidence site."""
    return [
        Finding(rule_id=rule.rule_id, severity=rule.severity,
                message=message, file=file, line=line, column=column,
                paper_section=paper_section)
        for rule in rules
        for file, line, message in rule.evidence(model)
    ]


def sort_findings(findings: Sequence[Finding]) -> List[Finding]:
    """Deterministic report order: column, then severity (worst first),
    then rule ID, then anchor."""
    return sorted(
        findings,
        key=lambda f: (f.column, -f.severity.rank, f.rule_id, f.file, f.line),
    )
