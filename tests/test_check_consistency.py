"""The tri-consistency harness: checker == linter == live attack."""

from repro.attacks.base import AttackResult
from repro.check.consistency import TriCell, TriReport, check_tri_consistency
from repro.check.properties import PROPERTIES_BY_ID
from repro.check.report import evaluate_matrix
from repro.kerberos.config import ProtocolConfig
from repro.lint.engine import analyze_repro
from repro.lint.rules import RULES_BY_ID
from repro.suite import SCENARIOS, MatrixResult


def tri(checker, lint, attack):
    return TriCell(scenario="s", property_id="P", column="v4",
                   checker_violated=checker, lint_fired=lint,
                   attack_won=attack)


def test_agreement_is_three_way():
    assert tri(True, True, True).agrees
    assert tri(False, False, False).agrees
    for combo in [(True, True, False), (True, False, True),
                  (False, True, True), (True, False, False),
                  (False, True, False), (False, False, True)]:
        assert not tri(*combo).agrees


def test_report_accounting():
    report = TriReport(checks=[tri(True, True, True), tri(True, True, False)])
    assert report.total == 2
    assert len(report.disagreements()) == 1
    assert report.agreement() == 0.5
    rendered = report.render()
    assert "DISAGREE" in rendered
    assert "tri-consistency: 1/2 cells agree (50%)" in rendered


def test_empty_report_is_total_agreement():
    assert TriReport(checks=[]).agreement() == 1.0


def fabricated_matrix(columns, model):
    """A MatrixResult whose outcomes equal the lint predictions."""
    cells = {}
    for scenario in SCENARIOS:
        if not scenario.rule_ids or not scenario.property_id:
            continue
        for label, config in columns:
            predicted = any(RULES_BY_ID[rid].fires(model, config)
                            for rid in scenario.rule_ids)
            cells[(scenario.name, label)] = AttackResult(
                scenario.name, predicted, "fabricated")
    return MatrixResult(columns=[label for label, _ in columns], cells=cells)


def test_checker_agrees_with_lint_and_fabricated_matrix():
    model = analyze_repro()
    columns = [("v4", ProtocolConfig.v4()),
               ("hardened", ProtocolConfig.hardened())]
    matrix = fabricated_matrix(columns, model)
    cells = evaluate_matrix(columns=columns)
    report = check_tri_consistency(matrix=matrix, columns=columns,
                                   code_model=model, cells=cells)
    assert report.total == len(matrix.cells)
    assert report.disagreements() == []
    assert report.agreement() == 1.0


def test_disagreement_is_flagged():
    model = analyze_repro()
    columns = [("hardened", ProtocolConfig.hardened())]
    matrix = fabricated_matrix(columns, model)
    cells = evaluate_matrix(columns=columns)
    name = next(s.name for s in SCENARIOS
                if s.rule_ids and s.property_id)
    matrix.cells[(name, "hardened")] = AttackResult(name, True, "flipped")
    report = check_tri_consistency(matrix=matrix, columns=columns,
                                   code_model=model, cells=cells)
    assert [c.scenario for c in report.disagreements()] == [name]


def test_every_mapped_property_exists():
    mapped = [s for s in SCENARIOS if s.property_id]
    assert len(mapped) == 12
    for scenario in mapped:
        assert scenario.property_id in PROPERTIES_BY_ID, scenario.name


def test_every_linted_scenario_is_in_the_harness():
    """The protocol lint witness runs through this harness, which skips
    a scenario without a known property: a rule mapping alone must
    never silently drop its cells."""
    for scenario in SCENARIOS:
        if scenario.rule_ids:
            assert scenario.property_id in PROPERTIES_BY_ID, scenario.name
