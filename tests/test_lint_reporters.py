"""Reporters (text / JSON / SARIF) and the baseline workflow."""

import json

import pytest

from repro.lint.baseline import (
    BaselineError, baseline_payload, load_baseline, split_by_baseline,
    write_baseline,
)
from repro.lint.findings import Finding, Severity, sort_findings
from repro.lint.reporters import render_json, render_sarif, render_text
from repro.lint.rules import RULES


def finding(rule_id="NO-PREAUTH", severity=Severity.WARNING,
            file="src/repro/kerberos/client.py", line=10, column="v4",
            message="AS hands out password-equivalent tickets"):
    return Finding(rule_id=rule_id, severity=severity, message=message,
                   file=file, line=line, column=column,
                   paper_section="Password-Guessing Attacks")


FINDINGS = [
    finding(),
    finding(rule_id="NO-REPLAY-CACHE", severity=Severity.ERROR,
            file="src/repro/hardware/unit_server.py", line=99,
            message="no replay defense"),
]


# --- text ---------------------------------------------------------------


def test_text_golden():
    assert render_text(FINDINGS) == (
        "src/repro/hardware/unit_server.py:99: error NO-REPLAY-CACHE "
        "[v4] no replay defense\n"
        "src/repro/kerberos/client.py:10: warning NO-PREAUTH "
        "[v4] AS hands out password-equivalent tickets\n"
        "\n"
        "2 findings (1 errors, 1 warnings)"
    )


def test_text_empty_and_baselined():
    report = render_text([], suppressed=FINDINGS)
    assert report.splitlines()[0] == "no findings"
    assert report.splitlines()[-1] == \
        "0 findings (0 errors, 0 warnings, 2 baselined)"


def test_text_sorts_errors_first():
    lines = render_text(FINDINGS).splitlines()
    assert "NO-REPLAY-CACHE" in lines[0]  # error outranks warning


# --- json ---------------------------------------------------------------


def test_json_golden():
    payload = json.loads(render_json(FINDINGS, suppressed=[finding()],
                                     columns=["v4"]))
    assert payload["tool"] == {"name": "repro-lint", "version": "1.0.0"}
    assert payload["columns"] == ["v4"]
    assert payload["summary"] == {
        "total": 2, "errors": 1, "warnings": 1, "notes": 0,
        "baselined": 1,
    }
    assert [f["rule_id"] for f in payload["findings"]] == \
        ["NO-REPLAY-CACHE", "NO-PREAUTH"]
    first = payload["findings"][0]
    assert first["file"] == "src/repro/hardware/unit_server.py"
    assert first["line"] == 99
    assert first["severity"] == "error"
    assert first["column"] == "v4"


def test_json_is_deterministic():
    assert render_json(FINDINGS) == render_json(list(reversed(FINDINGS)))


# --- sarif --------------------------------------------------------------


def test_sarif_structure():
    log = json.loads(render_sarif(FINDINGS, columns=["v4"]))
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    # every registry rule plus CONFIG-FLAG-UNREAD carries metadata
    assert len(driver["rules"]) == len(RULES) + 1
    assert len(run["results"]) == 2
    result = run["results"][0]
    assert result["ruleId"] == "NO-REPLAY-CACHE"
    assert result["level"] == "error"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == \
        "src/repro/hardware/unit_server.py"
    assert location["artifactLocation"]["uriBaseId"] == "SRCROOT"
    assert location["region"]["startLine"] == 99
    assert "reproLint/v1" in result["partialFingerprints"]
    assert "suppressions" not in result


def test_sarif_rule_index_consistent():
    log = json.loads(render_sarif(FINDINGS))
    run = log["runs"][0]
    rules = run["tool"]["driver"]["rules"]
    for result in run["results"]:
        assert rules[result["ruleIndex"]]["id"] == result["ruleId"]


def test_sarif_suppressed_findings_marked():
    results = json.loads(render_sarif([], suppressed=FINDINGS))[
        "runs"][0]["results"]
    assert len(results) == 2
    for result in results:
        (suppression,) = result["suppressions"]
        assert suppression["kind"] == "external"


# --- all three families through every reporter --------------------------


def family_findings():
    """One representative live finding per rule family, plus anchors
    that must resolve against the working tree."""
    return [
        finding(),
        finding(rule_id="DET-WALLCLOCK", severity=Severity.ERROR,
                file="src/repro/sim/sched.py", line=1, column="(sim)",
                message="wall-clock read in the simulation stack"),
        finding(rule_id="CRYPTO-UNSEALED-FIELD", severity=Severity.ERROR,
                file="src/repro/kerberos/ccache.py", line=1,
                column="(crypto)",
                message="sealed-schema field built unsealed"),
    ]


def merged_rule_metadata():
    from repro.lint.cryptorules import CRYPTO_PAPER_SECTION, CRYPTO_RULES
    from repro.lint.reporters import default_sarif_rules, sarif_rule
    from repro.lint.simrules import SIM_PAPER_SECTION, SIM_RULES
    return (default_sarif_rules()
            + [sarif_rule(rule, SIM_PAPER_SECTION) for rule in SIM_RULES]
            + [sarif_rule(rule, CRYPTO_PAPER_SECTION)
               for rule in CRYPTO_RULES])


def test_text_renders_every_family_column():
    report = render_text(family_findings())
    assert "[v4]" in report
    assert "[(sim)]" in report
    assert "[(crypto)]" in report
    assert report.splitlines()[-1] == "3 findings (2 errors, 1 warnings)"


def test_json_renders_every_family():
    payload = json.loads(render_json(
        family_findings(), columns=["v4", "(sim)", "(crypto)"]))
    assert payload["columns"] == ["v4", "(sim)", "(crypto)"]
    assert {f["column"] for f in payload["findings"]} == \
        {"v4", "(sim)", "(crypto)"}


def test_sarif_merged_families_keep_the_2_1_0_shape():
    log = json.loads(render_sarif(family_findings(),
                                  columns=["v4", "(sim)", "(crypto)"],
                                  rules=merged_rule_metadata()))
    assert log["version"] == "2.1.0"
    assert log["$schema"].endswith("sarif-schema-2.1.0.json")
    run = log["runs"][0]
    rules = run["tool"]["driver"]["rules"]
    rule_ids = {r["id"] for r in rules}
    # one merged driver carries all three families' metadata...
    assert {"NO-PREAUTH", "DET-WALLCLOCK", "CRYPTO-UNSEALED-FIELD"} \
        <= rule_ids
    # ...with no id collisions across families
    assert len(rule_ids) == len(rules)
    for rule in rules:
        assert rule["shortDescription"]["text"]
        assert rule["fullDescription"]["text"]
        assert rule["defaultConfiguration"]["level"] in \
            ("error", "warning", "note")
    # every result indexes its own rule inside the merged table
    for result in run["results"]:
        assert rules[result["ruleIndex"]]["id"] == result["ruleId"]


def test_sarif_family_anchors_resolve_in_the_working_tree():
    from pathlib import Path
    repo_root = Path(__file__).resolve().parent.parent
    log = json.loads(render_sarif(family_findings(),
                                  rules=merged_rule_metadata()))
    for result in log["runs"][0]["results"]:
        location = result["locations"][0]["physicalLocation"]
        target = repo_root / location["artifactLocation"]["uri"]
        assert target.is_file(), target
        line_count = len(target.read_text().splitlines())
        assert 1 <= location["region"]["startLine"] <= line_count


def test_sarif_crypto_metadata_names_the_paper_section():
    from repro.lint.cryptorules import CRYPTO_PAPER_SECTION, CRYPTO_RULES
    from repro.lint.reporters import sarif_rule
    rules = [sarif_rule(rule, CRYPTO_PAPER_SECTION) for rule in CRYPTO_RULES]
    assert len(rules) == 6
    for rule in rules:
        assert rule["id"].startswith("CRYPTO-")
        assert "Key management" in rule["properties"]["paperSection"]


# --- baseline -----------------------------------------------------------


def test_baseline_round_trip(tmp_path):
    path = tmp_path / "baseline.json"
    count = write_baseline(FINDINGS, path)
    assert count == 2
    accepted = load_baseline(path)
    assert set(accepted) == {f.fingerprint for f in FINDINGS}
    fresh, suppressed = split_by_baseline(FINDINGS, accepted)
    assert fresh == []
    assert sort_findings(suppressed) == sort_findings(FINDINGS)


def test_baseline_suppresses_only_matches(tmp_path):
    path = tmp_path / "baseline.json"
    write_baseline([FINDINGS[0]], path)
    fresh, suppressed = split_by_baseline(FINDINGS, load_baseline(path))
    assert [f.rule_id for f in fresh] == ["NO-REPLAY-CACHE"]
    assert [f.rule_id for f in suppressed] == ["NO-PREAUTH"]


def test_fingerprint_ignores_line_numbers():
    moved = finding(line=999)
    assert moved.fingerprint == finding().fingerprint


def test_baseline_payload_deduplicates():
    payload = baseline_payload([finding(), finding(line=999)])
    assert len(payload["suppressions"]) == 1


def test_baseline_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    with pytest.raises(BaselineError):
        load_baseline(path)
    path.write_text(json.dumps({"version": 99, "suppressions": []}))
    with pytest.raises(BaselineError):
        load_baseline(path)
