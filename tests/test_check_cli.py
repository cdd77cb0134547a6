"""The ``python -m repro check`` command surface."""

import json

from repro.check.cli import run_check
from repro.check.report import (
    CHECK_TOOL_NAME, evaluate_matrix, render_json, render_sarif,
)
from repro.kerberos.config import ProtocolConfig


def run(**kwargs):
    lines = []
    code = run_check(echo=lines.append, **kwargs)
    return code, "\n".join(lines)


def test_unknown_format_exits_2():
    code, out = run(fmt="yaml")
    assert code == 2 and "unknown format" in out


def test_unknown_column_exits_2():
    code, out = run(column="v6")
    assert code == 2 and "unknown column" in out


def test_single_column_text_run():
    code, out = run(column="v4")
    assert code == 0
    assert "bounded model check" in out
    assert "12 cells checked" in out


def test_full_matrix_text_run():
    code, out = run()
    assert code == 0
    assert "36 cells checked, 21 violated" in out
    # Safe hardened cells carry their closing defense inline.
    assert "closed:" in out


def test_out_writes_report_and_summarises(tmp_path):
    target = tmp_path / "check.json"
    code, out = run(fmt="json", out=str(target))
    assert code == 0
    assert f"wrote json report to {target}" in out
    payload = json.loads(target.read_text())
    assert payload["tool"]["name"] == CHECK_TOOL_NAME
    assert payload["summary"]["cells"] == 36
    assert payload["summary"]["violated"] == 21


def test_json_report_carries_traces_and_gates():
    cells = evaluate_matrix(columns=[("v4", ProtocolConfig.v4())])
    payload = json.loads(render_json(cells))
    verdicts = {(v["property"], v["column"]): v for v in payload["verdicts"]}
    replay = verdicts[("AUTH-REPLAY", "v4")]
    assert replay["violated"] and replay["trace"]
    mint = verdicts[("AUTH-MINT", "v4")]
    assert not mint["violated"] and mint["closed_gates"]


def test_sarif_report_is_wellformed():
    cells = evaluate_matrix()
    log = json.loads(render_sarif(cells))
    assert log["version"] == "2.1.0"
    run_obj = log["runs"][0]
    assert run_obj["tool"]["driver"]["name"] == CHECK_TOOL_NAME
    assert len(run_obj["results"]) == 21
    rule_ids = {rule["id"] for rule in run_obj["tool"]["driver"]["rules"]}
    assert "AUTH-REPLAY" in rule_ids and "INT-PRIV" in rule_ids


def test_consistency_agrees_over_the_live_tree():
    """`check --consistency`, as CI runs it: all 36 cells agree."""
    code, out = run(consistency=True)
    assert code == 0, out
    assert "tri-consistency harness" in out
    assert "tri-consistency: 36/36 cells agree (100%)" in out


def test_consistency_fails_on_a_flipped_cell(flipped_replay):
    code, out = run(column="hardened", consistency=True)
    assert code == 1
    assert "DISAGREE  [AUTH-REPLAY]" in out
    assert "tri-consistency: 11/12 cells agree" in out
