"""The ``python -m repro lint`` command: exit codes, formats, events."""

import json
from pathlib import Path

import pytest

from repro.lint.cli import resolve_columns, run_lint, run_witness
from repro.obs import capture, event_from_dict
from repro.obs.events import LintFinding

REPO_ROOT = Path(__file__).resolve().parent.parent

VULNERABLE = (
    "def accept(config, authenticator):\n"
    "    if config.replay_cache:\n"
    "        pass\n"
    "    return config.preauth_required\n"
)


def snippet_tree(tmp_path, source=VULNERABLE):
    (tmp_path / "proto.py").write_text(source)
    return str(tmp_path)


def run(tmp_path=None, **kwargs):
    """run_lint with captured output; returns (exit_code, text)."""
    lines = []
    kwargs.setdefault("echo", lines.append)
    if tmp_path is not None:
        kwargs.setdefault("root", snippet_tree(tmp_path))
    code = run_lint(**kwargs)
    return code, "\n".join(lines)


def test_resolve_columns():
    assert [label for label, _ in resolve_columns("all")] == \
        ["v4", "v5-draft3", "hardened"]
    assert [label for label, _ in resolve_columns("v4")] == ["v4"]
    assert resolve_columns("nope") is None


def test_unknown_column_exits_2(tmp_path):
    code, text = run(tmp_path, column="krb5")
    assert code == 2
    assert "unknown column" in text


def test_parse_error_exits_2(tmp_path):
    code, text = run(root=snippet_tree(tmp_path, "def broken(:\n"))
    assert code == 2
    assert "parse error" in text


def test_findings_fail_threshold(tmp_path):
    code, text = run(tmp_path, column="v4")
    assert code == 1  # NO-REPLAY-CACHE (error) + NO-PREAUTH (warning)
    assert "NO-REPLAY-CACHE" in text
    assert "NO-PREAUTH" in text


def test_fail_on_never(tmp_path):
    code, _text = run(tmp_path, column="v4", fail_on="never")
    assert code == 0


def test_fail_on_error_ignores_warnings(tmp_path):
    source = "def check(config):\n    return config.preauth_required\n"
    code, text = run(root=snippet_tree(tmp_path, source), column="v4",
                     fail_on="error")
    assert code == 0
    assert "NO-PREAUTH" in text


def test_hardened_column_is_clean(tmp_path):
    code, text = run(tmp_path, column="hardened")
    assert code == 0
    assert "no findings" in text


def test_json_format(tmp_path):
    code, text = run(tmp_path, column="v4", fmt="json")
    assert code == 1
    payload = json.loads(text)
    assert payload["columns"] == ["v4"]
    assert {f["rule_id"] for f in payload["findings"]} == \
        {"NO-REPLAY-CACHE", "NO-PREAUTH"}


def test_out_writes_report(tmp_path):
    out = tmp_path / "report.sarif"
    code, text = run(tmp_path, column="v4", fmt="sarif", out=str(out),
                     fail_on="never")
    assert code == 0
    assert "wrote sarif report" in text
    assert json.loads(out.read_text())["version"] == "2.1.0"


def test_write_baseline_then_suppress(tmp_path):
    baseline = tmp_path / "baseline.json"
    code, text = run(tmp_path, column="v4",
                     write_baseline_path=str(baseline))
    assert code == 0
    # The write covers every column (v4 and v5-draft3 find two each);
    # the v4 run below uses its two.
    assert "wrote 4 suppressions" in text

    code, text = run(root=str(tmp_path), column="v4",
                     baseline=str(baseline))
    assert code == 0
    assert "2 baselined" in text


def test_bad_baseline_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code, text = run(tmp_path, column="v4", baseline=str(bad))
    assert code == 2


def test_findings_published_as_events(tmp_path):
    with capture() as cap:
        run(tmp_path, column="v4", fail_on="never")
    lint_events = [e for e in cap.events if isinstance(e, LintFinding)]
    assert {e.rule_id for e in lint_events} == \
        {"NO-REPLAY-CACHE", "NO-PREAUTH"}
    event = lint_events[0]
    assert event.column == "v4"
    assert event.line > 0
    clone = event_from_dict(event.to_dict())
    assert isinstance(clone, LintFinding)
    assert clone.rule_id == event.rule_id


def test_repo_baseline_covers_the_tree():
    """The checked-in baseline accepts exactly the paper's findings: a
    full run over the real tree with it is finding-free and exits 0."""
    code, text = run(baseline=str(REPO_ROOT / "lint-baseline.json"))
    assert code == 0, text
    assert "no findings" in text


# -- dynamic witnesses -------------------------------------------------- #


def test_run_witness_prints_banner_then_render():
    class Stub:
        agrees = False

        def render(self):
            return "stub render"

    lines = []
    assert run_witness("banner...", Stub, lines.append) is False
    assert lines == ["", "banner...", "stub render"]


def test_protocol_consistency_agrees_over_the_live_tree():
    """`lint --family protocol --baseline lint-baseline.json
    --consistency`, as CI runs it: checker, lint and live matrix agree
    on all 36 cells."""
    code, text = run(baseline=str(REPO_ROOT / "lint-baseline.json"),
                     consistency=True)
    assert code == 0, text
    assert "tri-consistency harness" in text
    assert "tri-consistency: 36/36 cells agree (100%)" in text


def test_protocol_consistency_fails_on_a_flipped_cell(flipped_replay):
    code, text = run(column="hardened", fail_on="never", consistency=True)
    assert code == 1
    assert "DISAGREE  [AUTH-REPLAY]" in text
    assert "tri-consistency: 11/12 cells agree" in text


def test_cli_sim_consistency_runs_the_determinism_witness():
    """`lint --family sim --consistency` over the live tree: the clean
    static scan and the byte-identical double run must agree."""
    code, text = run(family="sim", consistency=True)
    assert code == 0, text
    assert "determinism harness" in text
    assert "byte-identical" in text
    assert "verdict: agree" in text


# -- rule families ------------------------------------------------------ #

WALLCLOCK = (
    "import time\n"
    "def stamp(report):\n"
    "    report['at'] = time.time()\n"
)


def test_unknown_family_exits_2(tmp_path):
    code, text = run(tmp_path, family="nope")
    assert code == 2
    assert "unknown family" in text


def test_sim_family_fires_on_snippet(tmp_path):
    code, text = run(root=snippet_tree(tmp_path, WALLCLOCK),
                     family="sim")
    assert code == 1
    assert "DET-WALLCLOCK" in text
    assert "(sim)" in text


def test_sim_family_skips_column_resolution(tmp_path):
    # `column` is a protocol-family concept; a bogus value must not
    # break a sim-only run.
    code, _text = run(root=snippet_tree(tmp_path, WALLCLOCK),
                      family="sim", column="krb5", fail_on="never")
    assert code == 0


def test_family_all_concatenates_both_scans(tmp_path):
    source = WALLCLOCK + "def check(config):\n" \
        "    return config.preauth_required\n"
    code, text = run(root=snippet_tree(tmp_path, source), family="all",
                     column="v4")
    assert code == 1
    assert "DET-WALLCLOCK" in text
    assert "NO-PREAUTH" in text


def test_sim_family_live_tree_is_clean():
    code, text = run(family="sim")
    assert code == 0, text
    assert "no findings" in text


def test_sim_family_sarif_carries_sim_rule_metadata(tmp_path):
    out = tmp_path / "sim.sarif"
    code, _text = run(root=snippet_tree(tmp_path, WALLCLOCK),
                      family="sim", fmt="sarif", out=str(out),
                      fail_on="never")
    assert code == 0
    payload = json.loads(out.read_text())
    rule_ids = {r["id"]
                for r in payload["runs"][0]["tool"]["driver"]["rules"]}
    assert "DET-WALLCLOCK" in rule_ids
    assert "SCHED-ADVANCE-IN-PROCESS" in rule_ids


UNSEALED = (
    "def persist(session_key):\n"
    "    return {'session_key': session_key}\n"
)


def test_crypto_family_fires_on_snippet(tmp_path):
    code, text = run(root=snippet_tree(tmp_path, UNSEALED),
                     family="crypto")
    assert code == 1
    assert "CRYPTO-UNSEALED-FIELD" in text
    assert "(crypto)" in text


def test_crypto_family_skips_column_resolution(tmp_path):
    code, _text = run(root=snippet_tree(tmp_path, UNSEALED),
                      family="crypto", column="krb5", fail_on="never")
    assert code == 0


def test_family_all_concatenates_three_scans(tmp_path):
    source = WALLCLOCK + UNSEALED + \
        "def check(config):\n    return config.preauth_required\n"
    code, text = run(root=snippet_tree(tmp_path, source), family="all",
                     column="v4")
    assert code == 1
    assert "DET-WALLCLOCK" in text
    assert "NO-PREAUTH" in text
    assert "CRYPTO-UNSEALED-FIELD" in text


@pytest.mark.parametrize("family, scans", [
    ("protocol", 1), ("sim", 1), ("crypto", 1), ("all", 2),
])
def test_each_subtree_is_scanned_once(monkeypatch, family, scans):
    """The sim and crypto families share one model, so ``all`` scans
    the protocol subtree once and the wider shared subtree once."""
    import repro.lint.cli as cli

    calls = []
    real = cli.analyze_repro

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "analyze_repro", counting)
    run(family=family, fail_on="never")
    assert len(calls) == scans


def test_crypto_family_live_tree_is_clean_modulo_baseline():
    """The live tree's only crypto finding is the paper's credential
    cache, carried by the checked-in baseline."""
    code, text = run(family="crypto",
                     baseline=str(REPO_ROOT / "lint-baseline.json"))
    assert code == 0, text
    assert "1 baselined" in text


def test_crypto_family_sarif_carries_crypto_rule_metadata(tmp_path):
    out = tmp_path / "crypto.sarif"
    code, _text = run(root=snippet_tree(tmp_path, UNSEALED),
                      family="crypto", fmt="sarif", out=str(out),
                      fail_on="never")
    assert code == 0
    payload = json.loads(out.read_text())
    rule_ids = {r["id"]
                for r in payload["runs"][0]["tool"]["driver"]["rules"]}
    assert "CRYPTO-UNSEALED-FIELD" in rule_ids
    assert "CRYPTO-SECRET-TO-LOG" in rule_ids


def test_family_all_sarif_merges_every_family(tmp_path):
    out = tmp_path / "all.sarif"
    code, _text = run(root=snippet_tree(tmp_path, UNSEALED),
                      family="all", fmt="sarif", out=str(out),
                      fail_on="never")
    assert code == 0
    payload = json.loads(out.read_text())
    rule_ids = {r["id"]
                for r in payload["runs"][0]["tool"]["driver"]["rules"]}
    assert "NO-PREAUTH" in rule_ids        # protocol
    assert "DET-WALLCLOCK" in rule_ids     # sim
    assert "CRYPTO-ECB-SEAL" in rule_ids   # crypto


# -- stale baselines ---------------------------------------------------- #


def write_baseline_file(path, fingerprint, rule_id, file):
    path.write_text(json.dumps({
        "version": 1,
        "suppressions": [{
            "fingerprint": fingerprint,
            "rule_id": rule_id,
            "file": file,
            "reason": "test entry",
        }],
    }))


def test_stale_rule_in_baseline_exits_2(tmp_path):
    baseline = tmp_path / "baseline.json"
    write_baseline_file(baseline, "GONE-RULE::v4::proto.py",
                        "GONE-RULE", "proto.py")
    code, text = run(tmp_path, column="v4", baseline=str(baseline))
    assert code == 2
    assert "rule GONE-RULE no longer exists" in text
    assert "refresh the baseline" in text
    assert "--write-baseline" in text


def test_stale_file_in_baseline_exits_2(tmp_path):
    baseline = tmp_path / "baseline.json"
    write_baseline_file(baseline, "NO-PREAUTH::v4::deleted.py",
                        "NO-PREAUTH", "deleted.py")
    code, text = run(tmp_path, column="v4", baseline=str(baseline))
    assert code == 2
    assert "file deleted.py no longer exists" in text
    assert "refresh the baseline" in text


def test_fresh_baseline_entry_still_suppresses(tmp_path):
    # Anchors that do exist sail through the stale gate untouched.
    baseline = tmp_path / "baseline.json"
    code, _text = run(tmp_path, column="v4",
                      write_baseline_path=str(baseline))
    assert code == 0
    code, text = run(root=str(tmp_path), column="v4",
                     baseline=str(baseline))
    assert code == 0
    assert "2 baselined" in text


# -- baseline refresh (--write-baseline over an existing file) ---------- #


def reasons_of(path):
    payload = json.loads(path.read_text())
    return {entry["fingerprint"]: entry["reason"]
            for entry in payload["suppressions"]}


def test_refresh_preserves_hand_written_reasons(tmp_path):
    """Re-running --write-baseline keeps per-entry justifications that
    were edited by hand after the first write."""
    baseline = tmp_path / "baseline.json"
    root = snippet_tree(tmp_path)
    run(root=root, column="v4", write_baseline_path=str(baseline))

    payload = json.loads(baseline.read_text())
    for entry in payload["suppressions"]:
        if entry["rule_id"] == "NO-PREAUTH":
            entry["reason"] = "hand-written: preauth lands in E5"
    baseline.write_text(json.dumps(payload))

    code, text = run(root=root, column="v4",
                     write_baseline_path=str(baseline))
    assert code == 0
    assert "wrote 4 suppressions" in text
    reasons = reasons_of(baseline)
    assert reasons["NO-PREAUTH::v4::proto.py"] == \
        "hand-written: preauth lands in E5"


def test_refresh_drops_retired_entries(tmp_path):
    """Fixing the code and refreshing retires the entry — including
    entries whose rule no longer exists, the stale-gate escape hatch."""
    baseline = tmp_path / "baseline.json"
    root = snippet_tree(tmp_path)
    run(root=root, column="v4", write_baseline_path=str(baseline))
    assert len(reasons_of(baseline)) == 4

    # Retire the rule-id itself: refresh must not choke on it.
    payload = json.loads(baseline.read_text())
    payload["suppressions"].append({
        "fingerprint": "GONE-RULE::v4::proto.py", "rule_id": "GONE-RULE",
        "file": "proto.py", "reason": "from a deleted rule",
    })
    baseline.write_text(json.dumps(payload))

    fixed = "def check(config):\n    return config.preauth_required\n"
    (Path(root) / "proto.py").write_text(fixed)
    code, text = run(root=root, column="v4",
                     write_baseline_path=str(baseline))
    assert code == 0
    reasons = reasons_of(baseline)
    assert "GONE-RULE::v4::proto.py" not in reasons
    assert "NO-REPLAY-CACHE::v4::proto.py" not in reasons


def test_refresh_gives_new_findings_the_default_reason(tmp_path):
    baseline = tmp_path / "baseline.json"
    source = "def check(config):\n    return config.preauth_required\n"
    root = snippet_tree(tmp_path, source)
    run(root=root, column="v4", write_baseline_path=str(baseline))
    assert set(reasons_of(baseline)) == {"NO-PREAUTH::v4::proto.py",
                                         "NO-PREAUTH::v5-draft3::proto.py"}

    (Path(root) / "proto.py").write_text(VULNERABLE)
    code, _text = run(root=root, column="v4",
                      write_baseline_path=str(baseline))
    assert code == 0
    reasons = reasons_of(baseline)
    assert set(reasons) == {"NO-PREAUTH::v4::proto.py",
                            "NO-REPLAY-CACHE::v4::proto.py",
                            "NO-PREAUTH::v5-draft3::proto.py",
                            "NO-REPLAY-CACHE::v5-draft3::proto.py"}
    assert "intentionally" in reasons["NO-REPLAY-CACHE::v4::proto.py"]


@pytest.mark.parametrize("family,column", [
    ("protocol", "all"), ("crypto", "all"), ("all", "v4"),
])
def test_refresh_keeps_every_family_and_column(tmp_path, family, column):
    """One baseline file holds every family and column, so refreshing
    the committed one under any selection rewrites all of its entries,
    hand-written reasons included."""
    committed = REPO_ROOT / "lint-baseline.json"
    copy = tmp_path / "baseline.json"
    copy.write_text(committed.read_text())
    code, _text = run(family=family, column=column,
                      write_baseline_path=str(copy))
    assert code == 0
    # A set: a refresh writes in finding order, not the file's order.
    assert set(reasons_of(copy).items()) == \
        set(reasons_of(committed).items())


def test_refresh_with_corrupt_existing_baseline_exits_2(tmp_path):
    baseline = tmp_path / "baseline.json"
    baseline.write_text("{}")
    code, text = run(tmp_path, column="v4",
                     write_baseline_path=str(baseline))
    assert code == 2
    assert "baseline" in text.lower()
