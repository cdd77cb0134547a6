"""The ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main, _EXPERIMENTS


def test_experiments_listing(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    assert "E26" in out and "ablation" in out
    assert f"{len(_EXPERIMENTS)} experiments" in out


def test_notation(capsys):
    assert main(["notation"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "{Tc,s}Ks" in out


def test_demo(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "OK stored" in out
    assert "Ticket cache for demo" in out
    assert "kerberos" in out  # the wire trace


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["bogus"])


def test_audit_prints_event_log_and_verdict(capsys):
    assert main(["audit", "authenticator replay", "--column", "hardened"]) == 0
    out = capsys.readouterr().out
    assert "defender event log:" in out
    assert "WireCrossing" in out
    assert "ReplayCacheHit" in out  # the hardened profile notices
    assert "detectability: ReplayCacheHit" in out
    assert "traces: 5, 1 with anomalies" in out  # the replay's trace


def test_audit_reports_silent_wins(capsys):
    assert main(["audit", "trojaned login", "--column", "v4"]) == 0
    out = capsys.readouterr().out
    assert "the paper's worst case" in out


def test_audit_jsonl_correlates_with_adversary_log(tmp_path, monkeypatch):
    """Acceptance: the emitted JSONL's WireCrossing events match the
    run's adversary wire log 1:1 by seq."""
    from repro.obs import correlate_with_wire_log, read_jsonl
    from repro.sim.network import Adversary

    seen = []
    original = Adversary.observe

    def spy(self, message):
        seen.append(message)
        return original(self, message)

    monkeypatch.setattr(Adversary, "observe", spy)
    path = tmp_path / "audit.jsonl"
    assert main(["audit", "eavesdrop + crack", "--jsonl", str(path)]) == 0
    events = read_jsonl(str(path))
    assert any(e.kind == "WireCrossing" for e in events)
    correlation = correlate_with_wire_log(events, seen)
    assert correlation.one_to_one
    assert correlation.matched > 0


def test_audit_rejects_unknown_scenario(capsys):
    assert main(["audit", "no-such-attack"]) == 2
    assert "unknown" in capsys.readouterr().out


def test_audit_rejects_ambiguous_substring(capsys):
    assert main(["audit", "replay"]) == 2
    out = capsys.readouterr().out
    assert "ambiguous" in out and "authenticator replay" in out


def test_audit_rejects_unwritable_jsonl_path(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "x.jsonl"
    assert main(["audit", "eavesdrop + crack", "--jsonl", str(missing)]) == 2
    assert "cannot write JSONL" in capsys.readouterr().out


def test_audit_rejects_unknown_column(capsys):
    assert main(["audit", "trojaned login", "--column", "v9"]) == 2
    assert "unknown column" in capsys.readouterr().out


def test_experiment_ids_are_sequential():
    ids = [int(eid[1:]) for eid, _t, _b in _EXPERIMENTS]
    assert ids == list(range(1, len(_EXPERIMENTS) + 1))
