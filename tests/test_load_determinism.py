"""Same seed, same bytes: the load harness double-run witness.

The acceptance bar for the whole determinism family is dynamic: run
``load --quick`` and ``load --principals 20000 --quick`` each twice
in-process with the same seed and each pair of serialized reports (on
their deterministic surface — wall-time throughput lines are
informational by contract) must be byte-identical.
These tests drive :mod:`repro.lint.simconsistency` directly, including
the canonicalisation rules the comparison depends on.
"""

from repro.lint.simconsistency import (
    DeterminismReport, canonical_report_bytes, check_determinism,
)
from repro.load import run_load


def test_canonical_bytes_strip_the_nondeterministic_surface():
    report = {
        "ops": 7,
        "wall_seconds": 1.23,
        "ops_per_wall_s": 5.7,
        "written_to": "/tmp/x.json",
        "python": "3.11.7",
        "_model": object(),
        "nested": {"latency_us": [1, 2], "wall_seconds": 9.9, "_raw": []},
    }
    assert canonical_report_bytes(report) == \
        b'{"nested":{"latency_us":[1,2]},"ops":7}'


def test_canonical_bytes_are_order_independent():
    assert canonical_report_bytes({"a": 1, "b": 2}) == \
        canonical_report_bytes({"b": 2, "a": 1})


def test_scale_reports_byte_identical_across_runs():
    """The satellite's core claim: two same-seed 20k-principal quick
    runs serialize identically byte for byte."""
    runs = [
        canonical_report_bytes(
            run_load(principals=20000, seed=0, quick=True, out_path=None)
        )
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_engine_reports_byte_identical_across_runs():
    """Engine mode runs the same unit driver, so it carries the same
    claim: two same-seed quick runs serialize identically."""
    runs = [
        canonical_report_bytes(run_load(seed=0, quick=True, out_path=None))
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_check_determinism_agrees_on_clean_tree():
    report = check_determinism(static_findings=0)
    assert report.identical, report.first_divergence
    assert report.agrees
    assert "byte-identical" in report.render()
    assert "agree" in report.render()
    assert "engine mode" in report.render()


def test_check_determinism_names_the_mode_that_diverged(monkeypatch):
    import repro.load

    calls = []

    def fake_run_load(principals=None, **_kwargs):
        calls.append(principals)
        # Scale mode is stable; engine mode leaks a run counter.
        return {"ops": 7 if principals else len(calls)}

    monkeypatch.setattr(repro.load, "run_load", fake_run_load)
    report = check_determinism(static_findings=0, principals=500)
    assert calls == [None, None, 500, 500]
    assert not report.identical and not report.agrees
    assert report.first_divergence.startswith("engine mode: ")
    assert "scale mode" not in report.first_divergence


def test_disagreement_is_reported_not_hidden():
    report = DeterminismReport(
        principals=1, seed=0, static_findings=3, identical=True,
        first_divergence="",
    )
    assert not report.agrees
    assert "DISAGREE" in report.render()


def test_divergence_pointer_names_the_first_differing_byte():
    report = DeterminismReport(
        principals=1, seed=0, static_findings=0, identical=False,
        first_divergence="equal lengths (10 bytes, first difference "
                         "at byte 4)",
    )
    assert not report.agrees
    assert "byte 4" in report.render()
