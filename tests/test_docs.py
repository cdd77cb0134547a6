"""The documentation is part of the deliverable — pin it to the code.

Three gates, mirroring the CI ``docs`` job:

* every relative link and ``#anchor`` in README.md and docs/*.md
  resolves, and so does every repo path named in an inline code span
  (``tools/linkcheck.py``);
* the CLI option tables in docs/cli.md match the live argparse tree
  (``repro.clidoc``) — regenerate with ``python -m repro.clidoc
  --write`` after changing a flag;
* the attack catalogue names every matrix scenario and every lint
  rule, so a new finding cannot land without its documentation.
"""

import importlib.util
import pathlib

from repro import clidoc
from repro.lint.rules import RULES, UNREAD_FLAG_RULE_ID
from repro.suite import SCENARIOS

ROOT = pathlib.Path(__file__).parent.parent
CATALOGUE = ROOT / "docs" / "attack_catalogue.md"
CLI_DOC = ROOT / "docs" / "cli.md"


def _load_linkcheck():
    path = ROOT / "tools" / "linkcheck.py"
    spec = importlib.util.spec_from_file_location("linkcheck", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_all_doc_links_resolve(capsys):
    linkcheck = _load_linkcheck()
    assert linkcheck.main([]) == 0, capsys.readouterr().out


def test_linkcheck_catches_breakage(tmp_path, capsys):
    bad = tmp_path / "bad.md"
    bad.write_text(
        "# Title\n\n[gone](missing.md) [nowhere](#absent) [ok](#title)\n",
        encoding="utf-8",
    )
    linkcheck = _load_linkcheck()
    assert linkcheck.main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "missing.md" in out and "#absent" in out and "#title" not in out


def test_linkcheck_catches_missing_code_span_paths(tmp_path, capsys):
    doc = tmp_path / "paths.md"
    doc.write_text(
        "# Title\n\n"
        "`repro/gone/module.py` `kerberos/validation.py::ReplayCache`"
        " `tools/linkcheck.py` `replay-cache/check`\n\n"
        "```console\n`fenced/missing.py`\n```\n",
        encoding="utf-8",
    )
    linkcheck = _load_linkcheck()
    assert linkcheck.main([str(doc)]) == 1
    out = capsys.readouterr().out
    assert "repro/gone/module.py" in out
    assert "validation.py" not in out and "linkcheck.py'" not in out
    assert "replay-cache" not in out and "fenced/missing.py" not in out


def test_linkcheck_ignores_fenced_code(tmp_path, capsys):
    fenced = tmp_path / "fenced.md"
    fenced.write_text(
        "# Title\n\n```console\n[not a link](missing.md)\n```\n",
        encoding="utf-8",
    )
    linkcheck = _load_linkcheck()
    assert linkcheck.main([str(fenced)]) == 0


def test_cli_doc_has_no_drift():
    text = CLI_DOC.read_text(encoding="utf-8")
    assert clidoc.apply(text) == text, (
        "docs/cli.md is stale; run `python -m repro.clidoc --write`"
    )


def test_cli_doc_covers_every_subcommand():
    text = CLI_DOC.read_text(encoding="utf-8")
    for name in clidoc.command_tables():
        assert f"<!-- cli:{name}:begin -->" in text
        assert f"## {name}\n" in text


def test_catalogue_names_every_scenario():
    text = CATALOGUE.read_text(encoding="utf-8")
    for scenario in SCENARIOS:
        assert f"## {scenario.name}\n" in text, scenario.name


def test_catalogue_names_every_lint_rule():
    text = CATALOGUE.read_text(encoding="utf-8")
    for rule_id in sorted({r.rule_id for r in RULES} | {UNREAD_FLAG_RULE_ID}):
        assert f"`{rule_id}`" in text, rule_id
