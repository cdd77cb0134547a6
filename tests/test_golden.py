"""Golden outputs: one seed, the committed bytes.

Each case in ``tools/golden.py`` renders a deterministic output — the
canonical report of a load or monitor run, the attack-matrix and
tri-consistency renders, the wire bytes of one fixed exchange — and
``tests/golden/`` holds the committed copy.  A failure prints every
changed field as a markdown table (path, old value, new value).  When
the change is intended, rewrite the files with
``python tools/golden.py --write`` and record why in the changelog.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_golden():
    path = ROOT / "tools" / "golden.py"
    spec = importlib.util.spec_from_file_location("golden", path)
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(module)
    return module


golden = _load_golden()


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_output_matches_golden_file(name):
    expected = golden.read(name)
    actual = golden.render(name)
    assert actual == expected, golden.field_diff(name, expected, actual)


def test_field_diff_names_each_changed_field():
    old = '{\n "a": {"b": 1, "c": [2, 3]}\n}\n'
    new = '{\n "a": {"b": 1, "c": [2, 4]},\n "d": "x|y"\n}\n'
    table = golden.field_diff("load-engine", old, new)
    assert "| `a.c[1]` | 3 | 4 |" in table
    assert "| `d` | — | x\\|y |" in table
    assert "`a.b`" not in table


def test_field_diff_of_a_text_render_is_per_line():
    table = golden.field_diff("attack-matrix", "same\nold\n", "same\nnew\n")
    assert "| `line 2` | old | new |" in table
    assert "line 1" not in table
