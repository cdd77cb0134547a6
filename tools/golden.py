"""Golden outputs: the committed bytes of a fixed set of seeded runs.

One seed always produces the same bytes, so a refactor that claims
"report bytes unchanged" can be checked instead of argued.  Each case
below renders one deterministic output; ``tests/golden/`` holds the
committed copy, and ``tests/test_golden.py`` fails on any difference.

* the canonical report (``canonical_report_bytes``: wall-time fields,
  the output path, the interpreter version and ``_``-prefixed helper
  objects dropped) of four load runs — engine mode quick with two
  shards, engine mode default, and the million-principal scale model
  with and without the shard outage — and of one traced monitor run,
  re-indented one field per line so a change reads as a line diff;
* the attack-matrix render and the tri-consistency render;
* the wire bytes and ``BLOCK_OPS`` count of one fixed exchange (login,
  service ticket, AP exchange and one private ``COUNT`` call on a V5
  Draft 3 testbed);
* the SARIF log of ``lint --family all --baseline lint-baseline.json``
  with each result's ``region.startLine`` dropped, so an edit that only
  moves a finding's anchor line leaves it alone.

On a mismatch :func:`field_diff` prints one row per changed field
(path, old value, new value) as a markdown table, ready to paste into a
changelog.

Usage::

    python tools/golden.py            # check every case; exit 1 on drift
    python tools/golden.py --write    # rewrite the files that changed

Rewrite only when a change to the bytes is intended, and say why in
the changelog: the rewritten files then show the change in review.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"


def _report_text(report: Dict[str, Any]) -> str:
    from repro.lint.simconsistency import canonical_report_bytes

    canonical = json.loads(canonical_report_bytes(report))
    return json.dumps(canonical, indent=1) + "\n"


def _load(**kwargs: Any) -> str:
    from repro.load import run_load

    return _report_text(run_load(out_path=None, **kwargs))


def _monitor() -> str:
    from repro.monitor import run_monitor

    return _report_text(run_monitor(requests=150, seed=1))


def _matrix_render() -> str:
    from repro.suite import run_attack_matrix

    return run_attack_matrix().render() + "\n"


def _tri_render() -> str:
    from repro.check.consistency import check_tri_consistency

    return check_tri_consistency().render() + "\n"


def _exchange() -> str:
    from repro.crypto.des import BLOCK_OPS
    from repro.kerberos.config import ProtocolConfig
    from repro.testbed import Testbed

    bed = Testbed(ProtocolConfig.v5_draft3(), seed=0)
    bed.add_user("alice", "pw-alice")
    mail = bed.add_mail_server("mailhost")
    ws = bed.add_workstation("ws1")
    ops_before = BLOCK_OPS.count
    outcome = bed.login("alice", "pw-alice", ws)
    cred = outcome.client.get_service_ticket(mail.principal)
    session = outcome.client.ap_exchange(cred, bed.endpoint(mail))
    reply = session.call(b"COUNT")
    record = {
        "block_ops": BLOCK_OPS.count - ops_before,
        "reply": reply.hex(),
        "messages": [
            {
                "seq": message.seq,
                "service": message.dst.service,
                "direction": message.direction,
                "src": message.src_address,
                "dst": message.delivered_to,
                "time": message.time,
                "payload": message.payload.hex(),
            }
            for message in bed.adversary.log
        ],
    }
    return json.dumps(record, indent=1) + "\n"


def _lint_sarif() -> str:
    from repro.lint.cli import run_lint

    lines: List[str] = []
    run_lint(fmt="sarif", family="all",
             baseline=str(ROOT / "lint-baseline.json"), echo=lines.append)
    log = json.loads("\n".join(lines))
    for result in log["runs"][0]["results"]:
        for location in result["locations"]:
            del location["physicalLocation"]["region"]["startLine"]
    return json.dumps(log, indent=1, sort_keys=True) + "\n"


#: Case name -> (file under tests/golden/, renderer).
CASES: Dict[str, Tuple[str, Callable[[], str]]] = {
    "load-engine-quick": (
        "load_engine_quick_shards2_seed0.json",
        lambda: _load(quick=True, shards=2, seed=0)),
    "load-engine": ("load_engine_seed0.json", lambda: _load(seed=0)),
    "load-scale-faults": (
        "load_scale_1m_req400_cap256_seed1.json",
        lambda: _load(principals=1_000_000, requests=400,
                      replay_cache_capacity=256, seed=1)),
    "load-scale-no-faults": (
        "load_scale_1m_req400_cap256_seed1_nofaults.json",
        lambda: _load(principals=1_000_000, requests=400,
                      replay_cache_capacity=256, seed=1, faults=False)),
    "monitor": ("monitor_req150_seed1.json", _monitor),
    "attack-matrix": ("attack_matrix.txt", _matrix_render),
    "tri-consistency": ("tri_consistency.txt", _tri_render),
    "exchange-wire": ("exchange_v5_draft3_seed0.json", _exchange),
    "lint-sarif": ("lint_all_baselined.sarif.json", _lint_sarif),
}


def path_of(name: str) -> pathlib.Path:
    return GOLDEN_DIR / CASES[name][0]


def render(name: str) -> str:
    return CASES[name][1]()


def read(name: str) -> Optional[str]:
    path = path_of(name)
    return path.read_text(encoding="utf-8") if path.exists() else None


def _flatten(value: Any, prefix: str, out: Dict[str, Any]) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(sub, f"{prefix}.{key}" if prefix else str(key), out)
    elif isinstance(value, list):
        for index, sub in enumerate(value):
            _flatten(sub, f"{prefix}[{index}]", out)
    else:
        out[prefix] = value


def _fields(name: str, text: str) -> Dict[str, Any]:
    """Leaf path -> value: JSON leaves, or one entry per text line."""
    if CASES[name][0].endswith(".json"):
        flat: Dict[str, Any] = {}
        _flatten(json.loads(text), "", flat)
        return flat
    return {f"line {number}": line
            for number, line in enumerate(text.splitlines(), 1)}


def field_diff(name: str, old: Optional[str], new: str) -> str:
    """A markdown table of every field that differs, old vs new."""
    if old is None:
        return f"{name}: no golden file at {path_of(name)}"
    before, after = _fields(name, old), _fields(name, new)
    rows: List[str] = []
    for path in sorted(set(before) | set(after)):
        a, b = before.get(path, "—"), after.get(path, "—")
        if a != b:
            cells = (str(cell).replace("|", "\\|") for cell in (a, b))
            rows.append(f"| `{path}` | " + " | ".join(cells) + " |")
    return "\n".join([f"{name} ({CASES[name][0]}) changed:",
                      "", "| field | old | new |", "|---|---|---|", *rows])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite every golden file that changed")
    args = parser.parse_args(argv)
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    drifted = 0
    for name in CASES:
        old, new = read(name), render(name)
        if old == new:
            continue
        drifted += 1
        print(field_diff(name, old, new) + "\n")
        if args.write:
            path_of(name).parent.mkdir(parents=True, exist_ok=True)
            path_of(name).write_text(new, encoding="utf-8")
            print(f"wrote {path_of(name).relative_to(ROOT)}\n")
    print(f"{len(CASES) - drifted}/{len(CASES)} golden outputs unchanged")
    return 1 if drifted and not args.write else 0


if __name__ == "__main__":
    sys.exit(main())
