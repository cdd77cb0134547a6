"""The sim rule family: known-bad fixtures fire, fixed twins are silent.

Every rule is exercised against a vulnerable snippet reconstructing a
real hazard (including the two historical bugs the family exists for:
the ``hash()``-based ``DeterministicRandom.fork`` divergence and the
zero-queue-wait de-lag clock advance) plus a fixed twin that must stay
silent.  A final test pins the live tree: ``src/repro`` scans clean
under the sim family, which is what lets CI run it with no baseline.
"""

import pytest

from repro.lint.engine import (
    BASE_EXCLUDES, CodeModel, analyze_repro, analyze_source,
)
from repro.lint.findings import Severity, run_code_rules
from repro.lint.simrules import (
    SIM_COLUMN, SIM_PAPER_SECTION, SIM_RULES, SIM_RULES_BY_ID,
    WALL_BUDGET_FILES,
)


def model_of(source, file="snippet.py"):
    model = CodeModel()
    analyze_source(source, file, model)
    return model


def rule_hits(rule_id, source, file="snippet.py"):
    """Evidence sites the single rule *rule_id* finds in *source*."""
    return SIM_RULES_BY_ID[rule_id].evidence(model_of(source, file))


# rule id -> (vulnerable snippet, fixed twin)
CASES = {
    "DET-WALLCLOCK": (
        "import time\n"
        "def stamp(report):\n"
        "    report['at'] = time.time()\n"
        "    report['t0'] = time.perf_counter()\n",

        "def stamp(report, clock):\n"
        "    report['at'] = clock.now()\n",
    ),
    "DET-HASH-SEED": (
        # The PR-7 fork bug, reconstructed: hash() is salted per
        # process, so the forked child stream differed across workers.
        "class DeterministicRandom:\n"
        "    def fork(self, label):\n"
        "        seed = self._random.getrandbits(64) ^ hash(label)\n"
        "        return DeterministicRandom(seed)\n",

        "class DeterministicRandom:\n"
        "    def fork(self, label):\n"
        "        seed = self._random.getrandbits(64) ^ crc32(label)\n"
        "        return DeterministicRandom(seed)\n",
    ),
    "DET-UNORDERED-ITER": (
        "def render(shards):\n"
        "    pending = set(shards)\n"
        "    lines = []\n"
        "    for shard in pending:\n"
        "        lines.append(shard)\n"
        "    return lines\n",

        "def render(shards):\n"
        "    pending = set(shards)\n"
        "    lines = []\n"
        "    for shard in sorted(pending):\n"
        "        lines.append(shard)\n"
        "    return lines\n",
    ),
    "SCHED-ADVANCE-IN-PROCESS": (
        # The zero-queue-wait de-lag bug: a process advancing the clock
        # directly desynchronises it from the event heap.
        "def unit_process(clock, sched):\n"
        "    yield wait(10)\n"
        "    clock.advance(250)\n",

        "def unit_process(clock, sched):\n"
        "    yield wait(10)\n"
        "    yield wait(250)\n",
    ),
    "SCHED-TIMER-NO-CANCEL": (
        "def request(sched):\n"
        "    failsafe = sched.after(100, giveup)\n"
        "    yield wait(50)\n",

        "def request(sched):\n"
        "    failsafe = sched.after(100, giveup)\n"
        "    yield wait(50)\n"
        "    failsafe.cancel()\n",
    ),
    "SCHED-YIELD-NON-COMMAND": (
        "def proc():\n"
        "    yield wait(10)\n"
        "    yield 42\n",

        "def proc(other):\n"
        "    yield wait(10)\n"
        "    yield from other\n",
    ),
}


def test_every_sim_rule_has_a_case():
    assert set(CASES) == set(SIM_RULES_BY_ID)


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_vulnerable_snippet_fires(rule_id):
    vuln_src, _fixed_src = CASES[rule_id]
    assert rule_hits(rule_id, vuln_src), rule_id


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_fixed_twin_is_silent(rule_id):
    _vuln_src, fixed_src = CASES[rule_id]
    assert not rule_hits(rule_id, fixed_src), rule_id


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_no_cross_fire(rule_id):
    """A rule's vulnerable snippet trips only its own rule: the
    fixtures are minimal, so any extra finding is a precision bug."""
    vuln_src, _fixed = CASES[rule_id]
    findings = run_code_rules(SIM_RULES, model_of(vuln_src), SIM_COLUMN,
                              SIM_PAPER_SECTION)
    assert {f.rule_id for f in findings} == {rule_id}


# -- rule-specific edges ------------------------------------------------ #


def test_wallclock_allowlist_exempts_budget_files():
    vuln_src = CASES["DET-WALLCLOCK"][0]
    budget_file = sorted(WALL_BUDGET_FILES)[0]
    assert not rule_hits("DET-WALLCLOCK", vuln_src, file=budget_file)


def test_datetime_now_is_a_wall_read():
    src = ("import datetime\n"
           "def stamp():\n"
           "    return datetime.datetime.now()\n")
    assert rule_hits("DET-WALLCLOCK", src)


def test_seeded_random_instance_is_blessed():
    src = ("import random\n"
           "def rng_for(seed):\n"
           "    return random.Random(seed)\n")
    assert not rule_hits("DET-HASH-SEED", src)


def test_module_level_random_draw_fires():
    src = ("import random\n"
           "def jitter():\n"
           "    return random.randint(0, 10)\n")
    hits = rule_hits("DET-HASH-SEED", src)
    assert hits and "random.randint" in hits[0][2]


def test_unordered_reaching_scheduler_primitive():
    src = ("def arm(sched, addrs):\n"
           "    down = set(addrs)\n"
           "    sched.spawn(down)\n")
    hits = rule_hits("DET-UNORDERED-ITER", src)
    assert hits and "scheduler primitive" in hits[0][2]


def test_order_insensitive_reducers_are_exempt():
    src = ("def count(shards):\n"
           "    pending = set(shards)\n"
           "    return sum(1 for s in pending if s)\n")
    assert not rule_hits("DET-UNORDERED-ITER", src)


def test_advance_outside_a_process_is_fine():
    src = ("def make_message(clock):\n"
           "    clock.advance(250)\n"
           "    return clock.now()\n")
    assert not rule_hits("SCHED-ADVANCE-IN-PROCESS", src)


def test_discarded_timer_handle_fires():
    src = ("def request(sched):\n"
           "    sched.after(100, giveup)\n"
           "    yield wait(50)\n")
    hits = rule_hits("SCHED-TIMER-NO-CANCEL", src)
    assert hits and "discards" in hits[0][2]


def test_timer_outside_a_process_is_fine():
    src = ("def calendar(sched):\n"
           "    sched.after(100, tick)\n")
    assert not rule_hits("SCHED-TIMER-NO-CANCEL", src)


def test_sched_cancel_call_counts_as_cancellation():
    src = ("def request(sched):\n"
           "    failsafe = sched.after(100, giveup)\n"
           "    yield wait(50)\n"
           "    sched.cancel(failsafe)\n")
    assert not rule_hits("SCHED-TIMER-NO-CANCEL", src)


def test_recv_is_not_a_scheduler_command():
    """The scheduler's only command is wait(): a process that yields a
    recv() would raise TypeError at runtime, so the rule fires."""
    src = ("def proc(ch):\n"
           "    yield wait(10)\n"
           "    yield recv(ch)\n")
    hits = rule_hits("SCHED-YIELD-NON-COMMAND", src)
    assert [line for _file, line, _msg in hits] == [3]


def test_plain_generator_is_not_a_process():
    src = ("def numbers():\n"
           "    yield 1\n"
           "    yield 2\n")
    assert not rule_hits("SCHED-YIELD-NON-COMMAND", src)


# -- registry and findings shape ---------------------------------------- #


def test_registry_ids_unique_and_described():
    ids = [rule.rule_id for rule in SIM_RULES]
    assert len(ids) == len(set(ids))
    for rule in SIM_RULES:
        assert rule.title
        assert rule.description
        assert rule.severity in (Severity.ERROR, Severity.WARNING)


def test_findings_one_per_evidence_site():
    src = ("import time\n"
           "def a():\n"
           "    return time.time()\n"
           "def b():\n"
           "    return time.perf_counter()\n")
    findings = run_code_rules(SIM_RULES, model_of(src), SIM_COLUMN,
                              SIM_PAPER_SECTION)
    assert [f.rule_id for f in findings] == ["DET-WALLCLOCK"] * 2
    assert len({f.line for f in findings}) == 2
    for f in findings:
        assert f.column == SIM_COLUMN
        assert f.paper_section == "Reproducibility"


def test_live_tree_scans_clean():
    """src/repro itself carries no determinism hazards: this is the
    invariant that lets CI run the sim family with no baseline."""
    model = analyze_repro(exclude=BASE_EXCLUDES)
    assert model.errors == []
    assert run_code_rules(SIM_RULES, model, SIM_COLUMN,
                          SIM_PAPER_SECTION) == []
