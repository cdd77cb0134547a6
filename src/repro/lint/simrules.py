"""The determinism / scheduler-safety rule family (``--family sim``).

The paper's attack matrix is only evidence because every run of the
testbed is bit-identical under a fixed seed.  PR 7's discrete-event
scheduler created a new way to silently lose that property — the
``hash()``-based ``DeterministicRandom.fork`` bug was found by accident,
not by tooling — so this module gives the simulation stack the same
Engler-style static layer the protocol code got in
:mod:`repro.lint.rules`.

Unlike the protocol family, these rules are **config-independent**:
determinism is a property of the code, not of a
:class:`~repro.kerberos.config.ProtocolConfig` column, so every finding
is reported under the single :data:`SIM_COLUMN` label and every
evidence site becomes its own finding (a wall-clock read on line 40
and another on line 90 are two separate bugs to fix).

Six rules, each backed by a fact family the engine records
(:class:`~repro.lint.engine.DottedCall`,
:class:`~repro.lint.engine.YieldSite`,
:class:`~repro.lint.engine.TimerCreate` /
:class:`~repro.lint.engine.TimerCancel`,
:class:`~repro.lint.engine.UnorderedFlow`):

``DET-WALLCLOCK``
    A wall-clock read (``time.time``/``perf_counter``/
    ``datetime.now``...) outside the wall-budget allowlist — the files
    whose *job* is to measure host wall time (perf harness, load
    harness throughput lines, monitor overhead guard).  Anywhere else,
    wall time feeding behavior means two runs can diverge.
``DET-HASH-SEED``
    ``hash()`` (salted per process by ``PYTHONHASHSEED``) or a
    module-level ``random.*`` draw (the process-shared, unseeded
    generator) feeding simulation behavior.  This is the reconstructed
    PR-7 fork bug: ``seed ^ hash(label)`` derived a different child
    stream every process.  Seeded ``random.Random(seed)`` instances
    are fine and do not match.
``DET-UNORDERED-ITER``
    An unordered value (``set``/``frozenset``) iterated in an
    order-sensitive position or handed to a scheduler primitive.
    CPython set iteration order depends on insertion history and hash
    salting; piping it into event order or report order makes output
    run-dependent.  ``sorted(...)`` cleanses; order-insensitive
    reducers (``any``/``len``/``sum``...) are exempt sinks.
``SCHED-ADVANCE-IN-PROCESS``
    ``clock.advance*()`` called inside a scheduler process (a
    generator that yields ``wait``/``recv`` commands).  Processes must
    ``yield wait(...)`` and let the event loop advance time; a direct
    advance desynchronises the clock from the event heap (the
    zero-queue-wait de-lag retrofit bug).
``SCHED-TIMER-NO-CANCEL``
    A process arms a timer (``<sched>.at/after``) but either discards
    the returned :class:`~repro.sim.sched.Timer` or never cancels it
    anywhere in the file: the orphaned callback fires into state the
    process has already moved past.
``SCHED-YIELD-NON-COMMAND``
    A scheduler process yields something that is not a
    ``wait()``/``recv()`` command (``yield from`` delegation is fine).
    The scheduler raises ``TypeError`` at runtime; this catches it
    before the path is ever exercised.

The static verdict is pinned by a dynamic witness:
:mod:`repro.lint.simconsistency` runs the scale-mode load harness
twice with the same seed and asserts byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Tuple

from repro.lint.engine import CodeModel, DottedCall
from repro.lint.findings import Finding, Severity

__all__ = [
    "SIM_COLUMN", "SIM_PAPER_SECTION", "SIM_SCAN_EXCLUDES",
    "WALL_BUDGET_FILES", "SimRule", "SIM_RULES", "SIM_RULES_BY_ID",
    "run_sim_rules", "sim_sarif_rules",
]

#: Column label on every sim-family finding (the family is
#: config-independent, so there is exactly one "column").
SIM_COLUMN = "(sim)"

#: The paper anchors its reproducibility claim in the methodology of
#: re-deriving the attack matrix; sim findings all cite that.
SIM_PAPER_SECTION = "Reproducibility"

#: Subtrees skipped when the sim family scans ``src/repro``.  Narrower
#: than the protocol family's excludes on purpose: ``serve``, ``load``,
#: ``obs`` and the CLI front door are exactly the code under test here.
SIM_SCAN_EXCLUDES: Tuple[str, ...] = ("attacks", "lint", "check")

#: Files allowed to read the host wall clock: their job is to measure
#: it (and they label the result informational, outside the
#: deterministic report surface).
WALL_BUDGET_FILES: FrozenSet[str] = frozenset({
    "src/repro/perf.py",
    "src/repro/load.py",
    "src/repro/monitor.py",
    "src/repro/crack.py",
})

Evidence = Tuple[str, int, str]          # (file, line, message)
EvidenceQuery = Callable[[CodeModel], List[Evidence]]


@dataclass(frozen=True)
class SimRule:
    """One determinism/scheduler-safety hazard, as a checkable rule."""

    rule_id: str
    severity: Severity
    title: str
    description: str
    evidence: EvidenceQuery


# --------------------------------------------------------------------- #
# evidence queries
# --------------------------------------------------------------------- #

_WALL_CALLEES: FrozenSet[str] = frozenset({
    "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
    "process_time", "process_time_ns", "thread_time", "thread_time_ns",
    "time_ns", "clock_gettime", "clock_gettime_ns",
})

_DATETIME_NOW: FrozenSet[str] = frozenset({"now", "utcnow", "today"})

#: Module-level draws on the shared, unseeded ``random`` generator.
#: ``random.Random`` (constructing a *seeded* instance) is absent on
#: purpose: that is the blessed deterministic idiom.
_RANDOM_DRAWS: FrozenSet[str] = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "getrandbits", "gauss", "randbytes", "seed",
    "triangular", "betavariate", "expovariate", "gammavariate",
    "lognormvariate", "normalvariate", "vonmisesvariate",
    "paretovariate", "weibullvariate",
})

_ADVANCE_CALLEES: FrozenSet[str] = frozenset({
    "advance", "advance_to", "advance_seconds", "advance_minutes",
})


def _is_wall_read(call: DottedCall) -> bool:
    parts = call.parts
    last = parts[-1]
    if last in _WALL_CALLEES:
        return True
    if (last == "time" and len(parts) >= 2
            and parts[-2].lstrip("_") == "time"):
        return True
    if last in _DATETIME_NOW:
        return any(p.lstrip("_") in ("datetime", "date")
                   for p in parts[:-1])
    return False


def _wallclock_evidence(model: CodeModel) -> List[Evidence]:
    out: List[Evidence] = []
    for call in model.dotted_calls:
        if call.file in WALL_BUDGET_FILES:
            continue
        if _is_wall_read(call):
            out.append((call.file, call.line, (
                f"wall-clock read {call.dotted}() outside the "
                "wall-budget allowlist: host time differs between runs; "
                "use the simulation clock"
            )))
    return sorted(out)


def _hash_seed_evidence(model: CodeModel) -> List[Evidence]:
    out: List[Evidence] = []
    for call in model.dotted_calls:
        parts = call.parts
        if call.dotted == "hash":
            out.append((call.file, call.line, (
                "hash() is salted per process (PYTHONHASHSEED): its "
                "value must never feed simulation behavior (the "
                "DeterministicRandom.fork bug)"
            )))
        elif (len(parts) == 2 and parts[0] == "random"
                and parts[1] in _RANDOM_DRAWS):
            out.append((call.file, call.line, (
                f"random.{parts[1]}() draws from the process-shared "
                "unseeded generator; draw from a seeded "
                "DeterministicRandom instead"
            )))
    return sorted(out)


def _unordered_evidence(model: CodeModel) -> List[Evidence]:
    out: List[Evidence] = []
    for flow in model.unordered_flows:
        if flow.sink == "scheduling":
            what = ("handed to a scheduler primitive: iteration order "
                    "becomes event order")
        else:
            what = ("iterated in an order-sensitive position: set order "
                    "depends on insertion history and hash salting")
        label = "a set expression" if flow.name == "<set>" else \
            f"unordered value '{flow.name}'"
        out.append((flow.file, flow.line,
                    f"{label} {what}; sort it first"))
    return sorted(out)


def _advance_evidence(model: CodeModel) -> List[Evidence]:
    processes = model.process_functions()
    out: List[Evidence] = []
    for call in model.dotted_calls:
        if call.parts[-1] not in _ADVANCE_CALLEES:
            continue
        if (call.file, call.function) not in processes:
            continue
        out.append((call.file, call.line, (
            f"{call.dotted}() inside scheduler process "
            f"{call.function}: processes must `yield wait(...)` and "
            "let the event loop advance time"
        )))
    return sorted(out)


def _timer_evidence(model: CodeModel) -> List[Evidence]:
    processes = model.process_functions()
    cancelled = {(c.file, c.target) for c in model.timer_cancels}
    out: List[Evidence] = []
    for create in model.timer_creates:
        if (create.file, create.function) not in processes:
            continue
        if create.target == "":
            out.append((create.file, create.line, (
                f"process {create.function} arms a timer and discards "
                "the Timer handle: it can never be cancelled"
            )))
        elif (create.file, create.target) not in cancelled:
            out.append((create.file, create.line, (
                f"timer '{create.target}' armed in process "
                f"{create.function} is never cancelled in this file: "
                "the orphaned callback fires into stale state"
            )))
    return sorted(out)


def _yield_evidence(model: CodeModel) -> List[Evidence]:
    processes = model.process_functions()
    out: List[Evidence] = []
    for site in model.yields:
        if site.command != "other":
            continue
        if (site.file, site.function) not in processes:
            continue
        out.append((site.file, site.line, (
            f"process {site.function} yields a non-command value; "
            "scheduler processes may only yield wait()/recv() "
            "commands (or delegate via `yield from`)"
        )))
    return sorted(out)


# --------------------------------------------------------------------- #
# the registry
# --------------------------------------------------------------------- #


SIM_RULES: Tuple[SimRule, ...] = (
    SimRule(
        rule_id="DET-WALLCLOCK",
        severity=Severity.ERROR,
        title="Wall-clock read outside the wall-budget allowlist",
        description=(
            "Host wall-clock reads (time.time, perf_counter, "
            "datetime.now...) differ between runs, so any behavior "
            "they feed breaks seed-determinism.  Only the perf/load/"
            "monitor measurement files may read wall time, and only "
            "for informational throughput lines outside the "
            "deterministic report surface."
        ),
        evidence=_wallclock_evidence,
    ),
    SimRule(
        rule_id="DET-HASH-SEED",
        severity=Severity.ERROR,
        title="hash() or unseeded random feeding behavior",
        description=(
            "hash() is salted per process (PYTHONHASHSEED) and "
            "module-level random.* draws come from a process-shared "
            "unseeded generator: both reconstruct the "
            "DeterministicRandom.fork nondeterminism the scheduler "
            "refactor shipped.  Derive randomness from a seeded "
            "random.Random (or DeterministicRandom) only."
        ),
        evidence=_hash_seed_evidence,
    ),
    SimRule(
        rule_id="DET-UNORDERED-ITER",
        severity=Severity.WARNING,
        title="Unordered set iteration reaches an order-sensitive sink",
        description=(
            "Iterating a set/frozenset in an order-sensitive position "
            "— or handing one to a scheduler primitive — turns "
            "CPython's salted, insertion-dependent set order into "
            "event order or report order.  Sort first; reducers like "
            "any()/len()/sum()/sorted() are exempt sinks."
        ),
        evidence=_unordered_evidence,
    ),
    SimRule(
        rule_id="SCHED-ADVANCE-IN-PROCESS",
        severity=Severity.ERROR,
        title="clock.advance() called inside a scheduler process",
        description=(
            "A generator process that advances the clock directly "
            "desynchronises simulated time from the event heap — "
            "timers fire late or never (the zero-queue-wait de-lag "
            "bug).  Processes express the passage of time exclusively "
            "as `yield wait(delay)`."
        ),
        evidence=_advance_evidence,
    ),
    SimRule(
        rule_id="SCHED-TIMER-NO-CANCEL",
        severity=Severity.WARNING,
        title="Process arms a timer with no cancellation path",
        description=(
            "A timer armed inside a process whose Timer handle is "
            "discarded, or never passed to .cancel() anywhere in the "
            "file, keeps firing after the process has moved on — the "
            "callback mutates state that no longer expects it."
        ),
        evidence=_timer_evidence,
    ),
    SimRule(
        rule_id="SCHED-YIELD-NON-COMMAND",
        severity=Severity.ERROR,
        title="Scheduler process yields a non-command value",
        description=(
            "The scheduler only understands wait()/recv() commands; "
            "yielding anything else raises TypeError at runtime, "
            "typically down a rarely-exercised branch.  `yield from` "
            "delegation to another process is allowed."
        ),
        evidence=_yield_evidence,
    ),
)

SIM_RULES_BY_ID: Dict[str, SimRule] = {
    rule.rule_id: rule for rule in SIM_RULES
}


# --------------------------------------------------------------------- #
# running rules
# --------------------------------------------------------------------- #


def run_sim_rules(model: CodeModel) -> List[Finding]:
    """Every sim-family finding over *model*, one per evidence site."""
    findings: List[Finding] = []
    for rule in SIM_RULES:
        for file, line, message in rule.evidence(model):
            findings.append(Finding(
                rule_id=rule.rule_id,
                severity=rule.severity,
                message=message,
                file=file,
                line=line,
                column=SIM_COLUMN,
                paper_section=SIM_PAPER_SECTION,
            ))
    return findings


def sim_sarif_rules() -> List[Dict[str, Any]]:
    """SARIF ``tool.driver.rules`` metadata for the sim family."""
    rules: List[Dict[str, Any]] = []
    for rule in SIM_RULES:
        rules.append({
            "id": rule.rule_id,
            "name": rule.rule_id.title().replace("-", ""),
            "shortDescription": {"text": rule.title},
            "fullDescription": {"text": rule.description},
            "defaultConfiguration": {"level": rule.severity.value},
            "properties": {"paperSection": SIM_PAPER_SECTION},
        })
    return rules
