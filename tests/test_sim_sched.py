"""The discrete-event scheduler: ordering, timers, processes, determinism.

The load harness's acceptance properties (same seed ⇒ same percentiles,
FIFO fairness at equal timestamps, failsafe timers dying on pickup) all
reduce to invariants of :mod:`repro.sim.sched`; this file pins them at
the source.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.clock import SimClock
from repro.sim.sched import Scheduler, Timer, wait


def test_events_dispatch_in_time_order():
    clock = SimClock()
    sched = Scheduler(clock)
    seen = []
    sched.at(300, lambda: seen.append(("c", clock.now())))
    sched.at(100, lambda: seen.append(("a", clock.now())))
    sched.at(200, lambda: seen.append(("b", clock.now())))
    sched.run()
    assert seen == [("a", 100), ("b", 200), ("c", 300)]


def test_fifo_tie_break_at_equal_timestamps():
    """Two events at the same microsecond run in scheduling order, not
    heap-internal order — the property the fault window's op-index
    semantics depend on."""
    sched = Scheduler(SimClock())
    seen = []
    for tag in range(10):
        sched.at(500, lambda t=tag: seen.append(t))
    sched.run()
    assert seen == list(range(10))


def test_scheduling_into_the_past_raises():
    clock = SimClock()
    sched = Scheduler(clock)
    clock.advance(100)
    with pytest.raises(ValueError):
        sched.at(50, lambda: None)
    with pytest.raises(ValueError):
        sched.after(-1, lambda: None)
    with pytest.raises(ValueError):
        sched.spawn(iter(()), at_time=50)
    assert sched.stats()["processes_spawned"] == 0


def test_wait_resumes_after_delay():
    clock = SimClock()
    sched = Scheduler(clock)
    marks = []

    def process():
        marks.append(clock.now())
        yield wait(250)
        marks.append(clock.now())
        yield wait(0)  # a zero wait is a yield point, not a no-op
        marks.append(clock.now())

    sched.spawn(process(), at_time=10)
    sched.run()
    assert marks == [10, 260, 260]


def test_negative_wait_rejected():
    with pytest.raises(ValueError):
        wait(-5)


def test_timer_cancellation_prevents_firing():
    """The shard-failover failsafe pattern: cancel on pickup."""
    clock = SimClock()
    sched = Scheduler(clock)
    fired = []
    timer = sched.at(1000, lambda: fired.append("failsafe"))
    sched.at(500, lambda: sched.cancel(timer))
    sched.run()
    assert fired == []
    assert sched.timers_cancelled == 1
    assert timer.cancelled
    # cancelling twice is a no-op, not a double count
    assert sched.cancel(timer) is False
    assert sched.timers_cancelled == 1
    # a cancelled entry is popped without moving the clock, so time
    # rests at the last event that actually fired
    assert clock.now() == 500


def test_cancelled_heap_entries_are_skipped_cheaply():
    sched = Scheduler(SimClock())
    timers = [sched.at(100, lambda: None) for _ in range(50)]
    for timer in timers:
        sched.cancel(timer)
    processed = sched.run()
    assert processed == 0
    assert all(t.fn is None for t in timers)


def test_elapsed_event_time_folds_into_next_wait():
    """Synchronous clock.advance inside an event lands in the timeline
    and is charged to the process's next sleep."""
    clock = SimClock()
    sched = Scheduler(clock)
    marks = []

    def process():
        clock.advance(40)  # synchronous work inside the event
        yield wait(60)
        marks.append(clock.now())

    sched.spawn(process(), at_time=0)
    sched.run()
    assert marks == [100]  # 40 elapsed + 60 wait


def test_timeline_detached_after_run():
    clock = SimClock()
    sched = Scheduler(clock)
    sched.at(10, lambda: None)
    sched.run()
    assert clock.timeline is None
    # advance() is immediate again outside the scheduler
    clock.advance(5)
    assert clock.now() == 15


def test_run_until_stops_before_later_events():
    clock = SimClock()
    sched = Scheduler(clock)
    seen = []
    sched.at(100, lambda: seen.append("early"))
    sched.at(900, lambda: seen.append("late"))
    sched.run(until=500)
    assert seen == ["early"]
    # the clock rests at the last dispatched event, not the horizon
    assert clock.now() == 100
    sched.run()
    assert seen == ["early", "late"]


def test_stats_shape_and_heap_high_water():
    sched = Scheduler(SimClock())
    for t in range(7):
        sched.at(t, lambda: None)
    assert sched.heap_high_water == 7
    sched.run()
    stats = sched.stats()
    assert stats == {
        "events_processed": 7,
        "heap_high_water": 7,
        "timers_cancelled": 0,
        "processes_spawned": 0,
        "pending": 0,
    }


def test_same_seed_identical_event_trace():
    """Two schedulers driven by identically-seeded workloads produce
    the same (time, tag) dispatch sequence — the bedrock of the load
    harness's same-seed ⇒ same-report guarantee."""
    from repro.crypto.rng import DeterministicRandom

    def run_once():
        clock = SimClock()
        sched = Scheduler(clock)
        rng = DeterministicRandom(7)
        trace = []

        def unit(tag):
            yield wait(rng.randint(1, 50))
            trace.append((tag, clock.now()))
            yield wait(rng.randint(1, 50))
            trace.append((tag, clock.now()))

        for tag in range(20):
            sched.spawn(unit(tag), at_time=rng.randint(0, 100))
        sched.run()
        return trace

    assert run_once() == run_once()


def test_clock_advance_to_rejects_backwards():
    clock = SimClock()
    clock.advance_to(100)
    assert clock.now() == 100
    with pytest.raises(ValueError):
        clock.advance_to(99)


def test_process_yielding_garbage_is_a_type_error():
    sched = Scheduler(SimClock())

    def bad():
        yield "not a command"

    sched.spawn(bad())
    with pytest.raises(TypeError):
        sched.run()


def test_scheduler_and_timer_are_exported_from_sim_package():
    from repro.sim import Scheduler as ExportedScheduler
    from repro.sim import Timer as ExportedTimer

    assert ExportedScheduler is Scheduler
    assert ExportedTimer is Timer


# -- the dispatch contract against a reference model -------------------- #


@st.composite
def programs(draw):
    """A random scheduler program: timers (some cancelled by an earlier
    event), processes whose events advance the clock and then wait, the
    order they are scheduled in, and the horizon of a first bounded run.

    A timer is ``(how, offset, cancels)``: ``at(start + offset)`` or
    ``after(offset)``, whose callback cancels timer *cancels* (or none).
    A process is ``(offset, steps, last_advance)``, spawned at
    ``start + offset`` (or now, for ``None``); each step
    ``(advance, delay, cancels)`` is one event that cancels, advances the
    clock and waits, and a final event advances *last_advance* and ends.
    """
    start = draw(st.integers(0, 20))
    n_timers = draw(st.integers(0, 4))
    cancels = st.none()
    if n_timers:
        cancels = st.none() | st.integers(0, n_timers - 1)
    timers = [
        (draw(st.sampled_from(("at", "after"))), draw(st.integers(0, 120)),
         draw(cancels))
        for _ in range(n_timers)
    ]
    processes = [
        (draw(st.none() | st.integers(0, 60)),
         draw(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 30),
                                 cancels), max_size=4)),
         draw(st.integers(0, 15)))
        for _ in range(draw(st.integers(0, 4)))
    ]
    order = draw(st.permutations(
        [("timer", i) for i in range(n_timers)]
        + [("process", j) for j in range(len(processes))]
    ))
    horizon = start + draw(st.integers(0, 150))
    return start, timers, processes, order, horizon


def run_program(program):
    """Run *program* on the real scheduler: ``run(until=horizon)``, then
    ``run()``.  Returns the dispatch log and, per run, the events it
    processed, the clock after it and ``stats()``."""
    start, timers, processes, order, horizon = program
    clock = SimClock(start)
    sched = Scheduler(clock)
    log = []
    handles = {}

    def cancel(target):
        if target is not None:
            sched.cancel(handles[target])

    def fire(index):
        log.append((f"t{index}", clock.now()))
        cancel(timers[index][2])

    def process(index):
        _offset, steps, last_advance = processes[index]
        for step, (advance, delay, target) in enumerate(steps):
            log.append((f"p{index}.{step}", clock.now()))
            cancel(target)
            clock.advance(advance)
            yield wait(delay)
        log.append((f"p{index}.end", clock.now()))
        clock.advance(last_advance)

    for kind, index in order:
        if kind == "timer":
            how, offset, _target = timers[index]
            fn = functools.partial(fire, index)
            handles[index] = (sched.at(start + offset, fn) if how == "at"
                              else sched.after(offset, fn))
        else:
            offset = processes[index][0]
            sched.spawn(process(index),
                        at_time=None if offset is None else start + offset)
    runs = []
    for until in (horizon, None):
        processed = sched.run(until=until)
        runs.append((processed, clock.now(), sched.stats()))
    return log, runs


def reference(program):
    """The documented contract as a list-based model: the lowest
    ``(time, seq)`` entry dispatches first; an event's elapsed time is
    folded into its process's next wait; a cancelled entry is skipped
    without moving the clock; a run bounded by a horizon it never
    reaches idles up to it."""
    start, timers, processes, order, horizon = program
    now = start
    queue = []
    seq = high_water = cancelled_count = events = 0
    fired, cancelled = set(), set()
    log = []

    def push(time, kind, index, step):
        nonlocal seq, high_water
        seq += 1
        queue.append((time, seq, kind, index, step))
        high_water = max(high_water, len(queue))

    def cancel(target):
        nonlocal cancelled_count
        if target is not None and target not in fired | cancelled:
            cancelled.add(target)
            cancelled_count += 1

    for kind, index in order:
        if kind == "timer":
            push(start + timers[index][1], kind, index, 0)
        else:
            push(start + (processes[index][0] or 0), kind, index, 0)
    runs = []
    for until in (horizon, None):
        processed = 0
        while queue:
            entry = min(queue)
            time, _seq, kind, index, step = entry
            if until is not None and time > until:
                break
            queue.remove(entry)
            if kind == "timer":
                if index in cancelled:
                    continue
                fired.add(index)
                now = time
                log.append((f"t{index}", now))
                cancel(timers[index][2])
            else:
                now = time
                steps = processes[index][1]
                if step == len(steps):
                    log.append((f"p{index}.end", now))
                else:
                    advance, delay, target = steps[step]
                    log.append((f"p{index}.{step}", now))
                    cancel(target)
                    push(now + advance + delay, kind, index, step + 1)
            processed += 1
        events += processed
        if until is not None and not queue and until > now:
            now = until
        runs.append((processed, now, {
            "events_processed": events,
            "heap_high_water": high_water,
            "timers_cancelled": cancelled_count,
            "processes_spawned": len(processes),
            "pending": len(queue),
        }))
    return log, runs


@given(programs())
@settings(max_examples=300, deadline=None)
def test_dispatch_matches_the_reference_model(program):
    assert run_program(program) == reference(program)
