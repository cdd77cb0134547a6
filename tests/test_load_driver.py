"""The unit driver both load-harness modes share, run on its own.

:func:`repro.load.run_units` owns the latency histograms, the error
tally, the fault timers and the replay probe's post-restore cut.  These
tests drive it with fake units on a bare scheduler — no testbed, no
cluster — so each behaviour is pinned at the source rather than only
through full engine and model runs.
"""

from repro.load import REPLAY_PROBES, fault_window, run_units
from repro.obs.timeseries import TickSampler
from repro.sim.clock import SimClock
from repro.sim.sched import Scheduler, wait


def _drive(unit, arrivals, window=None, fail=None, restore=None,
           recorded=list, replay=None):
    clock = SimClock()
    sched = Scheduler(clock)
    return run_units(
        sched, TickSampler(clock), arrivals, window, unit(clock),
        fail or (lambda shard: None), restore or (lambda shard: None),
        recorded, replay or (lambda recording: True),
    )


def test_failed_unit_keeps_the_phases_it_completed():
    """A unit that fails after AS adds one ``as`` sample, no ``tgs``,
    ``ap`` or ``unit`` sample, and one error of its kind."""
    def unit(clock):
        def process(op, intended, finish):
            marks = [intended]
            for phase_us in (40, 30, 20):
                yield wait(phase_us)
                marks.append(clock.now())
                if op == 1:
                    finish(marks, "unavailable")
                    return
            finish(marks, None)
        return process

    driven = _drive(unit, [10, 20])
    latency = driven["latency_us"]
    assert latency["as"]["count"] == 2 and latency["as"]["max"] == 40
    assert latency["tgs"]["count"] == 1 and latency["tgs"]["max"] == 30
    assert latency["ap"]["count"] == 1 and latency["ap"]["max"] == 20
    assert latency["unit"]["count"] == 1 and latency["unit"]["max"] == 90
    assert driven["completed"] == 1
    assert driven["errors"] == {"unavailable": 1}
    assert driven["sim_elapsed_us"] == 10 + 90  # until unit 0 ends


def test_fault_timers_fire_before_the_boundary_units():
    """``fail`` runs before the unit at ``arrivals[first_op]`` and
    ``restore`` before the unit at ``arrivals[last_op + 1]``, though
    each shares its timestamp with that unit."""
    log = []

    def unit(clock):
        def process(op, intended, finish):
            log.append(("unit", op))
            yield wait(0)
            finish([intended], None)
        return process

    arrivals = [0, 10, 20, 30, 40, 50]
    window = fault_window(True, len(arrivals), shards=3)
    assert window == {"shard": 1, "first_op": 2, "last_op": 3}
    _drive(unit, arrivals, window,
           fail=lambda shard: log.append(("fail", shard)),
           restore=lambda shard: log.append(("restore", shard)))
    assert log == [
        ("unit", 0), ("unit", 1), ("fail", 1), ("unit", 2), ("unit", 3),
        ("restore", 1), ("unit", 4), ("unit", 5),
    ]


def test_probe_offers_only_post_restore_recordings_and_caps_them():
    """Each unit records its op as it starts.  The probe offers the
    last :data:`REPLAY_PROBES` recordings made after the restore — all
    of them when fewer were made — and counts what ``replay`` says was
    rejected."""
    recordings = []
    offered = []

    def unit(clock):
        def process(op, intended, finish):
            recordings.append(op)
            yield wait(5)
            finish([intended, clock.now()], None)
        return process

    def replay(op):
        offered.append(op)
        return op % 2 == 0

    def probe(requests, faults):
        recordings.clear()
        offered.clear()
        window = fault_window(faults, requests, shards=2)
        driven = _drive(unit, list(range(0, 10 * requests, 10)), window,
                        recorded=lambda: recordings, replay=replay)
        return window, driven["probe"]

    # Restored before op 8: only ops 8..11 are eligible, fewer than
    # REPLAY_PROBES, so op 7 stays out though it is among the last five.
    window, result = probe(12, faults=True)
    assert window["last_op"] + 1 == 8
    assert offered == [8, 9, 10, 11]
    assert result == {"attempted": 4, "rejected": 2}

    # Restored before op 20, ten eligible: the cap keeps the last five.
    window, result = probe(30, faults=True)
    assert window["last_op"] + 1 == 20
    assert offered == list(range(30 - REPLAY_PROBES, 30))
    assert result == {"attempted": REPLAY_PROBES, "rejected": 2}

    # No window: every recording is eligible.
    window, result = probe(3, faults=False)
    assert window is None
    assert offered == [0, 1, 2]
    assert result == {"attempted": 3, "rejected": 2}
