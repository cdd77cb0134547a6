"""Simulated time: a global clock plus skewable per-host views.

"The security of Kerberos depends critically on synchronized clocks."
Everything time-related in the reproduction is explicit simulation state:

* :class:`SimClock` is the single source of truth, in integer
  **microseconds** (Draft 3's millisecond resolution "is far too coarse
  for many applications"; the resolution a protocol *sees* is a knob on
  :class:`repro.kerberos.config.ProtocolConfig`, so benchmark E14 can
  show the coarse-resolution replay problem).

* :class:`HostClock` is one host's possibly-wrong view: an offset that
  models skew, set either by the administrator or — this is the attack
  surface — by an unauthenticated time service
  (:mod:`repro.sim.timesvc`).

* :class:`EventTimeline` is the bridge to the discrete-event scheduler
  (:mod:`repro.sim.sched`): while one is attached, ``advance()`` calls
  accumulate into the *current event's* elapsed time instead of moving
  the global clock, so concurrent activities (a wire transit here, a
  retry backoff there) overlap in virtual time instead of serializing.
  The scheduler is the only component that moves the base clock, as
  it dispatches events in heap order.

Nothing reads the real wall clock, so every scenario is deterministic.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "MICROSECOND", "MILLISECOND", "SECOND", "MINUTE",
    "SimClock", "HostClock", "EventTimeline",
]

MICROSECOND = 1
MILLISECOND = 1000
SECOND = 1_000_000
MINUTE = 60 * SECOND


class EventTimeline:
    """Per-event elapsed time, deferred instead of applied globally.

    Synchronous simulation code calls ``clock.advance(transit)`` at
    every wire hop and backoff.  Run naively inside an event loop that
    would drag the *global* clock forward, so the first unit processed
    pushes "now" past every other unit's arrival and queues never form
    (the zero-queue-wait anomaly PR 6 papered over with
    ``note_open_loop_arrival``).  With a timeline attached, those
    advances accumulate here; the scheduler zeroes ``elapsed`` before
    dispatching each event and reads it afterwards to know how long the
    event's activity took in virtual time.
    """

    __slots__ = ("elapsed",)

    def __init__(self) -> None:
        self.elapsed = 0


class SimClock:
    """The simulation's true time, advanced explicitly by scenarios."""

    def __init__(self, start: int = 0):
        self._now = start
        self._timeline: Optional[EventTimeline] = None

    @property
    def timeline(self) -> Optional[EventTimeline]:
        """The attached :class:`EventTimeline`, or ``None`` when the
        clock is in classic synchronous mode."""
        return self._timeline

    def attach_timeline(self, timeline: EventTimeline) -> None:
        """Route subsequent ``advance()`` calls into *timeline*."""
        self._timeline = timeline

    def detach_timeline(self) -> None:
        self._timeline = None

    def now(self) -> int:
        tl = self._timeline
        if tl is not None:
            return self._now + tl.elapsed
        return self._now

    def advance(self, amount: int) -> int:
        """Move time forward by *amount* microseconds.

        With a timeline attached this defers into the current event's
        elapsed time; the global base only moves via ``advance_to``.
        """
        if amount < 0:
            raise ValueError("time cannot move backwards")
        tl = self._timeline
        if tl is not None:
            tl.elapsed += amount
            return self._now + tl.elapsed
        self._now += amount
        return self._now

    def advance_to(self, time: int) -> int:
        """Jump the base clock forward to absolute *time* (scheduler use)."""
        if time < self._now:
            raise ValueError("time cannot move backwards")
        self._now = time
        return self._now

    def advance_seconds(self, seconds: float) -> int:
        return self.advance(int(seconds * SECOND))

    def advance_minutes(self, minutes: float) -> int:
        return self.advance(int(minutes * MINUTE))


class HostClock:
    """One host's view of time: true time plus a (possibly hostile) offset."""

    def __init__(self, clock: SimClock, offset: int = 0):
        self._clock = clock
        self.offset = offset

    def now(self) -> int:
        return self._clock.now() + self.offset

    def set_from(self, reported_time: int) -> None:
        """Adopt *reported_time* as the current time (a time-service sync).

        This is deliberately trusting: whether the reported time came from
        an honest service or a spoofed reply is decided upstream.
        """
        self.offset = reported_time - self._clock.now()

    def skew(self) -> int:
        """How far this host's clock is from the truth, in microseconds."""
        return self.offset
