"""The discrete-event scheduler: one heap, many suspended processes.

The paper's operational warning — "the Kerberos server must be
available in real time" — only bites under *concurrent* traffic, and
the original synchronous fabric could not express concurrency: each
request ran start-to-finish, dragging the shared clock with it, so by
the time the second client "arrived" the first had already pushed
virtual time past every queue.  This module replaces stepping the
clock with scheduling against it:

* :class:`Scheduler` owns a binary-heap event queue of
  ``(time, seq, target)`` entries.  ``seq`` is one monotonic counter
  for every entry, so two events at the same virtual microsecond
  dispatch in push order — determinism does not depend on heap
  internals, and since ``seq`` is unique the heap never compares a
  target.

* Processes are plain generators.  They suspend by yielding
  ``wait(delay)`` to sleep in virtual time.  A sleeping process's heap
  entry is the generator itself, and the loop in :meth:`Scheduler.run`
  resumes it in place: pop, ``send``, push it back at its wake-up time.
  No callback, timer or method call per process event, no threads, no
  async framework: a million-event run is one heap and a while-loop.

* The synchronous engine (crypto, codecs, the whole Kerberos message
  machinery) runs *unmodified* inside events.  The trick is
  :class:`repro.sim.clock.EventTimeline`: while the scheduler runs, the
  clock defers ``advance()`` into a per-event elapsed accumulator, so a
  wire transit inside one event does not steal time from any other
  event.  The scheduler folds each event's elapsed time back in when
  the dispatching process next sleeps.

* Callbacks scheduled with ``at``/``after`` get a :class:`Timer`, the
  only cancellable handle.  Cancelling is O(1) (``Timer.cancel()``):
  the heap entry stays behind with its callback dropped and is skipped
  when popped, without moving the clock, so a timeout that is usually
  disarmed before it fires costs one heap push and no search.

Stats (events processed, heap high-water mark, timers cancelled)
surface in ``python -m repro serve`` and the load report so the
scheduler itself is observable.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple, Union

from repro.sim.clock import EventTimeline, SimClock

__all__ = ["Scheduler", "Timer", "wait", "Process"]

#: A process is a generator yielding ``wait(...)`` commands; it is
#: resumed with ``None``.
Process = Generator[Any, Any, None]


class _Wait:
    """Command: suspend the process for ``delay`` virtual microseconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: int) -> None:
        if delay < 0:
            raise ValueError("cannot wait a negative delay")
        self.delay = delay


def wait(delay: int) -> _Wait:
    """Yield this from a process to sleep *delay* virtual microseconds."""
    return _Wait(delay)


class Timer:
    """A scheduled callback; cancel before it fires and it never runs."""

    __slots__ = ("fn", "cancelled")

    def __init__(self, fn: Callable[[], None]) -> None:
        self.fn: Optional[Callable[[], None]] = fn
        self.cancelled = False

    def cancel(self) -> bool:
        """Stop the timer.  Returns True if it had not yet fired."""
        if self.cancelled or self.fn is None:
            return False
        self.cancelled = True
        self.fn = None  # drop references so cancelled heap entries are cheap
        return True


#: A heap entry: a :class:`Timer` to fire or a process to resume.
_Entry = Tuple[int, int, Union[Timer, Process]]


class Scheduler:
    """The event loop: dispatches heap events in (time, FIFO) order."""

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self._heap: List[_Entry] = []
        self._next_seq = itertools.count(1).__next__
        self._running = False
        # observability: surfaced by `repro serve` / the load report
        self.events_processed = 0
        self.heap_high_water = 0
        self.timers_cancelled = 0
        self.processes_spawned = 0

    # -- scheduling primitives ------------------------------------------

    def _push(self, time: int, target: Union[Timer, Process]) -> None:
        if time < self.clock.now():
            raise ValueError(
                f"cannot schedule at {time} before now {self.clock.now()}"
            )
        heap = self._heap
        heapq.heappush(heap, (time, self._next_seq(), target))
        if len(heap) > self.heap_high_water:
            self.heap_high_water = len(heap)

    def at(self, time: int, fn: Callable[[], None]) -> Timer:
        """Run ``fn`` at absolute virtual *time*.  Returns a cancellable
        :class:`Timer`.  Scheduling into the past is an error."""
        timer = Timer(fn)
        self._push(time, timer)
        return timer

    def after(self, delay: int, fn: Callable[[], None]) -> Timer:
        """Run ``fn`` *delay* microseconds from the current virtual time."""
        if delay < 0:
            raise ValueError("cannot schedule a negative delay")
        return self.at(self.clock.now() + delay, fn)

    def spawn(self, process: Process, at_time: Optional[int] = None) -> None:
        """Start a generator process (now, or at absolute ``at_time``)."""
        self._push(self.clock.now() if at_time is None else at_time, process)
        self.processes_spawned += 1

    def cancel(self, timer: Timer) -> bool:
        if timer.cancel():
            self.timers_cancelled += 1
            return True
        return False

    # -- the loop --------------------------------------------------------

    def run(self, until: Optional[int] = None) -> int:
        """Dispatch events until the heap drains (or past ``until``).

        Attaches an :class:`EventTimeline` to the clock for the
        duration, so synchronous engine code inside events overlaps in
        virtual time instead of serializing.  Each event sets the
        clock's base to its time and zeroes the timeline; a process
        that then yields ``wait(d)`` is pushed back at its event time
        plus the elapsed time plus ``d`` — a zero wait still re-enters
        the heap: it is a fairness yield point, not a no-op.  Returns
        the number of events processed by this call.
        """
        if self._running:
            raise RuntimeError("scheduler is already running")
        self._running = True
        clock = self.clock
        timeline = EventTimeline()
        clock.attach_timeline(timeline)
        heap = self._heap
        heappop, heappush = heapq.heappop, heapq.heappush
        next_seq = self._next_seq
        first = self.events_processed
        # Each event sets the clock's base (``clock._now``) directly: the
        # scheduler is the one thing that moves it while running, and
        # ``advance_to`` would cost a call per event.
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    break
                time, _seq, target = heappop(heap)
                if isinstance(target, Timer):
                    fn = target.fn
                    if fn is None:
                        continue  # cancelled: skipped, the clock stays put
                    target.fn = None
                    if time < clock._now:
                        raise ValueError("time cannot move backwards")
                    clock._now = time
                    timeline.elapsed = 0
                    fn()
                else:
                    if time < clock._now:
                        raise ValueError("time cannot move backwards")
                    clock._now = time
                    timeline.elapsed = 0
                    try:
                        command = target.send(None)
                    except StopIteration:
                        pass
                    else:
                        if command.__class__ is not _Wait:
                            raise TypeError(
                                f"process yielded {command!r}; "
                                "expected wait(...)"
                            )
                        heappush(heap, (time + timeline.elapsed
                                        + command.delay, next_seq(), target))
                        if len(heap) > self.heap_high_water:
                            self.heap_high_water = len(heap)
                self.events_processed += 1
        finally:
            timeline.elapsed = 0
            clock.detach_timeline()
            self._running = False
        if until is not None and not heap:
            # quiescent before the horizon: advance to it
            if until > clock.now():
                clock.advance_to(until)
        return self.events_processed - first

    def stats(self) -> Dict[str, int]:
        """Deterministic counters for reports and the topology inspector."""
        return {
            "events_processed": self.events_processed,
            "heap_high_water": self.heap_high_water,
            "timers_cancelled": self.timers_cancelled,
            "processes_spawned": self.processes_spawned,
            "pending": len(self._heap),
        }
