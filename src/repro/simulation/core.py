"""The event loop: a queue of deferred calls.

The design follows the classic discrete-event pattern: a :class:`Simulator`
owns a priority queue of deferred calls, and everything that happens in a
run -- a task attempt's next chunk, a resource wake-up, a control message,
a stage's end -- is one such call.  Work that waits on something is written
as a continuation: it hands a callback to whatever it waits on.  One loop,
:meth:`Simulator.run`, drains the queue; its ``until`` and ``stop``
arguments say when to pause.

Time is a float in *simulated seconds*.  The kernel is fully deterministic:
ties in the queue are broken by insertion order.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional


class SimulationError(RuntimeError):
    """Raised for misuse of the kernel (e.g. a negative delay)."""


class Simulator:
    """The discrete-event loop.

    Usage::

        sim = Simulator()
        sim.call_in(3.0, print, "done")
        sim.run()
        assert sim.now == 3.0

    The queue is a heap of ``(when, sequence, fn, args)`` tuples, one per
    :meth:`call_in`; dispatch is ``fn(*args)``.  ``sequence`` is one
    insertion counter shared by every push, so ties at the same instant
    break in scheduling order and nothing past it is ever compared.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[tuple] = []
        self._sequence = 0
        self._tracer: Optional[Any] = None
        #: Cached ``tracer is not None and tracer.enabled``, so the untraced
        #: hot path (one check per span-carrying object) costs a single
        #: boolean read instead of two attribute lookups.  Captured when the
        #: tracer is wired; embedders must not toggle ``tracer.enabled``
        #: afterwards.
        self.trace_enabled = False

    @property
    def now(self) -> float:
        return self._now

    @property
    def tracer(self) -> Optional[Any]:
        """Optional span tracer (duck-typed to avoid importing observability
        here); embedders wire it before the first span is opened."""
        return self._tracer

    @tracer.setter
    def tracer(self, value: Optional[Any]) -> None:
        self._tracer = value
        self.trace_enabled = value is not None and bool(value.enabled)

    @property
    def events_scheduled(self) -> int:
        """Total queue entries pushed so far.

        :meth:`call_in` is the only push site and increments the sequence
        counter once per push, so deltas give the kernel throughput that
        the kernel benchmarks report as events/second.
        """
        return self._sequence

    @property
    def queued(self) -> int:
        """Entries waiting in the queue; zero once it has drained."""
        return len(self._queue)

    # -- scheduling -------------------------------------------------------

    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run ``callback()`` at absolute simulated time ``when``."""
        if not when >= self._now:
            raise SimulationError(
                f"cannot schedule at {when} with the clock at {self._now}")
        self.call_in(when - self._now, callback)

    def call_in(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` seconds.

        One queue entry: the kernel's only way to defer work.
        """
        if not delay >= 0:  # also rejects NaN, which would poison the heap
            raise SimulationError(f"call_in delay must be >= 0, got {delay!r}")
        seq = self._sequence = self._sequence + 1
        heappush(self._queue, (self._now + delay, seq, fn, args))

    def discard_pending(self) -> None:
        """Drop every queued entry without running it.

        For an owner that is done with the simulator: queued entries are
        bound methods and closures over the model, and would keep all of
        it alive.  The clock and :attr:`events_scheduled` are unchanged.
        """
        self._queue.clear()

    # -- execution --------------------------------------------------------

    def run(self, until: Optional[float] = None,
            stop: Optional[Callable[[], bool]] = None) -> bool:
        """Dispatch queued calls in time order; the kernel's one loop.

        Runs until the queue drains or the next entry lies past ``until``,
        and then sets the clock to ``until`` (when given), leaving later
        entries queued.  ``stop()`` is checked before each dispatch: once it
        returns true the run ends there, the clock stays at the last
        dispatched entry and every later entry stays queued.  A job that
        stops at its own end this way leaves pending fault timers for the
        next job instead of firing them while the simulator idles; the fork
        barrier is ``until`` plus a stop at the job's end.

        Returns ``False`` when ``stop`` ended the run, else ``True``.  Every
        dispatch also checks that the popped entry does not move the clock
        backwards (the heap ordering guarantees it unless the queue or
        ``_now`` was corrupted).
        """
        if until is not None and not until >= self._now:
            raise SimulationError(
                f"`until` lies in the past: {until} < {self._now}")
        queue = self._queue
        pop = heappop
        while queue:
            if stop is not None and stop():
                return False
            if until is not None and queue[0][0] > until:
                break
            when, _seq, fn, args = pop(queue)
            if when < self._now:
                raise SimulationError(
                    f"simulated clock ran backwards: popped an entry at "
                    f"{when} with the clock already at {self._now}")
            self._now = when
            fn(*args)
        if stop is not None and stop():
            return False
        if until is not None:
            self._now = until
        return True
