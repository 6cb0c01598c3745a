"""Event loop and one-shot events.

The design follows the classic discrete-event pattern: a :class:`Simulator`
owns a priority queue of deferred calls, and everything that happens in a
run -- a task attempt's next chunk, a resource wake-up, a control message,
an :class:`Event` firing -- is one such call.  Work that waits on something
is written as a continuation: it hands a callback to whatever it waits on.

Time is a float in *simulated seconds*.  The kernel is fully deterministic:
ties in the queue are broken by insertion order.
"""

from __future__ import annotations

import heapq
from heapq import heappush
from typing import Any, Callable, List, Optional


class SimulationError(RuntimeError):
    """Raised for misuse of the kernel (e.g. a negative delay)."""


class Event:
    """A one-shot occurrence that callbacks can wait on.

    An event moves through three states: *pending* (created, not
    triggered), *triggered* (:meth:`succeed` or :meth:`fail` queued its
    firing, it has a value), and *processed* (its callbacks have run).
    A callback added to an already-processed event runs on the next loop
    iteration.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok = True
        self._triggered = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """Whether the event succeeded (False when it carries an exception)."""
        return self._ok

    @property
    def value(self) -> Any:
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event now with ``value``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._value = value
        self._ok = True
        self._triggered = True
        self.sim.call_in(0.0, self._fire)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event now with an exception for its callbacks."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._value = exception
        self._ok = False
        self._triggered = True
        self.sim.call_in(0.0, self._fire)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed."""
        if self.callbacks is None:
            # Already processed: run on the next loop iteration for
            # deterministic ordering.
            self.sim.call_in(0.0, callback, self)
        else:
            self.callbacks.append(callback)

    def _fire(self) -> None:
        callbacks = self.callbacks
        self.callbacks = None
        if callbacks:
            for callback in callbacks:
                callback(self)
        elif not self._ok:
            # A failed event nobody waited on would silently swallow the
            # error; surface it instead ("errors should never pass silently").
            raise self._value


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
        #: Set by :class:`repro.validation.InvariantMonitor`: re-verify on
        #: every dispatch (:meth:`run` and :meth:`step`) that the popped
        #: entry does not move the clock backwards (the heap ordering
        #: normally guarantees this; the guard catches a corrupted queue or
        #: a mutated ``_now``).
        self.monotonic_guard = False

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

    # -- scheduling -------------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run ``callback()`` at absolute simulated time ``when``."""
        if not when >= self._now:
            raise SimulationError(
                f"cannot schedule at {when} with the clock at {self._now}")
        self.call_in(when - self._now, callback)

    def call_in(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` seconds.

        One queue entry, no event object: the kernel's only way to defer
        work.
        """
        if not delay >= 0:  # also rejects NaN, which would poison the heap
            raise SimulationError(f"call_in delay must be >= 0, got {delay!r}")
        seq = self._sequence = self._sequence + 1
        heappush(self._queue, (self._now + delay, seq, fn, args))

    # -- execution --------------------------------------------------------

    def _backwards(self, when: float) -> SimulationError:
        return SimulationError(
            f"simulated clock ran backwards: popped event at {when} "
            f"with the clock already at {self._now}"
        )

    def step(self) -> None:
        """Run the next queued call."""
        when, _seq, fn, args = heapq.heappop(self._queue)
        if self.monotonic_guard and when < self._now:
            raise self._backwards(when)
        self._now = when
        fn(*args)

    # -- snapshot/fork support --------------------------------------------

    def fork_barrier(self, until: float, stop: Optional["Event"] = None) -> bool:
        """Run the shared prefix up to the divergence point.

        Processes every entry scheduled at or before ``until`` (exactly the
        entries :meth:`run` with the same bound would process) and then
        advances the clock to ``until``, leaving later entries queued.  If
        ``stop`` triggers first -- e.g. the job being warmed up finishes
        before the barrier time -- the prefix run stops there and the clock
        is *not* advanced.  Returns ``True`` when the barrier was reached,
        ``False`` when ``stop`` cut it short.
        """
        if not until >= self._now:
            raise SimulationError(
                f"fork barrier lies in the past: {until} < {self._now}"
            )
        while self._queue:
            if stop is not None and stop.triggered:
                return False
            if self._queue[0][0] > until:
                break
            self.step()
        if stop is not None and stop.triggered:
            return False
        self._now = until
        return True

    def run_until(self, event: "Event") -> None:
        """Run until ``event`` triggers (or the queue drains).

        Unlike :meth:`run`, pending entries beyond the trigger point stay in
        the queue for a later ``run``/``run_until`` call.  The fault
        injector relies on this: a node-loss timer scheduled for the middle
        of the next job must not be drained -- advancing the clock past it
        -- while the simulator idles between jobs.
        """
        while not event.triggered and self._queue:
            self.step()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or simulated time passes ``until``.

        The loop body is :meth:`step` inlined: one pop and one dispatch per
        entry, with no method call in between.
        """
        if until is not None and not until >= self._now:
            raise SimulationError("`until` lies in the past")
        queue = self._queue
        pop = heapq.heappop
        while queue:
            if until is not None and queue[0][0] > until:
                self._now = until
                return
            when, _seq, fn, args = pop(queue)
            if self.monotonic_guard and when < self._now:
                raise self._backwards(when)
            self._now = when
            fn(*args)
        if until is not None:
            self._now = until
