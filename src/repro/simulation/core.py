"""Event loop, events, and generator-based processes.

The design follows the classic discrete-event pattern (and deliberately mirrors
the small core of SimPy, which is not available offline): a :class:`Simulator`
owns a priority queue of scheduled events; a :class:`Process` wraps a Python
generator that yields events and is resumed when they fire.

Time is a float in *simulated seconds*.  The kernel is fully deterministic:
ties in the event queue are broken by insertion order.
"""

from __future__ import annotations

import heapq
from heapq import heappush
from typing import Any, Callable, Generator, Iterable, List, Optional


class SimulationError(RuntimeError):
    """Raised for misuse of the kernel (e.g. yielding a non-event)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    ``cause`` carries the interruptor's payload (e.g. a fault-injection
    reason).  A process that wants to survive an interrupt catches this at
    its current ``yield`` and decides what to do; an uncaught interrupt
    fails the process like any other exception.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that callbacks and processes can wait on.

    An event moves through three states: *pending* (created, not scheduled),
    *triggered* (scheduled to fire, has a value), and *processed* (callbacks
    have run).  Waiting on an already-processed event resumes the waiter
    immediately on the next loop iteration.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered", "_processed")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok = True
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

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
        self.sim._schedule(self, delay=0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event now with an exception; waiters will re-raise it."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._value = exception
        self._ok = False
        self._triggered = True
        self.sim._schedule(self, delay=0.0)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed."""
        if self.callbacks is None:
            # Already processed: run on the next loop iteration for
            # deterministic ordering.
            stub = Event(self.sim)
            stub.add_callback(lambda _e: callback(self))
            stub._value = None
            stub._ok = True
            stub._triggered = True
            self.sim._schedule(stub, delay=0.0)
        else:
            self.callbacks.append(callback)


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # also rejects NaN, which would poison the heap
            raise SimulationError(f"timeout delay must be >= 0, got {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._value = value
        self._ok = True
        self._triggered = True
        sim._schedule(self, delay=delay)


class Process(Event):
    """A generator-based coroutine driven by the event loop.

    The wrapped generator yields :class:`Event` instances; each ``yield``
    suspends the process until that event fires, at which point the event's
    value is sent back into the generator (or its exception thrown).  The
    process itself is an event that fires with the generator's return value,
    so processes can wait on each other.
    """

    __slots__ = ("generator", "name", "_waiting_on", "_trace_span", "_started")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: str = "",
    ) -> None:
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        self._started = False
        if sim.trace_enabled:
            self._trace_span = sim.tracer.begin("process", self.name)
        else:
            self._trace_span = -1
        bootstrap = Event(sim)
        bootstrap._value = None
        bootstrap._ok = True
        bootstrap._triggered = True
        bootstrap.add_callback(self._resume)
        sim._schedule(bootstrap, delay=0.0)
        self._waiting_on = bootstrap

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> bool:
        """Throw :class:`Interrupt` into the process at its current yield.

        The process is detached from whatever event it was waiting on (the
        event itself still fires for its other waiters) and resumed on the
        next loop iteration with the exception.  Interrupting a process that
        already terminated is a no-op; interrupting one whose generator has
        not started yet cancels it silently (the body never ran, so there is
        nothing to unwind).  Returns True when the interrupt was delivered
        or the process was cancelled.
        """
        if self._triggered:
            return False
        target = self._waiting_on
        if (
            target is not None
            and target._triggered
            and not target._ok
            and isinstance(target._value, Interrupt)
        ):
            # An interrupt is already in flight; delivering a second one
            # would leave the first as an unwaited failure.
            return True
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        if not self._started:
            # Never started: cancel without running the body.
            self.generator.close()
            self._waiting_on = None
            self._value = None
            self._ok = True
            self._triggered = True
            if self._trace_span >= 0:
                self.sim.tracer.end(self._trace_span, cancelled=True)
            self.sim._schedule(self, delay=0.0)
            return True
        kick = Event(self.sim)
        kick._value = Interrupt(cause)
        kick._ok = False
        kick._triggered = True
        kick.add_callback(self._resume)
        self.sim._schedule(kick, delay=0.0)
        self._waiting_on = kick
        return True

    def _resume(self, event: Event) -> None:
        if event is not self._waiting_on:
            # Stale wake-up: the process was detached from this event by an
            # interrupt (or already resumed through a replay stub).
            return
        self._waiting_on = None
        self._started = True
        try:
            if event.ok:
                target = self.generator.send(event.value)
            else:
                target = self.generator.throw(event.value)
        except StopIteration as stop:
            self._value = stop.value
            self._ok = True
            self._triggered = True
            if self._trace_span >= 0:
                self.sim.tracer.end(self._trace_span)
            self.sim._schedule(self, delay=0.0)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate into waiters
            self._value = exc
            self._ok = False
            self._triggered = True
            if self._trace_span >= 0:
                self.sim.tracer.end(self._trace_span, error=repr(exc))
            self.sim._schedule(self, delay=0.0)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {type(target).__name__}, "
                "expected an Event"
            )
        if target.sim is not self.sim:
            raise SimulationError("cannot wait on an event from another simulator")
        self._waiting_on = target
        target.add_callback(self._resume)


class AllOf(Event):
    """Fires when every child event has fired; value is the list of values."""

    __slots__ = ("_pending", "_values")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        events = list(events)
        self._pending = len(events)
        self._values: List[Any] = [None] * len(events)
        if not events:
            self.succeed([])
            return
        for index, event in enumerate(events):
            event.add_callback(self._make_collector(index))

    def _make_collector(self, index: int) -> Callable[[Event], None]:
        def collect(event: Event) -> None:
            if self._triggered:
                return
            if not event.ok:
                self.fail(event.value)
                return
            self._values[index] = event.value
            self._pending -= 1
            if self._pending == 0:
                self.succeed(list(self._values))

        return collect


class Simulator:
    """The discrete-event loop.

    Usage::

        sim = Simulator()
        def worker():
            yield sim.timeout(3.0)
            return "done"
        proc = sim.process(worker())
        sim.run()
        assert sim.now == 3.0 and proc.value == "done"

    The queue is a heap of ``(when, sequence, target, args)`` tuples.
    ``sequence`` is one insertion counter shared by every push, so ties at
    the same instant break in scheduling order and nothing past it is ever
    compared.  An event is queued as ``(when, seq, event, None)``; a
    :meth:`call_in` callback as ``(when, seq, fn, args)`` with ``args`` a
    tuple, so dispatch tells them apart by ``args is None`` and a deferred
    call allocates nothing beyond its tuple.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[tuple] = []
        self._sequence = 0
        self._tracer: Optional[Any] = None
        #: Cached ``tracer is not None and tracer.enabled``, so the untraced
        #: hot path (one check per process spawn) costs a single boolean
        #: read instead of two attribute lookups.  Captured when the tracer
        #: is wired; embedders must not toggle ``tracer.enabled`` afterwards.
        self.trace_enabled = False
        #: Set by :class:`repro.validation.InvariantMonitor`: re-verify on
        #: every dispatch (:meth:`run` and :meth:`step`) that the popped
        #: event does not move the clock backwards (the heap ordering
        #: normally guarantees this; the guard catches a corrupted queue or
        #: a mutated ``_now``).
        self.monotonic_guard = False

    @property
    def now(self) -> float:
        return self._now

    @property
    def tracer(self) -> Optional[Any]:
        """Optional span tracer (duck-typed to avoid importing observability
        here); embedders wire it before the first process is spawned."""
        return self._tracer

    @tracer.setter
    def tracer(self, value: Optional[Any]) -> None:
        self._tracer = value
        self.trace_enabled = value is not None and bool(value.enabled)

    @property
    def events_scheduled(self) -> int:
        """Total events (and deferred calls) scheduled so far.

        :meth:`_schedule` and :meth:`call_in` are the only two queue-push
        sites, and each increments the same sequence counter exactly once
        per push -- deferred calls are counted consistently with events,
        so deltas give the kernel throughput that the kernel benchmarks
        report as events/second.
        """
        return self._sequence

    # -- scheduling -------------------------------------------------------

    def _schedule(self, event: Event, delay: float) -> None:
        self._sequence += 1
        heapq.heappush(self._queue, (self._now + delay, self._sequence, event, None))

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any], name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def call_at(self, when: float, callback: Callable[[], None]) -> Event:
        """Run ``callback()`` at absolute simulated time ``when``."""
        if not when >= self._now:
            raise SimulationError(
                f"cannot schedule at {when} with the clock at {self._now}")
        marker = self.timeout(when - self._now)
        marker.add_callback(lambda _e: callback())
        return marker

    def call_in(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` seconds, without an :class:`Event`.

        The lightweight sibling of :meth:`call_at` for fire-once callbacks
        nothing needs to wait on: one queue entry, no event object, no
        callbacks list.  Ties against events scheduled for the same instant
        are still broken by scheduling order, so replacing a one-callback
        :class:`Timeout` with ``call_in`` preserves the event-by-event
        timeline exactly.
        """
        if not delay >= 0:
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
        """Process the next scheduled event (or deferred call)."""
        when, _seq, target, args = heapq.heappop(self._queue)
        if self.monotonic_guard and when < self._now:
            raise self._backwards(when)
        self._now = when
        if args is not None:
            target(*args)
            return
        callbacks = target.callbacks
        target.callbacks = None
        target._processed = True
        if callbacks:
            for callback in callbacks:
                callback(target)
        elif not target._ok:
            # A failed event nobody waited on would silently swallow the
            # error; surface it instead ("errors should never pass silently").
            raise target._value

    # -- snapshot/fork support --------------------------------------------

    def fork_barrier(self, until: float, stop: Optional["Event"] = None) -> bool:
        """Run the shared prefix up to the divergence point.

        Processes every event scheduled at or before ``until`` (exactly the
        events :meth:`run` with the same bound would process) and then
        advances the clock to ``until``, leaving later events queued.  If
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

        Unlike :meth:`run`, pending events beyond the trigger point stay in
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
            when, _seq, target, args = pop(queue)
            if self.monotonic_guard and when < self._now:
                raise self._backwards(when)
            self._now = when
            if args is not None:
                target(*args)
                continue
            callbacks = target.callbacks
            target.callbacks = None
            target._processed = True
            if callbacks:
                for callback in callbacks:
                    callback(target)
            elif not target._ok:
                raise target._value
        if until is not None:
            self._now = until
