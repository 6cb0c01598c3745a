"""The span tracer: an event bus from instrumentation sites to sinks.

Design constraints (ISSUE 1):

* **Zero-cost when disabled.**  Call sites guard with ``if tracer.enabled:``
  before building argument dicts, and :data:`NULL_TRACER` (the default wired
  into every :class:`~repro.engine.context.SparkContext`) is permanently
  disabled, so benchmark runs pay one attribute read per potential event.
* **Deterministic.**  Timestamps come from the simulated clock and ties are
  broken by an emission sequence number, so identical seeds give identical
  logs.
* **Pluggable sinks.**  The tracer fans every event out to its sinks
  (in-memory, JSONL event log, Chrome trace); sinks never see partial spans.

The tracer is clock-agnostic at construction: the context that owns the
simulator binds the clock (``bind_clock``) before the first event, which
lets command-line code build a tracer before any cluster exists.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.observability.events import (
    BEGIN,
    COMPLETE,
    COUNTER,
    END,
    INSTANT,
    TraceEvent,
)
from repro.observability.sinks import TraceSink


def _zero_clock() -> float:
    return 0.0


class Tracer:
    """Emits :class:`TraceEvent` records to every attached sink."""

    def __init__(
        self,
        sinks: Iterable[TraceSink] = (),
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.sinks = list(sinks)
        self.clock = clock if clock is not None else _zero_clock
        self.enabled = True
        self._next_seq = 0
        self._next_span = 0
        self._closed = False

    # -- wiring ------------------------------------------------------------

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the simulated clock (called by the owning context)."""
        self.clock = clock

    def add_sink(self, sink: TraceSink) -> None:
        self.sinks.append(sink)

    # -- emission ----------------------------------------------------------
    #
    # Each method stamps inline (clock read, then the next seq) and builds
    # one event, which every sink receives in attachment order.

    def begin(self, cat: str, name: str, parent: int = -1,
              **args: Any) -> int:
        """Open a span; returns its id for the matching :meth:`end`."""
        span = self._next_span
        self._next_span = span + 1
        seq = self._next_seq
        self._next_seq = seq + 1
        event = TraceEvent(self.clock(), seq, BEGIN, cat, name, span, parent,
                           0.0, args)
        for sink in self.sinks:
            sink.write(event)
        return span

    def end(self, span: int, **args: Any) -> None:
        """Close a span opened by :meth:`begin`."""
        seq = self._next_seq
        self._next_seq = seq + 1
        event = TraceEvent(self.clock(), seq, END, "", "", span, -1, 0.0,
                           args)
        for sink in self.sinks:
            sink.write(event)

    def complete(self, cat: str, name: str, start: float, end: float,
                 parent: int = -1, **args: Any) -> None:
        """Report a finished span whose start predates this call."""
        seq = self._next_seq
        self._next_seq = seq + 1
        event = TraceEvent(start, seq, COMPLETE, cat, name, -1, parent,
                           max(0.0, end - start), args)
        for sink in self.sinks:
            sink.write(event)

    def instant(self, cat: str, name: str, **args: Any) -> None:
        seq = self._next_seq
        self._next_seq = seq + 1
        event = TraceEvent(self.clock(), seq, INSTANT, cat, name, -1, -1,
                           0.0, args)
        for sink in self.sinks:
            sink.write(event)

    def counter(self, cat: str, name: str, value: float, **args: Any) -> None:
        args["value"] = value
        seq = self._next_seq
        self._next_seq = seq + 1
        event = TraceEvent(self.clock(), seq, COUNTER, cat, name, -1, -1,
                           0.0, args)
        for sink in self.sinks:
            sink.write(event)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Flush and close every sink (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for sink in self.sinks:
            sink.close()


class NullTracer(Tracer):
    """The disabled tracer: never emits, never costs more than one check.

    Instrumentation sites are expected to guard on ``tracer.enabled``; the
    overridden methods exist so an unguarded call is still harmless.
    """

    def __init__(self) -> None:
        super().__init__(sinks=())
        self.enabled = False

    def begin(self, cat: str, name: str, parent: int = -1,
              **args: Any) -> int:  # noqa: ARG002 - interface parity
        return -1

    def end(self, span: int, **args: Any) -> None:
        pass

    def complete(self, cat: str, name: str, start: float, end: float,
                 parent: int = -1, **args: Any) -> None:
        pass

    def instant(self, cat: str, name: str, **args: Any) -> None:
        pass

    def counter(self, cat: str, name: str, value: float, **args: Any) -> None:
        pass


#: Shared disabled tracer; safe because it holds no state and no sinks.
NULL_TRACER = NullTracer()
