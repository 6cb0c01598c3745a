"""Trace sinks: where the tracer's event stream lands.

* :class:`MemorySink` -- keeps events in a list for tests and in-process
  inspection.
* :class:`JsonLinesSink` -- the Spark-eventlog analogue: one JSON object per
  line, headed by a schema marker, replayable by
  :mod:`repro.observability.history`.  Output is deterministic (insertion
  order = ``(ts, seq)`` order) so logs from identical seeds diff clean.

Every event line is, byte for byte,
``json.dumps(event.to_json(), separators=(",", ":"), sort_keys=True)``.
:class:`JsonLinesSink` writes that line without building the dict: the
envelope keys go out in their sorted order, each distinct ``args`` key
order gets a cached template of sorted keys and pre-escaped ``"key":``
prefixes, and exact floats, ints, strs and ``None`` are formatted the way
the stdlib encoder formats them.  Anything else goes through one stdlib
encoder (see :func:`_value`).
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _string
from typing import IO, Any, Dict, List, Optional, Tuple, Union

from repro.observability.events import COMPLETE, SCHEMA, TraceEvent

#: The stdlib encoder behind every value the fast path does not format
#: itself: bools, NaN and +-inf, float/int/str subclasses, containers and
#: non-str keys.
_encode = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode
_float = float.__repr__
_int = int.__repr__
_INF = float("inf")


def _value(value: Any) -> str:
    """``value`` exactly as :data:`_encode` writes it."""
    kind = type(value)
    if kind is float:
        if -_INF < value < _INF:  # NaN fails both comparisons
            return _float(value)
    elif kind is str:
        return _string(value)
    elif kind is int:
        return _int(value)
    elif value is None:
        return "null"
    return _encode(value)


def _args_template(keys: Tuple[Any, ...]) -> Tuple[Tuple[str, str], ...]:
    """``(key, prefix)`` pairs in sorted key order; each prefix opens the
    object or separates the previous member and ends in ``"key":``.  Empty
    when a key is not an exact ``str``: such args go through
    :data:`_encode` whole, which sorts and stringifies keys its own way."""
    if not all(type(key) is str for key in keys):
        return ()
    return tuple(
        (key, ("," if index else "{") + _string(key) + ":")
        for index, key in enumerate(sorted(keys))
    )


class TraceSink:
    """Receives every event the tracer emits; close() flushes."""

    #: Sinks that *consume* the stream to build demand profiles set this;
    #: the context checks it to decide whether ``ctx.profiling`` is on.
    is_profiler = False

    def write(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush buffered state; further writes are undefined."""


class MemorySink(TraceSink):
    """In-memory event store."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def write(self, event: TraceEvent) -> None:
        self.events.append(event)


class JsonLinesSink(TraceSink):
    """Spark-style JSONL event log.

    Accepts a path (opened and owned) or an already-open text stream (not
    closed, so callers can write to ``io.StringIO`` in tests).
    """

    def __init__(self, target: Union[str, IO[str]]) -> None:
        self._owns_stream = isinstance(target, str)
        self._stream: Optional[IO[str]] = (
            open(target, "w", encoding="utf-8") if self._owns_stream
            else target
        )
        self._stream.write(json.dumps({"kind": "meta", "schema": SCHEMA}))
        self._stream.write("\n")
        #: ``tuple(args)`` -> :func:`_args_template` of that key order.
        self._templates: Dict[Tuple[Any, ...], Tuple[Tuple[str, str], ...]] = {}

    def write(self, event: TraceEvent) -> None:
        # The envelope keys in sorted order, mirroring TraceEvent.to_json;
        # the common value types are formatted inline (see _value).  One
        # unbuffered write per event: callers read a StringIO target while
        # the tracer is still open.
        stream = self._stream
        if stream is None:
            raise RuntimeError("sink is closed")
        args = event.args
        if not args:
            head = '{"cat":'
        else:
            keys = tuple(args)
            template = self._templates.get(keys)
            if template is None:
                template = self._templates[keys] = _args_template(keys)
            if not template:
                head = '{"args":' + _encode(args) + ',"cat":'
            else:
                head = '{"args":'
                for key, prefix in template:
                    value = args[key]
                    kind = type(value)
                    if kind is float and -_INF < value < _INF:
                        head += prefix + _float(value)
                    elif kind is str:
                        head += prefix + _string(value)
                    elif kind is int:
                        head += prefix + _int(value)
                    elif value is None:
                        head += prefix + "null"
                    else:
                        head += prefix + _encode(value)
                head += '},"cat":'
        cat = event.cat
        cat = _string(cat) if type(cat) is str else _value(cat)
        kind = event.kind
        dur = ',"dur":' + _value(event.dur) if kind == COMPLETE else ""
        kind = _string(kind) if type(kind) is str else _value(kind)
        name = event.name
        name = _string(name) if type(name) is str else _value(name)
        parent = event.parent
        if parent >= 0:
            parent = ',"parent":' + (_int(parent) if type(parent) is int
                                     else _value(parent))
        else:
            parent = ""
        seq = event.seq
        seq = _int(seq) if type(seq) is int else _value(seq)
        span = event.span
        if span >= 0:
            span = ',"span":' + (_int(span) if type(span) is int
                                 else _value(span))
        else:
            span = ""
        ts = event.ts
        ts = (_float(ts) if type(ts) is float and -_INF < ts < _INF
              else _value(ts))
        stream.write(f'{head}{cat}{dur},"kind":{kind},"name":{name}{parent}'
                     f',"seq":{seq}{span},"ts":{ts}}}\n')

    def close(self) -> None:
        if self._stream is None:
            return
        self._stream.flush()
        if self._owns_stream:
            self._stream.close()
        self._stream = None
