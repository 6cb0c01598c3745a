"""Differential tests: the JSONL sink's line encoder vs ``json.dumps``.

:class:`~repro.observability.sinks.JsonLinesSink` formats each line itself
(sorted envelope, cached per-key-order ``args`` templates, inline float /
int / str / ``None`` formatting, the stdlib encoder for everything else).
The contract it must keep is the one the event logs have always had: each
event line is, byte for byte, ::

    json.dumps(event.to_json(), separators=(",", ":"), sort_keys=True)

The storm draws arbitrary events, including the values the fast path hands
to the fallback (NaN, infinities, bools, ``IntEnum``, subclasses, nested
containers, non-str keys), and writes each one again with its ``args`` in
a different key order so the template cache is exercised on hits.  Its
budget comes from the active hypothesis profile::

    python -m pytest tests/observability/test_sink_encoder.py \\
        --hypothesis-profile=kernel-ci
"""

import enum
import io
import json
import random

import pytest
from hypothesis import given, strategies as st

from repro.observability.events import KINDS, TraceEvent
from repro.observability.sinks import JsonLinesSink, _value


class _Float(float):
    pass


class _Int(int):
    pass


class _Str(str):
    pass


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2 ** 40


def oracle(event: TraceEvent) -> str:
    return json.dumps(event.to_json(), separators=(",", ":"), sort_keys=True)


def written(events):
    """The lines a fresh sink writes for ``events``, header dropped."""
    stream = io.StringIO()
    sink = JsonLinesSink(stream)
    for event in events:
        sink.write(event)
    return stream.getvalue().split("\n")[1:-1]


FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308,
                     -1e308, float("nan"), float("inf"), float("-inf")]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats().map(_Float),
)
INTS = st.one_of(
    st.integers(),
    st.integers(min_value=2 ** 64, max_value=2 ** 200),
    st.booleans(),
    st.sampled_from(list(_Level)),
    st.integers().map(_Int),
)
TEXT = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", '"quoted"', "\x00\x1f\x7f", "tab\there\n",
                     "café", "\u2028", "日本語", "😀", ""]),
    st.text(max_size=8).map(_Str),
)
SCALARS = st.one_of(FLOATS, INTS, TEXT, st.none())
STR_KEYS = st.lists(TEXT, max_size=5, unique=True)
#: Keys of one type per dict: mixing types makes ``sort_keys`` raise.
OTHER_KEYS = st.one_of(
    st.lists(st.integers(-3, 3), max_size=3, unique=True),
    st.lists(st.floats(allow_nan=False), max_size=3, unique=True),
)


def _dicts(keys, values):
    return keys.flatmap(lambda drawn: st.tuples(
        *(values for _ in drawn)).map(lambda vals: dict(zip(drawn, vals))))


VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(st.lists(children, max_size=3),
                               _dicts(STR_KEYS, children),
                               _dicts(OTHER_KEYS, children)),
    max_leaves=8,
)
#: Flat str-keyed args (what the tracer emits) dominate; nested values and
#: non-str keys take the fallback paths.
ARGS = st.one_of(
    st.just({}),
    _dicts(STR_KEYS, SCALARS),
    _dicts(STR_KEYS, VALUES),
    _dicts(OTHER_KEYS, VALUES),
)
SPANS = st.one_of(st.integers(-3, 2 ** 40), st.sampled_from(list(_Level)),
                  st.booleans())

EVENTS = st.builds(
    TraceEvent,
    ts=st.one_of(FLOATS, st.integers(0, 10 ** 6)),
    seq=INTS,
    kind=st.sampled_from(KINDS),
    cat=TEXT,
    name=TEXT,
    span=SPANS,
    parent=SPANS,
    dur=st.one_of(FLOATS, st.integers(0, 10)),
    args=ARGS,
)


def _reordered(event: TraceEvent, rng: random.Random) -> TraceEvent:
    """The same event with its ``args`` inserted in another key order."""
    items = list(event.args.items())
    rng.shuffle(items)
    return TraceEvent(event.ts, event.seq, event.kind, event.cat, event.name,
                      event.span, event.parent, event.dur, dict(items))


@given(st.lists(EVENTS, min_size=1, max_size=8), st.randoms())
def test_line_equals_json_dumps(events, rng):
    events = events + [_reordered(event, rng) for event in events]
    assert written(events) == [oracle(event) for event in events]


@given(VALUES)
def test_value_equals_json_dumps(value):
    assert _value(value) == json.dumps(value, separators=(",", ":"),
                                       sort_keys=True)


def test_complete_event_and_envelope_order():
    event = TraceEvent(1.5, 7, "X", "mapek", "interval", span=-1, parent=3,
                       dur=0.25, args={"zeta": 1.0, "alpha": None})
    assert written([event]) == [
        '{"args":{"alpha":null,"zeta":1.0},"cat":"mapek","dur":0.25,'
        '"kind":"X","name":"interval","parent":3,"seq":7,"ts":1.5}'
    ]


def test_key_orders_share_one_line():
    forward = TraceEvent(0.0, 0, "C", "device", "disk0",
                         args={"op": "read", "value": 2, "efficiency": 0.5})
    backward = TraceEvent(0.0, 0, "C", "device", "disk0",
                          args={"value": 2, "efficiency": 0.5, "op": "read"})
    first, second = written([forward, backward, forward])[:2]
    assert first == second == oracle(forward)


def test_unsortable_keys_raise_like_the_oracle():
    event = TraceEvent(0.0, 0, "I", "app", "x", args={1: "a", "b": 2})
    with pytest.raises(TypeError):
        oracle(event)
    stream = io.StringIO()
    sink = JsonLinesSink(stream)
    header = stream.getvalue()
    with pytest.raises(TypeError):
        sink.write(event)
    assert stream.getvalue() == header  # nothing partial reached the stream


def test_each_event_reaches_the_stream_at_once():
    stream = io.StringIO()
    sink = JsonLinesSink(stream)
    event = TraceEvent(2.0, 0, "B", "task", "t", span=0, args={"x": 1})
    sink.write(event)
    assert stream.getvalue().endswith(oracle(event) + "\n")
