"""The trace-event record shared by the tracer, sinks, and history server.

One event is one timeline occurrence on the *simulated* clock.  Kinds follow
the Chrome ``trace_event`` phase vocabulary where it fits:

* ``B``/``E`` -- begin/end of a span (stage, task, I/O chunk, process);
* ``X`` -- a complete span reported at its end with an explicit duration
  (MAPE-K intervals, whose start predates the emission point);
* ``I`` -- an instant (pool resize, scheduler message, MAPE-K phase);
* ``C`` -- a counter sample (device queue depth, NIC bytes).

Events are totally ordered by ``(ts, seq)``: ``ts`` is simulated seconds and
``seq`` a per-tracer monotonic counter, so two runs at the same seed produce
byte-identical logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

BEGIN = "B"
END = "E"
COMPLETE = "X"
INSTANT = "I"
COUNTER = "C"

KINDS = (BEGIN, END, COMPLETE, INSTANT, COUNTER)

#: Marks the head of a JSONL event log; readers skip unknown schemas.
SCHEMA = "repro.trace/1"


@dataclass(slots=True)
class TraceEvent:
    """One occurrence on the simulated timeline."""

    ts: float
    seq: int
    kind: str
    cat: str
    name: str
    span: int = -1
    parent: int = -1
    dur: float = 0.0
    args: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        """Compact dict for the JSONL log (defaults omitted)."""
        doc: Dict[str, Any] = {
            "ts": self.ts,
            "seq": self.seq,
            "kind": self.kind,
            "cat": self.cat,
            "name": self.name,
        }
        if self.span >= 0:
            doc["span"] = self.span
        if self.parent >= 0:
            doc["parent"] = self.parent
        if self.kind == COMPLETE:
            doc["dur"] = self.dur
        if self.args:
            doc["args"] = self.args
        return doc

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "TraceEvent":
        return cls(
            ts=float(doc["ts"]),
            seq=int(doc["seq"]),
            kind=doc["kind"],
            cat=doc.get("cat", ""),
            name=doc.get("name", ""),
            span=int(doc.get("span", -1)),
            parent=int(doc.get("parent", -1)),
            dur=float(doc.get("dur", 0.0)),
            args=doc.get("args", {}),
        )

    @property
    def end_ts(self) -> float:
        """Span end for ``X`` events; ``ts`` otherwise."""
        return self.ts + self.dur if self.kind == COMPLETE else self.ts
