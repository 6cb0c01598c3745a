"""The history server: reconstruct a run from its event log alone.

Spark's history server re-renders a finished application's UI from the
JSON event log; this module is the analogue for the simulator.  Given a
JSONL trace written by :class:`~repro.observability.sinks.JsonLinesSink`,
:func:`reconstruct` rebuilds

* total runtime and per-stage start/end/duration (matching the live
  :class:`~repro.engine.metrics.RunRecorder` exactly -- span timestamps are
  the same ``sim.now`` reads the recorder stores);
* the pool-size decision log and final per-executor pool sizes per stage
  (Fig. 6's raw data);
* the ζ trajectory of every MAPE-K interval, with the analyzer's decision
  (Fig. 7's raw data);
* the end-of-run metrics snapshot, when the log carries one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.observability.events import (
    BEGIN,
    COMPLETE,
    END,
    INSTANT,
    SCHEMA,
    TraceEvent,
)


def load_events(path: str, allow_truncated: bool = False,
                warn=None) -> List[TraceEvent]:
    """Read a JSONL event log; meta lines and unknown kinds are skipped.

    With ``allow_truncated`` a malformed *final* line -- the signature of a
    writer killed mid-``write`` (crashed run, full disk) -- is skipped with
    a warning (``warn(message)``, defaulting to stderr) instead of raising,
    so ``repro history``/``repro profile`` can analyse a crashed run's
    partial log.  Corruption anywhere *before* the last line still raises,
    as does a file whose *only* line is malformed: that is not truncation
    but a damaged or wrong-format file.
    """
    events: List[TraceEvent] = []
    parsed_any = False  # a bad final line only counts as truncation if
    #                     at least one earlier line parsed cleanly
    with open(path, "r", encoding="utf-8") as stream:
        lines = stream.read().splitlines()
    last_lineno = len(lines)
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        tolerate = allow_truncated and lineno == last_lineno and parsed_any
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            if tolerate:
                _warn(warn, f"{path}:{lineno}: skipping partial trailing "
                            f"line (truncated log?)")
                break
            raise ValueError(
                f"{path}:{lineno}: not valid JSON: {exc}"
            ) from None
        if isinstance(doc, dict) and doc.get("kind") == "meta":
            schema = doc.get("schema", "")
            if schema and schema != SCHEMA:
                raise ValueError(
                    f"{path}: unsupported event-log schema {schema!r}"
                )
            parsed_any = True
            continue
        try:
            events.append(TraceEvent.from_json(doc))
            parsed_any = True
        except (KeyError, TypeError, ValueError) as exc:
            if tolerate:
                _warn(warn, f"{path}:{lineno}: skipping partial trailing "
                            f"event (truncated log?)")
                break
            raise ValueError(
                f"{path}:{lineno}: not a trace event "
                f"(is this really an event log?): {exc!r}"
            ) from None
    return events


def _warn(warn, message: str) -> None:
    if warn is None:
        import sys

        print(f"warning: {message}", file=sys.stderr)
    else:
        warn(message)


@dataclass
class StageHistory:
    """One stage as reconstructed from the log."""

    stage_id: int
    name: str
    is_io_marked: bool
    num_tasks: int
    start_time: float
    end_time: Optional[float] = None
    tasks_seen: int = 0
    final_pool_sizes: Dict[int, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        if self.end_time is None:
            return 0.0
        return self.end_time - self.start_time


@dataclass
class PoolDecision:
    """One pool resize, as logged by the executor's effector path."""

    time: float
    executor_id: int
    stage_id: int
    pool_size: int
    reason: str


@dataclass
class IntervalHistory:
    """One MAPE-K interval: the ζ-trajectory sample."""

    start_time: float
    end_time: float
    executor_id: int
    stage_id: int
    threads: int
    zeta: float
    decision: str


@dataclass
class HistoryReport:
    """Everything :func:`reconstruct` recovers from one event log."""

    stages: List[StageHistory] = field(default_factory=list)
    pool_decisions: List[PoolDecision] = field(default_factory=list)
    intervals: List[IntervalHistory] = field(default_factory=list)
    metrics: Optional[Dict[str, Any]] = None
    application: Dict[str, Any] = field(default_factory=dict)
    #: Spans begun but never ended, counted per category -- non-empty for
    #: truncated logs (crashed runs) and useful to see *where* it died.
    open_spans: Dict[str, int] = field(default_factory=dict)

    @property
    def total_runtime(self) -> float:
        """First stage start to last stage end, as the recorder computes it."""
        ends = [s.end_time for s in self.stages if s.end_time is not None]
        if not self.stages or not ends:
            return 0.0
        return max(ends) - self.stages[0].start_time

    def stage(self, stage_id: int) -> StageHistory:
        for stage in self.stages:
            if stage.stage_id == stage_id:
                return stage
        raise KeyError(f"no stage {stage_id} in this event log")

    def stage_durations(self) -> List[float]:
        return [stage.duration for stage in self.stages]

    def zeta_trajectory(
        self, executor_id: Optional[int] = None,
        stage_id: Optional[int] = None,
    ) -> List[IntervalHistory]:
        return [
            interval for interval in self.intervals
            if (executor_id is None or interval.executor_id == executor_id)
            and (stage_id is None or interval.stage_id == stage_id)
        ]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "total_runtime": self.total_runtime,
            "application": self.application,
            "stages": [
                {
                    "stage_id": s.stage_id,
                    "name": s.name,
                    "is_io_marked": s.is_io_marked,
                    "num_tasks": s.num_tasks,
                    "tasks_seen": s.tasks_seen,
                    "start_time": s.start_time,
                    "end_time": s.end_time,
                    "duration": s.duration,
                    "final_pool_sizes": {
                        str(executor): size
                        for executor, size in sorted(s.final_pool_sizes.items())
                    },
                }
                for s in self.stages
            ],
            "pool_decisions": [
                {
                    "time": d.time,
                    "executor_id": d.executor_id,
                    "stage_id": d.stage_id,
                    "pool_size": d.pool_size,
                    "reason": d.reason,
                }
                for d in self.pool_decisions
            ],
            "zeta_trajectory": [
                {
                    "start_time": i.start_time,
                    "end_time": i.end_time,
                    "executor_id": i.executor_id,
                    "stage_id": i.stage_id,
                    "threads": i.threads,
                    "zeta": i.zeta if i.zeta != float("inf") else "inf",
                    "decision": i.decision,
                }
                for i in self.intervals
            ],
            "metrics": self.metrics,
            "open_spans": {cat: count
                           for cat, count in sorted(self.open_spans.items())},
        }


def reconstruct(events: Iterable[TraceEvent]) -> HistoryReport:
    """Rebuild a run's timeline from its event stream."""
    report = HistoryReport()
    open_stages: Dict[int, StageHistory] = {}  # span id -> stage
    open_cats: Dict[int, str] = {}  # span id -> category, for open-span count
    for event in events:
        if event.kind == BEGIN:
            open_cats[event.span] = event.cat
        elif event.kind == END:
            open_cats.pop(event.span, None)
        if event.kind == BEGIN and event.cat == "stage":
            stage = StageHistory(
                stage_id=int(event.args.get("stage_id", -1)),
                name=event.name,
                is_io_marked=bool(event.args.get("io_marked", False)),
                num_tasks=int(event.args.get("num_tasks", 0)),
                start_time=event.ts,
            )
            open_stages[event.span] = stage
            report.stages.append(stage)
        elif event.kind == END and event.span in open_stages:
            open_stages.pop(event.span).end_time = event.ts
        elif event.kind == BEGIN and event.cat == "task":
            stage_id = event.args.get("stage_id")
            if stage_id is not None:
                for stage in reversed(report.stages):
                    if stage.stage_id == int(stage_id):
                        stage.tasks_seen += 1
                        break
        elif event.kind == INSTANT and event.cat == "pool":
            decision = PoolDecision(
                time=event.ts,
                executor_id=int(event.args["executor_id"]),
                stage_id=int(event.args.get("stage_id", -1)),
                pool_size=int(event.args["size"]),
                reason=event.args.get("reason", ""),
            )
            report.pool_decisions.append(decision)
            for stage in reversed(report.stages):
                if stage.stage_id == decision.stage_id:
                    stage.final_pool_sizes[decision.executor_id] = (
                        decision.pool_size
                    )
                    break
        elif event.kind == COMPLETE and event.cat == "mapek":
            zeta = event.args.get("zeta", 0.0)
            report.intervals.append(
                IntervalHistory(
                    start_time=event.ts,
                    end_time=event.end_ts,
                    executor_id=int(event.args.get("executor_id", -1)),
                    stage_id=int(event.args.get("stage_id", -1)),
                    threads=int(event.args.get("threads", 0)),
                    zeta=float("inf") if zeta == "inf" else float(zeta),
                    decision=event.args.get("decision", ""),
                )
            )
        elif event.kind == INSTANT and event.cat == "app":
            if event.name == "application-start":
                report.application = dict(event.args)
            elif event.name == "metrics":
                report.metrics = event.args.get("snapshot")
    for cat in open_cats.values():
        report.open_spans[cat] = report.open_spans.get(cat, 0) + 1
    return report
