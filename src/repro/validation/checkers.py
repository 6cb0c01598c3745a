"""Invariant checkers over the trace-event stream.

Each checker consumes the trace-event stream (live from the tracer or
replayed from a JSONL log) and verifies one class of engine invariant using
only the event vocabulary the observability layer already emits -- which is
what lets ``repro validate`` replay the committed golden logs unchanged.

Two regimes:

* **strict** -- a fault-free run: every span balances, every stage launches
  exactly ``num_tasks`` attempts, executors idle between stages.
* **fault-tolerant** -- the log contains ``fault``/``speculation`` events:
  killed attempts legitimately leave ``task``/``io``/``process`` spans open
  (the interrupt path cannot emit their ``E``), partitions may complete
  twice (lineage recomputation), and stages may relaunch work.  Structural
  invariants (ordering, registries, shuffle accounting, queue bounds) hold
  in both regimes.

The strict/fault decision is streaming-safe: every kill or retry in the
engine is *preceded* by the fault instant that caused it, so by the time a
checker sees fault fallout the shared :class:`CheckContext` is already in
fault mode.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from repro.observability.events import (
    BEGIN,
    COMPLETE,
    COUNTER,
    END,
    INSTANT,
    TraceEvent,
)
from repro.validation.report import ValidationReport, Violation

#: Spans of these categories must close even in fault mode: stages and
#: recovery waves are driver-side and survive any executor fault short of a
#: job abort.
_ALWAYS_CLOSED_CATS = ("stage", "recovery")

#: Relative float tolerance for clock comparisons (an ``X`` event's
#: ``ts + dur`` is recomputed and may differ from the emission clock by ulps).
_EPS = 1e-9

_LEGAL_DECISIONS = ("climb", "rollback", "reached-cmax")


class CheckContext:
    """Stream-wide facts shared by every checker."""

    def __init__(self, max_failures: Optional[int] = None) -> None:
        self.cores_per_node = 0
        self.num_nodes = 0
        self.fault_mode = False
        self.job_aborted = False
        self.max_failures = max_failures

    def note(self, event: TraceEvent) -> None:
        if event.cat in ("fault", "speculation"):
            self.fault_mode = True
            if event.name == "job-aborted":
                self.job_aborted = True
        elif event.cat == "app" and event.name == "application-start":
            self.cores_per_node = int(event.args.get("cores_per_node", 0))
            self.num_nodes = int(event.args.get("num_nodes", 0))


class Checker:
    """Base: one invariant class over the event stream."""

    name = "base"

    def __init__(self, report: ValidationReport, ctx: CheckContext) -> None:
        self.report = report
        self.ctx = ctx

    def check(self, condition: bool, invariant: str, message: str,
              event: Optional[TraceEvent] = None, **context) -> bool:
        """Count one check; record a violation when ``condition`` is False."""
        self.report.checks_run += 1
        if not condition:
            self.report.add(Violation(
                invariant=invariant,
                message=message,
                ts=event.ts if event is not None else 0.0,
                seq=event.seq if event is not None else -1,
                context=context,
            ))
        return condition

    def observe(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def finish(self, strict: bool) -> None:
        """End-of-stream checks; ``strict`` is True for fault-free logs."""


class ClockChecker(Checker):
    """Monotonic simulated clock and strictly increasing sequence numbers."""

    name = "clock"

    def __init__(self, report: ValidationReport, ctx: CheckContext) -> None:
        super().__init__(report, ctx)
        self._last_seq: Optional[int] = None
        self._clock = 0.0

    def _tol(self) -> float:
        return _EPS * max(1.0, abs(self._clock))

    def observe(self, event: TraceEvent) -> None:
        if self._last_seq is not None:
            self.check(
                event.seq > self._last_seq, "clock.sequence",
                f"sequence number {event.seq} does not increase past "
                f"{self._last_seq}", event,
            )
        self._last_seq = event.seq
        self.check(event.ts >= 0.0, "clock.monotonic",
                   f"negative timestamp {event.ts}", event)
        if event.kind == COMPLETE:
            # X events carry the span *start* as ts, which legitimately
            # predates the current clock; the span end may not.
            self.check(event.dur >= 0.0, "clock.monotonic",
                       f"complete event has negative duration {event.dur}",
                       event)
            self.check(
                event.end_ts >= self._clock - self._tol(), "clock.monotonic",
                f"complete event ends at {event.end_ts} before the current "
                f"clock {self._clock}", event,
            )
        else:
            self.check(
                event.ts >= self._clock - self._tol(), "clock.monotonic",
                f"clock went backwards: {event.ts} after {self._clock}",
                event,
            )
            if event.ts > self._clock:
                self._clock = event.ts


class SpanChecker(Checker):
    """Span balance: every B has one E, ids are unique, parents exist."""

    name = "spans"

    def __init__(self, report: ValidationReport, ctx: CheckContext) -> None:
        super().__init__(report, ctx)
        self._open: Dict[int, TraceEvent] = {}
        self._closed: Set[int] = set()
        self._last: Optional[TraceEvent] = None

    def observe(self, event: TraceEvent) -> None:
        self._last = event
        if event.kind == BEGIN:
            span = event.span
            self.check(span >= 0, "spans.balance",
                       "begin event without a span id", event)
            fresh = self.check(
                span not in self._open and span not in self._closed,
                "spans.balance",
                f"span id {span} reused ({event.cat}/{event.name})", event,
                cat=event.cat, name=event.name,
            )
            if event.parent >= 0:
                self.check(
                    event.parent in self._open or event.parent in self._closed,
                    "spans.balance",
                    f"span {span} references unknown parent {event.parent}",
                    event,
                )
            if fresh:
                self._open[span] = event
        elif event.kind == END:
            opener = self._open.pop(event.span, None)
            self.check(
                opener is not None, "spans.balance",
                f"end event for span {event.span} that is "
                + ("already closed" if event.span in self._closed
                   else "not open"),
                event,
            )
            if opener is not None:
                self._closed.add(event.span)

    def finish(self, strict: bool) -> None:
        for span, opener in sorted(self._open.items()):
            must_close = opener.cat in _ALWAYS_CLOSED_CATS
            if self.ctx.job_aborted and opener.cat == "recovery":
                # An abort tears the recovery span down with the job.
                must_close = False
            self.check(
                not (strict or must_close), "spans.balance",
                f"span {span} ({opener.cat}/{opener.name}) still open at end "
                f"of log" + ("" if strict else
                             " (must close even under faults)"),
                self._last,
                opened_at=opener.ts,
            )


class _StageState:
    def __init__(self, event: TraceEvent) -> None:
        self.stage_id = int(event.args.get("stage_id", -1))
        self.name = event.name
        self.num_tasks = int(event.args.get("num_tasks", 0))
        self.launched = 0
        self.completed = 0
        self.crashed = 0
        self.completed_partitions: Set[int] = set()
        self.closed = False
        self.error: Optional[str] = None


class TaskChecker(Checker):
    """Task conservation per stage, attempt uniqueness, retry budgets."""

    name = "tasks"

    def __init__(self, report: ValidationReport, ctx: CheckContext) -> None:
        super().__init__(report, ctx)
        self._stages: Dict[int, _StageState] = {}
        self._stage_spans: Dict[int, int] = {}  # span -> stage_id
        self._open_tasks: Dict[int, TraceEvent] = {}  # span -> task B
        self._attempts: Set[Tuple[int, int, int]] = set()
        self._crashes: Dict[Tuple[int, int], int] = {}
        self._last: Optional[TraceEvent] = None

    def observe(self, event: TraceEvent) -> None:
        self._last = event
        if event.kind == BEGIN and event.cat == "stage":
            state = _StageState(event)
            self.check(
                state.stage_id not in self._stages, "tasks.conservation",
                f"stage id {state.stage_id} submitted twice", event,
            )
            self._stages[state.stage_id] = state
            self._stage_spans[event.span] = state.stage_id
        elif event.kind == BEGIN and event.cat == "task":
            stage_id = int(event.args.get("stage_id", -1))
            partition = int(event.args.get("partition", -1))
            attempt = int(event.args.get("attempt", 0))
            state = self._stages.get(stage_id)
            if not self.check(
                state is not None, "tasks.conservation",
                f"task launched for unknown stage {stage_id}", event,
                partition=partition,
            ):
                return
            state.launched += 1
            self._open_tasks[event.span] = event
            key = (stage_id, partition, attempt)
            self.check(
                key not in self._attempts, "tasks.conservation",
                f"duplicate attempt id {attempt} for task "
                f"{stage_id}.{partition}", event,
            )
            self._attempts.add(key)
        elif event.kind == END:
            opener = self._open_tasks.pop(event.span, None)
            if opener is not None:
                self._task_closed(opener, event)
                return
            stage_id = self._stage_spans.pop(event.span, None)
            if stage_id is not None:
                self._stage_closed(self._stages[stage_id], event)

    def _task_closed(self, opener: TraceEvent, event: TraceEvent) -> None:
        stage_id = int(opener.args.get("stage_id", -1))
        partition = int(opener.args.get("partition", -1))
        state = self._stages.get(stage_id)
        if state is None or event.args.get("killed"):
            # A killed attempt neither completed nor crashed.
            return
        if event.args.get("crashed"):
            state.crashed += 1
            key = (stage_id, partition)
            crashes = self._crashes.get(key, 0) + 1
            self._crashes[key] = crashes
            limit = self.ctx.max_failures
            if limit is not None:
                self.check(
                    crashes <= limit, "tasks.retries",
                    f"task {stage_id}.{partition} crashed {crashes} times, "
                    f"beyond spark.task.maxFailures={limit}", event,
                )
            return
        state.completed += 1
        duplicate = partition in state.completed_partitions
        self.check(
            not duplicate or self.ctx.fault_mode, "tasks.conservation",
            f"partition {stage_id}.{partition} completed twice in a "
            f"fault-free run", event,
        )
        state.completed_partitions.add(partition)

    def _stage_closed(self, state: _StageState, event: TraceEvent) -> None:
        state.closed = True
        state.error = event.args.get("error")
        if state.error is not None:
            return  # an aborted stage is allowed to be incomplete
        expected = set(range(state.num_tasks))
        missing = sorted(expected - state.completed_partitions)
        self.check(
            not missing, "tasks.conservation",
            f"stage {state.stage_id} ({state.name}) closed with "
            f"{len(missing)}/{state.num_tasks} partitions never completed: "
            f"{missing[:8]}", event,
        )

    def finish(self, strict: bool) -> None:
        limit = self.ctx.max_failures
        if limit is not None:
            for (stage_id, partition), crashes in sorted(self._crashes.items()):
                if crashes >= limit:
                    self.check(
                        self.ctx.job_aborted, "tasks.retries",
                        f"task {stage_id}.{partition} exhausted its "
                        f"{limit}-failure budget but the job never aborted",
                        self._last,
                    )
        for stage_id, state in sorted(self._stages.items()):
            leaked = state.launched - state.completed - state.crashed
            self.check(
                leaked >= 0, "tasks.conservation",
                f"stage {stage_id}: more completions than launches "
                f"(launched={state.launched} completed={state.completed} "
                f"crashed={state.crashed})", self._last,
            )
            if strict:
                self.check(
                    leaked == 0, "tasks.conservation",
                    f"stage {stage_id}: {leaked} launched attempt(s) neither "
                    f"completed nor crashed in a fault-free run", self._last,
                )
                self.check(
                    state.launched == state.num_tasks, "tasks.conservation",
                    f"stage {stage_id} launched {state.launched} attempts "
                    f"for {state.num_tasks} partitions in a fault-free run "
                    f"(retries or speculation without a fault event)",
                    self._last,
                )


class RegistryChecker(Checker):
    """The scheduler/executor running-task registry, seen through events.

    The driver-side registry itself is checked live (hook-based, exact);
    offline the event stream still pins down its observable consequences:
    per-executor concurrency never exceeds the core bank, executors idle at
    every stage boundary of a fault-free run, and every pool size stays
    within ``[1, cores]``.
    """

    name = "registry"

    def __init__(self, report: ValidationReport, ctx: CheckContext) -> None:
        super().__init__(report, ctx)
        self._running: Dict[int, int] = {}
        self._task_executor: Dict[int, int] = {}  # span -> executor_id

    def observe(self, event: TraceEvent) -> None:
        if event.kind == BEGIN and event.cat == "task":
            executor_id = int(event.args.get("executor_id", -1))
            running = self._running.get(executor_id, 0) + 1
            self._running[executor_id] = running
            self._task_executor[event.span] = executor_id
            cores = self.ctx.cores_per_node
            if cores:
                self.check(
                    running <= cores, "scheduler.registry",
                    f"executor {executor_id} runs {running} concurrent tasks "
                    f"with only {cores} cores", event,
                )
        elif event.kind == END:
            executor_id = self._task_executor.pop(event.span, None)
            if executor_id is not None:
                self._running[executor_id] -= 1
        elif event.kind == BEGIN and event.cat == "stage":
            if not self.ctx.fault_mode:
                for executor_id, running in sorted(self._running.items()):
                    self.check(
                        running == 0, "scheduler.registry",
                        f"stage {event.args.get('stage_id')} started while "
                        f"executor {executor_id} still runs {running} "
                        f"task(s)", event,
                    )
        elif event.kind == INSTANT and event.cat == "pool":
            size = int(event.args.get("size", 0))
            self._check_pool_size(size, event)
        elif event.kind == INSTANT and event.cat == "scheduler" \
                and event.name == "pool-resized":
            self._check_pool_size(int(event.args.get("pool_size", 0)), event)

    def _check_pool_size(self, size: int, event: TraceEvent) -> None:
        cores = self.ctx.cores_per_node
        self.check(
            size >= 1 and (not cores or size <= cores), "scheduler.registry",
            f"pool size {size} outside [1, {cores or '?'}] on executor "
            f"{event.args.get('executor_id')}", event,
        )

    def finish(self, strict: bool) -> None:
        if strict:
            for executor_id, running in sorted(self._running.items()):
                self.check(
                    running == 0, "scheduler.registry",
                    f"executor {executor_id} still runs {running} task(s) at "
                    f"end of a fault-free log", None,
                )


class MapekChecker(Checker):
    """MAPE-K pool bounds and legal hill-climb/rollback transitions."""

    name = "mapek"

    def __init__(self, report: ValidationReport, ctx: CheckContext) -> None:
        super().__init__(report, ctx)
        #: (executor, stage) -> (threads, decision) of the last interval.
        self._last_interval: Dict[Tuple[int, int], Tuple[int, str]] = {}
        self._settled: Set[Tuple[int, int]] = set()

    @staticmethod
    def _key(event: TraceEvent) -> Tuple[int, int]:
        return (int(event.args.get("executor_id", -1)),
                int(event.args.get("stage_id", -1)))

    def observe(self, event: TraceEvent) -> None:
        if event.cat != "mapek":
            return
        if event.kind == INSTANT and event.name == "analyze":
            key = self._key(event)
            threads = int(event.args.get("threads", 0))
            decision = event.args.get("decision", "")
            cores = self.ctx.cores_per_node
            self.check(
                threads >= 1 and (not cores or threads <= cores),
                "mapek.bounds",
                f"analyzer chose {threads} threads outside [1, "
                f"{cores or '?'}] for executor {key[0]} stage {key[1]}",
                event,
            )
            self.check(
                decision in _LEGAL_DECISIONS, "mapek.transition",
                f"unknown analyzer decision {decision!r}", event,
            )
            self.check(
                key not in self._settled, "mapek.transition",
                f"executor {key[0]} stage {key[1]} kept adapting after "
                f"settling", event,
            )
            if event.args.get("settled"):
                self._settled.add(key)
        elif event.kind == COMPLETE and event.name == "interval":
            key = self._key(event)
            threads = int(event.args.get("threads", 0))
            decision = event.args.get("decision", "")
            previous = self._last_interval.get(key)
            if previous is not None:
                prev_threads, prev_decision = previous
                if prev_decision == "climb":
                    self.check(
                        prev_threads < threads <= 2 * prev_threads,
                        "mapek.transition",
                        f"illegal hill-climb step {prev_threads} -> "
                        f"{threads} threads on executor {key[0]} stage "
                        f"{key[1]} (climb must double, capped at cmax)",
                        event,
                    )
                else:
                    self.check(
                        False, "mapek.transition",
                        f"interval at {threads} threads after a "
                        f"{prev_decision!r} decision settled executor "
                        f"{key[0]} stage {key[1]}", event,
                    )
            self._last_interval[key] = (threads, decision)


class ShuffleChecker(Checker):
    """Shuffle-output accounting vs the MapOutputTracker instants."""

    name = "shuffle"

    def __init__(self, report: ValidationReport, ctx: CheckContext) -> None:
        super().__init__(report, ctx)
        #: shuffle_id -> {map_id: node_id} currently registered.
        self._registry: Dict[int, Dict[int, int]] = {}
        self._expected: Dict[int, int] = {}

    def observe(self, event: TraceEvent) -> None:
        if event.kind != INSTANT:
            return
        if event.cat == "shuffle" and event.name == "map-output":
            shuffle_id = int(event.args.get("shuffle_id", -1))
            map_id = int(event.args.get("map_id", -1))
            node_id = int(event.args.get("node_id", -1))
            registered = int(event.args.get("registered", -1))
            expected = int(event.args.get("expected", 0))
            outputs = self._registry.setdefault(shuffle_id, {})
            self._expected[shuffle_id] = expected
            self.check(
                map_id not in outputs, "shuffle.accounting",
                f"map output {map_id} of shuffle {shuffle_id} registered "
                f"twice without an intervening loss", event,
            )
            outputs[map_id] = node_id
            self.check(
                registered == len(outputs), "shuffle.accounting",
                f"tracker reports {registered} outputs for shuffle "
                f"{shuffle_id}, event stream has {len(outputs)}", event,
            )
            self.check(
                len(outputs) <= expected, "shuffle.accounting",
                f"shuffle {shuffle_id} holds {len(outputs)} outputs for "
                f"{expected} map partitions", event,
            )
        elif event.cat == "fault" and event.name == "shuffle-outputs-lost":
            shuffle_id = int(event.args.get("shuffle_id", -1))
            node_id = int(event.args.get("node_id", -1))
            lost_maps = int(event.args.get("lost_maps", -1))
            outputs = self._registry.get(shuffle_id, {})
            removed = [m for m, n in outputs.items() if n == node_id]
            for map_id in removed:
                del outputs[map_id]
            self.check(
                len(removed) == lost_maps, "shuffle.accounting",
                f"node {node_id} loss discarded {lost_maps} outputs of "
                f"shuffle {shuffle_id}, event stream tracked {len(removed)} "
                f"on that node", event,
            )


class QueueChecker(Checker):
    """Device queue depths and NIC transfer counters stay sane."""

    name = "queues"

    def observe(self, event: TraceEvent) -> None:
        if event.kind != COUNTER:
            return
        value = event.args.get("value", 0)
        finite = isinstance(value, (int, float)) and math.isfinite(value)
        if event.cat == "device":
            self.check(
                finite and value >= 1, "queues.nonnegative",
                f"device {event.name} queue depth {value!r} below 1 (the "
                f"sample includes the submitting request)", event,
            )
            efficiency = event.args.get("efficiency", 1.0)
            self.check(
                0.0 < efficiency <= 1.0, "queues.nonnegative",
                f"device {event.name} efficiency {efficiency!r} outside "
                f"(0, 1]", event,
            )
        elif event.cat == "network":
            self.check(
                finite and value >= 0, "queues.nonnegative",
                f"NIC {event.name} transfer of {value!r} bytes", event,
            )
            flows = event.args.get("active_flows", 1)
            self.check(
                flows >= 1, "queues.nonnegative",
                f"NIC {event.name} sampled {flows!r} active flows (the "
                f"sample includes the new flow)", event,
            )


#: Construction order == observation order; all checkers are independent.
ALL_CHECKERS = (
    ClockChecker,
    SpanChecker,
    TaskChecker,
    RegistryChecker,
    MapekChecker,
    ShuffleChecker,
    QueueChecker,
)


def run_checkers(events, max_failures: Optional[int] = None,
                 strict: Optional[bool] = None) -> ValidationReport:
    """Replay ``events`` through every checker; returns the full report.

    ``strict=None`` decides from the stream itself: a log with no
    ``fault``/``speculation`` events is held to fault-free invariants.
    """
    report = ValidationReport()
    ctx = CheckContext(max_failures=max_failures)
    checkers: List[Checker] = [cls(report, ctx) for cls in ALL_CHECKERS]
    for event in events:
        ctx.note(event)
        report.events_seen += 1
        for checker in checkers:
            checker.observe(event)
    final_strict = strict if strict is not None else not ctx.fault_mode
    report.strict = final_strict
    for checker in checkers:
        checker.finish(final_strict)
    return report
