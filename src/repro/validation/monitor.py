"""The runtime invariant guard.

:class:`InvariantMonitor` watches a live application from two directions at
once:

* as a trace sink it replays every emitted event through the same checkers
  ``repro validate`` uses offline (clock order, span balance, task
  conservation, shuffle accounting, queue bounds);
* through engine hooks it inspects driver state the event stream cannot
  express exactly -- the scheduler's free-core registry versus the real
  executor pools at every launch, resize and stage boundary (the paper's
  §4.2 protocol-consistency claim), and each MAPE-K decision against the
  legal hill-climb/rollback transition relation.

The monitor is strictly read-only: it emits no events, schedules nothing on
the simulated timeline, and a fault-free run with the monitor attached
produces a byte-identical event log.  ``mode`` picks what a violation does:
``"raise"`` (default) aborts the run with :class:`InvariantViolationError`
at the first broken invariant, ``"log"`` prints each to stderr and keeps
going, ``"collect"`` just accumulates them on :attr:`report`.
"""

from __future__ import annotations

import sys
from typing import Iterable, Optional

from repro.observability.events import TraceEvent
from repro.observability.sinks import TraceSink
from repro.validation.checkers import ALL_CHECKERS, CheckContext, run_checkers
from repro.validation.report import (
    InvariantViolationError,
    ValidationReport,
    Violation,
)

_MODES = ("raise", "log", "collect")


def validate_events(events: Iterable[TraceEvent],
                    max_failures: Optional[int] = None,
                    strict: Optional[bool] = None) -> ValidationReport:
    """Offline replay: run every checker over a recorded event stream.

    With ``strict=None`` the regime is inferred from the log itself -- a
    stream with no fault/speculation events is held to fault-free
    invariants.  ``max_failures`` enables the retry-budget check
    (``spark.task.maxFailures``).
    """
    return run_checkers(events, max_failures=max_failures, strict=strict)


class InvariantMonitor(TraceSink):
    """Continuously checks engine invariants during a run."""

    def __init__(self, mode: str = "raise",
                 max_failures: Optional[int] = None) -> None:
        if mode not in _MODES:
            raise ValueError(
                f"unknown monitor mode {mode!r}; expected one of {_MODES}"
            )
        self.mode = mode
        self.ctx = None
        self.report = ValidationReport(listener=self._on_violation)
        self._check_ctx = CheckContext(max_failures=max_failures)
        self._checkers = [cls(self.report, self._check_ctx)
                          for cls in ALL_CHECKERS]
        self._finished = False

    # -- violation routing --------------------------------------------------------

    def _on_violation(self, violation: Violation) -> None:
        if self.mode == "raise":
            raise InvariantViolationError(violation)
        if self.mode == "log":
            print(f"invariant violation: {violation.render()}",
                  file=sys.stderr)

    def _violation(self, invariant: str, message: str, **context) -> None:
        ts = self.ctx.sim.now if self.ctx is not None else 0.0
        self.report.add(
            Violation(invariant=invariant, message=message, ts=ts,
                      context=context)
        )

    def _check(self, condition: bool, invariant: str, message: str,
               **context) -> None:
        self.report.checks_run += 1
        if not condition:
            self._violation(invariant, message, **context)

    # -- wiring -------------------------------------------------------------------

    def bind(self, ctx) -> "InvariantMonitor":
        """Attach to a :class:`SparkContext` before its first job.

        Registers the monitor as a trace sink (when tracing is on) and
        announces itself as ``ctx.invariants`` so the scheduler/executor/
        MAPE-K hook sites start reporting.
        """
        self.ctx = ctx
        ctx.invariants = self
        if self._check_ctx.max_failures is None:
            self._check_ctx.max_failures = int(
                ctx.conf.get("spark.task.maxFailures")
            )
        if ctx.cluster.nodes:
            self._check_ctx.cores_per_node = ctx.cluster.nodes[0].cores
            self._check_ctx.num_nodes = ctx.cluster.num_nodes
        if ctx.tracer.enabled:
            ctx.tracer.add_sink(self)
        return self

    # -- trace-sink side ----------------------------------------------------------

    def write(self, event: TraceEvent) -> None:
        self._check_ctx.note(event)
        self.report.events_seen += 1
        for checker in self._checkers:
            checker.observe(event)

    def finish(self) -> ValidationReport:
        """End-of-run checks (span balance, leaked attempts); idempotent."""
        if not self._finished:
            self._finished = True
            strict = not self._check_ctx.fault_mode
            self.report.strict = strict
            for checker in self._checkers:
                checker.finish(strict)
        return self.report

    def close(self) -> None:  # tracer shutdown
        self.finish()

    # -- scheduler hooks ----------------------------------------------------------

    def on_task_launched(self, scheduler, executor_id: int) -> None:
        """After ``_assigned[executor_id] += 1`` for any launch."""
        assigned = scheduler._assigned[executor_id]
        view = scheduler._pool_view[executor_id]
        self._check(
            0 < assigned <= view, "scheduler.registry",
            f"launch drove executor {executor_id} to {assigned} assigned "
            f"tasks against a pool view of {view}",
            executor_id=executor_id, assigned=assigned, pool_view=view,
        )

    def on_pool_view_update(self, scheduler, executor_id: int) -> None:
        """After the driver applies a ``PoolResized`` message."""
        view = scheduler._pool_view[executor_id]
        cores = self._check_ctx.cores_per_node
        self._check(
            1 <= view and (not cores or view <= cores), "scheduler.registry",
            f"pool view for executor {executor_id} updated to {view}, "
            f"outside [1, {cores or '?'}]",
            executor_id=executor_id, pool_view=view,
        )

    def on_stage_quiescent(self, scheduler, run) -> None:
        """At ``_finish_stage``: the registry must agree with reality.

        With no work in flight and no messages pending, the driver's
        free-core registry (``pool_view - assigned``) must exactly equal
        each live executor's ``pool_size - running`` -- the §4.2 claim that
        resizes and rollbacks never desynchronise the protocol.
        """
        stage_id = run.stage.stage_id
        completed = len(run.completed_partitions)
        self._check(
            completed == run.stage.num_tasks, "tasks.conservation",
            f"stage {stage_id} finishing with {completed}/"
            f"{run.stage.num_tasks} partitions complete",
            stage_id=stage_id,
        )
        for executor in self.ctx.executors:
            if not executor.alive:
                continue
            executor_id = executor.executor_id
            assigned = scheduler._assigned.get(executor_id, 0)
            view = scheduler._pool_view.get(executor_id, 0)
            self._check(
                assigned == 0, "scheduler.registry",
                f"stage {stage_id} finishing with {assigned} tasks still "
                f"assigned to executor {executor_id}",
                executor_id=executor_id, stage_id=stage_id,
            )
            self._check(
                executor.running == 0, "scheduler.registry",
                f"stage {stage_id} finishing while executor {executor_id} "
                f"still runs {executor.running} task(s)",
                executor_id=executor_id, stage_id=stage_id,
            )
            free_view = view - assigned
            free_real = executor.pool_size - executor.running
            self._check(
                view == executor.pool_size and free_view == free_real,
                "scheduler.registry",
                f"free-core registry diverged on executor {executor_id} at "
                f"stage {stage_id} quiescence: driver sees {free_view} free "
                f"of {view}, executor has {free_real} free of "
                f"{executor.pool_size}",
                executor_id=executor_id, stage_id=stage_id,
                pool_view=view, pool_size=executor.pool_size,
            )

    # -- executor hooks -----------------------------------------------------------

    def on_pool_resize(self, executor, size: int, reason: str) -> None:
        """After a pool-size change is applied on the executor."""
        cores = executor.node.cores
        self._check(
            1 <= size <= cores, "mapek.bounds",
            f"executor {executor.executor_id} pool resized to {size}, "
            f"outside [1, {cores}] ({reason})",
            executor_id=executor.executor_id, size=size, reason=reason,
        )

    def on_executor_cleanup(self, executor) -> None:
        """After an attempt's bookkeeping is retired."""
        self._check(
            executor.running >= 0, "scheduler.registry",
            f"executor {executor.executor_id} running-task count went "
            f"negative ({executor.running})",
            executor_id=executor.executor_id, running=executor.running,
        )

    # -- MAPE-K hook --------------------------------------------------------------

    def on_mapek_decision(self, loop, decision) -> None:
        """Right after the analyzer's verdict, before planning/effecting.

        ``kb.current_threads`` still holds the interval's thread count;
        ``kb.history[-1]`` is the interval just recorded and
        ``kb.history[-2]`` the rollback target.
        """
        kb = loop.knowledge
        executor_id = loop.executor.executor_id
        stage_id = loop.stage.stage_id
        self._check(
            kb.cmin <= decision.threads <= kb.cmax, "mapek.bounds",
            f"MAPE-K chose {decision.threads} threads outside "
            f"[{kb.cmin}, {kb.cmax}] on executor {executor_id} stage "
            f"{stage_id}",
            executor_id=executor_id, stage_id=stage_id,
            threads=decision.threads,
        )
        current = kb.current_threads
        if decision.reason == "climb":
            legal = (decision.threads == min(current * 2, kb.cmax)
                     and not decision.settled)
            expected = f"min({current} * 2, {kb.cmax})"
        elif decision.reason == "rollback":
            target = kb.history[-2].threads if len(kb.history) >= 2 else None
            legal = decision.settled and decision.threads == target
            expected = f"previous interval's {target} threads, settled"
        elif decision.reason == "reached-cmax":
            legal = decision.settled and decision.threads == kb.cmax
            expected = f"cmax={kb.cmax}, settled"
        else:
            legal = False
            expected = "a known decision kind"
        self._check(
            legal, "mapek.transition",
            f"illegal MAPE-K transition on executor {executor_id} stage "
            f"{stage_id}: {decision.reason!r} from {current} threads chose "
            f"{decision.threads} (settled={decision.settled}), expected "
            f"{expected}",
            executor_id=executor_id, stage_id=stage_id,
            decision=decision.reason, threads=decision.threads,
        )
