"""The MAPE-K feedback loop (paper section 5).

The paper follows IBM's autonomic-computing blueprint: a Monitor-Analyze-
Plan-Execute loop over a shared Knowledge base, with the executor's thread
pool as the managed element.  Each class below corresponds to one role in
the paper's sections 5.1-5.4:

* :class:`Monitor` (5.1) -- accumulates epoll wait time ε (strace analogue)
  and task I/O throughput µ (Spark-metrics analogue) over an *interval*;
  interval ``I_j`` ends once ``j`` tasks have completed at pool size ``j``.
* :class:`Analyzer` (5.2) -- computes the congestion index ζ = ε/µ and runs
  the doubling hill-climb: start at ``cmin``, double while ζ improves, roll
  back one step and settle when it worsens, cap at ``cmax``.
* :class:`Planner` (5.3) -- turns an analyzer decision into a concrete plan
  that preserves system integrity: resize the pool *and* notify the task
  scheduler, whose free-core registry would otherwise go stale.
* :class:`Effector` (5.4, "[E]xecute") -- applies the plan through the
  executor's effector methods (the ``setMaximumPoolSize`` analogue) and the
  extended driver message protocol.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.engine.metrics import IntervalRecord
from repro.monitoring.strace import EpollReading, EpollSensor


class Phase(enum.Enum):
    """Where the hill-climb currently stands for one stage."""

    CLIMBING = "climbing"
    SETTLED = "settled"


@dataclass
class IntervalResult:
    """One completed monitoring interval, scored."""

    threads: int
    reading: EpollReading
    congestion: float


@dataclass
class KnowledgeBase:
    """The K in MAPE-K: per-stage adaptation state shared by all roles."""

    cmin: int
    cmax: int
    current_threads: int = 0
    phase: Phase = Phase.CLIMBING
    history: List[IntervalResult] = field(default_factory=list)

    @property
    def previous(self) -> Optional[IntervalResult]:
        return self.history[-1] if self.history else None

    def record(self, result: IntervalResult) -> None:
        self.history.append(result)


def congestion_index(reading: EpollReading) -> float:
    """ζ = (ε / tasks) / µ (paper equation 1, per-task normalised).

    The paper divides the interval's accumulated epoll wait time ε by its
    I/O throughput µ.  Interval ``I_j`` monitors exactly ``j`` tasks, so the
    raw ε grows roughly linearly with ``j`` even when per-task service is
    unchanged; we therefore normalise ε by the interval's task count before
    dividing by µ.  Without this, the raw index in the simulator
    monotonically penalises concurrency and the hill-climb degenerates to
    always choosing ``cmin`` (see DESIGN.md, "Known deviations").

    Zero I/O activity gives ζ = 0 (a pure-CPU interval shows no congestion,
    so the climb continues toward ``cmax`` -- the desired behaviour for
    compute-bound stages like Aggregation's first stage).
    """
    throughput = reading.throughput
    mean_wait = reading.epoll_wait_seconds / max(1, reading.tasks_completed)
    if throughput <= 0:
        return float("inf") if mean_wait > 0 else 0.0
    return mean_wait / throughput


class Monitor:
    """[M]onitor: senses the managed thread pool through the epoll sensor."""

    def __init__(self, executor, knowledge: KnowledgeBase) -> None:
        self.sensor = EpollSensor(executor)
        self.knowledge = knowledge
        self.executor = executor
        self._warmup_left = 0
        self._interval_tasks = 0
        self._interval_start = executor.ctx.sim.now

    def begin_interval(self) -> None:
        """Start the next interval, including its warm-up half.

        When the pool is resized to ``j`` by doubling, up to ``j/2`` in-flight
        tasks launched under the *old* size are still completing; their
        completions would contaminate the reading, so the first ``j // 2``
        completions are discarded before the sensor is armed.
        """
        self._warmup_left = self.knowledge.current_threads // 2
        self._arm()

    def _arm(self) -> None:
        self._interval_tasks = 0
        self._interval_start = self.executor.ctx.sim.now
        self.sensor.reset()

    def task_completed(self) -> Optional[EpollReading]:
        """Returns the interval reading once I_j is complete, else None.

        The interval for ``j`` threads spans ``j`` task completions: "the
        interval for 16 threads starts by setting the thread pool size to 16
        and then monitors the performance of 16 concurrent tasks" (5.1).
        """
        if self._warmup_left > 0:
            self._warmup_left -= 1
            if self._warmup_left == 0:
                self._arm()
            return None
        self._interval_tasks += 1
        if self._interval_tasks < self.knowledge.current_threads:
            return None
        return self.sensor.read()

    def rearm(self) -> None:
        """Restart the interval in progress, discarding partial readings.

        Called after a fault: a killed or crashed task's partial I/O wait is
        already in the sensor counters, so the interval can no longer produce
        a trustworthy ζ.  Re-arming resets the sensor baseline; the interval
        simply monitors the next ``j`` clean completions instead.
        """
        self._warmup_left = 0
        self._arm()


@dataclass(frozen=True)
class Decision:
    """The analyzer's verdict for the next interval."""

    threads: int
    settled: bool
    reason: str


class Analyzer:
    """[A]nalyze: congestion-index hill-climbing (paper 5.2).

    ``tolerance`` adds hysteresis: the climb continues while
    ``ζ_j <= tolerance * ζ_(j/2)``.  Doubling the pool mechanically doubles
    the number of waiters, so some ζ growth is expected even at the optimum;
    the threshold separates that from the superlinear blow-up of real disk
    contention (the 8 -> 16 transitions in the Terasort stages grow ζ by
    6-12x, an order of magnitude above the threshold).
    """

    def __init__(self, knowledge: KnowledgeBase, tolerance: float = 2.0) -> None:
        if tolerance < 1.0:
            raise ValueError(f"tolerance must be >= 1.0, got {tolerance}")
        self.knowledge = knowledge
        self.tolerance = tolerance

    def analyze(self, reading: EpollReading) -> Decision:
        kb = self.knowledge
        current = kb.current_threads
        zeta = congestion_index(reading)
        previous = kb.previous
        kb.record(IntervalResult(current, reading, zeta))
        if previous is not None and zeta > self.tolerance * previous.congestion:
            # Performance regressed: roll back one step and stop adapting
            # for the remainder of the stage.  "If a specific number of
            # threads performs worse than half its size, then most probably
            # increasing the number of threads would only cause more
            # contention" (5.2).
            return Decision(previous.threads, settled=True, reason="rollback")
        if current >= kb.cmax:
            return Decision(kb.cmax, settled=True, reason="reached-cmax")
        return Decision(min(current * 2, kb.cmax), settled=False, reason="climb")


@dataclass(frozen=True)
class Plan:
    """What the effector should do: the [P] output."""

    resize_to: Optional[int]
    notify_scheduler: bool


class Planner:
    """[P]lan: devise the change while preserving system integrity (5.3).

    The only managed alteration is the pool size, but "changing something
    inside one component such as the executor is not necessarily cascaded
    through other components": any resize must also notify the scheduler so
    its free-core registry stays consistent.
    """

    def __init__(self, knowledge: KnowledgeBase) -> None:
        self.knowledge = knowledge

    def plan(self, decision: Decision) -> Plan:
        kb = self.knowledge
        if decision.settled:
            kb.phase = Phase.SETTLED
        if decision.threads == kb.current_threads:
            return Plan(resize_to=None, notify_scheduler=False)
        return Plan(resize_to=decision.threads, notify_scheduler=True)


class Effector:
    """[E]xecute: apply the plan to the managed element (5.4)."""

    def __init__(self, knowledge: KnowledgeBase) -> None:
        self.knowledge = knowledge

    def execute(self, plan: Plan) -> Optional[int]:
        """Returns the new pool size to apply, or None.

        The actual resize and driver notification are carried by the
        executor's policy-return path (the ``setMaximumPoolSize`` +
        messaging-protocol analogue), so this returns the target size.
        """
        if plan.resize_to is None:
            return None
        self.knowledge.current_threads = plan.resize_to
        return plan.resize_to


class AdaptiveControlLoop:
    """One stage's complete MAPE-K loop on one executor."""

    def __init__(self, executor, stage, cmin: int, cmax: int,
                 tolerance: float = 2.0) -> None:
        if cmin < 1 or cmax < cmin:
            raise ValueError(f"invalid thread bounds: cmin={cmin}, cmax={cmax}")
        self.executor = executor
        self.stage = stage
        self.knowledge = KnowledgeBase(cmin=cmin, cmax=cmax, current_threads=cmin)
        self.monitor = Monitor(executor, self.knowledge)
        self.analyzer = Analyzer(self.knowledge, tolerance=tolerance)
        self.planner = Planner(self.knowledge)
        self.effector = Effector(self.knowledge)
        self.monitor.begin_interval()

    @property
    def settled(self) -> bool:
        return self.knowledge.phase is Phase.SETTLED

    def initial_threads(self) -> int:
        """The hill-climb "always starts from the minimum number of threads"."""
        return self.knowledge.cmin

    def invalidate_interval(self, reason: str) -> None:
        """Discard the contaminated interval after a fault (FAULTS.md).

        Rollback correctness is preserved: the knowledge base's history only
        ever records *completed* clean intervals, so discarding the one in
        flight cannot corrupt the hill-climb's reference point.  A settled
        loop stays settled -- re-adapting to a transient fault would leave
        the pool mis-sized once conditions recover.
        """
        if self.settled:
            return
        self.monitor.rearm()
        ctx = self.executor.ctx
        tracer = ctx.tracer
        if tracer.enabled:
            tracer.instant(
                "mapek", "interval-invalidated",
                executor_id=self.executor.executor_id,
                stage_id=self.stage.stage_id,
                threads=self.knowledge.current_threads,
                reason=reason,
            )
        ctx.metrics.counter("mapek.intervals_invalidated").inc()

    def on_task_complete(self) -> Optional[int]:
        """Run one loop iteration; returns a new pool size if one is due."""
        if self.settled:
            return None
        reading = self.monitor.task_completed()
        if reading is None:
            return None
        ctx = self.executor.ctx
        tracer = ctx.tracer
        interval_start = self.monitor._interval_start
        interval_threads = self.knowledge.current_threads
        if tracer.enabled:
            tracer.instant(
                "mapek", "monitor",
                executor_id=self.executor.executor_id,
                stage_id=self.stage.stage_id,
                threads=interval_threads,
                epoll_wait=reading.epoll_wait_seconds,
                io_bytes=reading.io_bytes,
                tasks=reading.tasks_completed,
            )
        decision = self.analyzer.analyze(reading)
        inv = ctx.invariants
        if inv is not None:
            inv.on_mapek_decision(self, decision)
        zeta = self.knowledge.history[-1].congestion
        if tracer.enabled:
            # ζ = inf (zero-throughput interval) would be invalid JSON;
            # event logs carry the string "inf" instead.
            zeta_json = zeta if math.isfinite(zeta) else "inf"
            tracer.instant(
                "mapek", "analyze",
                executor_id=self.executor.executor_id,
                stage_id=self.stage.stage_id,
                zeta=zeta_json,
                decision=decision.reason,
                threads=decision.threads,
                settled=decision.settled,
            )
            tracer.complete(
                "mapek", "interval", interval_start, ctx.sim.now,
                executor_id=self.executor.executor_id,
                stage_id=self.stage.stage_id,
                threads=interval_threads,
                zeta=zeta_json,
                decision=decision.reason,
            )
        ctx.metrics.counter("mapek.intervals").inc()
        ctx.metrics.histogram("mapek.zeta").observe(zeta)
        self._record_interval(reading, decision, interval_start)
        plan = self.planner.plan(decision)
        if tracer.enabled:
            tracer.instant(
                "mapek", "plan",
                executor_id=self.executor.executor_id,
                stage_id=self.stage.stage_id,
                resize_to=plan.resize_to,
                notify_scheduler=plan.notify_scheduler,
            )
        new_size = self.effector.execute(plan)
        if tracer.enabled and new_size is not None:
            tracer.instant(
                "mapek", "execute",
                executor_id=self.executor.executor_id,
                stage_id=self.stage.stage_id,
                pool_size=new_size,
            )
        self.monitor.begin_interval()
        return new_size

    def _record_interval(self, reading: EpollReading, decision: Decision,
                         interval_start: float) -> None:
        record = self.executor.stage_record
        if record is None:
            return
        now = self.executor.ctx.sim.now
        record.intervals.append(
            IntervalRecord(
                executor_id=self.executor.executor_id,
                stage_id=self.stage.stage_id,
                threads=self.knowledge.history[-1].threads,
                start_time=interval_start,
                end_time=now,
                epoll_wait=reading.epoll_wait_seconds,
                io_bytes=reading.io_bytes,
                decision=decision.reason,
            )
        )
