"""The task scheduler: locality-aware assignment with a free-core registry.

This reproduces the Spark component the paper had to teach about resizable
pools (section 5.3-5.4): "the Spark scheduler keeps track of all the
executors, how many cores they have been launched with and ... their current
number of free cores which controls how many new tasks should be assigned to
each executor."  Our driver keeps exactly that registry (``_pool_view`` and
``_assigned``) and updates it from two executor messages: task completions
and pool-resize notifications.

Fault recovery (FAULTS.md) extends the same machinery the way production
Spark does:

* every launch is an *attempt* ``(stage, partition, attempt_id)``; stale
  completions of killed attempts are simply ignored;
* a crashed attempt is retried with exponential backoff in simulated time,
  up to ``spark.task.maxFailures`` before the job aborts;
* losing an executor drops its live attempts and its registered map outputs;
  the lost outputs are recomputed through lineage (a *recovery wave* of the
  producing stages, deepest ancestors first) before the current stage
  resumes;
* with ``spark.speculation`` on, a task running beyond
  ``multiplier x median`` once the completion quantile is reached gets a
  duplicate attempt; the first finisher wins and the twin is killed.

None of this activates on a fault-free run: with no fault plan and
speculation off, the dispatch order, messages, and trace output are
bit-identical to the pre-fault scheduler.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.engine.metrics import StageRecord
from repro.engine.rdd import ShuffleDependency
from repro.engine.stage import Stage, build_task_plan
from repro.engine.task import (
    PoolResized,
    Task,
    TaskAttempt,
    TaskFailed,
    TaskFinished,
)
from repro.faults.plan import exponential_backoff
from repro.simulation.core import Event
from repro.simulation.resources import LatencyChannel


class JobAbortedError(RuntimeError):
    """A job failed permanently (task out of retries, no executors left)."""


class TaskSetManager:
    """Pending tasks of one stage, indexed for locality-aware dispatch."""

    def __init__(self, tasks: List[Task]) -> None:
        self._unassigned: Set[int] = {task.partition for task in tasks}
        self._by_node: Dict[int, deque] = {}
        self._anywhere: deque = deque(tasks)
        for task in tasks:
            for node_id in task.preferred_nodes:
                self._by_node.setdefault(node_id, deque()).append(task)

    @property
    def pending(self) -> int:
        return len(self._unassigned)

    def pending_partitions(self) -> Set[int]:
        return set(self._unassigned)

    def add(self, task: Task) -> None:
        """Enqueue one more task (a retry or recovery recomputation)."""
        self._unassigned.add(task.partition)
        self._anywhere.append(task)
        for node_id in task.preferred_nodes:
            self._by_node.setdefault(node_id, deque()).append(task)

    def next_task(self, node_id: int) -> Optional[Task]:
        """Pop a pending task, preferring one with data local to ``node_id``."""
        local = self._by_node.get(node_id)
        for queue in (local, self._anywhere):
            if queue is None:
                continue
            while queue:
                task = queue.popleft()
                if task.partition in self._unassigned:
                    self._unassigned.discard(task.partition)
                    return task
        return None


@dataclass
class _Attempt:
    """One live launch of a task on one executor."""

    task: Task
    attempt: int
    executor_id: int
    launch_time: float
    speculative: bool = False


class _StageRun:
    """Book-keeping for the stage currently executing."""

    def __init__(self, stage: Stage, tasks: Optional[List[Task]],
                 record: StageRecord, done: Event) -> None:
        self.stage = stage
        self.manager = TaskSetManager(tasks if tasks is not None else [])
        self.record = record
        self.done = done
        self.results: Dict[int, Any] = {}
        self.trace_span = -1
        #: True when task plans could not be built yet because a consumed
        #: shuffle lost outputs before the stage started (see run_stage).
        self.tasks_pending_build = tasks is None
        # -- fault-recovery state (all inert on a fault-free run) ----------
        self.completed_partitions: Set[int] = set()
        self.attempt_seq: Dict[int, int] = {}
        self.running: Dict[int, Dict[int, _Attempt]] = {}
        self.failures: Dict[int, int] = {}
        self.retries_pending = 0
        #: Partitions whose relaunch waits for a recovery wave to finish.
        self.blocked: List[int] = []
        self.aborted = False
        # -- speculation ---------------------------------------------------
        self.spec_enabled = False
        self.spec_multiplier = 1.5
        self.spec_quantile = 0.75
        self.spec_timer_at: Optional[float] = None
        self.speculated: Set[int] = set()
        self.durations: List[float] = []


class _Recovery:
    """Lineage recomputation of shuffle outputs lost with an executor."""

    def __init__(self) -> None:
        #: Stages whose lost partitions cannot run yet (their own consumed
        #: shuffles are still incomplete), deepest ancestors first.
        self.waves: List[Tuple[Stage, Set[int]]] = []
        self.manager = TaskSetManager([])
        self.running: Dict[Tuple[int, int], _Attempt] = {}
        self.attempt_seq: Dict[Tuple[int, int], int] = {}
        self.failures: Dict[Tuple[int, int], int] = {}
        self.scheduled: Set[Tuple[int, int]] = set()
        self.outstanding = 0
        self.trace_span = -1


class TaskScheduler:
    """Driver-side scheduling across all executors."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.channel = LatencyChannel(
            ctx.sim, latency=float(ctx.conf.get("repro.control.latency"))
        )
        self._pool_view: Dict[int, int] = {}
        self._assigned: Dict[int, int] = {}
        self._run: Optional[_StageRun] = None
        self._recovery: Optional[_Recovery] = None

    @property
    def busy(self) -> bool:
        return self._run is not None

    def registered_pool_size(self, executor_id: int) -> int:
        """The driver's current belief about an executor's pool size."""
        return self._pool_view[executor_id]

    # -- stage execution ---------------------------------------------------------

    def run_stage(self, stage: Stage) -> Event:
        """Execute a stage; the returned event fires with ordered results."""
        if self._run is not None:
            raise RuntimeError("a stage is already running (stages are serial)")
        sim = self.ctx.sim
        record = StageRecord(
            stage_id=stage.stage_id,
            name=stage.rdd.name,
            is_io_marked=stage.is_io_marked,
            num_tasks=stage.num_tasks,
            start_time=sim.now,
        )
        self.ctx.recorder.begin_stage(record)
        missing: Dict[int, List[int]] = {}
        if self.ctx.faults is not None:
            self.ctx.faults.on_stage_start(stage)
            tracker = self.ctx.map_output_tracker
            for shuffle_id in self._consumed_shuffles(stage):
                if not tracker.is_complete(shuffle_id):
                    missing[shuffle_id] = tracker.missing_map_ids(shuffle_id)
        if missing:
            # An ancestor shuffle lost outputs between stages: defer building
            # this stage's plans until the recovery wave restores them.
            tasks = None
        else:
            tasks = [
                Task(stage, split, build_task_plan(self.ctx, stage, split))
                for split in range(stage.num_tasks)
            ]
        run = _StageRun(stage, tasks, record, sim.event())
        self._run = run
        conf = self.ctx.conf
        run.spec_enabled = bool(conf.get("spark.speculation"))
        if run.spec_enabled:
            run.spec_multiplier = float(conf.get("spark.speculation.multiplier"))
            run.spec_quantile = float(conf.get("spark.speculation.quantile"))
        tracer = self.ctx.tracer
        if tracer.enabled:
            run.trace_span = tracer.begin(
                "stage", stage.rdd.name,
                stage_id=stage.stage_id,
                num_tasks=stage.num_tasks,
                io_marked=stage.is_io_marked,
            )
        self.ctx.metrics.counter("scheduler.stages_submitted").inc()
        # Stage-start RPC: each executor consults its policy and reports the
        # initial pool size back to the driver's registry.
        for executor in self.ctx.executors:
            if not executor.alive:
                continue
            size = executor.begin_stage(stage, record)
            self._pool_view[executor.executor_id] = size
            self._assigned.setdefault(executor.executor_id, 0)
        self.ctx.monitoring.start_stage(stage, record)
        if missing:
            self._begin_recovery(missing)
        # First wave of launches goes out after one control-plane hop.
        sim.call_in(self.channel.latency, self._assign)
        return run.done

    def _assign(self) -> None:
        run = self._run
        if run is None or run.aborted:
            return
        if self._recovery is not None:
            self._assign_recovery()
            return
        progress = True
        while progress and run.manager.pending:
            progress = False
            for executor in self.ctx.executors:
                if not executor.alive:
                    continue
                executor_id = executor.executor_id
                free = self._pool_view[executor_id] - self._assigned[executor_id]
                if free <= 0:
                    continue
                task = run.manager.next_task(executor.node.node_id)
                if task is None:
                    break
                self._launch(run, task, executor)
                progress = True

    def _launch(self, run: _StageRun, task: Task, executor,
                speculative: bool = False) -> None:
        partition = task.partition
        attempt = run.attempt_seq.get(partition, 0)
        run.attempt_seq[partition] = attempt + 1
        run.running.setdefault(partition, {})[attempt] = _Attempt(
            task=task,
            attempt=attempt,
            executor_id=executor.executor_id,
            launch_time=self.ctx.sim.now,
            speculative=speculative,
        )
        self._assigned[executor.executor_id] += 1
        inv = self.ctx.invariants
        if inv is not None:
            inv.on_task_launched(self, executor.executor_id)
        self.channel.send(
            executor.launch_task, TaskAttempt(task, attempt, speculative)
        )
        self.ctx.metrics.counter("scheduler.tasks_launched").inc()

    def _assign_recovery(self) -> None:
        rec = self._recovery
        if rec is None:
            return
        progress = True
        while progress and rec.manager.pending:
            progress = False
            for executor in self.ctx.executors:
                if not executor.alive:
                    continue
                executor_id = executor.executor_id
                free = self._pool_view[executor_id] - self._assigned[executor_id]
                if free <= 0:
                    continue
                task = rec.manager.next_task(executor.node.node_id)
                if task is None:
                    break
                key = (task.stage.stage_id, task.partition)
                attempt = rec.attempt_seq.get(key, 1)
                rec.attempt_seq[key] = attempt + 1
                rec.running[key] = _Attempt(
                    task=task,
                    attempt=attempt,
                    executor_id=executor_id,
                    launch_time=self.ctx.sim.now,
                )
                self._assigned[executor_id] += 1
                inv = self.ctx.invariants
                if inv is not None:
                    inv.on_task_launched(self, executor_id)
                self.channel.send(executor.launch_task, TaskAttempt(task, attempt))
                self.ctx.metrics.counter("faults.recovery_tasks").inc()
                progress = True

    # -- executor messages ------------------------------------------------------------

    def handle_message(self, message) -> None:
        if isinstance(message, PoolResized):
            executor = self.ctx.executors[message.executor_id]
            if not executor.alive:
                return
            self._pool_view[message.executor_id] = message.pool_size
            inv = self.ctx.invariants
            if inv is not None:
                inv.on_pool_view_update(self, message.executor_id)
            tracer = self.ctx.tracer
            if tracer.enabled:
                tracer.instant(
                    "scheduler", "pool-resized",
                    executor_id=message.executor_id,
                    pool_size=message.pool_size,
                )
            self.ctx.metrics.counter("scheduler.resize_messages").inc()
            self._assign()
        elif isinstance(message, TaskFinished):
            self._on_task_finished(message)
        elif isinstance(message, TaskFailed):
            self._on_task_failed(message)
        else:
            raise TypeError(f"unknown scheduler message: {message!r}")

    def _on_task_finished(self, message: TaskFinished) -> None:
        run = self._run
        task = message.task
        if run is None or task.stage is not run.stage:
            if self._recovery is not None and task.stage is not None:
                # A recovery recomputation of an ancestor map stage.
                self._on_recovery_finished(message)
                return
            if self.ctx.faults is not None:
                return  # stale completion of a killed attempt; drop it
            raise RuntimeError("completion for a task of a stage that is not running")
        partition = task.partition
        attempts = run.running.get(partition, {})
        info = attempts.pop(message.attempt, None)
        if info is None:
            return  # attempt was killed (executor loss / speculation twin)
        self._assigned[message.executor_id] -= 1
        self._kill_twins(run, partition, attempts, winner=info)
        run.completed_partitions.add(partition)
        run.durations.append(self.ctx.sim.now - info.launch_time)
        if message.map_status is not None:
            self.ctx.map_output_tracker.register_map_output(
                run.stage.shuffle_dep.shuffle_id, message.map_status
            )
        else:
            run.results[partition] = message.result
        if not self._maybe_finish_stage(run):
            self._assign()
            if run.spec_enabled:
                self._check_speculation(run)

    def _kill_twins(self, run: _StageRun, partition: int,
                    twins: Dict[int, _Attempt], winner: _Attempt) -> None:
        """First finisher wins: kill the losing duplicate attempts."""
        if not twins:
            return
        for attempt_id, info in list(twins.items()):
            twins.pop(attempt_id)
            self._assigned[info.executor_id] -= 1
            executor = self.ctx.executors[info.executor_id]
            executor.kill_task(run.stage.stage_id, partition, attempt_id,
                               reason="speculation-lost")
        tracer = self.ctx.tracer
        name = "speculation-win" if winner.speculative else "speculation-loss"
        if tracer.enabled:
            tracer.instant(
                "speculation", name,
                stage_id=run.stage.stage_id,
                partition=partition,
                winner_executor=winner.executor_id,
                winner_attempt=winner.attempt,
            )
        self.ctx.metrics.counter(
            "speculation.wins" if winner.speculative else "speculation.losses"
        ).inc()

    def _on_task_failed(self, message: TaskFailed) -> None:
        run = self._run
        task = message.task
        if run is None or task.stage is not run.stage:
            if self._recovery is not None:
                self._on_recovery_failed(message)
            return  # else: crash of an attempt whose stage already resolved
        partition = task.partition
        attempts = run.running.get(partition, {})
        info = attempts.pop(message.attempt, None)
        if info is None:
            return  # already killed; nothing to retry
        self._assigned[message.executor_id] -= 1
        failures = run.failures.get(partition, 0) + 1
        run.failures[partition] = failures
        self.ctx.metrics.counter("scheduler.task_failures").inc()
        max_attempts = int(self.ctx.conf.get("spark.task.maxFailures"))
        if failures >= max_attempts:
            self._abort(
                run,
                f"task {run.stage.stage_id}.{partition} failed {failures} "
                f"times (spark.task.maxFailures={max_attempts}); "
                f"last reason: {message.reason}",
            )
            return
        if attempts:
            return  # a speculative twin is still running this partition
        delay = self._retry_delay(failures)
        run.retries_pending += 1
        tracer = self.ctx.tracer
        if tracer.enabled:
            tracer.instant(
                "fault", "retry-scheduled",
                stage_id=run.stage.stage_id,
                partition=partition,
                attempt=message.attempt,
                failures=failures,
                delay=delay,
                reason=message.reason,
            )
        self.ctx.metrics.counter("scheduler.retries").inc()
        self.ctx.sim.call_at(
            self.ctx.sim.now + delay,
            lambda: self._retry_due(run, partition),
        )

    def _retry_delay(self, failures: int) -> float:
        base = float(self.ctx.conf.get("repro.faults.retry.backoff"))
        cap = float(self.ctx.conf.get("repro.faults.retry.backoff.max"))
        return exponential_backoff(base, failures, cap)

    def _retry_due(self, run: _StageRun, partition: int) -> None:
        if self._run is not run or run.aborted:
            return
        if self._recovery is not None:
            run.blocked.append(partition)
            return
        self._enqueue_retry(run, partition)
        self._assign()

    def _enqueue_retry(self, run: _StageRun, partition: int) -> None:
        """Rebuild the plan (tracker/DFS state may have moved) and requeue."""
        run.retries_pending -= 1
        task = Task(
            run.stage, partition, build_task_plan(self.ctx, run.stage, partition)
        )
        run.manager.add(task)

    def _requeue(self, run: _StageRun, partition: int) -> None:
        """Relaunch a partition whose attempt was killed (not its fault)."""
        if partition in run.completed_partitions:
            return
        if partition in run.running and run.running[partition]:
            return  # another attempt (speculative twin) is still going
        if partition in run.manager.pending_partitions():
            return
        run.retries_pending += 1
        if self._recovery is not None:
            run.blocked.append(partition)
        else:
            self._enqueue_retry(run, partition)

    # -- executor / node loss -----------------------------------------------------

    def on_executor_lost(self, executor, reason: str = "executor-loss") -> None:
        """Handle losing an executor: kill its work, recover its shuffle data.

        The executor's live attempts die with it; partitions they were
        running are relaunched elsewhere (an executor's death does not count
        against ``spark.task.maxFailures``).  Map outputs registered from its
        node are discarded and recomputed through lineage before the current
        stage resumes.
        """
        executor.alive = False
        node_id = executor.node.node_id
        tracer = self.ctx.tracer
        if tracer.enabled:
            tracer.instant(
                "fault", "executor-loss",
                executor_id=executor.executor_id,
                node_id=node_id,
                reason=reason,
            )
        self.ctx.metrics.counter("faults.executor_losses").inc()
        executor.kill_all(reason)
        self._pool_view[executor.executor_id] = 0
        self._assigned[executor.executor_id] = 0
        if not any(ex.alive for ex in self.ctx.executors):
            run = self._run
            if run is not None:
                self._abort(run, "no executors left alive")
            return
        run = self._run
        orphaned: List[int] = []
        if run is not None:
            for partition, attempts in list(run.running.items()):
                for attempt_id, info in list(attempts.items()):
                    if info.executor_id == executor.executor_id:
                        attempts.pop(attempt_id)
                        orphaned.append(partition)
        rec = self._recovery
        if rec is not None:
            for key, info in list(rec.running.items()):
                if info.executor_id == executor.executor_id:
                    rec.running.pop(key)
                    rec.manager.add(info.task)
        # Lineage invalidation: shuffle outputs stored on the node are gone.
        lost = self.ctx.map_output_tracker.discard_node_outputs(node_id)
        if run is not None and lost:
            own = run.stage.shuffle_dep
            if own is not None and own.shuffle_id in lost:
                # The current map stage lost some of its own finished work.
                for map_id in lost.pop(own.shuffle_id):
                    run.completed_partitions.discard(map_id)
                    orphaned.append(map_id)
            if lost:
                self._begin_recovery(lost)
                # In-flight attempts fetching shuffle data from the dead node
                # read data that no longer exists: kill and relaunch them.
                for partition, attempts in list(run.running.items()):
                    for attempt_id, info in list(attempts.items()):
                        fetches = info.task.plan.shuffle_fetches
                        if any(src == node_id for src, _size in fetches):
                            attempts.pop(attempt_id)
                            self._assigned[info.executor_id] -= 1
                            self.ctx.executors[info.executor_id].kill_task(
                                run.stage.stage_id, partition, attempt_id,
                                reason="shuffle-data-lost",
                            )
                            orphaned.append(partition)
                # Queued tasks carry stale fetch plans too; rebuild them once
                # the recovery wave completes (see _finish_recovery).
        if run is not None:
            for partition in orphaned:
                self._requeue(run, partition)
            self._maybe_finish_stage(run)
        self._assign()

    # -- lineage recovery -----------------------------------------------------------

    def _consumed_shuffles(self, stage: Stage) -> List[int]:
        ids: List[int] = []
        for rdd in stage.pipeline_rdds():
            for dep in rdd.deps:
                if isinstance(dep, ShuffleDependency):
                    ids.append(dep.shuffle_id)
        return ids

    def _producing_stage(self, root: Stage, shuffle_id: int) -> Stage:
        stack = [root]
        seen: Set[int] = set()
        while stack:
            stage = stack.pop()
            if stage.stage_id in seen:
                continue
            seen.add(stage.stage_id)
            dep = stage.shuffle_dep
            if dep is not None and dep.shuffle_id == shuffle_id:
                return stage
            stack.extend(stage.parents)
        raise RuntimeError(
            f"no ancestor stage produces shuffle {shuffle_id}; "
            "lineage recovery is impossible"
        )

    def _begin_recovery(self, lost: Dict[int, List[int]]) -> None:
        """Queue recomputation of lost map outputs the current stage needs."""
        run = self._run
        if run is None:
            return
        rec = self._recovery if self._recovery is not None else _Recovery()
        added = 0
        seen: Set[int] = set()

        def need(stage: Stage) -> None:
            nonlocal added
            for shuffle_id in self._consumed_shuffles(stage):
                if shuffle_id not in lost or shuffle_id in seen:
                    continue
                seen.add(shuffle_id)
                producer = self._producing_stage(run.stage, shuffle_id)
                fresh = {
                    map_id for map_id in lost[shuffle_id]
                    if (producer.stage_id, map_id) not in rec.scheduled
                }
                if fresh:
                    for map_id in fresh:
                        rec.scheduled.add((producer.stage_id, map_id))
                    rec.waves.append((producer, fresh))
                    added += len(fresh)
                need(producer)

        need(run.stage)
        if added == 0:
            return
        rec.outstanding += added
        first = self._recovery is None
        self._recovery = rec
        tracer = self.ctx.tracer
        if first:
            if tracer.enabled:
                rec.trace_span = tracer.begin(
                    "recovery", "shuffle-recomputation",
                    stage_id=run.stage.stage_id,
                )
            # The wave's recomputation traffic would contaminate every
            # executor's MAPE-K interval in progress; discard them.
            for executor in self.ctx.executors:
                if executor.alive:
                    executor.notify_fault("recovery")
        self.ctx.metrics.counter("faults.recomputed_partitions").inc(added)
        self._promote_ready_waves()

    def _promote_ready_waves(self) -> None:
        rec = self._recovery
        if rec is None:
            return
        tracker = self.ctx.map_output_tracker
        still_waiting: List[Tuple[Stage, Set[int]]] = []
        for stage, partitions in rec.waves:
            ready = all(
                tracker.is_complete(shuffle_id)
                for shuffle_id in self._consumed_shuffles(stage)
            )
            if not ready:
                still_waiting.append((stage, partitions))
                continue
            for split in sorted(partitions):
                rec.manager.add(
                    Task(stage, split, build_task_plan(self.ctx, stage, split))
                )
        rec.waves = still_waiting

    def _on_recovery_finished(self, message: TaskFinished) -> None:
        rec = self._recovery
        task = message.task
        if rec is None:
            return  # stale completion from an attempt killed at loss time
        key = (task.stage.stage_id, task.partition)
        info = rec.running.pop(key, None)
        if info is None or info.attempt != message.attempt:
            if info is not None:
                rec.running[key] = info
            return
        self._assigned[message.executor_id] -= 1
        self.ctx.map_output_tracker.register_map_output(
            task.stage.shuffle_dep.shuffle_id, message.map_status
        )
        rec.outstanding -= 1
        self._promote_ready_waves()
        if rec.outstanding == 0 and not rec.waves:
            self._finish_recovery(rec)
        self._assign()

    def _on_recovery_failed(self, message: TaskFailed) -> None:
        rec = self._recovery
        task = message.task
        if rec is None:
            return
        key = (task.stage.stage_id, task.partition)
        info = rec.running.pop(key, None)
        if info is None or info.attempt != message.attempt:
            if info is not None:
                rec.running[key] = info
            return
        self._assigned[message.executor_id] -= 1
        failures = rec.failures.get(key, 0) + 1
        rec.failures[key] = failures
        max_attempts = int(self.ctx.conf.get("spark.task.maxFailures"))
        if failures >= max_attempts and self._run is not None:
            self._abort(
                self._run,
                f"recovery task {key[0]}.{key[1]} failed {failures} times; "
                f"last reason: {message.reason}",
            )
            return
        rec.manager.add(Task(
            task.stage, task.partition,
            build_task_plan(self.ctx, task.stage, task.partition),
        ))
        self._assign()

    def _finish_recovery(self, rec: _Recovery) -> None:
        self._recovery = None
        run = self._run
        tracer = self.ctx.tracer
        if rec.trace_span >= 0:
            tracer.end(rec.trace_span)
        if run is None:
            return
        if run.tasks_pending_build:
            run.tasks_pending_build = False
            for split in range(run.stage.num_tasks):
                run.manager.add(Task(
                    run.stage, split,
                    build_task_plan(self.ctx, run.stage, split),
                ))
        else:
            # Queued tasks planned their shuffle fetches before the loss;
            # rebuild them against the recovered map-output locations.
            pending = sorted(run.manager.pending_partitions())
            if pending:
                fresh = TaskSetManager([
                    Task(run.stage, split,
                         build_task_plan(self.ctx, run.stage, split))
                    for split in pending
                ])
                run.manager = fresh
        for partition in run.blocked:
            self._enqueue_retry(run, partition)
        run.blocked = []
        self._maybe_finish_stage(run)

    # -- speculative execution ------------------------------------------------------

    def _check_speculation(self, run: _StageRun) -> None:
        if (not run.spec_enabled or run.aborted or self._recovery is not None
                or self._run is not run):
            return
        num_tasks = run.stage.num_tasks
        done = len(run.completed_partitions)
        if done >= num_tasks or not run.durations:
            return
        if done < max(1, math.ceil(run.spec_quantile * num_tasks)):
            return
        ordered = sorted(run.durations)
        median = ordered[len(ordered) // 2]
        threshold = run.spec_multiplier * median
        now = self.ctx.sim.now
        earliest: Optional[float] = None
        for partition, attempts in run.running.items():
            if partition in run.speculated or len(attempts) != 1:
                continue
            info = next(iter(attempts.values()))
            crossing = info.launch_time + threshold
            if now >= crossing:
                self._launch_speculative(run, partition, info)
            elif earliest is None or crossing < earliest:
                earliest = crossing
        if earliest is not None and (
            run.spec_timer_at is None or earliest < run.spec_timer_at
        ):
            run.spec_timer_at = earliest
            self.ctx.sim.call_at(
                earliest, lambda: self._speculation_timer(run, earliest)
            )

    def _speculation_timer(self, run: _StageRun, when: float) -> None:
        if self._run is not run or run.spec_timer_at != when:
            return
        run.spec_timer_at = None
        self._check_speculation(run)

    def _launch_speculative(self, run: _StageRun, partition: int,
                            info: _Attempt) -> None:
        chosen = None
        for executor in self.ctx.executors:
            if not executor.alive:
                continue
            executor_id = executor.executor_id
            if self._pool_view[executor_id] - self._assigned[executor_id] <= 0:
                continue
            if executor_id != info.executor_id:
                chosen = executor
                break
            if chosen is None:
                chosen = executor
        if chosen is None:
            return  # no free slot anywhere; the next completion re-checks
        run.speculated.add(partition)
        tracer = self.ctx.tracer
        if tracer.enabled:
            tracer.instant(
                "speculation", "launch",
                stage_id=run.stage.stage_id,
                partition=partition,
                original_executor=info.executor_id,
                duplicate_executor=chosen.executor_id,
                elapsed=self.ctx.sim.now - info.launch_time,
            )
        self.ctx.metrics.counter("speculation.launched").inc()
        self._launch(run, info.task, chosen, speculative=True)

    # -- stage completion / abort -----------------------------------------------------

    def _maybe_finish_stage(self, run: _StageRun) -> bool:
        if run.aborted or self._run is not run:
            return False
        if (len(run.completed_partitions) == run.stage.num_tasks
                and run.retries_pending == 0
                and not run.blocked
                and self._recovery is None):
            self._finish_stage(run)
            return True
        return False

    def _finish_stage(self, run: _StageRun) -> None:
        inv = self.ctx.invariants
        if inv is not None:
            # The quiescent point: no work in flight, no messages pending,
            # so the free-core registry must agree with the executors.
            inv.on_stage_quiescent(self, run)
        run.record.close(self.ctx.sim.now)
        if run.trace_span >= 0:
            self.ctx.tracer.end(run.trace_span,
                                duration=run.record.duration)
        self.ctx.metrics.counter("scheduler.stages_completed").inc()
        if self.ctx.profiling:
            self.ctx.metrics.histogram("stages.runtime").observe(
                run.record.duration
            )
        self.ctx.monitoring.end_stage(run.stage, run.record)
        # Record sizes for RDDs this stage materialised into the cache so
        # later stages plan memory reads instead of recomputation.
        for rdd in run.stage.pipeline_rdds():
            if rdd.cached:
                for split in range(rdd.num_partitions):
                    self.ctx.cache_manager.put_size(
                        rdd.id, split, rdd.partition_size(split)
                    )
        self._run = None
        if run.stage.is_result_stage:
            ordered = [run.results[i] for i in range(run.stage.num_tasks)]
            run.done.succeed(ordered)
        else:
            run.done.succeed(None)

    def _abort(self, run: _StageRun, reason: str) -> None:
        """Fail the job permanently: kill live work and propagate the error."""
        run.aborted = True
        tracer = self.ctx.tracer
        if tracer.enabled:
            tracer.instant("fault", "job-aborted",
                           stage_id=run.stage.stage_id, reason=reason)
        self.ctx.metrics.counter("scheduler.jobs_aborted").inc()
        for executor in self.ctx.executors:
            if executor.alive:
                executor.kill_all("job-aborted")
        for executor_id in self._assigned:
            self._assigned[executor_id] = 0
        run.running.clear()
        self._recovery = None
        run.record.close(self.ctx.sim.now)
        if run.trace_span >= 0:
            tracer.end(run.trace_span, error=reason)
        self.ctx.monitoring.end_stage(run.stage, run.record)
        self._run = None
        run.done.fail(JobAbortedError(reason))
