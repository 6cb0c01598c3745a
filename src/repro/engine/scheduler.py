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
* the running stage and the recomputation are two task sets, keyed
  ``(stage_id, partition)``, served by one launch, one completion and one
  failure path; they differ only in data (see ``_TaskSet``);
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
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.engine.metrics import StageRecord
from repro.engine.rdd import ShuffleDependency
from repro.engine.stage import Stage, build_task_plans
from repro.engine.task import (
    PoolResized,
    Task,
    TaskAttempt,
    TaskFailed,
    TaskFinished,
)
from repro.faults.plan import exponential_backoff
from repro.simulation.resources import LatencyChannel


class JobAbortedError(RuntimeError):
    """A job failed permanently (task out of retries, no executors left)."""


#: A task's identity across attempts: ``(stage_id, partition)``.
Key = Tuple[int, int]


class TaskSetManager:
    """Pending tasks of a task set, indexed for locality-aware dispatch.

    Tasks are keyed ``(stage_id, partition)``: a recovery set holds tasks
    of several producer stages, whose partition numbers overlap.
    """

    def __init__(self, tasks: List[Task]) -> None:
        self._unassigned: Set[Key] = {
            (task.stage.stage_id, task.partition) for task in tasks}
        self._by_node: Dict[int, deque] = {}
        self._anywhere: deque = deque(tasks)
        for task in tasks:
            for node_id in task.preferred_nodes:
                self._by_node.setdefault(node_id, deque()).append(task)

    @property
    def pending(self) -> int:
        return len(self._unassigned)

    def is_pending(self, key: Key) -> bool:
        return key in self._unassigned

    def pending_partitions(self) -> List[int]:
        """Partitions still waiting, ascending (a single stage's set)."""
        return sorted(partition for _stage, partition in self._unassigned)

    def add(self, task: Task) -> None:
        """Enqueue one more task (a retry or recovery recomputation)."""
        self._unassigned.add((task.stage.stage_id, task.partition))
        self._anywhere.append(task)
        for node_id in task.preferred_nodes:
            self._by_node.setdefault(node_id, deque()).append(task)

    def next_task(self, node_id: int) -> Optional[Task]:
        """Pop a pending task, preferring one with data local to ``node_id``."""
        local = self._by_node.get(node_id)
        unassigned = self._unassigned
        for queue in (local, self._anywhere):
            if queue is None:
                continue
            while queue:
                task = queue.popleft()
                key = (task.stage.stage_id, task.partition)
                if key in unassigned:
                    unassigned.discard(key)
                    return task
        return None


@dataclass
class _Attempt:
    """One live launch of a task on one executor."""

    launch: TaskAttempt
    executor_id: int
    launch_time: float


class _TaskSet:
    """Pending tasks, attempt ids, live attempts and crash counts of one
    set of tasks, keyed ``(stage_id, partition)``.  The running stage and
    the recomputation it waits on differ only in the class attributes."""

    #: Attempt ids of each key count up from here.
    first_attempt = 0
    #: Counter bumped once per launch.
    launch_counter = "scheduler.tasks_launched"
    #: A crash counts in ``scheduler.task_failures`` and is relaunched after
    #: an exponential backoff (else: re-planned and relaunched at once).
    backoff = True
    #: The abort reason once a key crashed ``spark.task.maxFailures`` times,
    #: formatted with stage id, partition, failures, the limit, last reason.
    abort_text = ("task {0}.{1} failed {2} times "
                  "(spark.task.maxFailures={3}); last reason: {4}")
    #: A key leaves ``running`` when its last live attempt ends (else it
    #: keeps its place): an executor loss relaunches in ``running`` order.
    forget_idle = False

    def __init__(self, tasks: List[Task]) -> None:
        self.manager = TaskSetManager(tasks)
        self.attempt_seq: Dict[Key, int] = {}
        self.running: Dict[Key, Dict[int, _Attempt]] = {}
        self.failures: Dict[Key, int] = {}
        #: The ``launch_counter`` metric, resolved at the first launch.
        self.launched = None
        self.trace_span = -1


class _StageRun(_TaskSet):
    """The stage currently executing."""

    def __init__(self, stage: Stage, tasks: Optional[List[Task]],
                 record: StageRecord,
                 then: Callable[[Any, Optional[BaseException]], None]) -> None:
        super().__init__(tasks if tasks is not None else [])
        self.stage = stage
        self.record = record
        #: ``then(results, error)``, queued once when the stage ends.
        self.then = then
        self.results: Dict[int, Any] = {}
        # -- fault-recovery state (all inert on a fault-free run) ----------
        self.completed_partitions: Set[int] = set()
        #: Partitions whose (re)launch waits for a recovery wave to finish:
        #: all of them when ``tasks`` is None, because a consumed shuffle
        #: lost outputs before the stage started (see run_stage).
        self.blocked: List[int] = (
            list(range(stage.num_tasks)) if tasks is None else [])
        #: Partitions waiting out a retry backoff or blocked; the stage
        #: cannot end before this is zero.
        self.retries_pending = len(self.blocked)
        self.aborted = False
        # -- speculation ---------------------------------------------------
        self.spec_enabled = False
        self.spec_multiplier = 1.5
        self.spec_quantile = 0.75
        self.spec_timer_at: Optional[float] = None
        self.speculated: Set[int] = set()
        self.durations: List[float] = []


class _Recovery(_TaskSet):
    """Lineage recomputation of shuffle outputs lost with an executor."""

    first_attempt = 1
    launch_counter = "faults.recovery_tasks"
    backoff = False
    abort_text = "recovery task {0}.{1} failed {2} times; last reason: {4}"
    forget_idle = True

    def __init__(self) -> None:
        super().__init__([])
        #: Stages whose lost partitions cannot run yet (their own consumed
        #: shuffles are still incomplete), deepest ancestors first.
        self.waves: List[Tuple[Stage, Set[int]]] = []
        #: Keys queued for recomputation and not yet recomputed; the
        #: recovery ends when this empties.
        self.outstanding: Set[Key] = set()


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

    def run_stage(self, stage: Stage,
                  then: Callable[[Any, Optional[BaseException]], None]) -> None:
        """Execute a stage; ``then(results, error)`` runs one queue entry
        after it ends: the ordered results of a result stage (``None`` for a
        shuffle stage) and ``None``, or ``None`` and the
        :class:`JobAbortedError` that failed it."""
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
            tasks = self._plan_tasks(stage, range(stage.num_tasks))
        run = _StageRun(stage, tasks, record, then)
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

    def _plan_tasks(self, stage: Stage, splits) -> List[Task]:
        """Fresh tasks for ``splits`` of ``stage``, planned against the
        tracker and cache state of this instant."""
        splits = list(splits)
        plans = build_task_plans(self.ctx, stage, splits)
        return [Task(stage, split, plan) for split, plan in zip(splits, plans)]

    def _assign(self) -> None:
        """Fill free cores from the recovery set while one exists (the
        stage resumes once it is done), else from the stage's own set."""
        run = self._run
        if run is None or run.aborted:
            return
        task_set = self._recovery if self._recovery is not None else run
        manager = task_set.manager
        progress = True
        while progress and manager.pending:
            progress = False
            for executor in self.ctx.executors:
                if not executor.alive:
                    continue
                executor_id = executor.executor_id
                free = self._pool_view[executor_id] - self._assigned[executor_id]
                if free <= 0:
                    continue
                task = manager.next_task(executor.node.node_id)
                if task is None:
                    break
                self._launch(task_set, task, executor)
                progress = True

    def _launch(self, task_set: _TaskSet, task: Task, executor,
                speculative: bool = False) -> None:
        key = (task.stage.stage_id, task.partition)
        attempt = task_set.attempt_seq.get(key, task_set.first_attempt)
        task_set.attempt_seq[key] = attempt + 1
        launch = TaskAttempt(task, attempt, speculative)
        task_set.running.setdefault(key, {})[attempt] = _Attempt(
            launch, executor.executor_id, self.ctx.sim.now)
        self._assigned[executor.executor_id] += 1
        inv = self.ctx.invariants
        if inv is not None:
            inv.on_task_launched(self, executor.executor_id)
        self.channel.send(executor.launch_task, launch)
        if task_set.launched is None:
            task_set.launched = self.ctx.metrics.counter(
                task_set.launch_counter)
        task_set.launched.inc()

    # -- executor messages ------------------------------------------------------------

    def handle_message(self, message) -> None:
        if isinstance(message, TaskFinished):
            self._on_task_finished(message)
        elif isinstance(message, PoolResized):
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
        elif isinstance(message, TaskFailed):
            self._on_task_failed(message)
        else:
            raise TypeError(f"unknown scheduler message: {message!r}")

    def _retire(self, message) -> Tuple[Optional[_TaskSet], Key,
                                        Optional[_Attempt]]:
        """Find the set owning a reported attempt and retire the attempt:
        ``(set or None, key, attempt)``.  The attempt is ``None`` when it
        was already killed (executor loss, twin, abort): a stale report."""
        task = message.task
        key = (task.stage.stage_id, task.partition)
        run = self._run
        task_set = (run if run is not None and task.stage is run.stage
                    else self._recovery)
        if task_set is None:
            return None, key, None
        attempts = task_set.running.get(key)
        info = attempts.pop(message.attempt, None) if attempts else None
        if info is not None:
            self._assigned[message.executor_id] -= 1
            if task_set.forget_idle and not attempts:
                del task_set.running[key]
        return task_set, key, info

    def _on_task_finished(self, message: TaskFinished) -> None:
        task_set, key, info = self._retire(message)
        if task_set is None and self.ctx.faults is None:
            raise RuntimeError("completion for a task of a stage that is not running")
        if info is None:
            return
        if task_set is self._recovery:
            rec = task_set
            self.ctx.map_output_tracker.register_map_output(
                message.task.stage.shuffle_dep.shuffle_id, message.map_status
            )
            # Recomputed: if this output is lost again, it is needed again.
            rec.outstanding.discard(key)
            self._promote_ready_waves()
            if not rec.outstanding:
                self._finish_recovery(rec)
            self._assign()
            return
        run = task_set
        partition = key[1]
        self._kill_twins(run, partition, run.running[key], winner=info)
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
            self._kill(info, "speculation-lost")
        tracer = self.ctx.tracer
        won = winner.launch.speculative
        name = "speculation-win" if won else "speculation-loss"
        if tracer.enabled:
            tracer.instant(
                "speculation", name,
                stage_id=run.stage.stage_id,
                partition=partition,
                winner_executor=winner.executor_id,
                winner_attempt=winner.launch.attempt,
            )
        self.ctx.metrics.counter(
            "speculation.wins" if won else "speculation.losses"
        ).inc()

    def _kill(self, info: _Attempt, reason: str) -> None:
        """Kill one attempt.

        The kill reaches the executor at once, but the launch travels the
        control channel: a launch still in flight is marked cancelled, and
        the executor drops it on arrival instead of running it untracked.
        """
        launch = info.launch
        launch.cancelled = True
        self.ctx.executors[info.executor_id].kill_task(
            launch.task.stage.stage_id, launch.task.partition, launch.attempt,
            reason=reason)

    def _on_task_failed(self, message: TaskFailed) -> None:
        task_set, key, info = self._retire(message)
        if info is None:
            return  # already killed, or its stage resolved; nothing to retry
        failures = task_set.failures.get(key, 0) + 1
        task_set.failures[key] = failures
        if task_set.backoff:
            self.ctx.metrics.counter("scheduler.task_failures").inc()
        max_attempts = int(self.ctx.conf.get("spark.task.maxFailures"))
        if failures >= max_attempts:
            self._abort(self._run, task_set.abort_text.format(
                key[0], key[1], failures, max_attempts, message.reason))
            return
        if not task_set.backoff:
            task_set.manager.add(
                self._plan_tasks(message.task.stage, [key[1]])[0])
            self._assign()
            return
        if task_set.running[key]:
            return  # a speculative twin is still running this partition
        run = task_set
        partition = key[1]
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
        if self._run is run and not run.aborted and self._relaunch(
                run, partition):
            self._assign()

    def _relaunch(self, run: _StageRun, partition: int) -> bool:
        """Queue a partition's next attempt, planned afresh (tracker/DFS
        state may have moved); while a recovery runs, block it instead.
        Returns whether it was queued."""
        if self._recovery is not None:
            run.blocked.append(partition)
            return False
        run.retries_pending -= 1
        run.manager.add(self._plan_tasks(run.stage, [partition])[0])
        return True

    def _requeue(self, run: _StageRun, partition: int) -> None:
        """Relaunch a partition whose attempt was killed (not its fault)."""
        if partition in run.completed_partitions:
            return
        key = (run.stage.stage_id, partition)
        if run.running.get(key):
            return  # another attempt (speculative twin) is still going
        if run.manager.is_pending(key):
            return
        run.retries_pending += 1
        self._relaunch(run, partition)

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
        run = self._run
        if not any(ex.alive for ex in self.ctx.executors):
            if run is not None:
                self._abort(run, "no executors left alive")
            return
        # Attempts on the dead executor: a recomputation is queued again as
        # it was; a stage partition is relaunched once lineage is settled.
        orphaned: List[int] = []
        for task_set in (run, self._recovery):
            if task_set is None:
                continue
            for key, attempts in list(task_set.running.items()):
                for attempt_id, info in list(attempts.items()):
                    if info.executor_id == executor.executor_id:
                        attempts.pop(attempt_id)
                        if task_set is run:
                            orphaned.append(key[1])
                        else:
                            task_set.manager.add(info.launch.task)
                if task_set.forget_idle and not attempts:
                    del task_set.running[key]
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
                for key, attempts in list(run.running.items()):
                    for attempt_id, info in list(attempts.items()):
                        fetches = info.launch.task.plan.shuffle_fetches
                        if any(src == node_id for src, _size in fetches):
                            attempts.pop(attempt_id)
                            self._assigned[info.executor_id] -= 1
                            self._kill(info, "shuffle-data-lost")
                            orphaned.append(key[1])
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
        added = self._queue_lost(run.stage, run.stage, lost, rec, set())
        if added == 0:
            return
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

    def _queue_lost(self, stage: Stage, root: Stage,
                    lost: Dict[int, List[int]], rec: _Recovery,
                    seen: Set[int]) -> int:
        """Queue waves for the lost outputs ``stage`` consumes, then for
        those their producers consume; returns the partitions added."""
        added = 0
        for shuffle_id in self._consumed_shuffles(stage):
            if shuffle_id not in lost or shuffle_id in seen:
                continue
            seen.add(shuffle_id)
            producer = self._producing_stage(root, shuffle_id)
            fresh = {
                map_id for map_id in lost[shuffle_id]
                if (producer.stage_id, map_id) not in rec.outstanding
            }
            if fresh:
                for map_id in fresh:
                    rec.outstanding.add((producer.stage_id, map_id))
                rec.waves.append((producer, fresh))
                added += len(fresh)
            added += self._queue_lost(producer, root, lost, rec, seen)
        return added

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
            for task in self._plan_tasks(stage, sorted(partitions)):
                rec.manager.add(task)
        rec.waves = still_waiting

    def _finish_recovery(self, rec: _Recovery) -> None:
        self._recovery = None
        run = self._run
        tracer = self.ctx.tracer
        if rec.trace_span >= 0:
            tracer.end(rec.trace_span)
        if run is None:
            return
        # Queued tasks planned their shuffle fetches before the loss;
        # rebuild them against the recovered map-output locations.
        pending = run.manager.pending_partitions()
        if pending:
            run.manager = TaskSetManager(self._plan_tasks(run.stage, pending))
        blocked, run.blocked = run.blocked, []
        run.retries_pending -= len(blocked)
        for task in self._plan_tasks(run.stage, blocked):
            run.manager.add(task)
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
        for (_stage_id, partition), attempts in run.running.items():
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
        self._launch(run, info.launch.task, chosen, speculative=True)

    # -- stage completion / abort -----------------------------------------------------

    def _maybe_finish_stage(self, run: _StageRun) -> bool:
        if run.aborted or self._run is not run:
            return False
        if (len(run.completed_partitions) == run.stage.num_tasks
                and run.retries_pending == 0
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
        ordered = None
        if run.stage.is_result_stage:
            ordered = [run.results[i] for i in range(run.stage.num_tasks)]
        self.ctx.sim.call_in(0.0, run.then, ordered, None)

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
        self.ctx.sim.call_in(0.0, run.then, None, JobAbortedError(reason))
