"""The executor: a resizable worker pool bound to one node.

This is the paper's *managed element*.  The executor runs task attempts
that interleave I/O requests (against its node's disk and NIC) and CPU
bursts (against its node's core bank).  It keeps the two sensor counters
the MAPE-K monitor reads -- accumulated I/O wait time (the strace/epoll
analogue, ε) and task I/O bytes (the Spark-metrics analogue behind µ) -- and
applies pool-size decisions from its attached policy, notifying the driver
through the extended message protocol whenever the pool is resized.

Pool-size enforcement is cooperative, exactly as in the paper's
implementation: the driver stops assigning new tasks beyond the pool size;
already-running tasks always finish.
"""

from __future__ import annotations

import math
from itertools import zip_longest
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.engine.metrics import PoolEvent, StageRecord, TaskMetrics
from repro.engine.policy import DefaultPolicy, ExecutorPolicy
from repro.engine.shuffle import MapStatus
from repro.engine.sizing import SizeInfo, estimate_partition
from repro.engine.stage import Stage
from repro.engine.task import (
    PoolResized,
    Task,
    TaskAttempt,
    TaskFailed,
    TaskFailure,
    TaskFinished,
)


_GAP = object()


def _round_robin(lists: List[List[Tuple]]) -> List[Tuple]:
    """Merge several chunk lists by taking one element from each in turn."""
    if len(lists) == 1:
        return lists[0]
    return [chunk for row in zip_longest(*lists, fillvalue=_GAP)
            for chunk in row if chunk is not _GAP]


class _IoOp(NamedTuple):
    """One physical I/O operation of a task, before chunking."""

    kind: str  # dfs_read | shuffle_fetch | shuffle_write | dfs_write
    size: float
    src_node: Optional[int] = None  # for remote reads / fetches


class Executor:
    """One executor per node, as in the paper's deployment."""

    def __init__(self, ctx, node, executor_id: int) -> None:
        self.ctx = ctx
        self.node = node
        self.executor_id = executor_id
        configured = ctx.conf.get("spark.executor.cores")
        self.default_pool_size = int(configured) if configured else node.cores
        self.pool_size = self.default_pool_size
        self.policy: ExecutorPolicy = DefaultPolicy()
        self.running = 0
        #: Flipped to False when fault injection loses this executor.
        self.alive = True
        #: Live task attempts keyed (stage_id, partition, attempt) so
        #: individual attempts can be killed (executor loss, speculation).
        self._runs: Dict[Tuple[int, int, int], "_TaskRun"] = {}
        # MAPE-K sensor counters (monotonically increasing; the monitor
        # diffs snapshots per interval).
        self.io_wait_accum = 0.0
        self.io_bytes_accum = 0.0
        self.tasks_completed_total = 0
        self.stage_tasks_completed = 0
        self.current_stage: Optional[Stage] = None
        self._record: Optional[StageRecord] = None
        #: The registry counters every finished task bumps, resolved on
        #: first use (a counter first appears when a task first bumps it).
        self._task_counters: Optional[Tuple] = None

    # -- sensors ---------------------------------------------------------------

    def sensor_snapshot(self) -> Tuple[float, float, int]:
        """(accumulated I/O wait, accumulated task I/O bytes, tasks done)."""
        return (self.io_wait_accum, self.io_bytes_accum, self.stage_tasks_completed)

    @property
    def stage_record(self) -> Optional[StageRecord]:
        """The metrics record of the stage currently running, if any."""
        return self._record

    # -- stage lifecycle ----------------------------------------------------------

    def begin_stage(self, stage: Stage, record: StageRecord) -> int:
        """Driver RPC at stage start; returns the chosen initial pool size."""
        self.current_stage = stage
        self._record = record
        self.stage_tasks_completed = 0
        size = self.policy.on_stage_start(self, stage)
        self._apply_pool_size(size, reason="stage-start")
        return self.pool_size

    def _apply_pool_size(self, size: int, reason: str) -> None:
        size = max(1, min(int(size), self.node.cores))
        self.pool_size = size
        inv = self.ctx.invariants
        if inv is not None:
            inv.on_pool_resize(self, size, reason)
        if self._record is not None:
            self._record.pool_events.append(
                PoolEvent(
                    time=self.ctx.sim.now,
                    executor_id=self.executor_id,
                    stage_id=self._record.stage_id,
                    pool_size=size,
                    reason=reason,
                )
            )
            tracer = self.ctx.tracer
            if tracer.enabled:
                tracer.instant(
                    "pool", "resize",
                    executor_id=self.executor_id,
                    stage_id=self._record.stage_id,
                    size=size,
                    reason=reason,
                )
        self.ctx.metrics.gauge(
            f"executor.{self.executor_id}.pool_size"
        ).set(size)

    # -- task execution ------------------------------------------------------------

    def launch_task(self, message) -> None:
        """Driver -> executor: run one task (arrives via the control channel).

        Accepts a bare :class:`Task` (implicitly attempt 0) or a
        :class:`TaskAttempt` carrying a retry/speculative attempt id.  A
        launch the driver cancelled while it was in flight is dropped.
        """
        if isinstance(message, Task):
            message = TaskAttempt(message)
        if message.cancelled:
            return
        task = message.task
        attempt = message.attempt
        key = (task.stage.stage_id, task.partition, attempt)
        self.running += 1
        self._runs[key] = _TaskRun(self, task, attempt, message.speculative,
                                   key)

    def kill_task(self, stage_id: int, partition: int, attempt: int,
                  reason: str = "killed") -> bool:
        """Interrupt one live attempt; returns False if it already finished."""
        key = (stage_id, partition, attempt)
        run = self._runs.get(key)
        if run is None:
            return False
        self._cleanup(key)
        self.notify_fault(reason)
        run.interrupt(reason)
        return True

    def kill_all(self, reason: str) -> int:
        """Interrupt every live attempt (executor/node loss)."""
        killed = 0
        for key in list(self._runs):
            if self.kill_task(*key, reason=reason):
                killed += 1
        return killed

    def notify_fault(self, reason: str) -> None:
        """A fault touched this executor: let the policy react.

        The adaptive policy discards the MAPE-K interval in progress -- a
        killed or crashed task's partial I/O wait has already leaked into the
        sensor counters and would corrupt the next ζ reading.
        """
        if not self.alive:
            return
        self.policy.on_fault(self, reason)

    def stop(self) -> None:
        """Drop what would point back here or at the stopped context: the
        context, the policy (a MAPE-K loop holds its executor) and the last
        stage (its RDDs hold the context)."""
        self.ctx = None
        self.policy = None
        self.current_stage = None

    def _cleanup(self, key) -> bool:
        """Retire one attempt's bookkeeping exactly once."""
        if self._runs.pop(key, None) is None:
            return False
        self.running -= 1
        inv = self.ctx.invariants
        if inv is not None:
            inv.on_executor_cleanup(self)
        return True

    # -- physical plan --------------------------------------------------------------

    def _build_ops(self, plan) -> List[_IoOp]:
        ops: List[_IoOp] = []
        cluster = self.ctx.cluster
        for read in plan.dfs_reads:
            preferred = read.preferred_nodes
            if preferred and self.ctx.faults is not None:
                # Replica failover: a plan built before a node died may still
                # name it; re-read from any surviving replica holder instead.
                alive = tuple(
                    n for n in preferred if cluster.node(n).alive
                )
                if not alive:
                    raise TaskFailure("input-data-lost")
                preferred = alive
            if not preferred or self.node.node_id in preferred:
                ops.append(_IoOp("dfs_read", read.size))
            else:
                ops.append(_IoOp("dfs_read", read.size, src_node=preferred[0]))
        for src_node, size in plan.shuffle_fetches:
            ops.append(_IoOp("shuffle_fetch", size, src_node=src_node))
        if plan.shuffle_write_bytes > 0:
            ops.append(_IoOp("shuffle_write", plan.shuffle_write_bytes))
        if plan.output_write_bytes > 0:
            ops.append(_IoOp("dfs_write", plan.output_write_bytes))
        return ops

    def _chunk_ops(self, ops: List[_IoOp], cpu_seconds: float,
                   interleave_offset: int = 0) -> List[Tuple]:
        """Interleave chunked I/O with CPU bursts.

        Real tasks stream records: read a buffer, process it, read the next.
        Chunking is what lets other threads use the disk while this task
        computes -- the interleaving from which the thread-count optimum
        emerges (DESIGN.md section 5).

        Read chunks from different sources are merged round-robin starting at
        ``interleave_offset`` (Spark randomises shuffle fetch order for the
        same reason: otherwise every reducer would hit map outputs in the
        same source order and convoy on one disk at a time).  Writes happen
        after reads, as they do in map (read input -> spill) and result
        (fetch -> sort -> save) tasks alike.
        """
        conf = self.ctx.conf
        chunk_bytes = float(conf.get("repro.task.chunk.bytes"))
        max_chunks = int(conf.get("repro.task.max.chunks"))
        total_io = sum(op.size for op in ops)
        if total_io <= 0:
            return [("cpu", cpu_seconds, None)] if cpu_seconds > 0 else []
        effective_chunk = max(chunk_bytes, total_io / max_chunks)
        # Chunk sizes are jittered (totals preserved) so that identically
        # shaped tasks launched together drift out of phase, as real threads
        # do.  Without this, same-size tasks alternate I/O and CPU in perfect
        # lockstep and the disk idles during the synchronised CPU bursts.
        # Draws are ``random.uniform(0.6, 1.4)`` spelled out: same floats.
        draw = self.ctx.streams.stream("chunk-jitter").random

        read_lists: List[List[Tuple]] = []
        write_lists: List[List[Tuple]] = []
        for lists, kinds in ((read_lists, ("dfs_read", "shuffle_fetch")),
                             (write_lists, ("shuffle_write", "dfs_write"))):
            for kind, size, src_node in ops:
                if kind not in kinds:
                    continue
                count = max(1, math.ceil(size / effective_chunk))
                if count == 1:  # the sum of one weight is that weight
                    w = 0.6 + (1.4 - 0.6) * draw()
                    lists.append([(kind, w * (size / w), src_node)])
                    continue
                weights = [0.6 + (1.4 - 0.6) * draw() for _ in range(count)]
                scale = size / sum(weights)
                lists.append([(kind, w * scale, src_node) for w in weights])
        offset = interleave_offset % len(read_lists) if read_lists else 0
        if offset:
            read_lists = read_lists[offset:] + read_lists[:offset]
        io_chunks = _round_robin(read_lists) + _round_robin(write_lists)
        cpu_weights = [0.6 + (1.4 - 0.6) * draw() for _ in io_chunks]
        if not cpu_seconds > 0:
            return io_chunks
        cpu_scale = cpu_seconds / sum(cpu_weights)
        pieces: List[Tuple] = []
        for chunk, weight in zip(io_chunks, cpu_weights):
            pieces += (chunk, ("cpu", weight * cpu_scale, None))
        return pieces

    # -- data-plane completion work -----------------------------------------------

    def _finalize_task(self, task: Task):
        """Produce the map status (map tasks) or action result (result tasks)."""
        stage = task.stage
        if stage.shuffle_dep is not None:
            return self._map_output(stage, task.partition), None
        records = (
            stage.rdd.iterator(task.partition) if stage.rdd.is_materialized else None
        )
        result = stage.action.process_partition(records, task.partition)
        return None, result

    def _map_output(self, stage: Stage, split: int) -> MapStatus:
        dep = stage.shuffle_dep
        num_reducers = dep.partitioner.num_partitions
        if stage.rdd.is_materialized:
            records = stage.rdd.iterator(split)
            if dep.map_side_combine and dep.combiner is not None:
                combined = {}
                for key, value in records:
                    if key in combined:
                        combined[key] = dep.combiner(combined[key], value)
                    else:
                        combined[key] = value
                records = list(combined.items())
            buckets: List[List] = [[] for _ in range(num_reducers)]
            for key, value in records:
                buckets[dep.partitioner.partition(key)].append((key, value))
            return MapStatus(
                map_id=split,
                node_id=self.node.node_id,
                reducer_sizes=[estimate_partition(bucket) for bucket in buckets],
                real_buckets=buckets,
            )
        return MapStatus.uniform(
            map_id=split,
            node_id=self.node.node_id,
            num_reducers=num_reducers,
            total=dep.map_output_size(split),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Executor(id={self.executor_id}, node={self.node.node_id}, "
            f"pool={self.pool_size}, running={self.running})"
        )


class _TaskRun:
    """One task attempt, driven by the completion hooks of its requests.

    The attempt walks its chunk list one request at a time: a CPU burst or
    an I/O chunk is submitted with a bound method of this object as its
    completion hook, and the hook continues the walk.  ``pending`` counts
    the parts of a multi-request I/O chunk still outstanding.

    Order invariant: the queue sees the entries a generator process per
    attempt would have made (the form kept as the reference in
    ``tests/engine/reference_executor.py``), at the same instants and in
    the same order,
    so same-instant ties break identically and event logs stay byte for
    byte the same.  Every event the generator form succeeded becomes one
    ``call_in(0.0, ...)`` at the same point, running what that event's
    callbacks ran: the process bootstrap is the entry queued at launch
    (:meth:`_start`), a request's completion queues the resume
    (:meth:`_io_done`, :meth:`_cpu_done`) or one count of the ``AllOf``
    (:meth:`_io_arrive`), the last count queues the ``AllOf``'s resume, and
    a kill queues the interrupt (:meth:`_interrupted`).  Only the process's
    own completion event, which nothing waited on, is gone.  A killed
    attempt's in-flight requests still complete and queue their entries;
    the continuation just does nothing when it finds the attempt killed.
    """

    __slots__ = (
        "executor", "sim", "task", "attempt", "speculative", "key",
        "started", "killed", "proc_span", "task_span", "io_span",
        "launch_time", "io_wait", "io_start", "chunks", "index",
        "crash_index", "pending",
    )

    def __init__(self, executor: "Executor", task: Task, attempt: int,
                 speculative: bool, key: Tuple[int, int, int]) -> None:
        self.executor = executor
        self.task = task
        self.attempt = attempt
        self.speculative = speculative
        self.key = key
        self.started = False
        self.killed = False
        self.task_span = -1
        self.io_span = -1
        self.pending = 0
        self.sim = sim = executor.ctx.sim
        self.proc_span = -1
        if sim.trace_enabled:
            # Attempt 0 keeps the historical span name so fault-free traces
            # stay bit-identical; retries and duplicates are suffixed.
            suffix = f".{attempt}" if attempt else ""
            self.proc_span = sim.tracer.begin(
                "process",
                f"task-{task.stage.stage_id}.{task.partition}{suffix}"
                f"@ex{executor.executor_id}",
            )
        sim.call_in(0.0, self._start)

    # -- lifecycle -------------------------------------------------------------

    def interrupt(self, reason: str) -> None:
        """Kill the attempt (the executor has retired its bookkeeping).

        An attempt that has not started yet is cancelled on the spot; a
        running one stops at the next entry the queue delivers to it.
        """
        self.killed = True
        if not self.started:
            if self.proc_span >= 0:
                self.sim.tracer.end(self.proc_span, cancelled=True)
            return
        self.sim.call_in(0.0, self._interrupted, reason)

    def _interrupted(self, reason: str) -> None:
        tracer = self.executor.ctx.tracer
        if self.io_span >= 0:
            tracer.end(self.io_span, killed=reason)
        if self.task_span >= 0:
            tracer.end(self.task_span, killed=reason)
        self._end()

    def _end(self) -> None:
        if self.proc_span >= 0:
            self.sim.tracer.end(self.proc_span)

    def _start(self) -> None:
        if self.killed:
            return
        self.started = True
        executor = self.executor
        ctx = executor.ctx
        task = self.task
        plan = task.plan
        self.launch_time = self.sim._now
        self.io_wait = 0.0
        tracer = ctx.tracer
        if tracer.enabled:
            extra = {}
            if self.attempt:
                extra["attempt"] = self.attempt
            if self.speculative:
                extra["speculative"] = True
            self.task_span = tracer.begin(
                "task", f"task {task.stage.stage_id}.{task.partition}",
                executor_id=executor.executor_id,
                stage_id=task.stage.stage_id,
                partition=task.partition,
                pool_size=executor.pool_size,
                **extra,
            )
        try:
            ops = executor._build_ops(plan)
        except TaskFailure as failure:
            self._fail(failure.reason)
            return
        chunks = executor._chunk_ops(ops, plan.cpu_seconds,
                                     interleave_offset=task.partition)
        self.chunks = chunks
        self.index = 0
        self.crash_index = None
        faults = ctx.faults
        if faults is not None:
            fraction = faults.crash_point(
                task.stage.stage_id, task.partition, self.attempt
            )
            if fraction is not None:
                # A fraction in [0, 1]: 1.0 crashes after the last chunk.
                self.crash_index = int(fraction * len(chunks))
        self._step()

    # -- the chunk walk ----------------------------------------------------------

    def _step(self) -> None:
        """Submit the next chunk, or crash or finish when the walk ends."""
        index = self.index
        crash_index = self.crash_index
        if crash_index is not None and index >= crash_index:
            self._fail("injected-crash")
            return
        chunks = self.chunks
        if index == len(chunks):
            self._finish()
            return
        self.index = index + 1
        kind, amount, src_node = chunks[index]
        executor = self.executor
        if kind == "cpu":
            executor.node.cpu.submit(amount, "task", self._cpu_done)
            return
        ctx = executor.ctx
        tracer = ctx.tracer
        if tracer.enabled:
            self.io_span = tracer.begin(
                "io", kind, parent=self.task_span,
                executor_id=executor.executor_id,
                bytes=amount, src_node=src_node,
            )
        self.io_start = self.sim._now
        self._start_io(kind, amount, src_node)

    def _start_io(self, kind: str, size: float,
                  src_node: Optional[int]) -> None:
        """Issue one I/O chunk with this attempt's hooks on its requests.

        A chunk served by one request completes through :meth:`_io_done`.
        A chunk of several requests (remote read, shuffle fetch, replicated
        write) sets ``pending`` and completes each part through
        :meth:`_io_arrive`.
        """
        ctx = self.executor.ctx
        my_node = self.executor.node
        cluster = ctx.cluster
        if kind == "dfs_read":
            if src_node is None:
                my_node.disk.request(size, "read", self._io_done)
                return
            self.pending = 2
            cluster.node(src_node).disk.request(size, "read", self._io_arrive)
            cluster.fabric.transfer(src_node, my_node.node_id, size, "dfs",
                                    self._io_arrive)
            return
        if kind == "shuffle_fetch":
            disk_fraction = float(
                ctx.conf.get("repro.shuffle.read.disk.fraction")
            )
            remote = src_node != my_node.node_id
            parts = (disk_fraction > 0) + remote
            if not parts:
                self._io_done(size)
                return
            self.pending = parts
            if disk_fraction > 0:
                cluster.node(src_node).disk.request(
                    size * disk_fraction, "read", self._io_arrive
                )
            if remote:
                cluster.fabric.transfer(src_node, my_node.node_id, size,
                                        "shuffle", self._io_arrive)
            return
        if kind == "shuffle_write":
            my_node.disk.request(size, "write", self._io_done)
            return
        if kind == "dfs_write":
            replication = int(ctx.conf.get("repro.output.replication"))
            num_nodes = cluster.num_nodes
            replicas = range(1, min(replication, num_nodes))
            self.pending = 1 + 2 * len(replicas)
            my_node.disk.request(size, "write", self._io_arrive)
            for offset in replicas:
                replica = (my_node.node_id + offset) % num_nodes
                cluster.fabric.transfer(my_node.node_id, replica, size,
                                        "replica", self._io_arrive)
                cluster.node(replica).disk.request(size, "write",
                                                   self._io_arrive)
            return
        raise ValueError(f"unknown I/O op kind: {kind!r}")

    def _cpu_done(self, _job) -> None:
        self.sim.call_in(0.0, self._resume)

    def _resume(self) -> None:
        if not self.killed:
            self._step()

    def _io_done(self, _value) -> None:
        """Completion hook of a single-request I/O chunk."""
        self.sim.call_in(0.0, self._io_resume)

    def _io_arrive(self, _value) -> None:
        """Completion hook of one part of a multi-request I/O chunk."""
        self.sim.call_in(0.0, self._io_count)

    def _io_count(self) -> None:
        self.pending -= 1
        if not self.pending:
            self.sim.call_in(0.0, self._io_resume)

    def _io_resume(self) -> None:
        if self.killed:
            return
        executor = self.executor
        ctx = executor.ctx
        wait = self.sim._now - self.io_start
        amount = self.chunks[self.index - 1][1]
        self.io_wait += wait
        executor.io_wait_accum += wait
        executor.io_bytes_accum += amount
        if self.io_span >= 0:
            ctx.tracer.end(self.io_span, wait=wait)
            self.io_span = -1
        self._step()

    # -- outcomes ------------------------------------------------------------------

    def _fail(self, reason: str) -> None:
        """The attempt crashed: an injected crash, or ``input-data-lost``
        before its first chunk.  Its task span ends here as crashed."""
        executor = self.executor
        ctx = executor.ctx
        task = self.task
        if self.task_span >= 0:
            ctx.tracer.end(self.task_span, crashed=True)
        executor._cleanup(self.key)
        executor.notify_fault(reason)
        tracer = ctx.tracer
        if tracer.enabled:
            tracer.instant(
                "fault", "task-crash",
                executor_id=executor.executor_id,
                stage_id=task.stage.stage_id,
                partition=task.partition,
                attempt=self.attempt,
                reason=reason,
            )
        ctx.metrics.counter("faults.task_crashes").inc()
        if executor.alive:
            ctx.scheduler.channel.send(
                ctx.scheduler.handle_message,
                TaskFailed(executor.executor_id, task, self.attempt, reason),
            )
        self._end()

    def _finish(self) -> None:
        executor = self.executor
        ctx = executor.ctx
        sim = self.sim
        task = self.task
        plan = task.plan
        io_wait = self.io_wait
        launch_time = self.launch_time
        metrics = TaskMetrics(
            stage_id=task.stage.stage_id,
            partition=task.partition,
            executor_id=executor.executor_id,
            node_id=executor.node.node_id,
            launch_time=launch_time,
            finish_time=sim._now,
            cpu_seconds=plan.cpu_seconds,
            io_wait_seconds=io_wait,
            disk_read_bytes=sum(r.size for r in plan.dfs_reads),
            disk_write_bytes=plan.shuffle_write_bytes + plan.output_write_bytes,
            shuffle_read_bytes=sum(s for _n, s in plan.shuffle_fetches),
            shuffle_write_bytes=plan.shuffle_write_bytes,
            output_write_bytes=plan.output_write_bytes,
            pool_size_at_launch=executor.pool_size,
        )
        map_status, result = executor._finalize_task(task)
        executor._cleanup(self.key)
        executor.tasks_completed_total += 1
        executor.stage_tasks_completed += 1
        record = executor._record
        if record is not None:
            record.tasks.append(metrics)
        if self.task_span >= 0:
            ctx.tracer.end(self.task_span, io_wait=io_wait,
                           io_bytes=metrics.total_io_bytes)
        registry = ctx.metrics
        counters = executor._task_counters
        if counters is None:
            counters = executor._task_counters = (
                registry.counter("tasks.completed"),
                registry.counter("io.task_bytes"),
                registry.counter("io.wait_seconds"),
            )
        counters[0].inc()
        counters[1].inc(metrics.total_io_bytes)
        counters[2].inc(io_wait)
        if ctx.profiling:
            # Distribution metrics ride the same registry as the counters
            # above, but only when a demand profiler is attached -- the
            # trailing metrics event must stay byte-identical otherwise.
            registry.histogram("tasks.duration").observe(sim.now - launch_time)
            registry.histogram("tasks.io_wait").observe(io_wait)
            if record is not None:
                registry.histogram("tasks.queue_delay").observe(
                    launch_time - record.start_time
                )
        decision = executor.policy.on_task_complete(executor, task.stage,
                                                    metrics)
        scheduler = ctx.scheduler
        if decision is not None and decision != executor.pool_size:
            executor._apply_pool_size(decision, reason="adapt")
            scheduler.channel.send(
                scheduler.handle_message,
                PoolResized(executor.executor_id, executor.pool_size),
            )
        scheduler.channel.send(
            scheduler.handle_message,
            TaskFinished(executor.executor_id, task, metrics, map_status,
                         result, attempt=self.attempt,
                         speculative=self.speculative),
        )
        self._end()
