"""Reference executor for differential tests: the generator task body.

:class:`ReferenceExecutor` keeps the executor's task path as it was before
task attempts became continuations: one generator :class:`Process` per
attempt that yields an :class:`Event` per CPU burst or I/O chunk, with an
``AllOf`` over the requests of a multi-part chunk, and kills delivered as an
:class:`Interrupt` thrown at the current ``yield``.  Every resource is used
in its event form.

The bodies are copied from the earlier code, plus the one fix both paths
share: a killed attempt ends its open ``task`` and ``io`` spans with
``killed=<reason>``.  The production executor must reproduce this one
exactly: byte-identical event logs, equal run results
and equal counts, except that the queue sees one entry fewer per launched
attempt (the completion event of its process, which nothing waits on).
See ``test_executor_differential.py``.  :func:`install` swaps the reference
in for whole engine runs.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.executor import Executor
from repro.engine.metrics import TaskMetrics
from repro.engine.task import (
    PoolResized,
    Task,
    TaskAttempt,
    TaskFailed,
    TaskFailure,
    TaskFinished,
)
from repro.simulation.core import Interrupt


class ReferenceExecutor(Executor):
    """:class:`Executor` with the generator-process task body."""

    def launch_task(self, message) -> None:
        if isinstance(message, Task):
            message = TaskAttempt(message)
        task = message.task
        attempt = message.attempt
        key = (task.stage.stage_id, task.partition, attempt)
        self.running += 1
        suffix = f".{attempt}" if attempt else ""
        self._runs[key] = self.ctx.sim.process(
            self._run_task(task, attempt, message.speculative),
            name=f"task-{task.stage.stage_id}.{task.partition}{suffix}"
                 f"@ex{self.executor_id}",
        )

    def kill_task(self, stage_id: int, partition: int, attempt: int,
                  reason: str = "killed") -> bool:
        key = (stage_id, partition, attempt)
        proc = self._runs.get(key)
        if proc is None or not proc.is_alive:
            return False
        self._cleanup(key)
        self.notify_fault(reason)
        proc.interrupt(reason)
        return True

    def _run_task(self, task: Task, attempt: int = 0, speculative: bool = False):
        key = (task.stage.stage_id, task.partition, attempt)
        try:
            yield from self._task_body(task, attempt, speculative, key)
        except Interrupt:
            # Killed from outside (executor loss, speculation twin lost,
            # recovery): kill_task already retired the bookkeeping.
            self._cleanup(key)
        except TaskFailure as failure:
            self._cleanup(key)
            self.notify_fault(failure.reason)
            tracer = self.ctx.tracer
            if tracer.enabled:
                tracer.instant(
                    "fault", "task-crash",
                    executor_id=self.executor_id,
                    stage_id=task.stage.stage_id,
                    partition=task.partition,
                    attempt=attempt,
                    reason=failure.reason,
                )
            self.ctx.metrics.counter("faults.task_crashes").inc()
            if self.alive:
                self.ctx.scheduler.channel.send(
                    self.ctx.scheduler.handle_message,
                    TaskFailed(self.executor_id, task, attempt, failure.reason),
                )

    def _task_body(self, task: Task, attempt: int, speculative: bool, key):
        sim = self.ctx.sim
        tracer = self.ctx.tracer
        plan = task.plan
        launch_time = sim.now
        io_wait = 0.0
        task_span = -1
        if tracer.enabled:
            extra = {}
            if attempt:
                extra["attempt"] = attempt
            if speculative:
                extra["speculative"] = True
            task_span = tracer.begin(
                "task", f"task {task.stage.stage_id}.{task.partition}",
                executor_id=self.executor_id,
                stage_id=task.stage.stage_id,
                partition=task.partition,
                pool_size=self.pool_size,
                **extra,
            )
        try:
            ops = self._build_ops(plan)
        except TaskFailure:
            if task_span >= 0:
                tracer.end(task_span, crashed=True)
            raise
        chunks = self._chunk_ops(ops, plan.cpu_seconds,
                                 interleave_offset=task.partition)
        faults = self.ctx.faults
        crash_index = None
        if faults is not None:
            fraction = faults.crash_point(
                task.stage.stage_id, task.partition, attempt
            )
            if fraction is not None:
                crash_index = int(fraction * len(chunks))
        completed_chunks = 0
        chunk_span = -1
        try:
            for kind, amount, src_node in chunks:
                if crash_index is not None and completed_chunks >= crash_index:
                    if task_span >= 0:
                        tracer.end(task_span, crashed=True)
                    raise TaskFailure("injected-crash")
                completed_chunks += 1
                if kind == "cpu":
                    yield self.node.cpu.submit(amount, tag="task").event
                else:
                    if tracer.enabled:
                        chunk_span = tracer.begin(
                            "io", kind, parent=task_span,
                            executor_id=self.executor_id,
                            bytes=amount, src_node=src_node,
                        )
                    start = sim.now
                    yield self._io_event(kind, amount, src_node)
                    wait = sim.now - start
                    io_wait += wait
                    self.io_wait_accum += wait
                    self.io_bytes_accum += amount
                    if chunk_span >= 0:
                        tracer.end(chunk_span, wait=wait)
                        chunk_span = -1
        except Interrupt as interrupt:
            if chunk_span >= 0:
                tracer.end(chunk_span, killed=interrupt.cause)
            if task_span >= 0:
                tracer.end(task_span, killed=interrupt.cause)
            raise
        if crash_index is not None and crash_index >= len(chunks):
            if task_span >= 0:
                tracer.end(task_span, crashed=True)
            raise TaskFailure("injected-crash")
        metrics = TaskMetrics(
            stage_id=task.stage.stage_id,
            partition=task.partition,
            executor_id=self.executor_id,
            node_id=self.node.node_id,
            launch_time=launch_time,
            finish_time=sim.now,
            cpu_seconds=plan.cpu_seconds,
            io_wait_seconds=io_wait,
            disk_read_bytes=sum(r.size for r in plan.dfs_reads),
            disk_write_bytes=plan.shuffle_write_bytes + plan.output_write_bytes,
            shuffle_read_bytes=sum(s for _n, s in plan.shuffle_fetches),
            shuffle_write_bytes=plan.shuffle_write_bytes,
            output_write_bytes=plan.output_write_bytes,
            pool_size_at_launch=self.pool_size,
        )
        map_status, result = self._finalize_task(task)
        self._cleanup(key)
        self.tasks_completed_total += 1
        self.stage_tasks_completed += 1
        if self._record is not None:
            self._record.tasks.append(metrics)
        if task_span >= 0:
            tracer.end(task_span, io_wait=io_wait,
                       io_bytes=metrics.total_io_bytes)
        registry = self.ctx.metrics
        registry.counter("tasks.completed").inc()
        registry.counter("io.task_bytes").inc(metrics.total_io_bytes)
        registry.counter("io.wait_seconds").inc(io_wait)
        if self.ctx.profiling:
            registry.histogram("tasks.duration").observe(sim.now - launch_time)
            registry.histogram("tasks.io_wait").observe(io_wait)
            if self._record is not None:
                registry.histogram("tasks.queue_delay").observe(
                    launch_time - self._record.start_time
                )
        decision = self.policy.on_task_complete(self, task.stage, metrics)
        if decision is not None and decision != self.pool_size:
            self._apply_pool_size(decision, reason="adapt")
            self.ctx.scheduler.channel.send(
                self.ctx.scheduler.handle_message,
                PoolResized(self.executor_id, self.pool_size),
            )
        self.ctx.scheduler.channel.send(
            self.ctx.scheduler.handle_message,
            TaskFinished(self.executor_id, task, metrics, map_status, result,
                         attempt=attempt, speculative=speculative),
        )

    def _io_event(self, kind: str, size: float, src_node: Optional[int]):
        sim = self.ctx.sim
        my_node = self.node
        if kind == "dfs_read":
            if src_node is None:
                return my_node.disk.request(size, "read")
            remote_disk = self.ctx.cluster.node(src_node).disk
            return sim.all_of(
                [
                    remote_disk.request(size, "read"),
                    self.ctx.cluster.fabric.transfer(
                        src_node, my_node.node_id, size, tag="dfs"
                    ),
                ]
            )
        if kind == "shuffle_fetch":
            disk_fraction = float(
                self.ctx.conf.get("repro.shuffle.read.disk.fraction")
            )
            src_disk = self.ctx.cluster.node(src_node).disk
            events = []
            if disk_fraction > 0:
                events.append(src_disk.request(size * disk_fraction, "read"))
            if src_node != my_node.node_id:
                events.append(
                    self.ctx.cluster.fabric.transfer(
                        src_node, my_node.node_id, size, tag="shuffle"
                    )
                )
            if not events:
                done = sim.event()
                done.succeed(size)
                return done
            return sim.all_of(events)
        if kind == "shuffle_write":
            return my_node.disk.request(size, "write")
        if kind == "dfs_write":
            replication = int(self.ctx.conf.get("repro.output.replication"))
            events = [my_node.disk.request(size, "write")]
            num_nodes = self.ctx.cluster.num_nodes
            for offset in range(1, min(replication, num_nodes)):
                replica = (my_node.node_id + offset) % num_nodes
                events.append(
                    self.ctx.cluster.fabric.transfer(
                        my_node.node_id, replica, size, tag="replica"
                    )
                )
                events.append(
                    self.ctx.cluster.node(replica).disk.request(size, "write")
                )
            return sim.all_of(events)
        raise ValueError(f"unknown I/O op kind: {kind!r}")


def install(monkeypatch) -> None:
    """Build every context on the reference executor for the rest of a test."""
    monkeypatch.setattr("repro.engine.context.Executor", ReferenceExecutor)
