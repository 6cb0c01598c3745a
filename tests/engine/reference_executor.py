"""Reference executor for differential tests: the generator task body.

:class:`ReferenceExecutor` keeps the executor's task path as it was before
task attempts became continuations: one generator process per attempt
that yields an event per CPU burst or I/O chunk, with an ``AllOf`` over
the requests of a multi-part chunk, and kills delivered as an
:class:`Interrupt` thrown at the current ``yield``.  Every resource is used
in its event form.  The kernel no longer has events or generator
processes, so the parts of ``Event``, ``Process``, ``AllOf`` and
``Interrupt`` this body uses live here (:class:`_Event`,
:class:`_Process`, :func:`_all_of`), queueing through ``call_in`` exactly
the entries the kernel's versions queued.  The event form of a resource
call is :func:`_event_form`: the call gets ``then=event.succeed``, as the
resources' own event form did.

The bodies are copied from the earlier code, plus the fixes both paths
share: a killed attempt ends its open ``task`` and ``io`` spans with
``killed=<reason>``, and a launch the driver cancelled in flight is
dropped on arrival.  The production executor must reproduce this one
exactly: byte-identical event logs, equal run results
and equal counts, except that the queue sees one entry fewer per started
attempt (the completion event of its process, which nothing waits on).
See ``test_executor_differential.py``.  :func:`install` swaps the reference
in for whole engine runs.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

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
from repro.simulation.core import SimulationError


class _Event:
    """A one-shot occurrence that callbacks can wait on.

    An event moves through three states: *pending* (created, not
    triggered), *triggered* (:meth:`succeed` or :meth:`fail` queued its
    firing, it has a value), and *processed* (its callbacks have run).
    A callback added to an already-processed event runs on the next loop
    iteration.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered")

    def __init__(self, sim) -> None:
        self.sim = sim
        self.callbacks: Optional[List[Callable[["_Event"], None]]] = []
        self._value: Any = None
        self._ok = True
        self._triggered = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        return self._ok

    @property
    def value(self) -> Any:
        return self._value

    def succeed(self, value: Any = None) -> "_Event":
        if self._triggered:
            raise SimulationError("event already triggered")
        self._value = value
        self._ok = True
        self._triggered = True
        self.sim.call_in(0.0, self._fire)
        return self

    def fail(self, exception: BaseException) -> "_Event":
        if self._triggered:
            raise SimulationError("event already triggered")
        self._value = exception
        self._ok = False
        self._triggered = True
        self.sim.call_in(0.0, self._fire)
        return self

    def add_callback(self, callback: Callable[["_Event"], None]) -> None:
        if self.callbacks is None:
            self.sim.call_in(0.0, callback, self)
        else:
            self.callbacks.append(callback)

    def _fire(self) -> None:
        callbacks = self.callbacks
        self.callbacks = None
        if callbacks:
            for callback in callbacks:
                callback(self)
        elif not self._ok:
            raise self._value


def _event_form(sim, call: Callable[..., None], *args: Any) -> _Event:
    """``call(*args, then)`` as the event it used to return: an event that
    its completion hook succeeds with the job or the size moved."""
    ev = _Event(sim)
    call(*args, ev.succeed)
    return ev


class Interrupt(Exception):
    """Thrown into a process by :meth:`_Process.interrupt`."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class _Process(_Event):
    """A generator driven by the events it yields; fires with its result.

    Queue entries, as the kernel's ``Process`` made them: one bootstrap at
    creation, one per interrupt, and the process's own completion.
    """

    __slots__ = ("generator", "_waiting_on", "_trace_span", "_started")

    def __init__(self, sim, generator, name: str) -> None:
        super().__init__(sim)
        self.generator = generator
        self._started = False
        if sim.trace_enabled:
            self._trace_span = sim.tracer.begin("process", name)
        else:
            self._trace_span = -1
        self._waiting_on = self._kick(None)

    def _kick(self, interrupt: Optional[Interrupt]) -> _Event:
        """An event that resumes the process on the next loop iteration."""
        kick = _Event(self.sim)
        kick.add_callback(self._resume)
        if interrupt is None:
            kick.succeed()
        else:
            kick.fail(interrupt)
        return kick

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield;
        a process whose generator has not started is cancelled silently."""
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        if not self._started:
            self.generator.close()
            self._waiting_on = None
            if self._trace_span >= 0:
                self.sim.tracer.end(self._trace_span, cancelled=True)
            self.succeed(None)
            return
        self._waiting_on = self._kick(Interrupt(cause))

    def _resume(self, event: _Event) -> None:
        if event is not self._waiting_on:
            return  # detached from this event by an interrupt
        self._waiting_on = None
        self._started = True
        try:
            if event.ok:
                target = self.generator.send(event.value)
            else:
                target = self.generator.throw(event.value)
        except StopIteration as stop:
            if self._trace_span >= 0:
                self.sim.tracer.end(self._trace_span)
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate to waiters
            if self._trace_span >= 0:
                self.sim.tracer.end(self._trace_span, error=repr(exc))
            self.fail(exc)
            return
        self._waiting_on = target
        target.add_callback(self._resume)


def _all_of(sim, events: Iterable[_Event]) -> _Event:
    """Fires when every one of ``events`` (a non-empty list) has fired;
    the value is the list of their values."""
    done = _Event(sim)
    events = list(events)
    values: List[Any] = [None] * len(events)
    pending = [len(events)]

    def collector(index: int) -> Callable[[_Event], None]:
        def collect(event: _Event) -> None:
            if done.triggered:
                return
            if not event.ok:
                done.fail(event.value)
                return
            values[index] = event.value
            pending[0] -= 1
            if not pending[0]:
                done.succeed(list(values))

        return collect

    for index, event in enumerate(events):
        event.add_callback(collector(index))
    return done


class ReferenceExecutor(Executor):
    """:class:`Executor` with the generator-process task body."""

    def launch_task(self, message) -> None:
        if isinstance(message, Task):
            message = TaskAttempt(message)
        if message.cancelled:
            return
        task = message.task
        attempt = message.attempt
        key = (task.stage.stage_id, task.partition, attempt)
        self.running += 1
        suffix = f".{attempt}" if attempt else ""
        self._runs[key] = _Process(
            self.ctx.sim,
            self._run_task(task, attempt, message.speculative),
            f"task-{task.stage.stage_id}.{task.partition}{suffix}"
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
                    yield _event_form(sim, self.node.cpu.submit, amount, "task")
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
        fabric = self.ctx.cluster.fabric
        if kind == "dfs_read":
            if src_node is None:
                return _event_form(sim, my_node.disk.request, size, "read")
            remote_disk = self.ctx.cluster.node(src_node).disk
            return _all_of(
                sim,
                [
                    _event_form(sim, remote_disk.request, size, "read"),
                    _event_form(sim, fabric.transfer,
                                src_node, my_node.node_id, size, "dfs"),
                ]
            )
        if kind == "shuffle_fetch":
            disk_fraction = float(
                self.ctx.conf.get("repro.shuffle.read.disk.fraction")
            )
            src_disk = self.ctx.cluster.node(src_node).disk
            events = []
            if disk_fraction > 0:
                events.append(_event_form(sim, src_disk.request,
                                          size * disk_fraction, "read"))
            if src_node != my_node.node_id:
                events.append(
                    _event_form(sim, fabric.transfer,
                                src_node, my_node.node_id, size, "shuffle")
                )
            if not events:
                done = _Event(sim)
                done.succeed(size)
                return done
            return _all_of(sim, events)
        if kind == "shuffle_write":
            return _event_form(sim, my_node.disk.request, size, "write")
        if kind == "dfs_write":
            replication = int(self.ctx.conf.get("repro.output.replication"))
            events = [_event_form(sim, my_node.disk.request, size, "write")]
            num_nodes = self.ctx.cluster.num_nodes
            for offset in range(1, min(replication, num_nodes)):
                replica = (my_node.node_id + offset) % num_nodes
                events.append(
                    _event_form(sim, fabric.transfer,
                                my_node.node_id, replica, size, "replica")
                )
                replica_disk = self.ctx.cluster.node(replica).disk
                events.append(
                    _event_form(sim, replica_disk.request, size, "write")
                )
            return _all_of(sim, events)
        raise ValueError(f"unknown I/O op kind: {kind!r}")


def install(monkeypatch) -> None:
    """Build every context on the reference executor for the rest of a test."""
    monkeypatch.setattr("repro.engine.context.Executor", ReferenceExecutor)
