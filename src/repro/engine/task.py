"""Task instances and driver<->executor control-plane messages.

The message types mirror the paper's section 5.4: Spark's protocol carries
task launches and status updates; the self-adaptive executor *extends* it
with a pool-resize notification so the scheduler's free-core registry stays
consistent with the executor's actual thread pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.engine.metrics import TaskMetrics
from repro.engine.shuffle import MapStatus
from repro.engine.stage import Stage, TaskPlan


@dataclass
class Task:
    """One schedulable unit: a partition of a stage plus its physical plan."""

    stage: Stage
    partition: int
    plan: TaskPlan

    @property
    def preferred_nodes(self):
        return self.plan.preferred_nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Task(stage={self.stage.stage_id}, partition={self.partition})"


class TaskFailure(Exception):
    """Raised inside a task body when the attempt cannot complete.

    Carries a short machine-readable ``reason`` (``injected-crash``,
    ``input-data-lost``, ...) that travels to the driver in a
    :class:`TaskFailed` message and into the event log.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class TaskAttempt:
    """Driver -> executor: run one attempt of a task.

    ``attempt`` distinguishes retries and speculative duplicates of the same
    partition; fault-free runs only ever see attempt 0.  ``cancelled`` is
    set when the driver kills the attempt: a kill reaches the executor at
    once while this message is still in flight, and the executor drops a
    cancelled launch on arrival.
    """

    task: Task
    attempt: int = 0
    speculative: bool = False
    cancelled: bool = False


@dataclass
class TaskFinished:
    """Executor -> driver: a task completed (Spark's StatusUpdate)."""

    executor_id: int
    task: Task
    metrics: TaskMetrics
    map_status: Optional[MapStatus] = None
    result: Any = None
    attempt: int = 0
    speculative: bool = False


@dataclass
class TaskFailed:
    """Executor -> driver: an attempt crashed and needs rescheduling."""

    executor_id: int
    task: Task
    attempt: int
    reason: str


@dataclass
class PoolResized:
    """Executor -> driver: the thread pool changed size.

    This is the protocol extension the paper adds: "we had to extend the
    messaging protocol to facilitate a mechanism for executors to notify the
    scheduler about any changes in the size of their thread pool" (5.4).
    """

    executor_id: int
    pool_size: int
