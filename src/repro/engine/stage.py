"""Stages and per-task execution plans.

A stage is a pipeline of narrowly-dependent RDDs executed as one wave of
tasks.  :func:`build_task_plans` walks the stage's pipeline and produces,
per partition, the :class:`TaskPlan` the executor turns into simulated I/O
and CPU phases -- the bridge between the logical RDD program and the
physical resource model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, NamedTuple, Optional, Tuple

from repro.engine.actions import Action
from repro.engine.rdd import (
    HadoopRDD,
    NarrowDependency,
    RDD,
    ShuffleDependency,
    UnionRDD,
)


class DfsRead(NamedTuple):
    """One DFS input read: volume plus the nodes holding replicas."""

    size: float
    preferred_nodes: Tuple[int, ...]


@dataclass
class TaskPlan:
    """Physical resource demands of one task."""

    stage_id: int
    partition: int
    dfs_reads: List[DfsRead] = field(default_factory=list)
    shuffle_fetches: List[Tuple[int, float]] = field(default_factory=list)
    cpu_seconds: float = 0.0
    shuffle_write_bytes: float = 0.0
    output_write_bytes: float = 0.0

    @property
    def read_bytes(self) -> float:
        return sum(r.size for r in self.dfs_reads) + sum(
            size for _node, size in self.shuffle_fetches
        )

    @property
    def write_bytes(self) -> float:
        return self.shuffle_write_bytes + self.output_write_bytes

    @property
    def total_io_bytes(self) -> float:
        return self.read_bytes + self.write_bytes

    @property
    def preferred_nodes(self) -> Tuple[int, ...]:
        preferred: List[int] = []
        for read in self.dfs_reads:
            for node in read.preferred_nodes:
                if node not in preferred:
                    preferred.append(node)
        return tuple(preferred)


class Stage:
    """One stage of a job: either a shuffle-map stage or the result stage."""

    def __init__(
        self,
        stage_id: int,
        rdd: RDD,
        parents: List["Stage"],
        shuffle_dep: Optional[ShuffleDependency] = None,
        action: Optional[Action] = None,
    ) -> None:
        if (shuffle_dep is None) == (action is None):
            raise ValueError("a stage is either a map stage or the result stage")
        self.stage_id = stage_id
        self.rdd = rdd
        self.parents = parents
        self.shuffle_dep = shuffle_dep
        self.action = action
        self.num_tasks = rdd.num_partitions

    @property
    def is_result_stage(self) -> bool:
        return self.action is not None

    def pipeline_rdds(self) -> List[RDD]:
        """Every RDD computed inside this stage (narrow closure of the root)."""
        seen: List[RDD] = []
        _narrow_closure(self.rdd, seen)
        return seen

    @property
    def is_io_marked(self) -> bool:
        """The static solution's stage classification (paper section 4).

        True iff the stage pipeline contains an explicit input read
        (``textFile``) or the stage writes job output (``saveAs*``).  Shuffle
        traffic deliberately does *not* mark a stage -- that blind spot is the
        paper's limitation L2 and the reason the dynamic solution wins on
        PageRank.
        """
        if self.is_result_stage and self.action.writes_output:
            return True
        return any(rdd.reads_input for rdd in self.pipeline_rdds())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "result" if self.is_result_stage else "map"
        return f"Stage({self.stage_id}, {kind}, rdd={self.rdd.name}, tasks={self.num_tasks})"


def _narrow_closure(rdd: RDD, seen: List[RDD]) -> None:
    """Append ``rdd`` and its narrow ancestors to ``seen``, depth first."""
    if any(existing is rdd for existing in seen):
        return
    seen.append(rdd)
    if rdd.cached and rdd.ctx.cache_manager.has_any(rdd.id):
        return  # served from cache; its lineage is not recomputed
    for dep in rdd.deps:
        if isinstance(dep, NarrowDependency):
            _narrow_closure(dep.rdd, seen)


def build_task_plans(ctx, stage: Stage, splits: Iterable[int]) -> List[TaskPlan]:
    """Derive the physical plans for tasks ``splits`` of ``stage``.

    Must run after all parent stages completed (shuffle fetch plans are read
    from the map-output tracker).  Unless the pipeline holds a cached RDD
    or a ``UnionRDD``, every task visits the same RDDs in the same order,
    so the lineage is walked once for all splits.  Nothing is kept across
    calls: tracker and cache state move between re-plans.
    """
    splits = list(splits)
    if not splits:
        return []
    conf = ctx.conf
    write_cost = float(conf.get("repro.cpu.shuffle.write.per.byte"))
    output_cost = float(conf.get("repro.cpu.output.write.per.byte"))
    read_cost = float(conf.get("repro.cpu.shuffle.read.per.byte"))
    tracker = ctx.map_output_tracker
    steps = shared = None
    if not any(rdd.cached or isinstance(rdd, UnionRDD)
               for rdd in stage.pipeline_rdds()):
        steps = _walk(ctx, stage.rdd, splits[0], set(), [])
        uniform = [tracker.uniform_fetch_plan(node)
                   for node, _part in steps if type(node) is int]
        if None not in uniform:  # every task fetches the same list
            shared = [fetch for fetches in uniform for fetch in fetches]
            shared_read = sum(size for _node, size in shared)
    shuffle_dep = stage.shuffle_dep
    action = stage.action
    plans = []
    for split in splits:
        plan = TaskPlan(stage_id=stage.stage_id, partition=split)
        cpu = 0.0
        for node, part in (steps if steps is not None
                           else _walk(ctx, stage.rdd, split, set(), [])):
            if steps is not None:
                part = split
            if type(node) is int:
                if shared is None:
                    plan.shuffle_fetches.extend(tracker.fetch_plan(node, part))
                continue
            cpu += node.cpu_cost(part)
            if isinstance(node, HadoopRDD):
                plan.dfs_reads.append(
                    DfsRead(node.input_bytes(part), node.preferred_nodes(part))
                )
        plan.cpu_seconds = cpu
        if shared:
            plan.shuffle_fetches = list(shared)
        if shuffle_dep is not None:
            plan.shuffle_write_bytes = (
                shuffle_dep.rdd.partition_size(split).bytes
                * shuffle_dep.map_bytes_factor
            )
            plan.cpu_seconds += plan.shuffle_write_bytes * write_cost
        if action is not None:
            plan.output_write_bytes = action.output_bytes(stage.rdd, split)
            plan.cpu_seconds += plan.output_write_bytes * output_cost
        read = (shared_read if shared is not None
                else sum(size for _node, size in plan.shuffle_fetches))
        plan.cpu_seconds += read * read_cost
        plans.append(plan)
    return plans


def _walk(ctx, rdd: RDD, part: int, visited: set, steps: list) -> list:
    """One task's depth-first visit order: ``(rdd, part)`` computes that
    partition, ``(shuffle_id, part)`` fetches its share of a shuffle."""
    if (rdd.id, part) in visited:
        # Reached through two narrow branches (e.g. PageRank's join of
        # ``links`` with ranks derived from ``links``): the first
        # computation is block-cached within the task, so the partition
        # is charged once.
        return steps
    visited.add((rdd.id, part))
    if rdd.cached and ctx.cache_manager.has(rdd.id, part):
        # Served from executor memory: no I/O, negligible CPU.
        return steps
    if isinstance(rdd, UnionRDD):
        parent, parent_split = rdd.parent_split(part)
        return _walk(ctx, parent, parent_split, visited, steps)
    steps.append((rdd, part))
    for dep in rdd.deps:
        if isinstance(dep, ShuffleDependency):
            steps.append((dep.shuffle_id, part))
        else:
            _walk(ctx, dep.rdd, part, visited, steps)
    return steps
