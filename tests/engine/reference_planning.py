"""Reference task planner for differential tests: the per-split recursive walk.

:func:`build_task_plan` keeps task planning as it was before
``build_task_plans`` walked a stage's lineage once for all its splits:
one recursive walk per split that prices each RDD as it reaches it, adds
the ``repro.cpu.*.per.byte`` charges with three conf reads per task, and
asks the map-output tracker for every fetch plan.  Operator costs are
priced here from :class:`SizeInfo` sums, as ``RDD.cpu_cost`` did.

The production planner must reproduce these plans exactly: every
:class:`TaskPlan` field equal with ``==``.  See ``test_task_planning.py``.
"""

from __future__ import annotations

from repro.engine.rdd import (
    CoGroupedRDD,
    HadoopRDD,
    RDD,
    ShuffleDependency,
    ShuffledRDD,
    UnionRDD,
)
from repro.engine.sizing import SizeInfo
from repro.engine.stage import DfsRead, Stage, TaskPlan


def _processed_size(ctx, rdd: RDD, split: int) -> SizeInfo:
    """The volume an operator iterates over, summed as :class:`SizeInfo`."""
    tracker = ctx.map_output_tracker
    if isinstance(rdd, ShuffledRDD):
        return tracker.reduce_size(rdd.dep.shuffle_id, split)
    if isinstance(rdd, CoGroupedRDD):
        total = SizeInfo(0.0, 0.0)
        for dep in rdd.deps:
            if isinstance(dep, ShuffleDependency):
                total = total + tracker.reduce_size(dep.shuffle_id, split)
            else:
                total = total + dep.rdd.partition_size(split)
        return total
    parents = rdd.narrow_parents
    if parents:
        total = SizeInfo(0.0, 0.0)
        for parent in parents:
            total = total + parent.partition_size(split)
        return total
    return rdd.partition_size(split)


def cpu_cost(ctx, rdd: RDD, split: int) -> float:
    processed = _processed_size(ctx, rdd, split)
    return (
        processed.records * rdd.cpu_per_record
        + processed.bytes * rdd.cpu_per_byte
    )


def build_task_plan(ctx, stage: Stage, split: int) -> TaskPlan:
    """Derive the physical plan for task ``split`` of ``stage``."""
    plan = TaskPlan(stage_id=stage.stage_id, partition=split)
    visited = set()

    def visit(rdd: RDD, part: int) -> None:
        if (rdd.id, part) in visited:
            return
        visited.add((rdd.id, part))
        if rdd.cached and ctx.cache_manager.has(rdd.id, part):
            return
        if isinstance(rdd, UnionRDD):
            parent, parent_split = rdd.parent_split(part)
            visit(parent, parent_split)
            return
        plan.cpu_seconds += cpu_cost(ctx, rdd, part)
        if isinstance(rdd, HadoopRDD):
            plan.dfs_reads.append(
                DfsRead(rdd.input_bytes(part), rdd.preferred_nodes(part))
            )
        for dep in rdd.deps:
            if isinstance(dep, ShuffleDependency):
                plan.shuffle_fetches.extend(
                    ctx.map_output_tracker.fetch_plan(dep.shuffle_id, part)
                )
            else:
                visit(dep.rdd, part)

    visit(stage.rdd, split)
    if stage.shuffle_dep is not None:
        plan.shuffle_write_bytes = stage.shuffle_dep.map_output_size(split).bytes
        plan.cpu_seconds += plan.shuffle_write_bytes * float(
            ctx.conf.get("repro.cpu.shuffle.write.per.byte")
        )
    if stage.action is not None:
        plan.output_write_bytes = stage.action.output_bytes(stage.rdd, split)
        plan.cpu_seconds += plan.output_write_bytes * float(
            ctx.conf.get("repro.cpu.output.write.per.byte")
        )
    plan.cpu_seconds += sum(size for _node, size in plan.shuffle_fetches) * float(
        ctx.conf.get("repro.cpu.shuffle.read.per.byte")
    )
    return plan
