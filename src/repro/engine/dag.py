"""The DAG scheduler: cutting RDD lineage into stages.

Exactly as in Spark: walking back from the action's RDD, every
:class:`ShuffleDependency` starts a new (shuffle-map) stage; narrow
dependencies stay inside the current stage.  Map stages are memoised by
shuffle id so iterative programs (PageRank) reuse the same stage object and
already-computed shuffles are skipped on later jobs.
"""

from __future__ import annotations

from typing import Dict, List

from repro.engine.actions import Action
from repro.engine.rdd import NarrowDependency, RDD, ShuffleDependency
from repro.engine.partitioner import RangePartitioner
from repro.engine.stage import Stage


class DAGScheduler:
    """Builds the ordered stage list for a job."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self._next_stage_id = 0
        self._shuffle_stages: Dict[int, Stage] = {}

    def _new_stage_id(self) -> int:
        stage_id = self._next_stage_id
        self._next_stage_id += 1
        return stage_id

    def stop(self) -> None:
        """Drop the context and the memoised stages (their RDDs point back
        at the context); see :meth:`SparkContext.stop`."""
        self.ctx = None
        self._shuffle_stages.clear()

    # -- stage graph construction ------------------------------------------------
    #
    # Each walk is a recursive method taking its state as arguments: a
    # nested ``visit`` that calls itself is a reference cycle, which would
    # outlive the walk until a full collection.

    def build_stages(self, rdd: RDD, action: Action) -> List[Stage]:
        """All stages required to run ``action`` on ``rdd``, in execution order.

        Map stages whose shuffle output is already complete are omitted
        (Spark's "skipped stages").
        """
        parents = self._parent_stages(rdd)
        result_stage = Stage(
            self._new_stage_id(), rdd, parents=parents, action=action
        )
        ordered: List[Stage] = []
        _order_stages(result_stage, set(), ordered)
        tracker = self.ctx.map_output_tracker
        return [
            stage
            for stage in ordered
            if stage.is_result_stage
            or not tracker.is_complete(stage.shuffle_dep.shuffle_id)
        ]

    def _parent_stages(self, rdd: RDD) -> List[Stage]:
        """Map stages for every shuffle dependency reachable narrowly."""
        stages: List[Stage] = []
        self._visit_parents(rdd, set(), stages)
        return stages

    def _visit_parents(self, current: RDD, visited: set,
                       stages: List[Stage]) -> None:
        if current.id in visited:
            return
        visited.add(current.id)
        if current.cached and self.ctx.cache_manager.has_any(current.id):
            return  # served from cache; upstream lineage is not needed
        for dep in current.deps:
            if isinstance(dep, ShuffleDependency):
                stage = self._stage_for_shuffle(dep)
                if all(s is not stage for s in stages):
                    stages.append(stage)
            elif isinstance(dep, NarrowDependency):
                self._visit_parents(dep.rdd, visited, stages)

    def _stage_for_shuffle(self, dep: ShuffleDependency) -> Stage:
        if dep.shuffle_id not in self._shuffle_stages:
            parents = self._parent_stages(dep.rdd)
            self._shuffle_stages[dep.shuffle_id] = Stage(
                self._new_stage_id(), dep.rdd, parents=parents, shuffle_dep=dep
            )
        return self._shuffle_stages[dep.shuffle_id]

    # -- range-partitioner sampling --------------------------------------------------

    def unbounded_range_partitioners(self, rdd: RDD) -> List[ShuffleDependency]:
        """Shuffle deps whose RangePartitioner still needs its sampling job.

        Spark computes range bounds with a separate job over the parent RDD
        before the shuffle runs -- Terasort's stage 0 in the paper.
        """
        found: List[ShuffleDependency] = []
        self._visit_unbounded(rdd, set(), found)
        return found

    def _visit_unbounded(self, current: RDD, visited: set,
                         found: List[ShuffleDependency]) -> None:
        if current.id in visited:
            return
        visited.add(current.id)
        if current.cached and self.ctx.cache_manager.has_any(current.id):
            return
        for dep in current.deps:
            if isinstance(dep, ShuffleDependency):
                partitioner = dep.partitioner
                if isinstance(partitioner, RangePartitioner):
                    if not partitioner.has_bounds and not (
                        self.ctx.map_output_tracker.is_complete(dep.shuffle_id)
                    ):
                        found.append(dep)
            self._visit_unbounded(dep.rdd, visited, found)


def _order_stages(stage: Stage, seen: set, ordered: List[Stage]) -> None:
    """Parents before children, each stage once (depth-first post-order)."""
    if stage.stage_id in seen:
        return
    seen.add(stage.stage_id)
    for parent in stage.parents:
        _order_stages(parent, seen, ordered)
    ordered.append(stage)
