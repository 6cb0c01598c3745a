"""One node loss inside every stage of every catalog workload.

Each workload runs at scale 0.02 (seed 42, the CLI's default 4 x 32-core
cluster) under the empty plan to find its stage boundaries; then node 1
is lost at the midpoint of each stage in turn.  Every case must complete,
must recompute through lineage whatever lost map outputs the rest of the
job still reads (``faults.recovery_tasks >= faults.recomputed_partitions
> 0``), and must replay invariant-clean through the offline validator.

The matrix covers the cases where lost outputs of two producer stages
share partition numbers: Join's cogroup stage reads two map stages of 128
partitions each, and PageRank's later iterations read both the link table
and the previous ranks.
"""

import functools

import pytest

from repro.engine.scheduler import TaskScheduler
from repro.faults import FaultPlan, NodeLoss
from repro.harness.runner import finish_trace, run_workload
from repro.observability.history import load_events
from repro.observability.sinks import JsonLinesSink
from repro.observability.tracer import Tracer
from repro.validation import validate_events
from repro.workloads.catalog import workload_names

SCALE = 0.02
LOST_NODE = 1

#: workload -> number of stages of its job (checked against the run).
STAGES = {
    "aggregation": 2, "bayes": 3, "join": 3, "lda": 6, "nweight": 4,
    "pagerank": 6, "scan": 1, "svm": 5, "terasort": 3, "wordcount": 2,
}


@functools.lru_cache(maxsize=None)
def fault_free_stages(workload):
    """Per stage of the empty-plan run: ``(start, end, produced shuffle,
    consumed shuffles)``."""
    shuffles = []
    original = TaskScheduler.run_stage

    def recording(self, stage, then):
        own = stage.shuffle_dep
        shuffles.append((own.shuffle_id if own is not None else None,
                         set(self._consumed_shuffles(stage))))
        original(self, stage, then)

    TaskScheduler.run_stage = recording
    try:
        run = run_workload(workload, workload_kwargs={"scale": SCALE},
                           seed=42, fault_plan=FaultPlan())
    finally:
        TaskScheduler.run_stage = original
    return tuple(
        (record.start_time, record.start_time + record.duration, own, used)
        for record, (own, used) in zip(run.stages, shuffles)
    )


def test_matrix_covers_the_catalog():
    assert sorted(STAGES) == workload_names()
    for workload, count in STAGES.items():
        assert len(fault_free_stages(workload)) == count


CASES = [(workload, index) for workload in sorted(STAGES)
         for index in range(STAGES[workload])]


@pytest.mark.parametrize("workload,stage", CASES,
                         ids=[f"{w}-stage{i}" for w, i in CASES])
def test_node_loss_mid_stage_completes_and_recovers(workload, stage,
                                                    tmp_path):
    stages = fault_free_stages(workload)
    start, end, own, _used = stages[stage]
    at = (start + end) / 2.0
    path = str(tmp_path / "events.jsonl")
    tracer = Tracer(sinks=[JsonLinesSink(path)])
    run = run_workload(workload, workload_kwargs={"scale": SCALE}, seed=42,
                       fault_plan=FaultPlan(
                           node_losses=[NodeLoss(LOST_NODE, at)]),
                       tracer=tracer)
    finish_trace(run)
    events = load_events(path)

    # Lost outputs of other stages that this stage or a later one reads
    # must be recomputed; the stage's own lost outputs are simply rerun.
    lost = {event.args["shuffle_id"] for event in events
            if event.name == "shuffle-outputs-lost"}
    still_read = set().union(*(used for _s, _e, _o, used in stages[stage:]))
    metrics = run.ctx.metrics
    recomputed = metrics.counter("faults.recomputed_partitions").value
    assert metrics.counter("faults.recovery_tasks").value >= recomputed
    if (lost - {own}) & still_read:
        assert recomputed > 0
    else:
        assert recomputed == 0

    report = validate_events(events, max_failures=4)
    assert report.ok, report.summary()
