"""Tests for physical task-plan construction.

The differential tests plan every stage twice at the instant the scheduler
asks: with ``build_task_plans`` and with the per-split recursive walk kept
in ``reference_planning.py``.  Every :class:`TaskPlan` field must be equal
with ``==``::

    python -m pytest tests/engine/test_task_planning.py \\
        --hypothesis-profile=kernel-ci
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import scheduler as scheduler_module
from repro.engine.actions import CountAction, SaveAction
from repro.engine.partitioner import HashPartitioner
from repro.engine.stage import build_task_plans
from repro.faults import ExecutorLoss, FaultPlan, NodeLoss
from repro.harness.runner import run_workload
from repro.workloads import workload_names
from tests.engine import reference_planning
from tests.engine.conftest import make_context

MB = 1024.0**2


@pytest.fixture
def ctx():
    context = make_context()
    context.register_synthetic_file("/in", 64 * MB, num_records=1e5)
    return context


def build_plans(ctx, rdd, action):
    """Build stages and run parents, returning plans of the final stage."""
    stages = ctx.dag.build_stages(rdd, action)
    for stage in stages[:-1]:
        ends = []
        ctx.scheduler.run_stage(stage, lambda *end: ends.append(end))
        ctx.sim.run()
        assert ends == [(None, None)]  # a shuffle stage, no error
    final = stages[-1]
    return final, build_task_plans(ctx, final, range(final.num_tasks))


class TestScanPlans:
    def test_read_bytes_match_partition(self, ctx):
        rdd = ctx.text_file("/in", 4).map(lambda x: x)
        stage, plans = build_plans(ctx, rdd, CountAction())
        for plan in plans:
            assert plan.read_bytes == pytest.approx(16 * MB)
            assert plan.shuffle_write_bytes == 0
            assert plan.output_write_bytes == 0

    def test_preferred_nodes_propagate(self, ctx):
        rdd = ctx.text_file("/in", 2)
        _stage, plans = build_plans(ctx, rdd, CountAction())
        for plan in plans:
            assert set(plan.preferred_nodes) == {0, 1}

    def test_cpu_includes_operator_costs(self, ctx):
        cheap_rdd = ctx.text_file("/in", 4)
        _s, cheap = build_plans(ctx, cheap_rdd, CountAction())
        ctx2 = make_context()
        ctx2.register_synthetic_file("/in", 64 * MB, num_records=1e5)
        costly_rdd = ctx2.text_file("/in", 4).map(lambda x: x, cpu_per_byte=1e-6)
        _s, costly = build_plans(ctx2, costly_rdd, CountAction())
        assert costly[0].cpu_seconds > cheap[0].cpu_seconds


class TestShufflePlans:
    def test_map_stage_plans_shuffle_write(self, ctx):
        rdd = ctx.text_file("/in", 4).map(lambda x: (x, 1)).reduce_by_key(
            lambda a, b: a + b, 8, map_combine_factor=0.5
        )
        stages = ctx.dag.build_stages(rdd, CountAction())
        map_stage = stages[0]
        [plan] = build_task_plans(ctx, map_stage, [0])
        assert plan.shuffle_write_bytes == pytest.approx(8 * MB)

    def test_reduce_stage_plans_fetches_from_all_nodes(self, ctx):
        rdd = ctx.text_file("/in", 4).map(lambda x: (x, 1)).reduce_by_key(
            lambda a, b: a + b, 8
        )
        _stage, plans = build_plans(ctx, rdd, CountAction())
        for plan in plans:
            sources = {node for node, _size in plan.shuffle_fetches}
            assert sources == {0, 1}
            assert plan.read_bytes == pytest.approx(64 * MB / 8)

    def test_result_stage_plans_output_write(self, ctx):
        rdd = ctx.text_file("/in", 4).map(lambda x: (x, 1)).reduce_by_key(
            lambda a, b: a + b, 4
        )
        _stage, plans = build_plans(ctx, rdd, SaveAction("/out"))
        for plan in plans:
            assert plan.output_write_bytes == pytest.approx(16 * MB)

    def test_shared_lineage_charged_once(self, ctx):
        """A diamond (join of an RDD with itself) fetches the shuffle once."""
        from repro.engine.partitioner import HashPartitioner

        base = (
            ctx.text_file("/in", 4)
            .map(lambda x: (x, 1))
            .partition_by(HashPartitioner(4))
        )
        joined = base.cogroup(base.map_values(lambda v: v))
        _stage, plans = build_plans(ctx, joined, CountAction())
        # One fetch of 16 MB per task, not two.
        assert plans[0].read_bytes == pytest.approx(16 * MB)

    def test_cached_source_reads_nothing(self, ctx):
        rdd = ctx.text_file("/in", 4).map(lambda x: (x, 1)).reduce_by_key(
            lambda a, b: a + b, 4
        ).cache()
        rdd.count()  # computes and caches
        follow_up = rdd.map_values(lambda v: v)
        stages = ctx.dag.build_stages(follow_up, CountAction())
        assert len(stages) == 1
        [plan] = build_task_plans(ctx, stages[0], [0])
        assert plan.read_bytes == 0
        assert plan.total_io_bytes == 0


class TestPlanAggregates:
    def test_total_io_sums_all_flows(self, ctx):
        from repro.engine.stage import DfsRead, TaskPlan

        plan = TaskPlan(
            stage_id=0,
            partition=0,
            dfs_reads=[DfsRead(10.0, (0,))],
            shuffle_fetches=[(0, 5.0), (1, 7.0)],
            shuffle_write_bytes=3.0,
            output_write_bytes=2.0,
        )
        assert plan.read_bytes == 22.0
        assert plan.write_bytes == 5.0
        assert plan.total_io_bytes == 27.0
        assert plan.preferred_nodes == (0,)


class _Differential:
    """Checks every plan the scheduler builds against the reference walk."""

    def __init__(self, monkeypatch):
        self.plans = 0
        self.replans = 0
        self.fallbacks = 0
        planned = set()
        production = scheduler_module.build_task_plans

        def checked(ctx, stage, splits):
            splits = list(splits)
            expected = [reference_planning.build_task_plan(ctx, stage, split)
                        for split in splits]
            plans = production(ctx, stage, splits)
            assert plans == expected, f"stage {stage.stage_id}"
            self.plans += len(plans)
            if stage.stage_id in planned:
                self.replans += len(plans)
            planned.add(stage.stage_id)
            if any(rdd.cached for rdd in stage.pipeline_rdds()):
                self.fallbacks += len(plans)
            return plans

        monkeypatch.setattr(scheduler_module, "build_task_plans", checked)


@pytest.fixture
def differential(monkeypatch):
    return _Differential(monkeypatch)


class TestPlanDifferential:
    @pytest.mark.parametrize("scale", [0.005, 0.02])
    @pytest.mark.parametrize("seed", [1, 42])
    @pytest.mark.parametrize("workload", workload_names())
    def test_every_stage_of_every_workload(self, differential, workload,
                                           seed, scale):
        run_workload(workload, policy="dynamic",
                     workload_kwargs={"scale": scale}, seed=seed)
        assert differential.plans > 0
        if workload == "pagerank":
            assert differential.fallbacks > 0  # the cached ``links``

    @pytest.mark.parametrize("plan", [
        FaultPlan(node_losses=[NodeLoss(node_id=1, at=3.0)]),
        FaultPlan(executor_losses=[ExecutorLoss(executor_id=2, at=3.0)]),
    ], ids=["node-loss", "executor-loss"])
    def test_replans_after_executor_loss(self, differential, plan):
        run_workload("terasort", workload_kwargs={"scale": 0.02}, seed=42,
                     fault_plan=plan)
        assert differential.replans > 0

    def test_pagerank_cached_diamond(self, differential):
        ctx = make_context(num_nodes=3)
        ctx.register_synthetic_file("/links", 48 * MB, num_records=1e5)
        links = (ctx.text_file("/links", 6).map(lambda x: (x, x))
                 .partition_by(HashPartitioner(6)).cache())
        ranks = links.map_values(lambda v: 1.0)
        for _ in range(3):
            contribs = links.join(ranks).flat_map(lambda kv: [kv], fanout=2.0)
            ranks = contribs.reduce_by_key(lambda a, b: a + b, 6)
        ranks.save_as_text_file("/ranks")
        assert differential.fallbacks > 0

    def test_union_of_shuffles_and_inputs(self, differential):
        ctx = make_context(num_nodes=3)
        ctx.register_synthetic_file("/in", 64 * MB, num_records=1e5)
        base = ctx.text_file("/in", 4).map(lambda x: (x, 1))
        left = base.reduce_by_key(lambda a, b: a + b, 3)
        right = base.group_by_key(5).map_values(len)
        joined = left.union(right).union(base).map(lambda kv: kv)
        joined.reduce_by_key(lambda a, b: a + b, 2).count()
        assert differential.plans >= 4 + 4 + 12 + 2

    def test_materialised_shuffle_plans_per_reducer(self, differential):
        ctx = make_context(num_nodes=3)
        data = [(i % 17, i) for i in range(400)]
        pairs = ctx.parallelize(data, 6)
        counts = pairs.reduce_by_key(lambda a, b: a + b, 4)
        joined = counts.join(pairs.map_values(lambda v: -v), 5)
        assert len(joined.collect()) == 400
        assert differential.plans == 6 + 6 + 4 + 5

    @settings(deadline=None)
    @given(ops=st.lists(st.tuples(
        st.sampled_from(["map", "filter", "reduce", "group", "cogroup",
                         "union", "cache", "partition"]),
        st.integers(1, 5)), max_size=6))
    def test_random_lineages(self, ops):
        with pytest.MonkeyPatch.context() as monkeypatch:
            differential = _Differential(monkeypatch)
            self._run_lineage(ops)
        assert differential.plans > 0

    @staticmethod
    def _run_lineage(ops):
        ctx = make_context(num_nodes=3)
        ctx.register_synthetic_file("/in", 32 * MB, num_records=1e4)
        rdds = [ctx.text_file("/in", 3).map(lambda x: (x, 1))]
        for op, width in ops:
            rdd, other = rdds[-1], rdds[-1 - width % len(rdds)]
            if op == "map":
                rdd = rdd.map_values(lambda v: v, cpu_per_byte=width * 1e-8)
            elif op == "filter":
                rdd = rdd.filter(lambda kv: True, selectivity=width / 6)
            elif op == "reduce":
                rdd = rdd.reduce_by_key(lambda a, b: a, width,
                                        map_combine_factor=0.5)
            elif op == "group":
                rdd = rdd.group_by_key(width).map_values(len)
            elif op == "cogroup":
                rdd = rdd.cogroup(other, width).map_values(lambda g: 1)
            elif op == "union":
                rdd = rdd.union(other)
            elif op == "cache":
                rdd = rdd.cache()
                rdd.count()
            else:
                rdd = rdd.partition_by(HashPartitioner(width))
            rdds.append(rdd)
        rdds[-1].count()
