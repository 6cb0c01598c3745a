"""Tests for executor behaviour and driver scheduling mechanics."""

import pytest

from repro.engine.actions import CountAction
from repro.engine.policy import FixedPolicy
from tests.engine.conftest import make_context

MB = 1024.0**2


def make_synthetic_ctx(policy_factory=None, cores=4, num_nodes=2):
    ctx = make_context(num_nodes=num_nodes, cores=cores,
                       policy_factory=policy_factory)
    ctx.register_synthetic_file("/in", 64 * MB, num_records=1e5)
    return ctx


class TestPoolSizeEnforcement:
    def test_fixed_policy_limits_concurrency(self):
        ctx = make_synthetic_ctx(lambda ex: FixedPolicy(2))
        rdd = ctx.text_file("/in", 16)
        rdd.count()
        stage = ctx.recorder.stages[0]
        assert all(m.pool_size_at_launch == 2 for m in stage.tasks)

    def test_default_pool_is_core_count(self):
        ctx = make_synthetic_ctx(cores=8)
        assert all(ex.default_pool_size == 8 for ex in ctx.executors)

    def test_executor_cores_conf_overrides_default(self):
        from repro.engine import SparkConf

        ctx = make_context(conf=SparkConf({"spark.executor.cores": 3}))
        assert all(ex.default_pool_size == 3 for ex in ctx.executors)

    def test_pool_size_clamped_to_node_cores(self):
        ctx = make_synthetic_ctx(lambda ex: FixedPolicy(1000), cores=4)
        rdd = ctx.text_file("/in", 8)
        rdd.count()
        stage = ctx.recorder.stages[0]
        assert all(m.pool_size_at_launch <= 4 for m in stage.tasks)

    def test_pool_events_recorded_at_stage_start(self):
        ctx = make_synthetic_ctx(lambda ex: FixedPolicy(2))
        ctx.text_file("/in", 8).count()
        stage = ctx.recorder.stages[0]
        start_events = [e for e in stage.pool_events if e.reason == "stage-start"]
        assert len(start_events) == len(ctx.executors)
        assert all(e.pool_size == 2 for e in start_events)


class TestTaskMetrics:
    def test_metrics_cover_all_tasks(self):
        ctx = make_synthetic_ctx()
        ctx.text_file("/in", 8).count()
        stage = ctx.recorder.stages[0]
        assert len(stage.tasks) == 8
        assert {m.partition for m in stage.tasks} == set(range(8))

    def test_io_metrics_match_plan(self):
        ctx = make_synthetic_ctx()
        ctx.text_file("/in", 8).count()
        for metrics in ctx.recorder.stages[0].tasks:
            assert metrics.disk_read_bytes == pytest.approx(8 * MB)
            assert metrics.io_wait_seconds > 0
            assert metrics.duration > 0

    def test_executor_sensors_accumulate(self):
        ctx = make_synthetic_ctx()
        ctx.text_file("/in", 8).count()
        total_wait = sum(ex.io_wait_accum for ex in ctx.executors)
        total_bytes = sum(ex.io_bytes_accum for ex in ctx.executors)
        assert total_wait > 0
        assert total_bytes == pytest.approx(64 * MB)

    def test_shuffle_metrics_recorded(self):
        ctx = make_synthetic_ctx()
        rdd = ctx.text_file("/in", 4).map(lambda x: (x, 1)).reduce_by_key(
            lambda a, b: a + b, 4
        )
        rdd.count()
        map_stage, reduce_stage = ctx.recorder.stages
        assert sum(m.shuffle_write_bytes for m in map_stage.tasks) == pytest.approx(
            64 * MB
        )
        assert sum(m.shuffle_read_bytes for m in reduce_stage.tasks) == pytest.approx(
            64 * MB
        )


class TestSchedulerMechanics:
    def test_stage_serialisation_enforced(self):
        ctx = make_synthetic_ctx()
        rdd = ctx.text_file("/in", 4)
        stages = ctx.dag.build_stages(rdd, CountAction())
        ctx.scheduler.run_stage(stages[0], lambda _results, _error: None)
        with pytest.raises(RuntimeError, match="already running"):
            ctx.scheduler.run_stage(stages[0],
                                    lambda _results, _error: None)

    def test_tasks_balanced_across_executors(self):
        ctx = make_synthetic_ctx()
        ctx.text_file("/in", 16).count()
        stage = ctx.recorder.stages[0]
        per_executor = {}
        for m in stage.tasks:
            per_executor[m.executor_id] = per_executor.get(m.executor_id, 0) + 1
        assert set(per_executor) == {0, 1}
        assert abs(per_executor[0] - per_executor[1]) <= 2

    def test_locality_respected_with_single_replica(self):
        from repro.storage.dfs import DistributedFileSystem

        ctx = make_synthetic_ctx()
        # Rebuild the DFS with replication 1 so each partition has one home.
        ctx.dfs = DistributedFileSystem(ctx.cluster.node_ids, replication=1,
                                        block_size=8 * MB)
        ctx.register_synthetic_file("/single", 64 * MB, num_records=1e5)
        ctx.text_file("/single", 8).count()
        stage = ctx.recorder.stages[0]
        # Every task ran on a node holding its block (plenty of free slots).
        rdd = ctx.text_file("/single", 8)
        for metrics in stage.tasks:
            assert metrics.node_id in rdd.preferred_nodes(metrics.partition)

    def test_registered_pool_view_tracks_executor(self):
        ctx = make_synthetic_ctx(lambda ex: FixedPolicy(3))
        ctx.text_file("/in", 8).count()
        for ex in ctx.executors:
            assert ctx.scheduler.registered_pool_size(ex.executor_id) == 3

    def test_control_messages_counted(self):
        ctx = make_synthetic_ctx()
        ctx.text_file("/in", 8).count()
        # At least one launch and one completion message per task.
        assert ctx.scheduler.channel.messages_sent >= 16


class TestRunRecorder:
    def test_stage_records_ordered_and_closed(self):
        ctx = make_synthetic_ctx()
        rdd = ctx.text_file("/in", 4).map(lambda x: (x, 1)).reduce_by_key(
            lambda a, b: a + b, 4
        )
        rdd.count()
        stages = ctx.recorder.stages
        assert len(stages) == 2
        assert all(s.end_time > s.start_time for s in stages)
        assert stages[0].end_time <= stages[1].start_time

    def test_total_runtime_spans_stages(self):
        ctx = make_synthetic_ctx()
        ctx.text_file("/in", 4).count()
        recorder = ctx.recorder
        assert recorder.total_runtime == pytest.approx(
            recorder.stages[-1].end_time - recorder.stages[0].start_time
        )

    def test_monitoring_samples_tagged_with_stage(self):
        ctx = make_synthetic_ctx()
        ctx.text_file("/in", 8).count()
        stage_id = ctx.recorder.stages[0].stage_id
        samples = ctx.recorder.stage_samples(stage_id)
        assert samples
        assert all(s.stage_id == stage_id for s in samples)
