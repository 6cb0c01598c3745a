"""Tests for SparkContext wiring and error paths."""

import io
import json

import pytest

from repro.engine import SparkConf
from repro.engine.scheduler import JobAbortedError
from repro.faults import FaultPlan, TaskCrash
from repro.observability.sinks import JsonLinesSink
from repro.observability.tracer import Tracer
from tests.engine.conftest import make_context
from tests.faults.conftest import make_fault_context

MB = 1024.0**2


class TestWiring:
    def test_one_executor_per_node(self):
        ctx = make_context(num_nodes=3)
        assert len(ctx.executors) == 3
        assert [ex.node.node_id for ex in ctx.executors] == [0, 1, 2]

    def test_default_parallelism_is_total_cores(self):
        ctx = make_context(num_nodes=2, cores=4)
        assert ctx.default_parallelism == 8

    def test_default_parallelism_from_conf(self):
        ctx = make_context(conf=SparkConf({"spark.default.parallelism": 64}))
        assert ctx.default_parallelism == 64

    def test_rdd_ids_increment(self):
        ctx = make_context()
        a = ctx.parallelize([1], 1)
        b = a.map(lambda x: x)
        assert b.id == a.id + 1

    def test_dfs_replication_matches_cluster(self):
        # The paper sets replication = node count for full read locality.
        ctx = make_context(num_nodes=3)
        assert ctx.dfs.replication == 3

    def test_policy_factory_called_per_executor(self):
        created = []

        def factory(executor):
            created.append(executor.executor_id)
            from repro.engine.policy import DefaultPolicy

            return DefaultPolicy()

        make_context(num_nodes=2, policy_factory=factory)
        assert created == [0, 1]


class TestErrorPaths:
    def test_text_file_requires_registered_dataset(self):
        ctx = make_context()
        ctx.dfs.create("/orphan", 100.0)
        with pytest.raises(FileNotFoundError):
            ctx.text_file("/orphan")

    def test_text_file_missing_path(self):
        ctx = make_context()
        with pytest.raises(FileNotFoundError):
            ctx.text_file("/missing")

    def test_synthetic_file_negative_records(self):
        ctx = make_context()
        with pytest.raises(ValueError):
            ctx.register_synthetic_file("/bad", 10.0, num_records=-1.0)

    def test_duplicate_input_path(self):
        ctx = make_context()
        ctx.write_text_file("/a", ["x"])
        with pytest.raises(FileExistsError):
            ctx.write_text_file("/a", ["y"])

    def test_parallelize_empty_defaults_to_one_partition(self):
        ctx = make_context()
        rdd = ctx.parallelize([])
        assert rdd.num_partitions == 1
        assert rdd.collect() == []

    def test_split_out_of_range(self):
        ctx = make_context()
        rdd = ctx.parallelize([1, 2], 2)
        with pytest.raises(IndexError):
            rdd.partition_size(5)


class TestMultipleJobs:
    def test_jobs_share_the_timeline(self):
        ctx = make_context()
        ctx.register_synthetic_file("/in", 32 * MB, num_records=1e4)
        rdd = ctx.text_file("/in", 4)
        rdd.count()
        t1 = ctx.sim.now
        rdd.count()
        assert ctx.sim.now > t1

    def test_stage_records_accumulate_across_jobs(self):
        ctx = make_context()
        ctx.register_synthetic_file("/in", 32 * MB, num_records=1e4)
        rdd = ctx.text_file("/in", 4)
        rdd.count()
        rdd.count()
        assert len(ctx.recorder.stages) == 2

    def test_shuffle_reused_across_jobs(self):
        ctx = make_context()
        ctx.register_synthetic_file("/in", 32 * MB, num_records=1e4)
        reduced = ctx.text_file("/in", 4).map(lambda x: (x, 1)).reduce_by_key(
            lambda a, b: a + b, 4
        )
        reduced.count()   # map stage + result stage
        reduced.count()   # result stage only (shuffle output reused)
        assert len(ctx.recorder.stages) == 3


class TestJobDriver:
    """A job is a continuation over its stages' events: its ``process`` span
    opens before the first stage and ends, with the error on failure,
    before the job's handle fires."""

    @staticmethod
    def _spans(stream, cats=("process", "stage")):
        """(kind, name, args) of the begin and end lines of the spans of
        ``cats``, in log order; an end line is named after its begin."""
        names = {}
        spans = []
        for line in stream.getvalue().splitlines():
            doc = json.loads(line)
            if doc.get("kind") == "B" and doc["cat"] in cats:
                names[doc["span"]] = doc["name"]
            if doc.get("kind") in ("B", "E") and doc["span"] in names:
                spans.append((doc["kind"], names[doc["span"]],
                              doc.get("args", {})))
        return spans

    def test_span_wraps_every_stage(self):
        stream = io.StringIO()
        ctx = make_fault_context(FaultPlan(),
                                 tracer=Tracer(sinks=[JsonLinesSink(stream)]))
        pairs = ctx.parallelize([(k % 3, 1) for k in range(30)], 3)
        counts = pairs.reduce_by_key(lambda a, b: a + b, 3).collect()
        assert sorted(counts) == [(0, 10), (1, 10), (2, 10)]
        job = "job-" + ctx.recorder.stages[-1].name
        spans = [(kind, name) for kind, name, _args in self._spans(stream)
                 if not name.startswith("task-")]
        stages = [record.name for record in ctx.recorder.stages]
        assert spans == [("B", job),
                         ("B", stages[0]), ("E", stages[0]),
                         ("B", stages[1]), ("E", stages[1]),
                         ("E", job)]

    def test_aborted_job_ends_its_span_with_the_error(self):
        stream = io.StringIO()
        plan = FaultPlan(task_crashes=[
            TaskCrash(stage_ordinal=0, partition=0, attempt=a)
            for a in range(4)  # spark.task.maxFailures defaults to 4
        ])
        ctx = make_fault_context(plan,
                                 tracer=Tracer(sinks=[JsonLinesSink(stream)]))
        with pytest.raises(JobAbortedError) as info:
            ctx.parallelize(range(8), 2).map(lambda x: x).collect()
        ctx.tracer.close()
        kind, name, args = self._spans(stream, cats=("process",))[-1]
        assert (kind, name) == ("E", "job-" + ctx.recorder.stages[-1].name)
        assert args == {"error": repr(info.value)}
