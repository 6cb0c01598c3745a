"""Tests for the parallel run harness (repro.harness.parallel).

The load-bearing property: a parallel sweep must be *indistinguishable*
from a sequential one -- same runtimes, same stage records, same ordering
-- because each run is an independent seeded simulation.
"""

import os

import pytest

from repro.harness.parallel import (
    RunConfig,
    RunSummary,
    execute_run_config,
    map_runs,
    resolve_parallel,
)
from repro.harness.runner import derive_bestfit, static_sweep

FAST = {"workload_kwargs": {"scale": 0.02}, "cluster_kwargs": {"num_nodes": 2}}


def _config(key, threads, **overrides):
    merged = {**FAST, **overrides}
    return RunConfig(
        workload="wordcount",
        policy=("static", threads),
        key=key,
        **merged,
    )


class TestResolveParallel:
    def test_zero_means_all_cores(self):
        assert resolve_parallel(0) == (os.cpu_count() or 1)

    def test_none_means_all_cores(self):
        assert resolve_parallel(None) == (os.cpu_count() or 1)

    def test_positive_passthrough(self):
        assert resolve_parallel(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_parallel(-1)


class TestRunConfig:
    def test_callable_policy_rejected(self):
        with pytest.raises(ValueError, match="callable"):
            RunConfig(workload="wordcount", policy=lambda: None)

    def test_is_picklable(self):
        import pickle

        config = _config("a", 4)
        assert pickle.loads(pickle.dumps(config)) == config


class TestExecuteRunConfig:
    def test_returns_summary_with_recorder(self):
        summary = execute_run_config(_config("label", 4))
        assert isinstance(summary, RunSummary)
        assert summary.key == "label"
        assert summary.runtime > 0
        assert summary.num_stages == len(summary.stages) > 0
        assert summary.stage_durations() == [
            stage.duration for stage in summary.stages
        ]
        # ctx duck-types the recorder access the monitoring analyses use.
        assert summary.ctx.recorder is summary.recorder

    def test_events_path_writes_log(self, tmp_path):
        out = tmp_path / "events.jsonl"
        execute_run_config(_config("traced", 4, events_path=str(out)))
        lines = out.read_text().strip().splitlines()
        assert len(lines) > 0

    def test_summary_is_picklable(self):
        import pickle

        summary = execute_run_config(_config("p", 2))
        clone = pickle.loads(pickle.dumps(summary))
        assert clone.runtime == summary.runtime
        assert clone.stage_durations() == summary.stage_durations()

    def test_profile_path_writes_profile_and_fills_summary(self, tmp_path):
        import json

        out = tmp_path / "profile.json"
        summary = execute_run_config(
            _config("profiled", 4, profile_path=str(out))
        )
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.profile/1"
        assert summary.demand_profile == doc
        # Profiles survive the pool boundary and the journal codec.
        import pickle

        from repro.harness.parallel import summary_from_doc, summary_to_doc

        clone = pickle.loads(pickle.dumps(summary))
        assert clone.demand_profile == doc
        assert summary_from_doc(
            summary_to_doc(summary)
        ).demand_profile == doc

    def test_no_profile_path_leaves_summary_empty(self):
        summary = execute_run_config(_config("plain", 4))
        assert summary.demand_profile is None


class TestMapRuns:
    def test_parallel_matches_sequential(self):
        configs = [_config(threads, threads) for threads in (4, 2)]
        sequential = map_runs(configs, parallel=1)
        parallel = map_runs(configs, parallel=2)
        assert [s.key for s in sequential] == [s.key for s in parallel] == [4, 2]
        for seq, par in zip(sequential, parallel):
            assert seq.runtime == par.runtime
            assert seq.stage_durations() == par.stage_durations()
            assert seq.cluster_io_bytes == par.cluster_io_bytes

    def test_empty_config_list(self):
        assert map_runs([], parallel=4) == []


class TestStaticSweepParallel:
    def test_parallel_sweep_matches_sequential(self):
        kwargs = dict(
            thread_counts=(4, 2),
            workload_kwargs={"scale": 0.02},
            num_nodes=2,
        )
        sequential = static_sweep("wordcount", **kwargs)
        parallel = static_sweep("wordcount", parallel=2, **kwargs)
        assert sorted(sequential) == sorted(parallel)
        for threads in sequential:
            assert sequential[threads].runtime == parallel[threads].runtime

    def test_derive_bestfit_accepts_summaries(self):
        sweep = static_sweep(
            "wordcount",
            thread_counts=(4, 2),
            workload_kwargs={"scale": 0.02},
            num_nodes=2,
            parallel=2,
        )
        sizes = derive_bestfit(sweep, default_threads=4)
        reference = next(iter(sweep.values()))
        assert sorted(sizes) == list(range(reference.num_stages))
        assert all(threads in (4, 2) for threads in sizes.values())

    def test_tracer_factory_incompatible_with_parallel(self):
        with pytest.raises(ValueError, match="tracer_factory"):
            static_sweep(
                "wordcount",
                thread_counts=(2,),
                tracer_factory=lambda threads: None,
                parallel=2,
            )

    def test_workload_object_incompatible_with_parallel(self):
        from repro.workloads import get_workload

        with pytest.raises(ValueError, match="workload name"):
            static_sweep(
                get_workload("wordcount", scale=0.02),
                thread_counts=(2,),
                parallel=2,
            )

