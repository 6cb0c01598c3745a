"""Demand-profiler tests: live/offline identity and profile semantics.

The load-bearing property is the acceptance criterion from the profiler's
design: a :class:`ProfilerSink` attached to a live run and an offline
:func:`profile_events` replay of the same run's event log must serialize to
**byte-identical** demand-profile JSON.  Everything else (grid math, stage
aggregation, crashed-task accounting) is checked on synthetic event
streams so failures localize.
"""

import json

import pytest

from repro.harness.runner import finish_trace, run_profiler, run_workload
from repro.observability.events import TraceEvent
from repro.observability.history import load_events
from repro.observability.profiler import (
    PROBE_KEYS,
    PROFILE_SCHEMA,
    ProfilerSink,
    _deposit,
    profile_events,
)
from repro.observability.sinks import JsonLinesSink
from repro.observability.tracer import Tracer


@pytest.fixture(scope="module")
def profiled_run(tmp_path_factory):
    """One live-profiled Terasort run: event log + live profile JSON."""
    directory = tmp_path_factory.mktemp("profile")
    events_path = str(directory / "events.jsonl")
    live_path = str(directory / "live.json")
    tracer = Tracer(sinks=[
        JsonLinesSink(events_path),
        ProfilerSink(interval=1.0, out=live_path),
    ])
    run = run_workload("terasort", policy="dynamic", tracer=tracer,
                       workload_kwargs={"scale": 0.05})
    finish_trace(run)
    return run, events_path, live_path


class TestLiveOfflineIdentity:
    def test_profile_json_is_byte_identical(self, profiled_run, tmp_path):
        _run, events_path, live_path = profiled_run
        offline_path = str(tmp_path / "offline.json")
        profile_events(load_events(events_path), interval=1.0,
                       out=offline_path)
        with open(live_path, "rb") as live, open(offline_path, "rb") as off:
            assert live.read() == off.read()

    def test_demand_profile_dict_matches(self, profiled_run):
        _run, events_path, live_path = profiled_run
        sink = profile_events(load_events(events_path), interval=1.0)
        with open(live_path, encoding="utf-8") as stream:
            live_doc = json.load(stream)
        assert sink.demand_profile() == live_doc

    def test_run_profiler_finds_the_sink(self, profiled_run):
        run, _events_path, _live_path = profiled_run
        sink = run_profiler(run)
        assert isinstance(sink, ProfilerSink)

    def test_live_run_has_profiling_enabled(self, profiled_run):
        run, _events_path, _live_path = profiled_run
        assert run.ctx.profiling is True


class TestNoObserverEffect:
    @pytest.mark.parametrize("workload", ["terasort", "pagerank"])
    @pytest.mark.parametrize("policy", ["default", "dynamic"])
    def test_profiling_leaves_the_simulation_unchanged(self, workload,
                                                       policy):
        kwargs = dict(policy=policy, workload_kwargs={"scale": 0.02})
        plain = run_workload(workload, **kwargs)
        profiled = run_workload(workload, tracer=Tracer(
            sinks=[ProfilerSink()]), **kwargs)
        finish_trace(profiled)
        assert profiled.ctx.profiling and not plain.ctx.profiling
        assert profiled.runtime == plain.runtime
        assert profiled.stage_durations() == plain.stage_durations()
        assert (profiled.ctx.sim.events_scheduled
                == plain.ctx.sim.events_scheduled)


class TestProfileDocument:
    def test_schema_and_top_level_shape(self, profiled_run):
        _run, events_path, _live_path = profiled_run
        doc = profile_events(load_events(events_path)).demand_profile()
        assert doc["schema"] == PROFILE_SCHEMA
        assert doc["interval"] == 1.0
        assert set(doc) == {"schema", "interval", "application", "stages",
                            "executors", "nodes", "distributions"}

    def test_stage_demand_vectors_cover_probe_keys(self, profiled_run):
        _run, events_path, _live_path = profiled_run
        doc = profile_events(load_events(events_path)).demand_profile()
        assert doc["stages"], "no stages profiled"
        for stage in doc["stages"]:
            assert set(stage["resources"]) == set(PROBE_KEYS)
            for entry in stage["resources"].values():
                assert entry["peak"] >= entry["mean"] >= 0.0

    def test_stage_timings_match_recorder(self, profiled_run):
        run, events_path, _live_path = profiled_run
        doc = profile_events(load_events(events_path)).demand_profile()
        records = run.ctx.recorder.stages
        assert len(doc["stages"]) == len(records)
        for stage, record in zip(doc["stages"], records):
            assert stage["start"] == record.start_time
            assert stage["end"] == record.end_time
            assert stage["duration"] == record.duration
            assert stage["tasks_seen"] == len(record.tasks)

    def test_executor_task_totals(self, profiled_run):
        run, events_path, _live_path = profiled_run
        doc = profile_events(load_events(events_path)).demand_profile()
        total_tasks = sum(len(r.tasks) for r in run.ctx.recorder.stages)
        assert sum(e["tasks"] for e in doc["executors"]) == total_tasks
        for executor in doc["executors"]:
            assert executor["io_bytes"] > 0
            assert executor["peak_active_tasks"] > 0
            assert executor["peak_io_bps"] > 0

    def test_node_series_present_for_every_node(self, profiled_run):
        run, events_path, _live_path = profiled_run
        doc = profile_events(load_events(events_path)).demand_profile()
        assert len(doc["nodes"]) == run.ctx.cluster.num_nodes
        for node in doc["nodes"]:
            assert node["samples"] > 0
            # Disk reads definitely happened on every node.
            assert node["resources"]["disk_read_bps"]["peak"] > 0

    def test_distributions_cover_task_and_stage_metrics(self, profiled_run):
        run, events_path, _live_path = profiled_run
        doc = profile_events(load_events(events_path)).demand_profile()
        dists = doc["distributions"]
        assert set(dists) == {"stages.runtime", "tasks.duration",
                              "tasks.io_wait", "tasks.queue_delay"}
        stages = dists["stages.runtime"]
        assert stages["count"] == len(run.ctx.recorder.stages)
        assert stages["p50"] <= stages["p99"] <= stages["max"]

    def test_registry_histograms_flow_into_metrics_snapshot(
            self, profiled_run):
        run, _events_path, _live_path = profiled_run
        snapshot = run.ctx.metrics.snapshot()
        for name in ("tasks.duration", "tasks.queue_delay",
                     "tasks.io_wait", "stages.runtime"):
            assert snapshot[name]["type"] == "histogram"
            assert snapshot[name]["count"] > 0

    def test_plain_event_log_still_profiles(self, tmp_path):
        """A log recorded *without* profiling (no probe events) profiles
        too: task/io spans alone yield stages, executors, distributions."""
        events_path = str(tmp_path / "plain.jsonl")
        tracer = Tracer(sinks=[JsonLinesSink(events_path)])
        run = run_workload("wordcount", policy="default", tracer=tracer,
                           workload_kwargs={"scale": 0.05})
        finish_trace(run)
        assert run.ctx.profiling is False
        doc = profile_events(load_events(events_path)).demand_profile()
        assert doc["nodes"] == []  # no probe: no node series
        assert doc["stages"]
        assert all(s["resources"] == {} for s in doc["stages"])
        assert doc["executors"]
        assert doc["distributions"]["tasks.duration"]["count"] > 0


class TestCounterTracks:
    def test_track_names_and_monotone_timestamps(self, profiled_run):
        _run, events_path, _live_path = profiled_run
        sink = profile_events(load_events(events_path))
        tracks = sink.counter_tracks()
        assert any(name.startswith("node0.") for name in tracks)
        assert any(name.startswith("exec0.") for name in tracks)
        for track in tracks.values():
            times = [ts for ts, _value in track]
            assert times == sorted(times)

    def test_executor_series_grid_alignment(self, profiled_run):
        _run, events_path, _live_path = profiled_run
        sink = profile_events(load_events(events_path), interval=2.0)
        series = sink.executor_series()
        for metrics in series.values():
            for track in metrics.values():
                assert all(ts % 2.0 == 0.0 for ts, _value in track)


class TestGridMath:
    def test_deposit_spreads_uniformly(self):
        bins = {}
        _deposit(bins, 0.0, 2.0, total=4.0, interval=1.0)
        assert bins == {0: 2.0, 1: 2.0}

    def test_deposit_partial_bins_conserve_work(self):
        bins = {}
        _deposit(bins, 0.5, 2.5, total=6.0, interval=1.0)
        # Average rate over each bin: half a bin's worth at 3.0/s at the
        # edges, a full bin in the middle; totals must sum back to 6.0.
        assert sum(bins.values()) * 1.0 == pytest.approx(6.0)
        assert bins[0] == pytest.approx(1.5)
        assert bins[1] == pytest.approx(3.0)
        assert bins[2] == pytest.approx(1.5)

    def test_zero_length_span_is_an_impulse(self):
        bins = {}
        _deposit(bins, 3.5, 3.5, total=2.0, interval=1.0)
        assert bins == {3: 2.0}

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            ProfilerSink(interval=0.0)
        with pytest.raises(ValueError):
            ProfilerSink(interval=-1.0)


def _begin(ts, seq, cat, name, span, parent=-1, **args):
    return TraceEvent(ts=ts, seq=seq, kind="B", cat=cat, name=name,
                      span=span, parent=parent, args=args)


def _end(ts, seq, span, **args):
    return TraceEvent(ts=ts, seq=seq, kind="E", cat="", name="",
                      span=span, args=args)


class TestSyntheticStreams:
    def test_crashed_tasks_counted_separately(self):
        events = [
            _begin(0.0, 0, "stage", "map", span=1, stage_id=0,
                   num_tasks=2, io_marked=True),
            _begin(0.0, 1, "task", "task-0", span=2, parent=1,
                   executor_id=0, stage_id=0),
            _end(1.0, 2, span=2, crashed=True),
            _begin(1.0, 3, "task", "task-1", span=3, parent=1,
                   executor_id=0, stage_id=0),
            _end(3.0, 4, span=3, io_wait=0.5, io_bytes=10.0),
            _end(3.0, 5, span=1),
        ]
        doc = profile_events(events).demand_profile()
        executor = doc["executors"][0]
        assert executor["tasks"] == 1
        assert executor["crashed_tasks"] == 1
        # The crashed attempt contributes no duration/io_wait samples.
        assert doc["distributions"]["tasks.duration"]["count"] == 1
        assert doc["distributions"]["tasks.duration"]["max"] == 2.0

    def test_io_bytes_attributed_to_stage_by_kind(self):
        events = [
            _begin(0.0, 0, "stage", "map", span=1, stage_id=0,
                   num_tasks=1, io_marked=True),
            _begin(0.0, 1, "task", "task-0", span=2, parent=1,
                   executor_id=0, stage_id=0),
            _begin(0.0, 2, "io", "read", span=3, parent=2,
                   executor_id=0, bytes=100.0),
            _end(1.0, 3, span=3, wait=1.0),
            _begin(1.0, 4, "io", "write", span=4, parent=2,
                   executor_id=0, bytes=40.0),
            _end(2.0, 5, span=4, wait=1.0),
            _end(2.0, 6, span=2, io_wait=2.0, io_bytes=140.0),
            _end(2.0, 7, span=1),
        ]
        doc = profile_events(events).demand_profile()
        stage = doc["stages"][0]
        assert stage["io_bytes"] == {"read": 100.0, "write": 40.0}
        assert doc["executors"][0]["io_bytes"] == 140.0

    def test_killed_attempt_adds_no_work(self):
        events = [
            _begin(0.0, 0, "stage", "map", span=1, stage_id=0,
                   num_tasks=1, io_marked=True),
            _begin(0.0, 1, "task", "task-0", span=2, parent=1,
                   executor_id=0, stage_id=0),
            _begin(0.0, 2, "io", "read", span=3, parent=2,
                   executor_id=0, bytes=100.0),
            _end(1.0, 3, span=3, killed="node-loss"),
            _end(1.0, 4, span=2, killed="node-loss"),
            _begin(1.0, 5, "task", "task-0", span=4, parent=1,
                   executor_id=0, stage_id=0, attempt=1),
            _end(3.0, 6, span=4, io_wait=0.0, io_bytes=0.0),
            _end(3.0, 7, span=1),
        ]
        doc = profile_events(events).demand_profile()
        executor = doc["executors"][0]
        assert executor["tasks"] == 1
        assert executor["crashed_tasks"] == 0
        assert executor["io_bytes"] == 0.0
        assert doc["stages"][0]["io_bytes"] == {}
        assert doc["distributions"]["tasks.duration"]["count"] == 1

    def test_unmatched_end_ignored(self):
        doc = profile_events([_end(1.0, 0, span=99)]).demand_profile()
        assert doc["stages"] == []
        assert doc["executors"] == []

    def test_writes_outputs_on_close(self, tmp_path):
        out = tmp_path / "profile.json"
        trace_out = tmp_path / "tracks.json"
        events = [
            _begin(0.0, 0, "stage", "map", span=1, stage_id=0,
                   num_tasks=1, io_marked=False),
            _end(1.0, 1, span=1),
        ]
        profile_events(events, out=str(out), trace_out=str(trace_out))
        assert json.loads(out.read_text())["schema"] == PROFILE_SCHEMA
        assert "traceEvents" in json.loads(trace_out.read_text())

    def test_close_is_idempotent(self, tmp_path):
        out = tmp_path / "profile.json"
        sink = ProfilerSink(out=str(out))
        sink.close()
        out.unlink()
        sink.close()  # second close must not rewrite
        assert not out.exists()
