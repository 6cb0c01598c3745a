"""History-server tests: reconstruction must match the live recorder."""

import io
import json
import math

import pytest

from repro.cli import main
from repro.engine.scheduler import JobAbortedError
from repro.faults import FaultPlan, NodeLoss
from repro.harness.runner import build_context, finish_trace, run_workload
from repro.observability.chrome import ChromeTraceSink, validate_chrome_trace
from repro.observability.history import load_events, reconstruct
from repro.observability.profiler import ProfilerSink
from repro.observability.sinks import JsonLinesSink, MemorySink
from repro.observability.tracer import Tracer
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One dynamic-policy Terasort run with all three sinks attached."""
    directory = tmp_path_factory.mktemp("trace")
    paths = {
        "events": str(directory / "events.jsonl"),
        "chrome": str(directory / "chrome.json"),
    }
    memory = MemorySink()
    tracer = Tracer(sinks=[
        memory,
        JsonLinesSink(paths["events"]),
        ChromeTraceSink(paths["chrome"]),
    ])
    run = run_workload("terasort", policy="dynamic", tracer=tracer,
                       workload_kwargs={"scale": 0.05})
    finish_trace(run)
    return run, memory, paths


class TestReconstruction:
    def test_total_runtime_matches_recorder_exactly(self, traced_run):
        run, _memory, paths = traced_run
        report = reconstruct(load_events(paths["events"]))
        assert report.total_runtime == run.ctx.recorder.total_runtime

    def test_stages_match_recorder_exactly(self, traced_run):
        run, _memory, paths = traced_run
        report = reconstruct(load_events(paths["events"]))
        records = run.ctx.recorder.stages
        assert len(report.stages) == len(records)
        for stage, record in zip(report.stages, records):
            assert stage.stage_id == record.stage_id
            assert stage.name == record.name
            assert stage.is_io_marked == record.is_io_marked
            assert stage.start_time == record.start_time
            assert stage.end_time == record.end_time
            assert stage.duration == record.duration
            assert stage.num_tasks == record.num_tasks
            assert stage.tasks_seen == len(record.tasks)

    def test_final_pool_sizes_match_recorder(self, traced_run):
        run, _memory, paths = traced_run
        report = reconstruct(load_events(paths["events"]))
        for stage, record in zip(report.stages, run.ctx.recorder.stages):
            assert stage.final_pool_sizes == record.final_pool_sizes()

    def test_pool_decisions_match_pool_events(self, traced_run):
        run, _memory, paths = traced_run
        report = reconstruct(load_events(paths["events"]))
        recorded = [event for record in run.ctx.recorder.stages
                    for event in record.pool_events]
        assert len(report.pool_decisions) == len(recorded)
        for decision, event in zip(report.pool_decisions, recorded):
            assert decision.time == event.time
            assert decision.executor_id == event.executor_id
            assert decision.stage_id == event.stage_id
            assert decision.pool_size == event.pool_size
            assert decision.reason == event.reason

    def test_zeta_trajectory_covers_all_intervals(self, traced_run):
        run, _memory, paths = traced_run
        report = reconstruct(load_events(paths["events"]))
        recorded = [interval for record in run.ctx.recorder.stages
                    for interval in record.intervals]
        recorded.sort(key=lambda i: i.end_time)
        assert len(report.intervals) == len(recorded)
        for history, record in zip(report.intervals, recorded):
            assert history.executor_id == record.executor_id
            assert history.threads == record.threads
            assert history.decision == record.decision
        trajectory = report.zeta_trajectory(executor_id=0)
        assert trajectory
        assert all(i.executor_id == 0 for i in trajectory)

    def test_application_metadata_recovered(self, traced_run):
        run, _memory, paths = traced_run
        report = reconstruct(load_events(paths["events"]))
        assert report.application["num_nodes"] == run.ctx.cluster.num_nodes

    def test_metrics_snapshot_in_log(self, traced_run):
        _run, _memory, paths = traced_run
        report = reconstruct(load_events(paths["events"]))
        assert report.metrics is not None
        assert report.metrics["run.stages"]["value"] == len(report.stages)

    def test_report_to_dict_is_json_serialisable(self, traced_run):
        _run, _memory, paths = traced_run
        report = reconstruct(load_events(paths["events"]))
        round_tripped = json.loads(json.dumps(report.to_dict()))
        assert round_tripped["total_runtime"] == report.total_runtime

    def test_stage_lookup(self, traced_run):
        _run, _memory, paths = traced_run
        report = reconstruct(load_events(paths["events"]))
        assert report.stage(0).stage_id == 0
        with pytest.raises(KeyError):
            report.stage(999)


class TestChromeExport:
    def test_chrome_trace_validates(self, traced_run):
        _run, _memory, paths = traced_run
        assert validate_chrome_trace(paths["chrome"]) > 0

    def test_chrome_trace_has_executor_tracks(self, traced_run):
        _run, _memory, paths = traced_run
        with open(paths["chrome"], encoding="utf-8") as stream:
            doc = json.load(stream)
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M"}
        assert any("executor" in n for n in names)

    def test_invalid_document_rejected(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "Z"}]})


class TestLoadEvents:
    def test_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "meta", "schema": "other/9"}\n')
        with pytest.raises(ValueError, match="schema"):
            load_events(str(path))

    def test_rejects_corrupt_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ts": 0, "seq": 0, "kind": "I"}\nnot json\n')
        with pytest.raises(ValueError, match="not valid JSON"):
            load_events(str(path))

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(
            '\n{"ts":0,"seq":0,"kind":"I","cat":"a","name":"b"}\n\n'
        )
        assert len(load_events(str(path))) == 1


GOOD_LINE = '{"ts":0,"seq":0,"kind":"I","cat":"a","name":"b"}\n'


class TestTruncatedLogs:
    def test_partial_trailing_line_skipped_with_warning(self, tmp_path):
        path = tmp_path / "truncated.jsonl"
        path.write_text(GOOD_LINE + '{"ts": 1, "seq": 1, "ki')
        warnings = []
        events = load_events(str(path), allow_truncated=True,
                             warn=warnings.append)
        assert len(events) == 1
        assert len(warnings) == 1 and "truncated" in warnings[0]

    def test_valid_json_but_partial_event_skipped(self, tmp_path):
        # A line can be complete JSON yet still a torn write (missing keys).
        path = tmp_path / "truncated.jsonl"
        path.write_text(GOOD_LINE + '{"ts": 1}\n')
        warnings = []
        events = load_events(str(path), allow_truncated=True,
                             warn=warnings.append)
        assert len(events) == 1
        assert warnings

    def test_strict_mode_still_raises(self, tmp_path):
        path = tmp_path / "truncated.jsonl"
        path.write_text(GOOD_LINE + '{"ts": 1, "seq"')
        with pytest.raises(ValueError, match="not valid JSON"):
            load_events(str(path))

    def test_corruption_before_final_line_raises(self, tmp_path):
        path = tmp_path / "damaged.jsonl"
        path.write_text(GOOD_LINE + "garbage\n" + GOOD_LINE)
        with pytest.raises(ValueError, match="not valid JSON"):
            load_events(str(path), allow_truncated=True)

    def test_lone_malformed_line_is_not_truncation(self, tmp_path):
        # A wrong-format file (no valid events at all) must still error.
        path = tmp_path / "not-a-log.json"
        path.write_text('{"traceEvents": []}\n')
        with pytest.raises(ValueError, match="not a trace event"):
            load_events(str(path), allow_truncated=True)

    def test_default_warning_goes_to_stderr(self, tmp_path, capsys):
        path = tmp_path / "truncated.jsonl"
        path.write_text(GOOD_LINE + '{"ts')
        load_events(str(path), allow_truncated=True)
        assert "warning:" in capsys.readouterr().err


class TestOpenSpans:
    def test_complete_log_reports_no_open_spans(self, traced_run):
        _run, _memory, paths = traced_run
        report = reconstruct(load_events(paths["events"]))
        assert report.open_spans == {}

    def test_truncated_log_counts_open_spans_by_category(self, traced_run):
        _run, _memory, paths = traced_run
        events = load_events(paths["events"])
        # Chop the log mid-run: spans begun before the cut stay open.
        report = reconstruct(events[:len(events) // 2])
        assert report.open_spans
        assert "stage" in report.open_spans
        assert all(count > 0 for count in report.open_spans.values())
        as_dict = report.to_dict()
        assert as_dict["open_spans"] == report.open_spans

    def test_lost_input_ends_task_spans_as_crashed(self, tmp_path, capsys):
        """Node 1 dies after the read stage is planned.  With one replica per
        block it was the only holder of some input, so attempts launched
        later fail with ``input-data-lost`` before their first chunk; their
        task spans end as crashed instead of staying open."""
        events = tmp_path / "lost-input.jsonl"
        profiler = ProfilerSink()
        ctx = build_context(
            tracer=Tracer(sinks=[JsonLinesSink(str(events)), profiler]),
            fault_plan=FaultPlan(node_losses=[NodeLoss(at=5.0, node_id=1)]),
            num_nodes=4, cores=4,
        )
        ctx.dfs.replication = 1  # before the workload writes its input
        with pytest.raises(JobAbortedError, match="input-data-lost"):
            get_workload("terasort", scale=0.05).run(ctx)
        ctx.tracer.close()
        assert main(["history", str(events), "--json"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["open_spans"] == {}
        assert "never ended" not in captured.err
        assert sum(executor.crashed_tasks
                   for executor in profiler.executors.values()) > 0


class TestInfinityHandling:
    def test_infinite_zeta_round_trips_through_json(self):
        stream = io.StringIO()
        tracer = Tracer(sinks=[JsonLinesSink(stream)])
        tracer.complete("mapek", "interval", 0.0, 1.0,
                        executor_id=0, stage_id=0, threads=2,
                        zeta="inf", decision="hold")
        tracer.close()
        stream.seek(0)
        lines = [json.loads(l) for l in stream.read().splitlines() if l]
        # The log itself must stay valid JSON (no bare Infinity token).
        report = reconstruct(
            [e for e in map(_parse, lines) if e is not None]
        )
        assert math.isinf(report.intervals[0].zeta)


def _parse(doc):
    from repro.observability.events import TraceEvent
    if doc.get("kind") == "meta":
        return None
    return TraceEvent.from_json(doc)
