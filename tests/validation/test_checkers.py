"""Every invariant class catches a deliberately seeded violation.

Each test hand-builds a small event stream around a known-good skeleton,
breaks exactly one invariant, and asserts the checker reports it with an
actionable message (the invariant id, the entities involved, the counts
that disagreed).
"""

import pytest

from repro.observability.events import (
    BEGIN,
    COMPLETE,
    COUNTER,
    END,
    INSTANT,
    TraceEvent,
)
from repro.validation import validate_events


class _Stream:
    """Event-stream builder with automatic seq/span numbering."""

    def __init__(self):
        self.events = []
        self._seq = 0
        self._span = 0

    def _stamp(self, ts):
        seq = self._seq
        self._seq += 1
        return ts, seq

    def emit(self, ts, kind, cat, name, span=-1, parent=-1, dur=0.0, **args):
        ts, seq = self._stamp(ts)
        event = TraceEvent(ts, seq, kind, cat, name, span=span,
                           parent=parent, dur=dur, args=args)
        self.events.append(event)
        return event

    def begin(self, ts, cat, name, parent=-1, **args):
        span = self._span
        self._span += 1
        self.emit(ts, BEGIN, cat, name, span=span, parent=parent, **args)
        return span

    def end(self, ts, span, **args):
        self.emit(ts, END, "", "", span=span, **args)

    def app_start(self, num_nodes=2, cores=4):
        self.emit(0.0, INSTANT, "app", "application-start",
                  num_nodes=num_nodes, cores_per_node=cores, device="hdd")


def _one_task_stage(stream, stage_id=0, num_tasks=1, ts=1.0):
    """A minimal healthy stage: one task launched and completed."""
    stage = stream.begin(ts, "stage", "rdd", stage_id=stage_id,
                         num_tasks=num_tasks, io_marked=True)
    for partition in range(num_tasks):
        task = stream.begin(ts + 0.1, "task", f"task {stage_id}.{partition}",
                            executor_id=0, stage_id=stage_id,
                            partition=partition, pool_size=4)
        stream.end(ts + 1.0, task, io_wait=0.1, io_bytes=100)
    stream.end(ts + 1.1, stage, duration=1.1)
    return stage


def _violations(stream, **kwargs):
    report = validate_events(stream.events, **kwargs)
    return report, [v.invariant for v in report.violations]


class TestClockChecker:
    def test_clean_stream_passes(self):
        s = _Stream()
        s.app_start()
        _one_task_stage(s)
        report, _ = _violations(s)
        assert report.ok and report.checks_run > 0

    def test_backwards_clock_caught(self):
        s = _Stream()
        s.app_start()
        s.emit(5.0, INSTANT, "pool", "resize", executor_id=0, stage_id=0,
               size=4, reason="stage-start")
        s.emit(2.0, INSTANT, "pool", "resize", executor_id=0, stage_id=0,
               size=4, reason="adapt")
        report, kinds = _violations(s)
        assert "clock.monotonic" in kinds
        message = report.violations[0].message
        assert "2.0" in message and "5.0" in message

    def test_non_increasing_seq_caught(self):
        s = _Stream()
        s.app_start()
        s.emit(1.0, INSTANT, "pool", "resize", size=4)
        s.events[-1].seq = 0  # collide with the app-start event
        _, kinds = _violations(s)
        assert "clock.sequence" in kinds

    def test_complete_event_start_may_predate_clock(self):
        s = _Stream()
        s.app_start()
        s.emit(5.0, INSTANT, "mapek", "analyze", executor_id=0, stage_id=0,
               zeta=1.0, decision="climb", threads=2, settled=False)
        # X interval started at 1.0 < clock 5.0: legal, ends at the clock.
        s.emit(1.0, COMPLETE, "mapek", "interval", dur=4.0, executor_id=0,
               stage_id=0, threads=1, zeta=1.0, decision="climb")
        report, _ = _violations(s)
        assert report.ok

    def test_complete_event_ending_in_past_caught(self):
        s = _Stream()
        s.app_start()
        s.emit(5.0, INSTANT, "pool", "resize", size=4)
        s.emit(1.0, COMPLETE, "mapek", "interval", dur=0.5, executor_id=0,
               stage_id=0, threads=1, zeta=1.0, decision="climb")
        _, kinds = _violations(s)
        assert "clock.monotonic" in kinds


class TestSpanChecker:
    def test_unbalanced_span_caught_in_strict_mode(self):
        s = _Stream()
        s.app_start()
        stage = s.begin(1.0, "stage", "rdd", stage_id=0, num_tasks=1,
                        io_marked=True)
        s.begin(1.1, "task", "task 0.0", executor_id=0, stage_id=0,
                partition=0, pool_size=4)  # never ended
        s.end(2.0, stage, duration=1.0)
        _, kinds = _violations(s, strict=True)
        assert "spans.balance" in kinds

    def test_double_close_caught(self):
        s = _Stream()
        s.app_start()
        span = s.begin(1.0, "io", "dfs-read", executor_id=0, bytes=10)
        s.end(2.0, span)
        s.end(3.0, span)
        report, kinds = _violations(s)
        assert "spans.balance" in kinds
        assert "already closed" in report.violations[0].message

    def test_unknown_parent_caught(self):
        s = _Stream()
        s.app_start()
        s.begin(1.0, "io", "dfs-read", parent=999, executor_id=0, bytes=10)
        _, kinds = _violations(s)
        assert "spans.balance" in kinds

    def test_open_task_span_tolerated_under_faults(self):
        s = _Stream()
        s.app_start()
        s.emit(0.5, INSTANT, "fault", "node-loss", node_id=1)
        stage = s.begin(1.0, "stage", "rdd", stage_id=0, num_tasks=1,
                        io_marked=True)
        s.begin(1.1, "task", "task 0.0", executor_id=0, stage_id=0,
                partition=0, pool_size=4)  # an attempt whose end never came
        task2 = s.begin(1.2, "task", "task 0.0", executor_id=0, stage_id=0,
                        partition=0, attempt=1, pool_size=4)
        s.end(2.0, task2, io_wait=0.0, io_bytes=10)
        s.end(2.1, stage, duration=1.1)
        report, _ = _violations(s)
        assert report.ok

    def test_open_stage_span_violates_even_under_faults(self):
        s = _Stream()
        s.app_start()
        s.emit(0.5, INSTANT, "fault", "node-loss", node_id=1)
        s.begin(1.0, "stage", "rdd", stage_id=0, num_tasks=0, io_marked=True)
        _, kinds = _violations(s)
        assert "spans.balance" in kinds


class TestTaskChecker:
    def test_duplicate_attempt_id_caught(self):
        s = _Stream()
        s.app_start()
        stage = s.begin(1.0, "stage", "rdd", stage_id=0, num_tasks=1,
                        io_marked=True)
        a = s.begin(1.1, "task", "task 0.0", executor_id=0, stage_id=0,
                    partition=0, pool_size=4)
        b = s.begin(1.2, "task", "task 0.0", executor_id=1, stage_id=0,
                    partition=0, pool_size=4)  # same attempt 0 again
        s.end(2.0, a, io_wait=0.0, io_bytes=1)
        s.end(2.1, b, io_wait=0.0, io_bytes=1)
        s.end(2.2, stage, duration=1.2)
        report, kinds = _violations(s)
        assert "tasks.conservation" in kinds
        assert "duplicate attempt" in " ".join(
            v.message for v in report.violations
        )

    def test_stage_closing_with_missing_partition_caught(self):
        s = _Stream()
        s.app_start()
        stage = s.begin(1.0, "stage", "rdd", stage_id=0, num_tasks=2,
                        io_marked=True)
        task = s.begin(1.1, "task", "task 0.0", executor_id=0, stage_id=0,
                       partition=0, pool_size=4)
        s.end(2.0, task, io_wait=0.0, io_bytes=1)
        s.end(2.1, stage, duration=1.1)  # partition 1 never completed
        report, kinds = _violations(s)
        assert "tasks.conservation" in kinds
        assert "never completed" in report.violations[0].message

    def test_killed_attempt_is_not_a_completion(self):
        s = _Stream()
        s.app_start()
        s.emit(0.5, INSTANT, "fault", "node-loss", node_id=1)
        stage = s.begin(1.0, "stage", "rdd", stage_id=0, num_tasks=1,
                        io_marked=True)
        task = s.begin(1.1, "task", "task 0.0", executor_id=0, stage_id=0,
                       partition=0, pool_size=4)
        s.end(1.5, task, killed="node-loss")
        s.end(2.1, stage, duration=1.1)  # partition 0 never completed
        report, kinds = _violations(s)
        assert "tasks.conservation" in kinds
        assert "never completed" in report.violations[0].message

    def test_killed_attempt_then_retry_passes(self):
        s = _Stream()
        s.app_start()
        s.emit(0.5, INSTANT, "fault", "node-loss", node_id=1)
        stage = s.begin(1.0, "stage", "rdd", stage_id=0, num_tasks=1,
                        io_marked=True)
        task = s.begin(1.1, "task", "task 0.0", executor_id=0, stage_id=0,
                       partition=0, pool_size=4)
        s.end(1.5, task, killed="node-loss")
        retry = s.begin(1.6, "task", "task 0.0", executor_id=1, stage_id=0,
                        partition=0, attempt=1, pool_size=4)
        s.end(2.0, retry, io_wait=0.0, io_bytes=10)
        s.end(2.1, stage, duration=1.1)
        report, _ = _violations(s)
        assert report.ok

    def test_task_for_unknown_stage_caught(self):
        s = _Stream()
        s.app_start()
        s.begin(1.0, "task", "task 9.0", executor_id=0, stage_id=9,
                partition=0, pool_size=4)
        _, kinds = _violations(s)
        assert "tasks.conservation" in kinds

    def test_retry_budget_overrun_caught(self):
        s = _Stream()
        s.app_start()
        stage = s.begin(1.0, "stage", "rdd", stage_id=0, num_tasks=1,
                        io_marked=True)
        s.emit(1.05, INSTANT, "fault", "task-crash", executor_id=0,
               stage_id=0, partition=0, attempt=0, reason="injected-crash")
        for attempt in range(3):  # 3 crashes > maxFailures=2
            task = s.begin(1.1 + attempt, "task", "task 0.0", executor_id=0,
                           stage_id=0, partition=0, pool_size=4,
                           **({"attempt": attempt} if attempt else {}))
            s.end(1.5 + attempt, task, crashed=True)
        winner = s.begin(5.0, "task", "task 0.0", executor_id=0, stage_id=0,
                         partition=0, attempt=3, pool_size=4)
        s.end(6.0, winner, io_wait=0.0, io_bytes=1)
        s.end(6.1, stage, duration=5.1)
        report, kinds = _violations(s, max_failures=2)
        assert "tasks.retries" in kinds
        assert "maxFailures" in report.violations[0].message

    def test_exhausted_budget_without_abort_caught(self):
        s = _Stream()
        s.app_start()
        s.begin(1.0, "stage", "rdd", stage_id=0, num_tasks=1, io_marked=True)
        s.emit(1.05, INSTANT, "fault", "task-crash", executor_id=0,
               stage_id=0, partition=0, attempt=0, reason="injected-crash")
        for attempt in range(2):
            task = s.begin(1.1 + attempt, "task", "task 0.0", executor_id=0,
                           stage_id=0, partition=0, pool_size=4,
                           **({"attempt": attempt} if attempt else {}))
            s.end(1.5 + attempt, task, crashed=True)
        report, kinds = _violations(s, max_failures=2)
        assert "tasks.retries" in kinds
        assert "never aborted" in " ".join(
            v.message for v in report.violations
        )

    def test_strict_launch_count_mismatch_caught(self):
        s = _Stream()
        s.app_start()
        stage = s.begin(1.0, "stage", "rdd", stage_id=0, num_tasks=1,
                        io_marked=True)
        a = s.begin(1.1, "task", "task 0.0", executor_id=0, stage_id=0,
                    partition=0, pool_size=4)
        b = s.begin(1.2, "task", "task 0.0", executor_id=1, stage_id=0,
                    partition=0, attempt=1, pool_size=4)
        s.end(2.0, a, io_wait=0.0, io_bytes=1)
        s.end(2.1, b, io_wait=0.0, io_bytes=1)
        s.end(2.2, stage, duration=1.2)
        _, kinds = _violations(s, strict=True)
        # Two launches for one partition without any fault event.
        assert "tasks.conservation" in kinds


class TestRegistryChecker:
    def test_oversubscribed_executor_caught(self):
        s = _Stream()
        s.app_start(cores=2)
        stage = s.begin(1.0, "stage", "rdd", stage_id=0, num_tasks=3,
                        io_marked=True)
        tasks = [
            s.begin(1.1, "task", f"task 0.{p}", executor_id=0, stage_id=0,
                    partition=p, pool_size=2)
            for p in range(3)  # 3 concurrent tasks on a 2-core node
        ]
        for p, task in enumerate(tasks):
            s.end(2.0 + p * 0.1, task, io_wait=0.0, io_bytes=1)
        s.end(2.5, stage, duration=1.5)
        report, kinds = _violations(s)
        assert "scheduler.registry" in kinds
        assert "2 cores" in report.violations[0].message

    def test_stage_start_with_running_tasks_caught(self):
        s = _Stream()
        s.app_start()
        stage = s.begin(1.0, "stage", "rdd", stage_id=0, num_tasks=1,
                        io_marked=True)
        s.begin(1.1, "task", "task 0.0", executor_id=0, stage_id=0,
                partition=0, pool_size=4)  # still running at next stage
        s.begin(3.0, "stage", "rdd2", stage_id=1, num_tasks=0,
                io_marked=False)
        report, kinds = _violations(s)
        assert "scheduler.registry" in kinds

    def test_pool_size_out_of_bounds_caught(self):
        s = _Stream()
        s.app_start(cores=4)
        s.emit(1.0, INSTANT, "pool", "resize", executor_id=0, stage_id=0,
               size=9, reason="adapt")
        report, kinds = _violations(s)
        assert "scheduler.registry" in kinds
        assert "[1, 4]" in report.violations[0].message

    def test_pool_resized_message_out_of_bounds_caught(self):
        s = _Stream()
        s.app_start(cores=4)
        s.emit(1.0, INSTANT, "scheduler", "pool-resized", executor_id=0,
               pool_size=0)
        _, kinds = _violations(s)
        assert "scheduler.registry" in kinds


class TestMapekChecker:
    @staticmethod
    def _interval(s, ts, threads, decision, settled):
        s.emit(ts, INSTANT, "mapek", "analyze", executor_id=0, stage_id=0,
               zeta=1.0, decision=decision,
               threads=threads * 2 if decision == "climb" else threads,
               settled=settled)
        s.emit(ts - 1.0, COMPLETE, "mapek", "interval", dur=1.0,
               executor_id=0, stage_id=0, threads=threads, zeta=1.0,
               decision=decision)

    def test_legal_climb_ladder_passes(self):
        s = _Stream()
        s.app_start(cores=8)
        self._interval(s, 2.0, 2, "climb", False)
        self._interval(s, 4.0, 4, "climb", False)
        s.emit(5.0, INSTANT, "mapek", "analyze", executor_id=0, stage_id=0,
               zeta=1.0, decision="reached-cmax", threads=8, settled=True)
        s.emit(4.5, COMPLETE, "mapek", "interval", dur=0.5, executor_id=0,
               stage_id=0, threads=8, zeta=1.0, decision="reached-cmax")
        report, _ = _violations(s)
        assert report.ok

    def test_illegal_jump_caught(self):
        s = _Stream()
        s.app_start(cores=32)
        self._interval(s, 2.0, 2, "climb", False)
        s.emit(3.0, COMPLETE, "mapek", "interval", dur=1.0, executor_id=0,
               stage_id=0, threads=16, zeta=1.0, decision="climb")
        report, kinds = _violations(s)
        assert "mapek.transition" in kinds
        assert "2 -> 16" in report.violations[0].message

    def test_adapting_after_settle_caught(self):
        s = _Stream()
        s.app_start(cores=8)
        s.emit(2.0, INSTANT, "mapek", "analyze", executor_id=0, stage_id=0,
               zeta=1.0, decision="rollback", threads=2, settled=True)
        s.emit(3.0, INSTANT, "mapek", "analyze", executor_id=0, stage_id=0,
               zeta=1.0, decision="climb", threads=4, settled=False)
        _, kinds = _violations(s)
        assert "mapek.transition" in kinds

    def test_threads_out_of_bounds_caught(self):
        s = _Stream()
        s.app_start(cores=8)
        s.emit(2.0, INSTANT, "mapek", "analyze", executor_id=0, stage_id=0,
               zeta=1.0, decision="climb", threads=16, settled=False)
        report, kinds = _violations(s)
        assert "mapek.bounds" in kinds
        assert "[1, 8]" in report.violations[0].message


class TestShuffleChecker:
    def test_duplicate_registration_caught(self):
        s = _Stream()
        s.app_start()
        for _ in range(2):
            s.emit(1.0, INSTANT, "shuffle", "map-output", shuffle_id=0,
                   map_id=3, node_id=1, bytes=100, registered=1, expected=4)
        report, kinds = _violations(s)
        assert "shuffle.accounting" in kinds
        assert "registered twice" in report.violations[0].message

    def test_tracker_count_mismatch_caught(self):
        s = _Stream()
        s.app_start()
        s.emit(1.0, INSTANT, "shuffle", "map-output", shuffle_id=0,
               map_id=0, node_id=1, bytes=100, registered=5, expected=8)
        report, kinds = _violations(s)
        assert "shuffle.accounting" in kinds
        assert "5" in report.violations[0].message

    def test_node_loss_accounting_mismatch_caught(self):
        s = _Stream()
        s.app_start()
        s.emit(0.1, INSTANT, "fault", "node-loss", node_id=1)
        s.emit(1.0, INSTANT, "shuffle", "map-output", shuffle_id=0,
               map_id=0, node_id=1, bytes=100, registered=1, expected=4)
        s.emit(2.0, INSTANT, "fault", "shuffle-outputs-lost", shuffle_id=0,
               node_id=1, lost_maps=3)  # stream only tracked 1 on node 1
        report, kinds = _violations(s)
        assert "shuffle.accounting" in kinds
        assert "lost" in report.violations[0].invariant or "3" in \
            report.violations[0].message

    def test_more_outputs_than_expected_caught(self):
        s = _Stream()
        s.app_start()
        for map_id in range(3):
            s.emit(1.0 + map_id, INSTANT, "shuffle", "map-output",
                   shuffle_id=0, map_id=map_id, node_id=0, bytes=10,
                   registered=map_id + 1, expected=2)
        _, kinds = _violations(s)
        assert "shuffle.accounting" in kinds


class TestQueueChecker:
    def test_negative_nic_counter_caught(self):
        s = _Stream()
        s.app_start()
        s.emit(1.0, COUNTER, "network", "nic.0", value=-10, active_flows=1,
               dst=1, tag="shuffle")
        report, kinds = _violations(s)
        assert "queues.nonnegative" in kinds

    def test_zero_device_queue_caught(self):
        s = _Stream()
        s.app_start()
        s.emit(1.0, COUNTER, "device", "disk.0", value=0, efficiency=1.0,
               op="read")
        _, kinds = _violations(s)
        assert "queues.nonnegative" in kinds

    def test_bad_efficiency_caught(self):
        s = _Stream()
        s.app_start()
        s.emit(1.0, COUNTER, "device", "disk.0", value=1, efficiency=1.5,
               op="read")
        _, kinds = _violations(s)
        assert "queues.nonnegative" in kinds

    def test_zero_flows_caught(self):
        s = _Stream()
        s.app_start()
        s.emit(1.0, COUNTER, "network", "nic.0", value=10, active_flows=0,
               dst=1, tag="shuffle")
        _, kinds = _violations(s)
        assert "queues.nonnegative" in kinds


class TestReportRendering:
    def test_violation_render_is_actionable(self):
        s = _Stream()
        s.app_start(cores=4)
        s.emit(1.0, INSTANT, "pool", "resize", executor_id=2, stage_id=0,
               size=9, reason="adapt")
        report, _ = _violations(s)
        rendered = report.summary()
        assert rendered.startswith("FAIL")
        assert "scheduler.registry" in rendered
        assert "executor 2" in rendered  # names the entity involved

    def test_report_to_dict_round_trips_violations(self):
        s = _Stream()
        s.app_start(cores=4)
        s.emit(1.0, INSTANT, "pool", "resize", executor_id=0, stage_id=0,
               size=0, reason="adapt")
        report, _ = _violations(s)
        doc = report.to_dict()
        assert doc["ok"] is False
        assert doc["violations"][0]["invariant"] == "scheduler.registry"
        assert doc["events_seen"] == 2
