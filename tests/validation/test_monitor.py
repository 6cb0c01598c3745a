"""The live invariant monitor: clean runs stay clean (and bit-identical),
seeded corruption is caught at the hook sites, and the golden logs replay
clean through the offline checkers."""

import heapq
import io

import pytest

from repro.faults.plan import CANNED_PLANS
from repro.harness.runner import finish_trace, run_workload
from repro.observability.history import load_events
from repro.observability.sinks import JsonLinesSink
from repro.observability.tracer import Tracer
from repro.simulation import SimulationError, Simulator
from repro.validation import (
    InvariantMonitor,
    InvariantViolationError,
    Violation,
    validate_events,
)

GOLDEN = "tests/golden/terasort_s005_seed42.jsonl"
GOLDEN_NODELOSS = "tests/golden/terasort_s005_seed42_nodeloss.jsonl"

RUN_KWARGS = dict(workload_kwargs={"scale": 0.02}, num_nodes=2, seed=42)


def _traced_run(policy="dynamic", monitor=None, **kwargs):
    buffer = io.StringIO()
    tracer = Tracer()
    tracer.add_sink(JsonLinesSink(buffer))
    merged = dict(RUN_KWARGS)
    merged.update(kwargs)
    run = run_workload("terasort", policy=policy, tracer=tracer,
                       invariants=monitor, **merged)
    finish_trace(run)
    return buffer.getvalue(), run


class TestGoldenLogs:
    def test_fault_free_golden_validates_clean_and_strict(self):
        report = validate_events(load_events(GOLDEN), max_failures=4)
        assert report.ok, report.summary()
        assert report.strict  # no fault events -> held to strict invariants
        assert report.events_seen == 12888

    def test_nodeloss_golden_validates_clean(self):
        report = validate_events(load_events(GOLDEN_NODELOSS), max_failures=4)
        assert report.ok, report.summary()
        assert not report.strict


class TestLiveMonitor:
    def test_clean_run_reports_ok(self):
        monitor = InvariantMonitor(mode="raise")
        _traced_run(monitor=monitor)
        report = monitor.finish()
        assert report.ok
        assert report.events_seen > 0
        assert report.checks_run > report.events_seen  # hooks ran too

    def test_monitor_does_not_change_the_event_log(self):
        plain, _ = _traced_run()
        monitored, _ = _traced_run(monitor=InvariantMonitor(mode="raise"))
        assert plain == monitored  # byte-identical, monitor adds no events

    def test_monitor_works_without_a_tracer(self):
        monitor = InvariantMonitor(mode="raise")
        run_workload("terasort", policy="dynamic", invariants=monitor,
                     **RUN_KWARGS)
        report = monitor.finish()
        assert report.ok
        assert report.events_seen == 0  # no tracer: hook checks only
        assert report.checks_run > 0

    @pytest.mark.parametrize("plan_name", sorted(
        kind for kind, build in CANNED_PLANS.items()
        if build().cluster is None))  # cluster scope never reaches the engine
    def test_faulty_runs_stay_invariant_clean(self, plan_name):
        monitor = InvariantMonitor(mode="raise")
        _traced_run(monitor=monitor,
                    fault_plan=CANNED_PLANS[plan_name]())
        assert monitor.finish().ok

    def test_finish_is_idempotent(self):
        monitor = InvariantMonitor(mode="collect")
        _traced_run(monitor=monitor)
        first = monitor.finish()
        assert monitor.finish() is first
        assert first.checks_run == monitor.finish().checks_run


class TestSeededCorruption:
    """Corrupt live engine state and assert the hook catches it."""

    def _bound_monitor(self, mode="raise"):
        from repro.harness.runner import build_context

        monitor = InvariantMonitor(mode=mode)
        ctx = build_context(policy="default", invariants=monitor,
                            num_nodes=2, seed=42)
        return monitor, ctx

    def test_corrupted_assignment_registry_raises(self):
        monitor, ctx = self._bound_monitor()
        scheduler = ctx.scheduler
        scheduler._pool_view[0] = 4
        scheduler._assigned[0] = 5  # more assigned than the pool holds
        with pytest.raises(InvariantViolationError) as info:
            monitor.on_task_launched(scheduler, 0)
        assert info.value.violation.invariant == "scheduler.registry"
        assert "pool view" in str(info.value)

    def test_out_of_bounds_pool_view_raises(self):
        monitor, ctx = self._bound_monitor()
        ctx.scheduler._pool_view[1] = 10_000
        with pytest.raises(InvariantViolationError):
            monitor.on_pool_view_update(ctx.scheduler, 1)

    def test_negative_running_count_raises(self):
        monitor, ctx = self._bound_monitor()
        executor = ctx.executors[0]
        executor.running = -1
        with pytest.raises(InvariantViolationError) as info:
            monitor.on_executor_cleanup(executor)
        assert "negative" in str(info.value)

    def test_quiescence_divergence_raises(self):
        monitor, ctx = self._bound_monitor()
        scheduler = ctx.scheduler

        class _FakeStage:
            stage_id = 7
            num_tasks = 0

        class _FakeRun:
            stage = _FakeStage()
            completed_partitions = set()

        for executor in ctx.executors:
            scheduler._pool_view[executor.executor_id] = executor.pool_size
            scheduler._assigned[executor.executor_id] = 0
        # Desynchronise: the driver believes a pool size reality disagrees
        # with.
        scheduler._pool_view[0] = ctx.executors[0].pool_size - 1
        with pytest.raises(InvariantViolationError) as info:
            monitor.on_stage_quiescent(scheduler, _FakeRun())
        assert info.value.violation.invariant == "scheduler.registry"
        assert "free-core registry" in str(info.value)

    def test_illegal_mapek_decision_raises(self):
        from repro.adaptive.mapek import Decision, KnowledgeBase

        monitor, ctx = self._bound_monitor()

        class _FakeExecutor:
            executor_id = 0

        class _FakeStage:
            stage_id = 0

        class _FakeLoop:
            knowledge = KnowledgeBase(cmin=2, cmax=8, current_threads=2)
            executor = _FakeExecutor()
            stage = _FakeStage()

        with pytest.raises(InvariantViolationError) as info:
            # A climb from 2 threads must land on 4, not 8.
            monitor.on_mapek_decision(
                _FakeLoop(), Decision(threads=8, settled=False,
                                      reason="climb")
            )
        assert info.value.violation.invariant == "mapek.transition"

    def test_mapek_bounds_violation_raises(self):
        from repro.adaptive.mapek import Decision, KnowledgeBase

        monitor, ctx = self._bound_monitor()

        class _FakeLoop:
            knowledge = KnowledgeBase(cmin=2, cmax=8, current_threads=8)

            class executor:
                executor_id = 0

            class stage:
                stage_id = 0

        with pytest.raises(InvariantViolationError) as info:
            monitor.on_mapek_decision(
                _FakeLoop(), Decision(threads=16, settled=True,
                                      reason="reached-cmax")
            )
        assert info.value.violation.invariant == "mapek.bounds"

    def test_log_mode_keeps_going(self, capsys):
        monitor, ctx = self._bound_monitor(mode="log")
        executor = ctx.executors[0]
        executor.running = -1
        monitor.on_executor_cleanup(executor)  # no raise
        assert len(monitor.report.violations) == 1
        assert "invariant violation" in capsys.readouterr().err

    def test_collect_mode_is_silent(self, capsys):
        monitor, ctx = self._bound_monitor(mode="collect")
        executor = ctx.executors[0]
        executor.running = -1
        monitor.on_executor_cleanup(executor)
        assert not monitor.report.ok
        assert capsys.readouterr().err == ""

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            InvariantMonitor(mode="explode")


class TestMonotonicGuard:
    def test_backwards_event_caught_by_run(self):
        # Every dispatch checks the clock; no monitor or flag is needed.
        sim = Simulator()
        sim.call_in(5.0, lambda: None)
        sim.run()
        heapq.heappush(sim._queue, (1.0, 10_000, None, None))
        with pytest.raises(SimulationError, match="backwards"):
            sim.run()


    @pytest.mark.parametrize("monitored", [False, True],
                             ids=["plain", "monitored"])
    def test_built_context_catches_backwards_entry(self, monitored):
        # The guard belongs to the run loop, so a context built with or
        # without an invariant monitor has it.
        from repro.harness.runner import build_context

        ctx = build_context(policy="default", num_nodes=2, seed=42,
                            invariants=InvariantMonitor() if monitored else None)
        assert (ctx.invariants is not None) is monitored
        ctx.sim.call_in(5.0, lambda: None)
        ctx.sim.run()
        heapq.heappush(ctx.sim._queue, (1.0, 10_000, None, ()))
        with pytest.raises(SimulationError, match="backwards"):
            ctx.sim.run()

class TestViolationRendering:
    def test_render_includes_context(self):
        violation = Violation(
            invariant="scheduler.registry", message="registry diverged",
            ts=12.5, context={"executor_id": 3, "pool_view": 8},
        )
        rendered = violation.render()
        assert "scheduler.registry" in rendered
        assert "t=12.500" in rendered
        assert "executor_id=3" in rendered
