"""A finished run frees itself by reference counting.

The function that builds a :class:`SparkContext` stops it once the
workload returns, and no engine component holds a reference cycle through
the context.  With the cyclic collector disabled, dropping the last
reference to a run must therefore free the context and every engine part
hanging off it; a leftover cycle would pin the whole run (megabytes at
benchmark scale) until the next full collection.
"""

import gc
import weakref

import pytest

import repro.adaptive.policies as adaptive_policies
from repro.adaptive.mapek import AdaptiveControlLoop
from repro.engine.context import SparkContext
from repro.faults.plan import FaultPlan, NodeLoss
from repro.harness.fork import Alternative, run_whatif
from repro.harness.parallel import RunConfig, build_run_tracer, map_runs
from repro.harness.runner import finish_trace, run_workload
from repro.harness.service import compute_runtimes
from repro.workloads.arrivals import ArrivalPlan, JobTemplate, TenantSpec
from repro.workloads.catalog import workload_names

SCALE = 0.01
POLICIES = {"default": "default", "static8": ("static", 8),
            "dynamic": "dynamic"}


def node_loss_plan():
    """One loss that fires mid-run and one whose timer is still queued
    when the run ends (a fault run stops at job end, not at a drained
    queue)."""
    return FaultPlan(node_losses=[NodeLoss(node_id=1, at=2.0),
                                  NodeLoss(node_id=2, at=1e9)])


@pytest.fixture
def no_cyclic_gc():
    """Only reference counting frees objects while the test runs."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture
def built_contexts(monkeypatch):
    """Weak references to every SparkContext built during the test."""
    refs = []
    original = SparkContext.__init__

    def tracking_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(SparkContext, "__init__", tracking_init)
    return refs


@pytest.fixture
def mapek_loops(monkeypatch):
    """Weak references to every MAPE-K loop built during the test."""
    refs = []

    class TrackedLoop(AdaptiveControlLoop):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(adaptive_policies, "AdaptiveControlLoop", TrackedLoop)
    return refs


def engine_refs(run):
    """Named weak references to the run's context and its engine parts."""
    ctx = run.ctx
    parts = {"SparkContext": ctx, "TaskScheduler": ctx.scheduler,
             "DAGScheduler": ctx.dag, "MonitoringService": ctx.monitoring}
    for executor in ctx.executors:
        parts[f"Executor {executor.executor_id}"] = executor
    if ctx.faults is not None:
        parts["FaultInjector"] = ctx.faults
    return {name: weakref.ref(part) for name, part in parts.items()}, \
        weakref.ref(ctx.sim)


def live(refs):
    return [name for name, ref in refs.items() if ref() is not None]


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("faults", [False, True], ids=["fault-free", "node-loss"])
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("workload", workload_names())
def test_dropped_run_is_freed_without_gc(workload, policy, faults, traced,
                                         tmp_path, no_cyclic_gc, mapek_loops):
    tracer = None
    if traced:
        tracer, _profiler = build_run_tracer(RunConfig(
            workload=workload, events_path=str(tmp_path / "events.jsonl"),
            profile_path=str(tmp_path / "profile.json")))
    run = run_workload(workload, policy=POLICIES[policy],
                       workload_kwargs={"scale": SCALE},
                       fault_plan=node_loss_plan() if faults else None,
                       tracer=tracer)
    assert run.ctx.stopped
    if traced:
        finish_trace(run)
    del tracer
    refs, sim = engine_refs(run)
    assert (len(mapek_loops) > 0) == (policy == "dynamic")
    del run
    assert live(refs) == []
    assert [ref for ref in mapek_loops if ref() is not None] == []
    # stop() detaches the tracer from the simulator and rebinds its clock
    # to the run's end, so a traced simulator dies here too.
    assert sim() is None


def test_caller_held_invariant_monitor_does_not_pin_the_run(no_cyclic_gc):
    from repro.validation import InvariantMonitor

    monitor = InvariantMonitor(mode="raise")
    run = run_workload("terasort", policy="dynamic",
                       workload_kwargs={"scale": SCALE},
                       fault_plan=node_loss_plan(), invariants=monitor)
    refs, sim = engine_refs(run)
    del run
    assert live(refs) == [] and sim() is None
    assert monitor.finish().ok


def arrivals_plan():
    return ArrivalPlan(tenants=(TenantSpec(
        name="t", process=("trace", (0.0, 1.0)),
        mix=(JobTemplate(workload="wordcount", scale=SCALE),),
    ),)).generate()


class TestHarnessLeavesNoContext:
    def test_map_runs_in_process(self, no_cyclic_gc, built_contexts):
        configs = [RunConfig(workload="wordcount", policy=("static", n), key=n,
                             workload_kwargs={"scale": SCALE})
                   for n in (4, 8)]
        summaries = map_runs(configs, 1)
        assert [summary.key for summary in summaries] == [4, 8]
        assert len(built_contexts) == 2
        assert [ref for ref in built_contexts if ref() is not None] == []

    def test_compute_runtimes_with_per_job_outputs(self, tmp_path,
                                                   no_cyclic_gc,
                                                   built_contexts):
        runtimes, distinct = compute_runtimes(
            arrivals_plan(), cores=8, device="hdd",
            events_path=str(tmp_path / "events.jsonl"))
        assert distinct == len(runtimes) == 2
        assert len(built_contexts) == 2
        assert [ref for ref in built_contexts if ref() is not None] == []

    def test_run_whatif_sequential(self, no_cyclic_gc, built_contexts):
        alternatives = [Alternative(key="continue", kind="continue"),
                        Alternative(key="pool=8", kind="pool", value=8)]
        report = run_whatif("terasort", at=5.0, alternatives=alternatives,
                            use_fork=False, workload_kwargs={"scale": SCALE})
        assert not report.forked
        assert len(built_contexts) == 2
        assert [ref for ref in built_contexts if ref() is not None] == []


class TestStoppedContext:
    def test_action_on_stopped_context_names_it(self):
        run = run_workload("wordcount", workload_kwargs={"scale": SCALE})
        ctx = run.ctx
        ctx.register_synthetic_file("/late", 1e6, num_records=1e3)
        rdd = ctx.text_file("/late", 2)
        with pytest.raises(RuntimeError, match="SparkContext was stopped"):
            rdd.count()

    def test_post_run_readers_keep_working(self):
        from repro.observability.metrics import collect_run_metrics

        run = run_workload("terasort", policy="dynamic",
                           workload_kwargs={"scale": SCALE},
                           fault_plan=node_loss_plan())
        assert run.ctx.stopped
        snapshot = collect_run_metrics(run.ctx)
        assert snapshot["run.simulated_seconds"]["value"] == run.runtime
        assert run.cluster_io_bytes > 0
        assert run.ctx.sim.events_scheduled > 0
        assert all(stage.duration > 0 for stage in run.stages)

    def test_stop_is_idempotent(self):
        run = run_workload("wordcount", workload_kwargs={"scale": SCALE})
        now = run.ctx.sim.now
        run.ctx.stop()
        assert run.ctx.stopped and run.ctx.sim.now == now
