"""Differential tests: continuation task attempts vs the generator body.

``reference_executor.py`` keeps the executor's generator task body: one
``Process`` per attempt, an ``Event`` per CPU burst or I/O chunk and an
``AllOf`` over multi-request chunks.  The production executor drives each
attempt from its requests' completion hooks instead and must reproduce the
reference exactly: byte-identical event logs (spans, counters and the
trailing metrics snapshot included), equal run results and equal metric
registries.  The one allowed difference is the kernel's queue count: each
reference task process pushes a completion event that nothing waits on, so
``events_scheduled`` must be lower by exactly one per started attempt (a
launch that arrives after the driver killed it starts nothing).  Every
span a run opens must also be closed by the time its job ends.

The hypothesis storm draws fault plans mixing task crashes, crash rates,
executor and node loss, disk degradation, stragglers and speculation; its
budget comes from the active profile::

    python -m pytest tests/engine/test_executor_differential.py \\
        --hypothesis-profile=kernel-ci
"""

import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cli import main
from repro.engine.executor import Executor
from repro.engine.scheduler import JobAbortedError
from repro.faults import (
    DiskDegrade,
    ExecutorLoss,
    FaultPlan,
    NodeLoss,
    SpeculationConfig,
    Straggler,
    TaskCrash,
    TaskCrashRate,
)
from repro.harness.parallel import summarize_run, summary_to_doc
from repro.harness.runner import build_context, finish_trace
from repro.observability.events import TraceEvent
from repro.observability.history import reconstruct
from repro.observability.sinks import JsonLinesSink
from repro.observability.tracer import Tracer
from repro.workloads import get_workload
from tests.engine.reference_executor import ReferenceExecutor, install

REPO_ROOT = Path(__file__).resolve().parents[2]
NODES = 3
#: The fault-free storm run takes about 32 simulated seconds; fault times
#: are drawn over a longer window so some land after the job.
HORIZON = 40.0


class _Launches:
    """Counts the attempts an executor class starts during one run: the
    launches that arrive and register a live attempt, so not the ones the
    driver cancelled in flight."""

    def __init__(self, monkeypatch, executor_class):
        self.count = 0
        launch = executor_class.launch_task

        def counting(executor, message):
            before = executor.running
            launch(executor, message)
            self.count += executor.running - before

        monkeypatch.setattr(executor_class, "launch_task", counting)


def _open_spans(log):
    """Spans the event log begins and never ends, counted per category
    (what ``repro history`` warns about)."""
    docs = [json.loads(line) for line in log.splitlines()[1:]]  # no meta
    return reconstruct(TraceEvent.from_json(doc) for doc in docs).open_spans


def _storm_run(plan, policy, reference, replication=None):
    """One traced terasort run: everything the two executors must agree on.
    ``replication`` (default: every node) sets the input's DFS replicas."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        if reference:
            install(monkeypatch)
        launches = _Launches(monkeypatch,
                             ReferenceExecutor if reference else Executor)
        stream = io.StringIO()
        ctx = build_context(policy=policy,
                            tracer=Tracer(sinks=[JsonLinesSink(stream)]),
                            fault_plan=plan, num_nodes=NODES, cores=8)
        if replication is not None:
            ctx.dfs.replication = replication
        try:
            run = get_workload("terasort", scale=0.01).run(ctx)
        except JobAbortedError as exc:
            outcome = repr(exc)
            ctx.tracer.close()
        else:
            outcome = summary_to_doc(summarize_run(run, "storm"))
            finish_trace(run)
    return {
        "log": stream.getvalue(),
        "outcome": outcome,
        "registry": ctx.metrics.snapshot(),
        "now": ctx.sim.now,
        "events": ctx.sim.events_scheduled,
        "launches": launches.count,
    }


def plans():
    times = st.floats(0.0, HORIZON)
    return st.builds(
        FaultPlan,
        seed=st.integers(0, 2**16),
        task_crashes=st.lists(
            st.builds(TaskCrash,
                      stage_ordinal=st.integers(0, 1),
                      partition=st.integers(0, 7),
                      attempt=st.integers(0, 1),
                      at_fraction=st.floats(0.0, 1.0)),
            max_size=3,
            unique_by=lambda c: (c.stage_ordinal, c.partition, c.attempt),
        ),
        crash_rate=st.none() | st.builds(
            TaskCrashRate, probability=st.floats(0.0, 0.3),
            max_crashes=st.integers(0, 3)),
        executor_losses=st.lists(
            st.builds(ExecutorLoss, executor_id=st.integers(0, NODES - 1),
                      at=times),
            max_size=1),
        node_losses=st.lists(
            st.builds(NodeLoss, node_id=st.integers(0, NODES - 1), at=times),
            max_size=1),
        disk_degradations=st.lists(
            st.builds(DiskDegrade, node_id=st.integers(0, NODES - 1),
                      at=times, duration=st.floats(0.5, 20.0),
                      factor=st.floats(0.1, 2.0)),
            max_size=2),
        # Slow nodes give speculation twins to launch, win and kill.
        stragglers=st.lists(
            st.builds(Straggler, node_id=st.integers(0, NODES - 1), at=times,
                      duration=st.floats(5.0, 40.0),
                      cpu_factor=st.floats(0.1, 0.6),
                      disk_factor=st.floats(0.1, 0.6)),
            max_size=2),
        speculation=st.none() | st.builds(
            SpeculationConfig, enabled=st.just(True),
            multiplier=st.floats(1.2, 2.0), quantile=st.floats(0.3, 0.9)),
    )


POLICIES = st.sampled_from(["default", ("static", 2), "dynamic"])


def assert_executors_agree(plan, policy):
    fresh = _storm_run(plan, policy, reference=False)
    old = _storm_run(plan, policy, reference=True)
    assert fresh["log"] == old["log"]
    assert fresh["outcome"] == old["outcome"]
    assert fresh["registry"] == old["registry"]
    assert fresh["now"] == old["now"]
    assert fresh["launches"] == old["launches"]
    assert old["events"] - fresh["events"] == fresh["launches"]
    assert _open_spans(fresh["log"]) == {}
    return fresh


class TestFaultStorms:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(plan=plans(), policy=POLICIES)
    def test_continuations_match_generator_body(self, plan, policy):
        assert_executors_agree(plan, policy)


class TestKillBeforeLaunch:
    """A speculative twin's launch is still in flight on the control
    channel when the original wins and the driver kills the twin; the
    launch must be dropped on arrival, not run untracked past the job's
    end with its spans open.  Plans and policies found by the storm above."""

    CASES = [
        (("static", 2), FaultPlan(
            seed=41,
            task_crashes=[TaskCrash(0, 0, 0, at_fraction=0.0)],
            crash_rate=TaskCrashRate(0.24697506240719722, 1),
            disk_degradations=[
                DiskDegrade(2, 9.715362621393819, 1.1, 0.3333333333333333),
                DiskDegrade(2, 35.20007425779536, 1.0960398731639738,
                            1.46875),
            ],
            stragglers=[Straggler(1, 18.0, 33.0, 0.5453816507621255,
                                  0.560546875)],
            speculation=SpeculationConfig(True, 1.5, 0.5),
        )),
        ("default", FaultPlan(
            seed=0,
            disk_degradations=[DiskDegrade(0, 12.414134339094806,
                                           0.9901437463805292,
                                           0.6889592021216044)],
            stragglers=[
                Straggler(0, 2.0, 18.56, 0.14621028969650898,
                          0.36590810882026137),
                Straggler(1, 20.056640625, 20.0, 0.1, 0.5),
            ],
            speculation=SpeculationConfig(True, 1.5, 0.75),
        )),
    ]

    @pytest.mark.parametrize("policy, plan", CASES)
    def test_cancelled_launch_is_dropped_by_both_executors(self, policy,
                                                           plan):
        fresh = assert_executors_agree(plan, policy)
        sent = fresh["registry"]["scheduler.tasks_launched"]["value"]
        # Exactly one launch arrived cancelled and started nothing.
        assert fresh["launches"] == sent - 1


class TestLostInput:
    """Attempts that find every replica of their input gone fail before
    their first chunk; both executors end the task span as crashed."""

    @pytest.mark.parametrize("policy", ["default", "dynamic"])
    def test_input_data_lost_matches_generator_body(self, policy):
        plan = FaultPlan(node_losses=[NodeLoss(node_id=0, at=0.5)])
        fresh = _storm_run(plan, policy, reference=False, replication=1)
        old = _storm_run(plan, policy, reference=True, replication=1)
        assert '"reason":"input-data-lost"' in fresh["log"]
        assert fresh["log"] == old["log"]
        assert fresh["outcome"] == old["outcome"]
        assert fresh["registry"] == old["registry"]


class TestSecondLossDuringRecovery:
    """A map output that a recovery wave recomputed and that is lost again
    before the wave ends is recomputed once more, not left missing."""

    def test_twice_lost_outputs_are_recomputed(self):
        plan = FaultPlan(
            node_losses=[NodeLoss(node_id=1, at=21.0)],
            executor_losses=[ExecutorLoss(executor_id=0,
                                          at=34.9718045825842)],
            task_crashes=[TaskCrash(stage_ordinal=1, partition=4, attempt=1,
                                    at_fraction=0.08)],
        )
        fresh = _storm_run(plan, "default", reference=False)
        old = _storm_run(plan, "default", reference=True)
        assert isinstance(fresh["outcome"], dict)  # the job completed
        recomputed = fresh["registry"]["faults.recomputed_partitions"]
        assert recomputed["value"] == 3 + 6  # maps 1 and 7 twice
        assert fresh["log"] == old["log"]
        assert fresh["registry"] == old["registry"]


class TestEndToEnd:
    """Whole CLI runs with the reference executor swapped in."""

    def _events(self, tmp_path, extra):
        out = tmp_path / "events.jsonl"
        assert main(["run", "terasort", "--scale", "0.05", "--seed", "42",
                     "--events", str(out)] + extra) == 0
        return out.read_bytes()

    def test_reference_event_log_bit_identical(self, tmp_path, capsys,
                                               monkeypatch):
        # Pins the reference to the committed golden log, so the storms
        # compare against the task body the goldens saw.
        install(monkeypatch)
        golden = REPO_ROOT / "tests" / "golden" / "terasort_s005_seed42.jsonl"
        assert self._events(tmp_path, []) == golden.read_bytes()

    def test_reference_node_loss_bit_identical(self, tmp_path, capsys,
                                               monkeypatch):
        install(monkeypatch)
        plan = REPO_ROOT / "examples" / "faults" / "node-loss.json"
        golden = (REPO_ROOT / "tests" / "golden"
                  / "terasort_s005_seed42_nodeloss.jsonl")
        assert (self._events(tmp_path, ["--faults", str(plan)])
                == golden.read_bytes())

    def test_run_results_identical_to_reference(self, capsys, monkeypatch):
        argv = ["run", "pagerank", "--scale", "0.02", "--nodes", "2",
                "--cores", "4", "--policy", "dynamic", "--json"]
        assert main(argv) == 0
        fresh = capsys.readouterr().out
        install(monkeypatch)
        assert main(argv) == 0
        assert capsys.readouterr().out == fresh
