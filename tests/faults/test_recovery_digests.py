"""Fault paths pinned byte for byte: 5 workloads x 5 fault scenarios.

Each case runs a catalog workload at scale 0.02 (seed 42, the CLI's
default 4 x 32-core cluster) under one engine fault plan and records the
simulated runtime (``float.hex``) and the SHA-256 of its event log,
metrics snapshot included.  The expected values were recorded before the
task scheduler's recovery bookkeeping was merged into its stage
bookkeeping; any change to retry, recomputation, speculation or loss
handling that moves a single queue entry or float shows up here.

The scenarios are the fault regimes lineage recovery meets:

* ``executor-loss`` -- one executor dies, its node's map outputs go;
* ``crash-rate`` -- seeded random crashes plus a node loss;
* ``attempt1`` -- a node loss plus a crash aimed at attempt 1 of every
  partition of the recomputed stage, so recovery attempts (which number
  from 1) crash and are re-planned;
* ``straggler-spec`` -- a straggling node with speculation on, plus a
  node loss;
* ``two-losses`` -- two node losses in different stages.

Loss times sit in stages where lineage recovery has to recompute lost
outputs of an earlier stage.
"""

import hashlib

import pytest

from repro.faults import (
    ExecutorLoss,
    FaultPlan,
    NodeLoss,
    SpeculationConfig,
    Straggler,
    TaskCrash,
    TaskCrashRate,
)
from repro.harness.runner import finish_trace, run_workload
from repro.observability.history import load_events
from repro.observability.sinks import JsonLinesSink
from repro.observability.tracer import Tracer

SCALE = 0.02

#: workload -> (ordinal of the stage that recovery recomputes, its task
#: count, the straggler's start and the first of two losses, and per
#: scenario the time of the loss that forces recovery).  Each time falls
#: in a stage that reads the recomputed stage's outputs, on the timeline
#: the scenario's earlier faults leave.
WORKLOADS = {
    "aggregation": (0, 655, 5.0, {"executor-loss": 10.5, "crash-rate": 10.3,
                                  "attempt1": 10.5, "straggler-spec": 12.0,
                                  "two-losses": 12.6}),
    "join": (0, 655, 3.0, {"executor-loss": 6.8, "crash-rate": 6.8,
                           "attempt1": 6.8, "straggler-spec": 7.4,
                           "two-losses": 8.1}),
    "pagerank": (0, 128, 2.0, {"executor-loss": 5.0, "crash-rate": 5.0,
                               "attempt1": 5.0, "straggler-spec": 15.0,
                               "two-losses": 7.0}),
    "terasort": (1, 20, 12.0, {"executor-loss": 25.0, "crash-rate": 40.0,
                               "attempt1": 25.0, "straggler-spec": 40.0,
                               "two-losses": 35.0}),
    "wordcount": (0, 6, 5.0, {"executor-loss": 10.7, "crash-rate": 10.7,
                              "attempt1": 10.7, "straggler-spec": 23.6,
                              "two-losses": 15.8}),
}


def case_plan(workload: str, scenario: str) -> FaultPlan:
    ordinal, num_tasks, early, loss_at = WORKLOADS[workload]
    at = loss_at[scenario]
    if scenario == "executor-loss":
        return FaultPlan(executor_losses=[ExecutorLoss(1, at)])
    if scenario == "crash-rate":
        return FaultPlan(seed=7, crash_rate=TaskCrashRate(0.05, 8),
                         node_losses=[NodeLoss(2, at)])
    if scenario == "attempt1":
        return FaultPlan(
            node_losses=[NodeLoss(1, at)],
            task_crashes=[TaskCrash(ordinal, p, 1, 0.5)
                          for p in range(num_tasks)])
    if scenario == "straggler-spec":
        return FaultPlan(
            stragglers=[Straggler(3, early, 20.0, 0.3, 0.3)],
            speculation=SpeculationConfig(True, 1.5, 0.5),
            node_losses=[NodeLoss(1, at)])
    if scenario == "two-losses":
        return FaultPlan(node_losses=[NodeLoss(1, early), NodeLoss(2, at)])
    raise ValueError(scenario)


SCENARIOS = ("executor-loss", "crash-rate", "attempt1", "straggler-spec",
             "two-losses")

#: (workload, scenario) -> (runtime float.hex, event-log SHA-256).
EXPECTED = {
    ('aggregation', 'executor-loss'): ('0x1.e41ca9c51c77fp+3',
        '2363fce9cccf6211a56e702bd823aba778d7875d2e27f17ffafab2a4e1256a03'),
    ('aggregation', 'crash-rate'): ('0x1.e73ab4c89ae4ep+3',
        '4ae1e58b8d09cccc61ebcbcca8481948f4d950d31474ec80dd564f946a227e80'),
    ('aggregation', 'attempt1'): ('0x1.0009e13d41e94p+4',
        '6ea812b1c7dda34c1928cef31f1f27c33f8fe8d3fc01b138855cc87f9940a98c'),
    ('aggregation', 'straggler-spec'): ('0x1.83265012b1dcdp+4',
        'ee8e5d33cd152ae8a87ce28b10421c66b03a9b7d75ff09ea3aec7f69b7467780'),
    ('aggregation', 'two-losses'): ('0x1.53414b8995202p+4',
        '91a45020d4a7283743d8fad6093f7df6878be5ce23bdbcf6a99bfe844afe551c'),
    ('join', 'executor-loss'): ('0x1.468745b789e39p+3',
        'ee9252dd067d3ac35bdbd764062f36fae5d9e0fd2e1f2375e7ac813736dc1702'),
    ('join', 'crash-rate'): ('0x1.496119eb83456p+3',
        'a56e80cf495d58d8dc07b025814617c841d1b905ade4439eb42681092c7c8614'),
    ('join', 'attempt1'): ('0x1.569041fc7bab4p+3',
        '66ad9e2ad2eea755df0b2d69c816c808af783cbdcbdb92ca68a3cfa10c30f9d9'),
    ('join', 'straggler-spec'): ('0x1.b1d112aadb533p+3',
        '92ca5aed9c5dcfebf372bb1a6d5d4208376b6b5655eb78b85518fd2ccd0c17ba'),
    ('join', 'two-losses'): ('0x1.bb738e0199c23p+3',
        '2e532524d18f32b5339321fa13e84d8cb6a7e0d5312309ebd5e975699b8eedef'),
    ('pagerank', 'executor-loss'): ('0x1.147bd32b28a8ap+5',
        'd017c68e4b47216c5216df5153ac5054306c7d168459cd9742124081c69ab1e1'),
    ('pagerank', 'crash-rate'): ('0x1.2449d8214ce84p+5',
        '176866bcdaa9af490e4929c7019425407d3ac7f4dac0703c16850fcb1942a9c1'),
    ('pagerank', 'attempt1'): ('0x1.3f06d6b1c4515p+5',
        '7b5620f374cecff26574f5604af8da2797b4dc9e322c9ddf1fb32254ee0aa46f'),
    ('pagerank', 'straggler-spec'): ('0x1.a23e4ad349216p+5',
        '691fa6c0553350cf4e09d40fa5146c3c17efe168202432592e7c4a0d38525664'),
    ('pagerank', 'two-losses'): ('0x1.49e33d878e250p+5',
        '66efb27965101c6f017af84e9c6d079bf4c68c5757d125672fa5179eb3b3dbcb'),
    ('terasort', 'executor-loss'): ('0x1.b51f8c15f0c55p+5',
        '7eec2ddb77a349e85124a0254b8a2efd77f9c94c9f56eab188fb481f03fc38b4'),
    ('terasort', 'crash-rate'): ('0x1.1367e62eecf28p+6',
        'edbe14ecb0c1281bd247c367d7be1ebbb815bf765a8b9acd0b517202a940fe23'),
    ('terasort', 'attempt1'): ('0x1.09d8ef4fba4fcp+6',
        'b196cffc98d1836922721ff54fcabb30e0f30a4be602ce0f835a1a9937882b5d'),
    ('terasort', 'straggler-spec'): ('0x1.16c64dbd2ff55p+6',
        'f4ba8e0b455cad10a80601e9034e7cb7b2d368fbb3f623b5cd8ddc9b91aab42c'),
    ('terasort', 'two-losses'): ('0x1.25a18ffb5097cp+6',
        'bc5958830723b962a34ef4f16cf194d764485b17ec474dc92a0a1e93b7f28e33'),
    ('wordcount', 'executor-loss'): ('0x1.5a5a8d8b5fc51p+4',
        '5640b87c57f374a04a3e24a0a7a1aedd25a2aef2cc32136316928c8293ccd776'),
    ('wordcount', 'crash-rate'): ('0x1.5af66485d31b7p+4',
        'a7d8bcf922fed6ce38a35d0b3919a11aa9ce2b03a895bad60fb3f0cb3613fc4c'),
    ('wordcount', 'attempt1'): ('0x1.b0df550477943p+4',
        '2eb87ccc17d8e7d2b870c6c99e39086227ee8029e283ffa7e55e5bdbc996ba44'),
    ('wordcount', 'straggler-spec'): ('0x1.14662eed56fcdp+5',
        '69f91329854d1ee811929566338d9fb20b3d596a1b977c8e2de82a5a48e68a6d'),
    ('wordcount', 'two-losses'): ('0x1.aebc8aa3f7cf7p+4',
        '38912a45bdbf70ef10aa3d49ea8bfa99a0eb63d7cfb6e4e112d48b0bdc273418'),
}


def run_case(workload: str, plan: FaultPlan, log_path: str):
    """Run one case with an event log; returns ``(run, log bytes)``."""
    tracer = Tracer(sinks=[JsonLinesSink(log_path)])
    run = run_workload(workload, workload_kwargs={"scale": SCALE}, seed=42,
                       fault_plan=plan, tracer=tracer)
    finish_trace(run)
    with open(log_path, "rb") as handle:
        return run, handle.read()


def recovery_crashes(events):
    """``task-crash`` events of recomputed partitions: crashes inside a
    recovery span of a stage other than the one running."""
    running = None
    recovery_span = None
    crashes = []
    for event in events:
        if event.cat == "stage" and event.kind == "B":
            running = event.args["stage_id"]
        elif event.cat == "recovery" and event.kind == "B":
            recovery_span = event.span
        elif event.kind == "E" and event.span == recovery_span:
            recovery_span = None
        elif (event.name == "task-crash" and recovery_span is not None
              and event.args["stage_id"] != running):
            crashes.append(event)
    return crashes


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_fault_run_is_byte_identical(workload, scenario, tmp_path):
    path = str(tmp_path / "events.jsonl")
    run, log = run_case(workload, case_plan(workload, scenario), path)
    assert (run.runtime.hex(), hashlib.sha256(log).hexdigest()) == \
        EXPECTED[(workload, scenario)]
    metrics = run.ctx.metrics
    recomputed = metrics.counter("faults.recomputed_partitions").value
    assert metrics.counter("faults.recovery_tasks").value >= recomputed > 0
    if scenario == "attempt1":
        # Recovery attempts number from 1: the plan really crashes a
        # recomputation, and the run still completes.
        crashes = recovery_crashes(load_events(path))
        assert crashes
        assert all(event.args["attempt"] >= 1 for event in crashes)


#: ``(runtime float.hex, event-log SHA-256)`` of the case below, recorded
#: like ``EXPECTED``.
RELAUNCH = ("0x1.2698fc258b609p+6",
            "01a5f464a49e6d651b2901c5ed7f3edf8ea147501f75698dda9217311bcb1a9e")


def test_recomputations_lost_again_relaunch_in_last_launch_order(tmp_path):
    """SVM: an executor loss starts a recovery, a node loss kills some of
    its relaunched recomputations and a later one kills more.  Lost
    recomputations are queued again in the order they were last launched,
    and lost stage attempts in the order their partitions first launched;
    the run is pinned like the matrix above."""
    plan = FaultPlan(seed=50, executor_losses=[ExecutorLoss(1, 19.354)],
                     node_losses=[NodeLoss(2, 22.17), NodeLoss(3, 32.773)])
    run, log = run_case("svm", plan, str(tmp_path / "events.jsonl"))
    assert (run.runtime.hex(), hashlib.sha256(log).hexdigest()) == RELAUNCH
