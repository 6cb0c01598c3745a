"""Kernel throughput gate: three bare-kernel programs against smoke floors.

End-to-end speed (the Fig. 8 matrix, sweeps, what-if ensembles, the
service loop) is measured by the repository benchmark, ``bench/run.py``.
What it has no counterpart for is the event loop and fair-share
resources in isolation, so these three programs stay here:

* ``kernel_terasort`` -- terasort-shaped resource churn: many concurrent
  streams on per-node disks and CPUs, with control-plane messages over a
  :class:`~repro.simulation.resources.LatencyChannel`;
* ``kernel_fairshare`` -- deep fair-share queues with membership churn;
* ``kernel_storm`` -- raw timeout dispatch, including zero-delay storms.

Each is timed best-of-3 in *events per wall-clock second* and must stay
within ``TOLERANCE`` of its floor in ``baseline.json`` (a per-program
minimum over six smoke runs on the reference host).  An entry below its
floor is measured once more -- only that entry -- before the gate fails:
a real slowdown reproduces, a scheduler-noise spike does not.

Not part of the tier-1 run (pytest's ``testpaths`` stops at ``tests/``)::

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

import json
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

import pytest

from repro.simulation.core import Simulator
from repro.simulation.resources import CpuResource, LatencyChannel
from repro.storage.device import HDD_PROFILE, MiB, StorageDevice

BASELINE = os.path.join(os.path.dirname(__file__), "baseline.json")

#: Allowed fractional drop below a floor.
TOLERANCE = 0.25


def _timed(fn: Callable[[], int], repeats: int) -> Tuple[int, float]:
    """Run ``fn`` (returning an event count) ``repeats`` times; best wall."""
    best_wall = float("inf")
    events = 0
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        events = fn()
        wall = time.perf_counter() - start
        best_wall = min(best_wall, wall)
    return events, best_wall


# -- the kernel programs ---------------------------------------------------


def _terasort_kernel_run(num_nodes: int, tasks_per_node: int,
                         waves: int) -> int:
    """A terasort-shaped program against the bare kernel.

    Each wave launches one task per virtual thread on every node; a task
    reads three input chunks from its node disk, burns CPU, writes two
    spill chunks, and reports completion over the control channel.  Chunk
    sizes carry the deterministic +/-25% per-task skew real partitioned
    inputs have, so completions spread out in time and every advance
    re-prices a deep fair-share queue -- the event mix of terasort's I/O
    stages at the top of the thread ladder, without the engine layers, so
    it isolates exactly the fair-share kernel's paths.
    """
    sim = Simulator()
    nodes = [
        (CpuResource(sim, f"cpu{i}", cores=tasks_per_node),
         StorageDevice(sim, f"disk{i}", HDD_PROFILE))
        for i in range(num_nodes)
    ]
    channel = LatencyChannel(sim, latency=0.001)
    completions: List[int] = []

    def task(index: int, cpu: CpuResource, disk: StorageDevice):
        # Knuth-hash skew: deterministic, evenly spread in [0.75, 1.25).
        scale = 0.75 + 0.5 * ((index * 2654435761 % 1024) / 1024.0)
        for _ in range(3):
            yield disk.request(scale * 32 * MiB, "read")
        yield cpu.submit(scale * 2.0, tag="cpu").event
        for _ in range(2):
            yield disk.request(scale * 24 * MiB, "write")
        channel.send(completions.append, 1)

    def driver():
        index = 0
        for _wave in range(waves):
            procs = []
            for cpu, disk in nodes:
                for _ in range(tasks_per_node):
                    procs.append(
                        sim.process(task(index, cpu, disk), name="task")
                    )
                    index += 1
            yield sim.all_of(procs)

    sim.process(driver(), name="driver")
    sim.run()
    expected = num_nodes * tasks_per_node * waves
    if len(completions) != expected:
        raise RuntimeError(
            f"kernel bench lost tasks: {len(completions)}/{expected}"
        )
    return sim.events_scheduled


def _fairshare_churn_run(jobs: int, waves: int) -> int:
    """Deep fair-share queues with membership churn, isolated.

    ``jobs`` workers pile onto one massively oversubscribed CPU; submits
    are staggered (every 16th worker arrives after a small timeout) so the
    resource repeatedly prices partial advances over a deep queue, and
    each worker re-submits ``waves`` times so completions interleave with
    arrivals.  Distinct per-worker works spread completions out -- the
    worst case for ``_advance``/``_reschedule``/``_on_wake``.
    """
    sim = Simulator()
    cpu = CpuResource(sim, "cpu", cores=8)
    completions: List[int] = []

    def worker(index: int):
        work = 1.0 + 0.001 * ((index * 7919) % 97)
        tag = "spill" if index % 2 else "shuffle"
        for _ in range(waves):
            yield cpu.submit(work, tag=tag).event
        completions.append(index)

    def driver():
        for index in range(jobs):
            sim.process(worker(index), name="worker")
            if index % 16 == 15:
                yield sim.timeout(0.0005)

    sim.process(driver(), name="driver")
    sim.run()
    if len(completions) != jobs:
        raise RuntimeError(
            f"fairshare bench lost workers: {len(completions)}/{jobs}"
        )
    return sim.events_scheduled


def _storm_run(processes: int, hops: int) -> int:
    """Raw dispatch: timeout ping-pong including zero-delay storms."""
    sim = Simulator()

    def pinger(index: int):
        delay = 0.0001 * (index % 5)  # every 5th process is a zero-delay storm
        for _ in range(hops):
            yield sim.timeout(delay)

    for index in range(processes):
        sim.process(pinger(index), name="pinger")
    sim.run()
    return sim.events_scheduled


#: name -> the smoke-sized program behind each floor.  The terasort program
#: runs multi-wave at 64 tasks per node so a best-of-3 wall is well above
#: preemption noise; the floors were measured at exactly these sizes.
KERNELS: Dict[str, Callable[[], int]] = {
    "kernel_terasort": lambda: _terasort_kernel_run(
        num_nodes=4, tasks_per_node=64, waves=2),
    "kernel_fairshare": lambda: _fairshare_churn_run(jobs=256, waves=2),
    "kernel_storm": lambda: _storm_run(processes=100, hops=200),
}


def measure(name: str) -> float:
    """Best-of-3 events per wall-clock second of one kernel program."""
    events, wall = _timed(KERNELS[name], repeats=3)
    return events / wall


def check_floor(name: str, floor: float,
                measure_rate: Callable[[], float]) -> Optional[str]:
    """None if ``name`` meets ``floor``, else a one-line failure.

    A first reading below the floor is re-measured once, so one noisy
    pass does not fail the gate while a real slowdown still does.
    """
    for _attempt in range(2):
        rate = measure_rate()
        drop = 1.0 - rate / floor
        if drop <= TOLERANCE:
            return None
    return (f"{name}: {rate:,.0f} events/s is {drop:.0%} below floor "
            f"{floor:,.0f} (tolerance {TOLERANCE:.0%})")


def _floors() -> Dict[str, float]:
    with open(BASELINE, encoding="utf-8") as handle:
        doc = json.load(handle)
    return {name: entry["events_per_sec"]
            for name, entry in doc["benchmarks"].items()}


# -- the gate --------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_rate_meets_floor(name):
    failure = check_floor(name, _floors()[name], lambda: measure(name))
    assert failure is None, failure


def test_baseline_has_one_floor_per_kernel():
    floors = _floors()
    assert set(floors) == set(KERNELS)
    assert all(value > 0 for value in floors.values())


def test_gate_fails_on_a_doctored_floor():
    rate = measure("kernel_storm")
    failure = check_floor("kernel_storm", 2.0 * rate, lambda: rate)
    assert failure is not None and "kernel_storm" in failure


def test_only_a_failing_reading_is_measured_again():
    readings = {"steady": [100.0], "blip": [10.0, 100.0],
                "slow": [10.0, 10.0]}
    calls = {name: 0 for name in readings}

    def reader(name):
        def read():
            calls[name] += 1
            return readings[name][calls[name] - 1]
        return read

    results = {name: check_floor(name, 100.0, reader(name))
               for name in readings}
    assert calls == {"steady": 1, "blip": 2, "slow": 2}
    assert results["steady"] is None and results["blip"] is None
    assert "90% below floor" in results["slow"]


# -- the programs themselves -----------------------------------------------


def test_terasort_kernel_run_counts_events():
    events = _terasort_kernel_run(num_nodes=2, tasks_per_node=4, waves=2)
    # Lower bound: every task needs >= 6 I/O + 1 CPU + 1 message, each
    # at least one queue entry, plus process bootstraps.
    assert events > 2 * 4 * 2 * 8


def test_storm_run_counts_events():
    events = _storm_run(processes=10, hops=5)
    # Each hop is one timeout + one resume bookkeeping entry at minimum.
    assert events >= 10 * 5


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_programs_are_deterministic(name):
    assert KERNELS[name]() == KERNELS[name]()


def test_timed_returns_best_of_n():
    calls = []

    def fake():
        calls.append(1)
        return 42

    events, wall = _timed(fake, repeats=3)
    assert events == 42
    assert len(calls) == 3
    assert wall >= 0.0
