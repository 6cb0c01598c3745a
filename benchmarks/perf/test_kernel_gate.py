"""Kernel throughput gate: three bare-kernel programs against smoke floors.

End-to-end speed (the Fig. 8 matrix, sweeps, what-if ensembles, the
service loop) is measured by the repository benchmark, ``bench/run.py``.
What it has no counterpart for is the event loop and fair-share
resources in isolation, so these three programs stay here:

* ``kernel_terasort`` -- terasort-shaped resource churn: many concurrent
  streams on per-node disks and CPUs, with control-plane messages over a
  :class:`~repro.simulation.resources.LatencyChannel`;
* ``kernel_fairshare`` -- deep fair-share queues with membership churn;
* ``kernel_storm`` -- raw ``call_in`` dispatch, including zero-delay storms.

The programs drive the kernel the way the engine does: continuations on
``call_in`` and on the resources' completion hooks.

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
    it isolates exactly the fair-share kernel's paths.  The next wave
    starts once every task of the current one has finished.
    """
    sim = Simulator()
    nodes = [
        (CpuResource(sim, f"cpu{i}", cores=tasks_per_node),
         StorageDevice(sim, f"disk{i}", HDD_PROFILE))
        for i in range(num_nodes)
    ]
    channel = LatencyChannel(sim, latency=0.001)
    completions: List[int] = []
    #: Every task's chunk walk: (kind, amount before skew).
    walk = ([("read", 32 * MiB)] * 3 + [("cpu", 2.0)]
            + [("write", 24 * MiB)] * 2)
    per_wave = num_nodes * tasks_per_node
    live = [0]

    def step(index: int, position: int) -> None:
        """Submit chunk ``position`` of task ``index``, or finish it."""
        if position == len(walk):
            channel.send(completions.append, 1)
            live[0] -= 1
            if not live[0]:
                sim.call_in(0.0, start_wave, index // per_wave + 1)
            return
        cpu, disk = nodes[(index // tasks_per_node) % num_nodes]
        # Knuth-hash skew: deterministic, evenly spread in [0.75, 1.25).
        scale = 0.75 + 0.5 * ((index * 2654435761 % 1024) / 1024.0)
        kind, amount = walk[position]

        def resume(_done) -> None:
            sim.call_in(0.0, step, index, position + 1)

        if kind == "cpu":
            cpu.submit(scale * amount, "cpu", resume)
        else:
            disk.request(scale * amount, kind, resume)

    def start_wave(wave: int) -> None:
        if wave == waves:
            return
        live[0] = per_wave
        for index in range(wave * per_wave, (wave + 1) * per_wave):
            sim.call_in(0.0, step, index, 0)

    sim.call_in(0.0, start_wave, 0)
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
    are staggered (every 16th worker arrives after a small delay) so the
    resource repeatedly prices partial advances over a deep queue, and
    each worker re-submits ``waves`` times so completions interleave with
    arrivals.  Distinct per-worker works spread completions out -- the
    worst case for ``_advance``/``_reschedule``/``_on_wake``.
    """
    sim = Simulator()
    cpu = CpuResource(sim, "cpu", cores=8)
    completions: List[int] = []

    def worker(index: int, left: int) -> None:
        """Submit the next of ``left`` bursts, or finish."""
        if not left:
            completions.append(index)
            return
        work = 1.0 + 0.001 * ((index * 7919) % 97)
        tag = "spill" if index % 2 else "shuffle"
        cpu.submit(work, tag,
                   lambda _job: sim.call_in(0.0, worker, index, left - 1))

    def drive(first: int) -> None:
        for index in range(first, jobs):
            sim.call_in(0.0, worker, index, waves)
            if index % 16 == 15:
                sim.call_in(0.0005, drive, index + 1)
                return

    sim.call_in(0.0, drive, 0)
    sim.run()
    if len(completions) != jobs:
        raise RuntimeError(
            f"fairshare bench lost workers: {len(completions)}/{jobs}"
        )
    return sim.events_scheduled


def _storm_run(chains: int, hops: int) -> int:
    """Raw dispatch: ``call_in`` chains, including zero-delay storms."""
    sim = Simulator()

    def ping(delay: float, left: int) -> None:
        if left:
            sim.call_in(delay, ping, delay, left - 1)

    for index in range(chains):
        # Every 5th chain is a zero-delay storm.
        sim.call_in(0.0, ping, 0.0001 * (index % 5), hops)
    sim.run()
    return sim.events_scheduled


#: name -> the smoke-sized program behind each floor.  The terasort program
#: runs multi-wave at 64 tasks per node so a best-of-3 wall is well above
#: preemption noise; the floors were measured at exactly these sizes.
KERNELS: Dict[str, Callable[[], int]] = {
    "kernel_terasort": lambda: _terasort_kernel_run(
        num_nodes=4, tasks_per_node=64, waves=2),
    "kernel_fairshare": lambda: _fairshare_churn_run(jobs=256, waves=2),
    "kernel_storm": lambda: _storm_run(chains=100, hops=200),
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


def test_storm_run_counts_events():
    # One start and one entry per hop for each chain.
    assert _storm_run(chains=10, hops=5) == 10 * (1 + 5)


#: Queue entries of each program at gate size.  Counts do not depend on
#: the host, so a change that adds or drops an entry per task, wake-up or
#: hop fails here on any machine, next to the wall-clock floors above.
EVENTS_AT_GATE_SIZE = {
    "kernel_terasort": 15_154,
    "kernel_fairshare": 1_808,
    "kernel_storm": 20_100,
}


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_program_event_counts_are_pinned(name):
    assert KERNELS[name]() == EVENTS_AT_GATE_SIZE[name]


def test_timed_returns_best_of_n():
    calls = []

    def fake():
        calls.append(1)
        return 42

    events, wall = _timed(fake, repeats=3)
    assert events == 42
    assert len(calls) == 3
    assert wall >= 0.0
