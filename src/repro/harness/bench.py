"""Performance microbenchmarks: the engine behind ``repro bench``.

Three layers, matching where runtime actually goes:

* **Kernel** -- pure event-loop + fair-share throughput, measured in
  *events per wall-clock second* on (a) a terasort-shaped resource churn
  (many concurrent streams on per-node disks and CPUs, control-plane
  messages over a :class:`~repro.simulation.resources.LatencyChannel`) and
  (b) a raw timeout/process storm.
* **End-to-end** -- wall time of a full scaled-down workload run
  (terasort, pagerank) through every engine layer.
* **Sweep** -- throughput of the multi-run experiment harness, sequential
  vs ``--parallel``.

Every benchmark reports an ``events_per_sec`` (or ``runs_per_min``) figure
of merit -- *higher is better* -- which is what
:func:`check_regression` compares against a committed baseline, so CI can
fail a PR that slows the simulator down.  Wall-clock numbers come from
``time.perf_counter`` and use best-of-N to shave scheduler noise.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.simulation.core import Simulator
from repro.simulation.resources import CpuResource, LatencyChannel
from repro.storage.device import HDD_PROFILE, MiB, StorageDevice

BENCH_SCHEMA = "repro.bench/1"

#: Regression gate used by ``repro bench --check`` and CI.
DEFAULT_TOLERANCE = 0.25


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


def _rate_result(events: int, wall: float, **extra: Any) -> Dict[str, Any]:
    return {
        "events": events,
        "wall_s": wall,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        **extra,
    }


# -- kernel layer ----------------------------------------------------------


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


def bench_kernel_terasort(smoke: bool = False) -> Dict[str, Any]:
    """The headline microbenchmark: kernel events/sec, terasort-shaped."""
    # Smoke mode still runs multi-wave programs with best-of-3 walls: a
    # sub-20ms single measurement is a preemption lottery, and the CI gate
    # needs the figure of merit stable to well under the check tolerance.
    # 256 tasks per node matches the top of the repo's thread ladder
    # (cores=256 sweeps), where fair-share queues are deepest.
    tasks_per_node = 64 if smoke else 256
    waves = 2
    events, wall = _timed(
        lambda: _terasort_kernel_run(num_nodes=4,
                                     tasks_per_node=tasks_per_node,
                                     waves=waves),
        repeats=3,
    )
    return _rate_result(events, wall, nodes=4, tasks_per_node=tasks_per_node,
                        waves=waves)


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


def bench_kernel_fairshare(smoke: bool = False) -> Dict[str, Any]:
    """Fair-share kernel throughput on deep, churning queues."""
    jobs = 256 if smoke else 1024
    waves = 2 if smoke else 3
    events, wall = _timed(
        lambda: _fairshare_churn_run(jobs=jobs, waves=waves),
        repeats=3,
    )
    return _rate_result(events, wall, jobs=jobs, waves=waves)


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


def bench_kernel_storm(smoke: bool = False) -> Dict[str, Any]:
    hops = 200 if smoke else 400
    events, wall = _timed(
        lambda: _storm_run(processes=100, hops=hops),
        repeats=3,
    )
    return _rate_result(events, wall, processes=100, hops=hops)


# -- end-to-end layer ------------------------------------------------------


def bench_end_to_end(workload: str, smoke: bool = False) -> Dict[str, Any]:
    """Full engine stack: one scaled-down run, wall time + events/sec."""
    from repro.harness.runner import run_workload

    scale = 0.02 if smoke else 0.05
    holder: Dict[str, Any] = {}

    def one_run() -> int:
        run = run_workload(workload, policy="default",
                           workload_kwargs={"scale": scale})
        holder["sim_runtime_s"] = run.runtime
        return run.ctx.sim.events_scheduled

    events, wall = _timed(one_run, repeats=2 if smoke else 3)
    return _rate_result(events, wall, scale=scale,
                        sim_runtime_s=holder["sim_runtime_s"])


def bench_profiler_overhead(smoke: bool = False) -> Dict[str, Any]:
    """Demand-profiling tax: profiled vs plain wall time, e2e terasort.

    A profiled run attaches a
    :class:`~repro.observability.profiler.ProfilerSink` (which flips
    ``ctx.profiling`` on: tracer events, monitoring probe, registry
    histograms) and pays the full observability cost; the baseline runs
    untraced.  ``overhead_frac`` is the fractional wall-time increase --
    the number OBSERVABILITY.md quotes and the bench assert that keeps
    profiling cheap.  Not a regression-gated figure of merit (absolute
    walls are too host-dependent); the document records it for trending.
    """
    from repro.harness.runner import finish_trace, run_workload
    from repro.observability.profiler import ProfilerSink
    from repro.observability.tracer import Tracer

    scale = 0.02 if smoke else 0.05
    repeats = 2 if smoke else 3

    def baseline() -> int:
        run = run_workload("terasort", policy="default",
                           workload_kwargs={"scale": scale})
        return run.ctx.sim.events_scheduled

    def profiled() -> int:
        tracer = Tracer(sinks=[ProfilerSink()])
        run = run_workload("terasort", policy="default",
                           workload_kwargs={"scale": scale}, tracer=tracer)
        finish_trace(run)
        return run.ctx.sim.events_scheduled

    base_events, base_wall = _timed(baseline, repeats)
    prof_events, prof_wall = _timed(profiled, repeats)
    return {
        "events": prof_events,
        "baseline_events": base_events,
        "wall_s": prof_wall,
        "baseline_wall_s": base_wall,
        "overhead_frac": (
            prof_wall / base_wall - 1.0 if base_wall > 0 else 0.0
        ),
        "scale": scale,
        "events_per_sec": None,  # not gated: walls are host-dependent
        "runs_per_min": None,
    }


# -- sweep layer -----------------------------------------------------------


def bench_sweep(parallel: int = 0, smoke: bool = False) -> Dict[str, Any]:
    """Experiment-harness throughput: an 8-point sweep, seq vs parallel.

    ``cores=256`` widens the thread ladder to 8 points (256..2) so the
    sweep is big enough to amortise worker startup; the tiny scale keeps
    each point short.  Reports ``runs_per_min`` for the parallel
    configuration as the regression figure of merit, plus the observed
    speedup over the sequential pass.
    """
    from repro.harness.parallel import resolve_parallel
    from repro.harness.runner import static_sweep

    workers = resolve_parallel(parallel)
    scale = 0.01 if smoke else 0.02
    kwargs = dict(workload_kwargs={"scale": scale}, cores=256)
    thread_counts = (256, 128, 64, 32, 16, 8, 4, 2)

    start = time.perf_counter()
    static_sweep("terasort", thread_counts=thread_counts, **kwargs)
    sequential_wall = time.perf_counter() - start

    start = time.perf_counter()
    static_sweep("terasort", thread_counts=thread_counts, parallel=workers,
                 **kwargs)
    parallel_wall = time.perf_counter() - start

    points = len(thread_counts)
    return {
        "points": points,
        "scale": scale,
        "workers": workers,
        "sequential_wall_s": sequential_wall,
        "parallel_wall_s": parallel_wall,
        "speedup": sequential_wall / parallel_wall if parallel_wall > 0 else 0.0,
        "events_per_sec": None,  # not a kernel metric; gate on runs_per_min
        "runs_per_min": 60.0 * points / parallel_wall if parallel_wall > 0 else 0.0,
    }


def bench_fork_sweep(smoke: bool = False) -> Dict[str, Any]:
    """Copy-on-write fork engine vs sequential re-simulation.

    A warm-up-heavy what-if fan-out: one terasort run simulated to ~85% of
    its runtime, then forked into an 8-member reseed ensemble (each child
    explores an independently decorrelated stochastic future -- equal
    remaining work per child, so the measurement isolates warm-up
    sharing).  The sequential pass re-simulates the warm-up prefix once
    per alternative (8 full runs); the forked pass simulates it once and
    continues each future in a copy-on-write child -- so even on a
    single-core host the speedup approaches ``n / (f + n*(1-f))`` for
    warm-up fraction ``f``.  Results are byte-identical either way (the
    golden-log tests enforce it); this benchmark gates only the
    throughput win, via ``runs_per_min`` of the forked configuration.
    """
    from repro.harness.fork import Alternative, fork_available, run_whatif
    from repro.harness.runner import run_workload

    scale = 0.01 if smoke else 0.02
    kwargs = dict(workload_kwargs={"scale": scale})
    alternatives = [
        Alternative(key=f"reseed={index}", kind="reseed", value=str(index))
        for index in range(8)
    ]
    # Calibrate the barrier off one untimed run: ~85% of the simulated
    # runtime, i.e. the sweep's shareable warm-up prefix.
    runtime = run_workload("terasort", **kwargs).runtime
    at = 0.85 * runtime

    start = time.perf_counter()
    run_whatif("terasort", at=at, alternatives=alternatives,
               use_fork=False, **kwargs)
    sequential_wall = time.perf_counter() - start

    forked_wall = None
    if fork_available():
        start = time.perf_counter()
        run_whatif("terasort", at=at, alternatives=alternatives,
                   use_fork=True, **kwargs)
        forked_wall = time.perf_counter() - start

    points = len(alternatives)
    return {
        "points": points,
        "scale": scale,
        "fork_at_s": at,
        "fork_available": forked_wall is not None,
        "sequential_wall_s": sequential_wall,
        "forked_wall_s": forked_wall,
        "speedup": (
            sequential_wall / forked_wall if forked_wall else 0.0
        ),
        "events_per_sec": None,  # harness metric; gate on runs_per_min
        "runs_per_min": (
            60.0 * points / forked_wall if forked_wall else None
        ),
    }


def bench_serve_chaos(smoke: bool = False) -> Dict[str, Any]:
    """Service-loop throughput, chaos machinery off vs on.

    Drives :class:`~repro.cluster.scheduler.ClusterScheduler` directly on
    synthetic jobs (no inner engine runs), so the measurement isolates the
    outer event loop.  The chaos-off pass is the regression figure of
    merit (``events_per_sec`` = jobs scheduled per wall second): the
    chaos-free fast path must not pay for the fault machinery.  A second
    chaos-off pass at a quarter of the jobs gives ``scaling_ratio``, the
    full pass's ``us_per_job`` over the quarter pass's: about 1 while the
    cost per scheduling decision stays flat as the queue grows.  The
    chaos-on pass (node churn + retries + breaker-armed protection over
    the same job stream) is reported as ``chaos_wall_s`` /
    ``overhead_frac`` for tracking, not gating -- chaos work is real work.
    """
    from repro.cluster.scheduler import ClusterScheduler, ServiceJob
    from repro.faults.plan import ClusterFaults, NodeChurn, ProtectionConfig

    jobs = 2_000 if smoke else 10_000
    slots = 16
    repeats = 1 if smoke else 3

    def job_stream(count: int = jobs) -> list:
        return [
            ServiceJob(
                job_id=f"j{index:05d}",
                tenant=f"t{index % 4}",
                workload="synthetic",
                arrival=index * 0.5,
                slots=1 + index % 3,
                runtime=20.0 + (index * 7) % 40,
            )
            for index in range(count)
        ]

    def run_plain(count: int = jobs) -> int:
        result = ClusterScheduler(slots, "fair").run(job_stream(count))
        return result.completed

    quarter = jobs // 4
    run_plain(quarter)  # warm-up: first-call imports would skew the ratio
    events, wall = _timed(run_plain, repeats=repeats)
    _quarter_events, quarter_wall = _timed(lambda: run_plain(quarter),
                                           repeats=repeats)
    us_per_job = 1e6 * wall / jobs
    quarter_us_per_job = 1e6 * quarter_wall / quarter

    churn = tuple(
        NodeChurn(node_id=node, down_at=500.0 + 400.0 * node, duration=300.0)
        for node in range(4)
    )
    chaos = ClusterFaults(
        node_churn=churn,
        protection=ProtectionConfig(max_retries=3, breaker_failures=5,
                                    max_queue=jobs),
    )

    def run_chaos() -> int:
        result = ClusterScheduler(slots, "fair", chaos=chaos,
                                  chaos_seed=42).run(job_stream())
        return result.completed + result.rejected + result.aborted

    _chaos_events, chaos_wall = _timed(run_chaos, repeats=repeats)

    result = _rate_result(events, wall)
    result.update({
        "jobs": jobs,
        "slots": slots,
        "us_per_job": us_per_job,
        "scaling_ratio": (us_per_job / quarter_us_per_job
                          if quarter_us_per_job > 0 else 0.0),
        "chaos_wall_s": chaos_wall,
        "overhead_frac": (chaos_wall - wall) / wall if wall > 0 else 0.0,
    })
    return result


# -- suite -----------------------------------------------------------------

#: Registry behind ``repro bench``: name -> ``fn(smoke, parallel)``.
#: ``repro bench --check`` retries *individual* failing benchmarks through
#: :func:`run_suite`'s ``only`` filter, so entries must be independently
#: runnable in any order.
BENCHMARKS: Dict[str, Callable[[bool, int], Dict[str, Any]]] = {
    "kernel_terasort": lambda smoke, parallel: bench_kernel_terasort(smoke=smoke),
    "kernel_fairshare": lambda smoke, parallel: bench_kernel_fairshare(
        smoke=smoke),
    "kernel_storm": lambda smoke, parallel: bench_kernel_storm(smoke=smoke),
    "e2e_terasort": lambda smoke, parallel: bench_end_to_end(
        "terasort", smoke=smoke),
    "e2e_pagerank": lambda smoke, parallel: bench_end_to_end(
        "pagerank", smoke=smoke),
    "profiler_overhead": lambda smoke, parallel: bench_profiler_overhead(
        smoke=smoke),
    "sweep": lambda smoke, parallel: bench_sweep(
        parallel=parallel, smoke=smoke),
    "fork_sweep": lambda smoke, parallel: bench_fork_sweep(smoke=smoke),
    "serve_chaos": lambda smoke, parallel: bench_serve_chaos(smoke=smoke),
}


def run_suite(smoke: bool = False, parallel: int = 0,
              only: Optional[List[str]] = None) -> Dict[str, Any]:
    """Run benchmarks and assemble the ``BENCH_kernel.json`` document.

    ``only`` restricts the run to the named benchmarks (registry order is
    preserved); the default runs the full suite.
    """
    if only is not None:
        unknown = sorted(set(only) - set(BENCHMARKS))
        if unknown:
            raise ValueError(
                f"unknown benchmark(s) {unknown}; "
                f"expected a subset of {sorted(BENCHMARKS)}"
            )
    selected = [name for name in BENCHMARKS
                if only is None or name in set(only)]
    benchmarks = {name: BENCHMARKS[name](smoke, parallel) for name in selected}
    return {
        "schema": BENCH_SCHEMA,
        "mode": "smoke" if smoke else "full",
        "host": {
            "cpus": os.cpu_count(),
            "python": sys.version.split()[0],
            "platform": sys.platform,
        },
        "benchmarks": benchmarks,
    }


def _figures_of_merit(doc: Dict[str, Any]) -> Dict[str, float]:
    """name -> higher-is-better metric, for regression comparison."""
    merits: Dict[str, float] = {}
    for name, result in doc.get("benchmarks", {}).items():
        if result.get("events_per_sec"):
            merits[name] = result["events_per_sec"]
        elif result.get("runs_per_min"):
            merits[name] = result["runs_per_min"]
    return merits


def check_regression(current: Dict[str, Any], baseline: Dict[str, Any],
                     tolerance: float = DEFAULT_TOLERANCE) -> List[str]:
    """Compare two bench documents; returns human-readable failures.

    A benchmark regresses when its figure of merit drops more than
    ``tolerance`` (fractional) below the baseline's.  Benchmarks present in
    only one document are ignored -- adding a benchmark must not fail the
    gate retroactively.
    """
    failures: List[str] = []
    current_merits = _figures_of_merit(current)
    for name, base_value in _figures_of_merit(baseline).items():
        value = current_merits.get(name)
        if value is None or base_value <= 0:
            continue
        drop = 1.0 - value / base_value
        if drop > tolerance:
            failures.append(
                f"{name}: {value:,.0f} is {drop:.0%} below baseline "
                f"{base_value:,.0f} (tolerance {tolerance:.0%})"
            )
    return failures
