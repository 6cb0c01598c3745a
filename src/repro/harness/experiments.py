"""One function per table/figure of the paper's evaluation.

Each function gets its engine runs from :func:`run_configs` and returns a
plain data structure; ``benchmarks/`` renders and checks them, and
EXPERIMENTS.md records paper-vs-measured values.  ``scale`` shrinks inputs
proportionally for quick runs (ratios are scale-invariant by construction).
A run that several exhibits share is simulated once: Figs. 5 and 8 reuse
Fig. 2's sweep, Fig. 6's dynamic Terasort is Fig. 8's, and Fig. 7's fixed
runs are Fig. 12's HDD half.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence

from repro.engine.conf import SparkConf
from repro.harness.journal import config_fingerprint
from repro.harness.parallel import (
    RunConfig,
    RunSummary,
    map_runs,
    resolve_parallel,
)
from repro.harness.runner import build_cluster, derive_bestfit
from repro.monitoring import (
    stage_cpu_usage,
    stage_disk_utilization,
    stage_io_wait,
)
from repro.monitoring.iostat import throughput_timeseries
from repro.workloads.base import GiB
from repro.workloads.catalog import TABLE2_WORKLOADS, get_workload

THREAD_COUNTS = (32, 16, 8, 4, 2)
DEFAULT_THREADS = 32

#: Fingerprint (``key`` cleared) -> summary of every run this process made.
_RUNS: Dict[str, RunSummary] = {}
#: How many runs the exhibits asked for, and how many were simulated.
RUN_COUNTS = {"requested": 0, "simulated": 0}


def run_configs(configs: Sequence[RunConfig]) -> List[RunSummary]:
    """Summaries for ``configs``, in order: the one run path of the exhibits.

    A run already made in this process (same fingerprint with ``key``
    cleared, so callers pair results with configs by position) comes from
    memory; the rest go to :func:`map_runs` on every CPU.  Runs are seeded
    and self-contained, so results do not depend on either.  Exhibits share
    the returned summaries and must not change them.
    """
    fingerprints = [config_fingerprint(dataclasses.replace(config, key=None))
                    for config in configs]
    missing: Dict[str, RunConfig] = {}
    for fingerprint, config in zip(fingerprints, configs):
        if fingerprint not in _RUNS:
            missing.setdefault(fingerprint, config)
    if missing:
        summaries = map_runs(list(missing.values()), resolve_parallel(0))
        _RUNS.update(zip(missing, summaries))
    RUN_COUNTS["requested"] += len(configs)
    RUN_COUNTS["simulated"] += len(missing)
    return [_RUNS[fingerprint] for fingerprint in fingerprints]


def _config(workload: str, policy, scale: float, device: str = "hdd",
            num_nodes: int = 4) -> RunConfig:
    """The config of one exhibit run; one spelling per run, so exhibits
    that share a run share its fingerprint."""
    return RunConfig(workload=workload, policy=policy,
                     workload_kwargs={"scale": scale},
                     cluster_kwargs={"device": device,
                                     "num_nodes": num_nodes})


def _sweep(workload: str, scale: float, device: str = "hdd",
           num_nodes: int = 4) -> dict:
    """The static solution at each thread count.  The run at the highest
    count doubles as "Default Spark": the static solution at all cores."""
    return dict(zip(THREAD_COUNTS, run_configs([
        _config(workload, ("static", threads), scale, device, num_nodes)
        for threads in THREAD_COUNTS
    ])))


def _static_protocol(workload: str, scale: float, device: str = "hdd",
                     num_nodes: int = 4):
    """The sweep, then BestFit derived from it:
    ``(sweep, bestfit_sizes, bestfit_run)``."""
    sweep = _sweep(workload, scale, device, num_nodes)
    bestfit_sizes = derive_bestfit(sweep, DEFAULT_THREADS)
    [bestfit] = run_configs([_config(workload, ("bestfit", bestfit_sizes),
                                     scale, device, num_nodes)])
    return sweep, bestfit_sizes, bestfit


def _summary(run) -> dict:
    """What a figure reports of one run."""
    return {
        "total": run.runtime,
        "stages": run.stage_durations(),
        "threads_per_stage": [s.total_threads_used() for s in run.stages],
    }


def table1_parameters() -> Dict[str, int]:
    """Table 1: functional Spark parameters per category."""
    return SparkConf.category_counts()


def table2_io_activity(scale: float = 0.05) -> List[dict]:
    """Table 2: cluster I/O activity relative to input size, 9 workloads.

    Amplification ratios are scale-invariant, so the default runs each
    workload on 5% of the paper's input size.
    """
    runs = run_configs([_config(name, "default", scale)
                        for name in TABLE2_WORKLOADS])
    rows = []
    for name, run in zip(TABLE2_WORKLOADS, runs):
        workload = get_workload(name, scale=scale)
        measured = run.cluster_io_bytes
        input_bytes = workload.scaled_input_size
        rows.append(
            {
                "application": name,
                "input_gib": input_bytes / GiB,
                "io_activity_gib": measured / GiB,
                "measured_amplification": measured / input_bytes,
                "paper_amplification": workload.paper_amplification,
            }
        )
    return rows


def fig1_cpu_iowait(scale: float = 1.0) -> Dict[str, List[dict]]:
    """Fig. 1: per-stage CPU usage and I/O wait under default Spark."""
    names = ("aggregation", "join", "pagerank", "terasort")
    runs = run_configs([_config(name, "default", scale) for name in names])
    results: Dict[str, List[dict]] = {}
    for name, run in zip(names, runs):
        recorder = run.ctx.recorder
        results[name] = [
            {
                "stage": ordinal,
                "duration": stage.duration,
                "cpu_usage": stage_cpu_usage(recorder, stage.stage_id),
                "io_wait": stage_io_wait(recorder, stage.stage_id),
            }
            for ordinal, stage in enumerate(run.stages)
        ]
    return results


def fig2_static_sweep(workload: str, scale: float = 1.0,
                      device: str = "hdd") -> dict:
    """Figs. 2/4/10: the static solution at each thread count + BestFit."""
    sweep, bestfit_sizes, bestfit = _static_protocol(workload, scale, device)
    return {
        "workload": workload,
        "device": device,
        "runs": {threads: _summary(run) for threads, run in sweep.items()},
        "bestfit_sizes": bestfit_sizes,
        "bestfit": _summary(bestfit),
    }


def fig3_node_variability(num_nodes: int = 44, gib: float = 30.0,
                          streams: int = 8, disk_sigma: float = 0.10,
                          seed: int = 42) -> List[dict]:
    """Fig. 3: reading/writing 30 GB on nominally identical DAS-5 nodes.

    Mirrors the paper's probe: each node writes then reads 30 GB through its
    local disk with a fixed stream count; the spread comes from the
    log-normal per-node speed factors.
    """
    cluster = build_cluster(num_nodes=num_nodes, disk_sigma=disk_sigma,
                            seed=seed)
    sim = cluster.sim
    results = []
    for node in cluster.nodes:
        times = {}
        for op in ("write", "read"):
            start = sim.now
            per_stream = gib * GiB / streams
            events = [node.disk.request(per_stream, op) for _s in range(streams)]
            sim.all_of(events)
            sim.run()
            times[op] = sim.now - start
        results.append(
            {
                "node": node.name,
                "write_time": times["write"],
                "read_time": times["read"],
                "disk_speed_factor": node.spec.disk_speed_factor,
            }
        )
    return results


def fig5_disk_utilization(scale: float = 1.0) -> List[dict]:
    """Fig. 5: average disk utilisation per thread count in I/O stages,
    over the runs of Figs. 2/4's sweeps."""
    targets = {
        "terasort": (0, 1, 2),
        "pagerank": (0,),
        "aggregation": (0,),
        "join": (0,),
    }
    rows = []
    for workload, stage_ordinals in targets.items():
        sweep = _sweep(workload, scale)
        for ordinal in stage_ordinals:
            utilizations = {}
            for threads, run in sweep.items():
                stage = run.stages[ordinal]
                utilizations[threads] = stage_disk_utilization(
                    run.ctx.recorder, stage.stage_id
                )
            rows.append(
                {
                    "workload": workload,
                    "stage": ordinal,
                    "utilization_by_threads": utilizations,
                    "best_threads": max(utilizations, key=utilizations.get),
                }
            )
    return rows


def fig6_dynamic_decisions(scale: float = 1.0) -> List[dict]:
    """Fig. 6: per-executor thread choice in each Terasort stage."""
    [run] = run_configs([_config("terasort", "dynamic", scale)])
    return [
        {
            "stage": ordinal,
            "per_executor": stage.final_pool_sizes(),
            "total_threads": stage.total_threads_used(),
        }
        for ordinal, stage in enumerate(run.stages)
    ]


def fig7_congestion_index(scale: float = 1.0) -> List[dict]:
    """Fig. 7: steady-state ε, µ, and ζ per thread count, Terasort stages.

    The paper plots the effect of each fixed thread count on one executor's
    sensors; we run the fixed policy at each count and read executor 0.
    """
    counts = tuple(reversed(THREAD_COUNTS))
    runs = run_configs([_config("terasort", ("fixed", threads), scale)
                        for threads in counts])
    return fig7_from_runs(dict(zip(counts, runs)))


def fig7_from_runs(per_thread_runs: dict) -> List[dict]:
    """Fig. 7 analysis over pre-existing fixed-policy Terasort runs."""
    num_stages = len(next(iter(per_thread_runs.values())).stages)
    rows = []
    for ordinal in range(num_stages):
        series = {}
        for threads, run in per_thread_runs.items():
            stage = run.stages[ordinal]
            tasks = [m for m in stage.tasks if m.executor_id == 0]
            epoll = sum(m.io_wait_seconds for m in tasks)
            io_bytes = sum(m.total_io_bytes for m in tasks)
            throughput = io_bytes / stage.duration
            mean_wait = epoll / len(tasks)
            series[threads] = {
                "epoll_wait": epoll,
                "throughput": throughput,
                "congestion": mean_wait / throughput if throughput else 0.0,
            }
        selected = _hill_climb_selection(series)
        rows.append({"stage": ordinal, "series": series, "selected": selected})
    return rows


def _hill_climb_selection(series: dict, tolerance: float = 2.0) -> int:
    """Apply the analyzer's doubling rule to a steady-state ζ series.

    This is what the paper's Fig. 7 "Selected" arrow marks: the thread count
    the dynamic solution lands on -- climb while ζ stays within the
    hysteresis tolerance of the previous interval, roll back one step when
    it blows past it (see :class:`repro.adaptive.mapek.Analyzer`).
    """
    counts = sorted(series)
    current = counts[0]
    for nxt in counts[1:]:
        if series[nxt]["congestion"] > tolerance * series[current]["congestion"]:
            return current
        current = nxt
    return current


def fig8_end_to_end(workload: str, scale: float = 1.0,
                    device: str = "hdd") -> dict:
    """Figs. 8/11: default vs static BestFit vs dynamic."""
    sweep, bestfit_sizes, bestfit_run = _static_protocol(workload, scale,
                                                         device)
    [dynamic_run] = run_configs([_config(workload, "dynamic", scale, device)])
    default_run = sweep[DEFAULT_THREADS]
    default_total = default_run.runtime
    return {
        "workload": workload,
        "device": device,
        "default": _summary(default_run),
        "static_bestfit": _summary(bestfit_run),
        "dynamic": _summary(dynamic_run),
        "bestfit_sizes": bestfit_sizes,
        "reduction_bestfit": 1.0 - bestfit_run.runtime / default_total,
        "reduction_dynamic": 1.0 - dynamic_run.runtime / default_total,
    }


def fig9_scalability(scale: float = 1.0) -> dict:
    """Fig. 9: Terasort on 4 vs 16 nodes with proportionally scaled input.

    The paper's claim: the default does not scale (runtime grows despite a
    constant resources-to-problem ratio), while static BestFit and the
    dynamic solution hold their runtimes.
    """
    results = {}
    for num_nodes in (4, 16):
        node_scale = scale * (num_nodes / 4.0)
        sweep, bestfit_sizes, bestfit_run = _static_protocol(
            "terasort", node_scale, num_nodes=num_nodes)
        [dynamic_run] = run_configs([_config("terasort", "dynamic",
                                             node_scale, num_nodes=num_nodes)])
        results[num_nodes] = {
            "default": sweep[DEFAULT_THREADS].runtime,
            "static_bestfit": bestfit_run.runtime,
            "dynamic": dynamic_run.runtime,
            "bestfit_sizes": bestfit_sizes,
        }
    return results


def fig12_throughput_timeseries(scale: float = 1.0) -> List[dict]:
    """Fig. 12: node-0 disk throughput over time per thread count,
    Terasort stages 0-1, HDD vs SSD."""
    points = [(device, threads) for device in ("hdd", "ssd")
              for threads in THREAD_COUNTS]
    runs = run_configs([_config("terasort", ("fixed", threads), scale, device)
                        for device, threads in points])
    rows = []
    for (device, threads), run in zip(points, runs):
        for ordinal in (0, 1):
            stage = run.stages[ordinal]
            series = throughput_timeseries(
                run.ctx.recorder, stage.stage_id, node_id=0
            )
            values = [v for _t, v in series]
            rows.append(
                {
                    "device": device,
                    "threads": threads,
                    "stage": ordinal,
                    "series": series,
                    "mean_throughput": sum(values) / len(values),
                }
            )
    return rows
