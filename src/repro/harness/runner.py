"""Building clusters/contexts and running workloads under any policy.

The policy *spec* vocabulary used throughout the harness and benchmarks:

* ``"default"``            -- stock Spark (all virtual cores)
* ``("fixed", n)``         -- every stage at ``n`` threads
* ``("static", n)``        -- the static solution: I/O-marked stages at ``n``
* ``("bestfit", sizes)``   -- per-stage-ordinal thread counts (static BestFit)
* ``"dynamic"``            -- the self-adaptive executor
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.adaptive import AdaptivePolicy, BestFitPolicy, StaticIOPolicy
from repro.cluster import Cluster, ClusterSpec, NodeSpec
from repro.engine.conf import SparkConf
from repro.engine.context import SparkContext
from repro.engine.policy import DefaultPolicy, ExecutorPolicy, FixedPolicy
from repro.observability.metrics import collect_run_metrics
from repro.observability.tracer import Tracer
from repro.storage.device import HDD_PROFILE, SSD_PROFILE, DeviceProfile
from repro.workloads import Workload, WorkloadRun, get_workload

PolicySpec = Union[str, Tuple[str, Any], Callable[..., ExecutorPolicy]]

DEVICE_PROFILES: Dict[str, DeviceProfile] = {
    "hdd": HDD_PROFILE,
    "ssd": SSD_PROFILE,
}


def make_policy_factory(spec: PolicySpec) -> Callable:
    """Turn a policy spec into a per-executor policy factory."""
    if callable(spec):
        return lambda executor: spec()
    if spec == "default":
        return lambda executor: DefaultPolicy()
    if spec == "dynamic":
        return lambda executor: AdaptivePolicy()
    if isinstance(spec, tuple) and len(spec) == 2:
        kind, arg = spec
        if kind == "fixed":
            return lambda executor: FixedPolicy(int(arg))
        if kind == "static":
            return lambda executor: StaticIOPolicy(int(arg))
        if kind == "bestfit":
            sizes = dict(arg)
            return lambda executor: BestFitPolicy(sizes)
        if kind == "dynamic":
            kwargs = dict(arg)
            return lambda executor: AdaptivePolicy(**kwargs)
    raise ValueError(f"unknown policy spec: {spec!r}")


def build_cluster(
    num_nodes: int = 4,
    device: Union[str, DeviceProfile] = "hdd",
    disk_sigma: float = 0.0,
    cpu_sigma: float = 0.0,
    seed: int = 42,
    cores: int = 32,
) -> Cluster:
    """A DAS-5-shaped cluster (paper section 6.1 defaults); ``device`` is a
    :data:`DEVICE_PROFILES` name or a profile itself."""
    profile = (device if isinstance(device, DeviceProfile)
               else DEVICE_PROFILES.get(device))
    if profile is None:
        raise ValueError(
            f"unknown device {device!r}; expected one of {sorted(DEVICE_PROFILES)}"
        )
    spec = ClusterSpec(
        num_nodes=num_nodes,
        node=NodeSpec(cores=cores, disk_profile=profile),
        disk_sigma=disk_sigma,
        cpu_sigma=cpu_sigma,
        seed=seed,
    )
    return Cluster(spec)


def build_context(
    policy: PolicySpec = "default",
    cluster: Optional[Cluster] = None,
    conf_overrides: Optional[Dict[str, Any]] = None,
    tracer: Optional[Tracer] = None,
    fault_plan=None,
    invariants=None,
    **cluster_kwargs: Any,
) -> SparkContext:
    if cluster is None:
        cluster = build_cluster(**cluster_kwargs)
    elif cluster_kwargs:
        raise ValueError("pass either a cluster or cluster kwargs, not both")
    conf = SparkConf(conf_overrides or {})
    return SparkContext(
        cluster=cluster,
        conf=conf,
        policy_factory=make_policy_factory(policy),
        tracer=tracer,
        fault_plan=fault_plan,
        invariants=invariants,
    )


def run_workload(
    workload: Union[str, Workload],
    policy: PolicySpec = "default",
    conf_overrides: Optional[Dict[str, Any]] = None,
    workload_kwargs: Optional[Dict[str, Any]] = None,
    tracer: Optional[Tracer] = None,
    fault_plan=None,
    invariants=None,
    **cluster_kwargs: Any,
) -> WorkloadRun:
    """One fresh context, one workload run.

    A ``tracer`` (if given) is wired through the whole stack; the caller
    keeps ownership and decides when to :meth:`~Tracer.close` it.  A
    ``fault_plan`` (:class:`repro.faults.FaultPlan`) turns the run into a
    chaos experiment; see FAULTS.md.  An ``invariants`` monitor
    (:class:`repro.validation.InvariantMonitor`) checks engine invariants
    continuously; call its :meth:`finish` after the run for the report.
    """
    if isinstance(workload, str):
        workload = get_workload(workload, **(workload_kwargs or {}))
    elif workload_kwargs:
        raise ValueError("workload_kwargs only apply when passing a name")
    ctx = build_context(policy=policy, conf_overrides=conf_overrides,
                        tracer=tracer, fault_plan=fault_plan,
                        invariants=invariants, **cluster_kwargs)
    return workload.run(ctx)


def finish_trace(run: WorkloadRun) -> None:
    """Append the metrics snapshot to a traced run's log and close it."""
    tracer = run.ctx.tracer
    if not tracer.enabled:
        return
    tracer.instant("app", "metrics",
                   snapshot=collect_run_metrics(run.ctx))
    tracer.close()


def run_profiler(run: WorkloadRun):
    """The demand-profiler sink attached to a run's tracer, if any.

    Call after :func:`finish_trace` -- the sink's outputs are written on
    tracer close.  Returns the
    :class:`~repro.observability.profiler.ProfilerSink` or ``None``.
    """
    for sink in run.ctx.tracer.sinks:
        if getattr(sink, "is_profiler", False):
            return sink
    return None


def static_sweep(
    workload: Union[str, Workload],
    thread_counts=(32, 16, 8, 4, 2),
    workload_kwargs: Optional[Dict[str, Any]] = None,
    conf_overrides: Optional[Dict[str, Any]] = None,
    tracer_factory: Optional[Callable[[int], Optional[Tracer]]] = None,
    parallel: int = 1,
    events_path_factory: Optional[Callable[[int], str]] = None,
    trace_path_factory: Optional[Callable[[int], str]] = None,
    profile_path_factory: Optional[Callable[[int], str]] = None,
    profile_interval: float = 1.0,
    **cluster_kwargs: Any,
) -> Dict[int, Any]:
    """The paper's Fig. 2/4/10 protocol: the static solution at each count.

    The run at the highest count doubles as the paper's "Default Spark"
    baseline, since the static solution at all cores is the default.
    ``tracer_factory(threads)`` may supply a fresh tracer per run; each one
    is finalised (metrics event + close) before the next run starts.

    With ``parallel > 1`` the (independent, seeded) points run in forked
    children (:func:`repro.harness.parallel.map_runs`) and the mapping's
    values are picklable :class:`~repro.harness.parallel.RunSummary`
    objects instead of live :class:`~repro.workloads.WorkloadRun`\\ s --
    same runtimes, same stage records, no simulator.  Event/trace outputs
    then come from ``events_path_factory(threads)`` /
    ``trace_path_factory(threads)`` (in-process ``tracer_factory`` objects
    cannot cross the process boundary).
    """
    if parallel > 1:
        from repro.harness.parallel import RunConfig, map_runs

        if tracer_factory is not None:
            raise ValueError(
                "tracer_factory requires sequential execution; use "
                "events_path_factory/trace_path_factory with parallel sweeps"
            )
        if not isinstance(workload, str):
            raise ValueError("parallel sweeps require a workload name")
        fault_plan = cluster_kwargs.pop("fault_plan", None)
        configs = [
            RunConfig(
                workload=workload,
                policy=("static", threads),
                key=threads,
                workload_kwargs=workload_kwargs or {},
                conf_overrides=conf_overrides or {},
                cluster_kwargs=cluster_kwargs,
                fault_plan_doc=fault_plan.to_dict() if fault_plan else None,
                events_path=(
                    events_path_factory(threads) if events_path_factory else None
                ),
                trace_path=(
                    trace_path_factory(threads) if trace_path_factory else None
                ),
                profile_path=(
                    profile_path_factory(threads)
                    if profile_path_factory else None
                ),
                profile_interval=profile_interval,
            )
            for threads in thread_counts
        ]
        return {summary.key: summary
                for summary in map_runs(configs, parallel)}

    runs: Dict[int, WorkloadRun] = {}
    for threads in thread_counts:
        tracer = tracer_factory(threads) if tracer_factory else None
        runs[threads] = run_workload(
            workload,
            policy=("static", threads),
            conf_overrides=conf_overrides,
            workload_kwargs=workload_kwargs,
            tracer=tracer,
            **cluster_kwargs,
        )
        if tracer is not None:
            finish_trace(runs[threads])
    return runs


def derive_bestfit(sweep: Dict[int, Any],
                   default_threads: int = 32) -> Dict[int, int]:
    """Per-stage best thread counts from a static sweep (paper's BestFit).

    ``sweep`` values may be live :class:`~repro.workloads.WorkloadRun`\\ s or
    the picklable summaries a parallel sweep returns; only ``stages`` and
    per-stage durations are read.

    Only I/O-marked stages are tunable by the static solution; every other
    stage keeps the default (that restriction is exactly why static BestFit
    loses to the dynamic solution on PageRank).
    """
    reference = next(iter(sweep.values()))
    sizes: Dict[int, int] = {}
    for ordinal, stage in enumerate(reference.stages):
        if not stage.is_io_marked:
            sizes[ordinal] = default_threads
            continue
        best_threads = default_threads
        best_duration = float("inf")
        # Deterministic tie-break: iterate in thread order and prefer the
        # smaller pool on equal duration, instead of whichever entry the
        # caller happened to insert into ``sweep`` first.
        for threads, run in sorted(sweep.items()):
            duration = run.stages[ordinal].duration
            if duration < best_duration or (
                duration == best_duration and threads < best_threads
            ):
                best_duration = duration
                best_threads = threads
        sizes[ordinal] = best_threads
    return sizes
