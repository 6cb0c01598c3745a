"""Multi-tenant service runs: arrival plan in, ``repro.service/1`` report out.

This is the glue between the three service layers (SERVICE.md): it expands
an :class:`~repro.workloads.arrivals.ArrivalPlan` into concrete job
submissions, obtains each job's service time from the deterministic inner
engine (the *runtime oracle*), feeds the jobs through
:class:`~repro.cluster.scheduler.ClusterScheduler`, and assembles the
versioned ``repro.service/1`` SLO report that ``repro serve`` prints and
saves.

The oracle exploits that jobs stamped from the same template are identical
replicas: it runs the engine once per *distinct* template (via
:func:`repro.harness.parallel.map_runs`, so ``--parallel`` composes) and
shares the runtime across all replicas -- a thousand-job scenario costs a
handful of engine runs.  When per-job outputs are requested (``--events``
/ ``--trace`` / ``--profile``) every job runs individually instead, with
its ``job_id`` suffixed into the path; a single-job plan writes to the
exact requested path, which is how CI ``cmp``s a single-tenant serve event
log against the equivalent ``repro run`` golden.  Reports contain no
wall-clock timestamps: same plan + same seed -> byte-identical report.

A ``repro.faults/2`` plan splits here: its engine-scope faults go into
every inner oracle run unchanged, while the ``cluster`` section (node
churn, slot flaps, poison jobs, surges, protection policy) drives the
outer :class:`~repro.cluster.scheduler.ClusterScheduler`.  Chaos adds a
``resilience`` section to the report (retries, sheds, SLO violations,
per-tenant availability, MTTR, fault-attributable waste); without chaos
the report layout is byte-identical to the pre-chaos format.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.atomicio import atomic_write_json
from repro.cluster.scheduler import (
    ClusterScheduler,
    ServiceResult,
    jobs_from_arrivals,
)
from repro.faults.plan import ClusterFaults, FaultPlan, ProtectionConfig
from repro.harness.parallel import RunConfig, map_runs, suffix_path
from repro.observability.metrics import tenant_metric
from repro.workloads.arrivals import ArrivalPlan, JobArrival, JobTemplate

#: Wire-format marker of the SLO report; bump on incompatible change.
REPORT_SCHEMA = "repro.service/1"


def _template_key(template: JobTemplate, slots: int) -> Tuple[Any, ...]:
    """Cache key: everything that can change an inner run's timeline."""
    policy = template.policy
    if isinstance(policy, tuple):
        policy = tuple(policy)
    return (
        template.workload,
        template.scale,
        policy,
        tuple(sorted(template.conf.items())),
        template.seed,
        slots,
    )


def _job_run_config(
    arrival: JobArrival,
    key: Any,
    cores: int,
    device: str,
    fault_plan_doc: Optional[Dict[str, Any]],
    events_path: Optional[str] = None,
    trace_path: Optional[str] = None,
    profile_path: Optional[str] = None,
    profile_interval: float = 1.0,
) -> RunConfig:
    """The inner-engine config for one job; mirrors ``repro run`` exactly."""
    template = arrival.template
    cluster_kwargs = dict(
        num_nodes=arrival.slots,
        cores=cores,
        device=device,
        seed=template.seed,
    )
    return RunConfig(
        workload=template.workload,
        policy=template.policy,
        key=key,
        workload_kwargs={"scale": template.scale},
        conf_overrides=dict(template.conf),
        cluster_kwargs=cluster_kwargs,
        fault_plan_doc=fault_plan_doc,
        events_path=events_path,
        trace_path=trace_path,
        profile_path=profile_path,
        profile_interval=profile_interval,
    )


def compute_runtimes(
    arrivals: List[JobArrival],
    cores: int,
    device: str,
    fault_plan_doc: Optional[Dict[str, Any]] = None,
    parallel: int = 1,
    events_path: Optional[str] = None,
    trace_path: Optional[str] = None,
    profile_path: Optional[str] = None,
    profile_interval: float = 1.0,
) -> Tuple[Dict[str, float], int]:
    """Runtime oracle: ``(job_id -> service time, distinct engine runs)``.

    Without per-job outputs, one engine run per distinct template key is
    shared by all its replicas.  With outputs, every job runs individually
    so each gets its own file (suffix dropped when there is only one job).
    """
    per_job_outputs = bool(events_path or trace_path or profile_path)
    runtimes: Dict[str, float] = {}
    if per_job_outputs:
        single = len(arrivals) == 1

        def out(path: Optional[str], job_id: str) -> Optional[str]:
            if path is None:
                return None
            return path if single else suffix_path(path, job_id)

        configs = [
            _job_run_config(
                arrival, arrival.job_id, cores, device, fault_plan_doc,
                events_path=out(events_path, arrival.job_id),
                trace_path=out(trace_path, arrival.job_id),
                profile_path=out(profile_path, arrival.job_id),
                profile_interval=profile_interval,
            )
            for arrival in arrivals
        ]
        for summary in map_runs(configs, parallel):
            runtimes[summary.key] = summary.runtime
        return runtimes, len(configs)

    by_key: Dict[Tuple[Any, ...], JobArrival] = {}
    for arrival in arrivals:
        by_key.setdefault(_template_key(arrival.template, arrival.slots),
                          arrival)
    keys = sorted(by_key, key=repr)
    configs = [
        _job_run_config(by_key[key], index, cores, device, fault_plan_doc)
        for index, key in enumerate(keys)
    ]
    by_index = {
        summary.key: summary.runtime for summary in map_runs(configs, parallel)
    }
    key_runtime = {key: by_index[index] for index, key in enumerate(keys)}
    for arrival in arrivals:
        runtimes[arrival.job_id] = key_runtime[
            _template_key(arrival.template, arrival.slots)
        ]
    return runtimes, len(configs)


@dataclass
class ServiceReport:
    """The assembled SLO report plus the live objects behind it."""

    doc: Dict[str, Any]
    result: ServiceResult

    def to_dict(self) -> Dict[str, Any]:
        return self.doc

    def save(self, path: str) -> None:
        atomic_write_json(path, self.doc, indent=2, sort_keys=True)


def run_service(
    plan: ArrivalPlan,
    total_nodes: int,
    discipline: str = "fifo",
    cores: int = 32,
    device: str = "hdd",
    seed: Optional[int] = None,
    fault_plan_doc: Optional[Dict[str, Any]] = None,
    parallel: int = 1,
    events_path: Optional[str] = None,
    trace_path: Optional[str] = None,
    profile_path: Optional[str] = None,
    profile_interval: float = 1.0,
    monitor: Optional[Any] = None,
    protection: Optional[ProtectionConfig] = None,
) -> ServiceReport:
    """Run one full service scenario and assemble its SLO report.

    ``seed`` (when given) overrides the plan's arrival seed, so one plan
    file can drive many seeded scenarios.  ``fault_plan_doc``'s
    engine-scope faults are injected into *every* inner engine run
    (contention under faults composes); its ``cluster`` section (schema
    ``repro.faults/2``) drives the outer scheduler instead and never
    reaches the oracle, so a cluster-only plan leaves the inner runs --
    and their event logs -- byte-identical to a faultless serve.
    ``protection`` is the guard policy of a run without a cluster
    section (``repro serve --max-queue/--max-wait``); with one, only its
    ``max_queue``/``max_wait`` join the plan's guards, and where both set
    a limit the tighter applies.  ``monitor`` (a
    :class:`~repro.validation.cluster.ClusterInvariantMonitor`) checks
    cluster invariants live without perturbing the schedule.
    """
    if seed is not None and seed != plan.seed:
        plan = replace(plan, seed=seed)

    chaos: Optional[ClusterFaults] = None
    chaos_seed = 0
    engine_plan_doc = fault_plan_doc
    if fault_plan_doc is not None:
        fault_plan = FaultPlan.from_dict(fault_plan_doc)
        if fault_plan.cluster is not None:
            chaos = fault_plan.cluster
            chaos_seed = fault_plan.seed
            engine_plan_doc = fault_plan.engine_dict()

    arrivals = plan.generate()
    if chaos is not None and chaos.surges:
        from repro.cluster.chaos import expand_surges

        arrivals = expand_surges(plan, arrivals, chaos.surges,
                                 seed=chaos_seed)

    runtimes, distinct_runs = compute_runtimes(
        arrivals,
        cores=cores,
        device=device,
        fault_plan_doc=engine_plan_doc,
        parallel=parallel,
        events_path=events_path,
        trace_path=trace_path,
        profile_path=profile_path,
        profile_interval=profile_interval,
    )

    # Graceful degradation needs the oracle to price the shrunken grant
    # too (runtime at fewer slots); dedup keeps this to a few extra runs.
    degraded_runtimes: Optional[Dict[str, Tuple[int, float]]] = None
    if chaos is not None and chaos.protection.degrade_queue is not None:
        factor = chaos.protection.degrade_factor
        shrunk = [
            replace(arrival, slots=max(1, int(arrival.slots * factor)))
            for arrival in arrivals
            if max(1, int(arrival.slots * factor)) < arrival.slots
        ]
        if shrunk:
            extra, extra_runs = compute_runtimes(
                shrunk, cores=cores, device=device,
                fault_plan_doc=engine_plan_doc, parallel=parallel,
            )
            distinct_runs += extra_runs
            degraded_runtimes = {
                arrival.job_id: (arrival.slots, extra[arrival.job_id])
                for arrival in shrunk
            }

    if protection is not None and chaos is not None:
        protection = _tighter(chaos.protection, protection)
        chaos = replace(chaos, protection=protection)
    scheduler = ClusterScheduler(
        total_slots=total_nodes,
        discipline=discipline,
        chaos=chaos,
        chaos_seed=chaos_seed,
        monitor=monitor,
        protection=protection,
    )
    result = scheduler.run(
        jobs_from_arrivals(arrivals, runtimes, degraded_runtimes)
    )
    doc = _build_report(plan, result, cores=cores, device=device,
                        distinct_runs=distinct_runs, chaos=chaos)
    return ServiceReport(doc=doc, result=result)


def _tighter(plan: ProtectionConfig,
             limits: ProtectionConfig) -> ProtectionConfig:
    """``plan`` with each admission limit set in ``limits`` tightened."""
    tightened = {}
    for name in ("max_queue", "max_wait"):
        limit = getattr(limits, name)
        if limit is not None:
            current = getattr(plan, name)
            tightened[name] = (limit if current is None
                               else min(current, limit))
    return replace(plan, **tightened)


def _build_report(
    plan: ArrivalPlan,
    result: ServiceResult,
    cores: int,
    device: str,
    distinct_runs: int,
    chaos: Optional[ClusterFaults] = None,
) -> Dict[str, Any]:
    registry = result.registry
    weights = {tenant.name: tenant.weight for tenant in plan.tenants}
    tenants = []
    for tenant in plan.tenants:
        jobs = [job for job in result.jobs if job.tenant == tenant.name]
        tenants.append({
            "name": tenant.name,
            "weight": tenant.weight,
            "slots_per_job": tenant.slots,
            "submitted": len(jobs),
            "completed": sum(1 for job in jobs if job.end is not None),
            "rejected": sum(1 for job in jobs if job.rejected),
            "slot_seconds": result.slot_seconds.get(tenant.name, 0.0),
            "job_latency": registry.histogram(
                tenant_metric(tenant.name, "job_latency")).summary(),
            "queue_delay": registry.histogram(
                tenant_metric(tenant.name, "queue_delay")).summary(),
        })
    job_rows = []
    for job in result.jobs:
        row = {
            "job_id": job.job_id,
            "tenant": job.tenant,
            "workload": job.workload,
            "slots": job.slots,
            "arrival": job.arrival,
            "start": job.start,
            "end": job.end,
            "runtime": job.runtime,
            "latency": job.latency,
            "queue_delay": job.queue_delay,
            "preemptions": 0,
            "rejected": job.rejected,
        }
        if chaos is not None:
            # Chaos-only keys, so chaos-free reports stay byte-identical.
            row.update({
                "retries": job.retries,
                "aborted": job.aborted,
                "abort_reason": job.abort_reason,
                "shed_reason": job.shed_reason,
                "granted": job.granted,
            })
        job_rows.append(row)
    doc = {
        "schema": REPORT_SCHEMA,
        "seed": plan.seed,
        "scheduler": result.discipline,
        "cluster": {
            "nodes": result.total_slots,
            "cores": cores,
            "device": device,
        },
        "totals": {
            "submitted": result.submitted,
            "completed": result.completed,
            "rejected": result.rejected,
            "preemptions": result.preempted,
            "distinct_engine_runs": distinct_runs,
        },
        "makespan_s": result.makespan,
        "goodput_jobs_per_s": result.goodput,
        "utilization": result.utilization,
        "fairness_index": result.fairness_index(weights),
        "wasted_slot_seconds": result.wasted_slot_seconds,
        "latency": {
            "job_latency": registry.histogram("service.job_latency").summary(),
            "queue_delay": registry.histogram("service.queue_delay").summary(),
        },
        "tenants": tenants,
        "jobs": job_rows,
    }
    if chaos is not None:
        availability = {}
        for tenant in plan.tenants:
            jobs = [job for job in result.jobs if job.tenant == tenant.name]
            done = sum(1 for job in jobs if job.end is not None)
            availability[tenant.name] = done / len(jobs) if jobs else 1.0
        doc["resilience"] = {
            "aborted": result.aborted,
            "retries": result.retried,
            "shed": result.shed,
            "slo_violations": result.slo_violations,
            "availability": availability,
            "mttr": {
                "episodes": result.mttr,
                "summary": registry.histogram("service.mttr").summary(),
            },
            "retry_backoff": registry.histogram(
                "service.retry_backoff").summary(),
            "wasted_fault_slot_seconds": result.wasted_slot_seconds,
            "degraded_grants": result.degraded_grants,
            "node_downtime_s": result.node_downtime,
            "breakers": result.breakers,
            "protection": asdict(chaos.protection),
        }
    return doc


def validate_report(doc: Dict[str, Any]) -> None:
    """Cheap structural check of a ``repro.service/1`` document.

    Checks the schema, the required fields and the fairness range here and
    the cluster invariants through
    :func:`repro.validation.cluster.validate_service_report`; raises
    :class:`ValueError` on the first problem found.
    """
    from repro.validation.cluster import validate_service_report

    if doc.get("schema") != REPORT_SCHEMA:
        raise ValueError(
            f"unsupported schema {doc.get('schema')!r} "
            f"(expected {REPORT_SCHEMA!r})"
        )
    for field in ("seed", "scheduler", "cluster", "totals", "makespan_s",
                  "goodput_jobs_per_s", "utilization", "fairness_index",
                  "latency", "tenants", "jobs"):
        if field not in doc:
            raise ValueError(f"report missing field {field!r}")
    if not 0.0 <= doc["fairness_index"] <= 1.0 + 1e-9:
        raise ValueError(f"fairness index out of range: {doc['fairness_index']}")
    violations = validate_service_report(doc).violations
    if violations:
        raise ValueError(f"{violations[0].invariant}: {violations[0].message}")
