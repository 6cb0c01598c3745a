"""Seeded, deterministic fault injection for the simulated cluster.

``repro.faults`` turns the simulator into a chaos-testing harness: a
:class:`FaultPlan` declares *what goes wrong and when* (task crashes,
executor/node loss, disk-degradation episodes, stragglers), and the
:class:`FaultInjector` replays it against a :class:`~repro.engine.context.
SparkContext`.  Recovery -- retries, lineage recomputation, replica
failover, speculative execution -- lives in the engine; FAULTS.md documents
the full failure model.

Plans may also carry a *cluster-scope* section (``repro.faults/2``):
node churn, executor-slot flaps, per-tenant poison jobs, and demand
surges, interpreted by the multi-tenant service layer
(:mod:`repro.cluster.scheduler` / ``repro serve``) together with the
overload-protection policy in :class:`ProtectionConfig`.  The engine-side
injector ignores that section entirely.

Everything is deterministic: the same seed and plan produce bit-identical
timelines, and a context built *without* a plan is untouched (no extra
events, no extra trace output).
"""

from repro.faults.injector import FaultInjector, hash01
from repro.faults.plan import (
    CANNED_PLANS,
    PLAN_SCHEMA,
    PLAN_SCHEMA_V2,
    ClusterFaults,
    DemandSurge,
    DiskDegrade,
    ExecutorLoss,
    FaultPlan,
    FaultPlanError,
    NodeChurn,
    NodeLoss,
    ProtectionConfig,
    SlotFlap,
    SpeculationConfig,
    Straggler,
    TaskCrash,
    TaskCrashRate,
    TenantPoison,
)

__all__ = [
    "CANNED_PLANS",
    "PLAN_SCHEMA",
    "PLAN_SCHEMA_V2",
    "ClusterFaults",
    "DemandSurge",
    "DiskDegrade",
    "ExecutorLoss",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "NodeChurn",
    "NodeLoss",
    "ProtectionConfig",
    "SlotFlap",
    "SpeculationConfig",
    "Straggler",
    "TaskCrash",
    "TaskCrashRate",
    "TenantPoison",
    "hash01",
]
